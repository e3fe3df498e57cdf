"""Every top-level definition in src/spdo is reached from a CLI command, or
is named below with the verdict that is meant to reach it; no command loads
scipy, the commands that do no calculus and name only registry symbols or
registry families do not load sympy, the CLI's numpy and sympy imports are
frozen out of the cyclic collector, and every name the benchmark's tracer
wraps exists."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import spdo

PKG = pathlib.Path(spdo.__file__).parent

# unreached on purpose: paper results with an oracle, kept until a verdict
# of an existing command checks them (ROADMAP item 5, "wire")
ALLOWED_UNREACHED = {
    "symbols.Amplitude": "amplitude apply vs reduced symbol, quantize-demo",
    "symbols.amplitude_from_expr": "amplitude apply vs reduced symbol, quantize-demo",
    "quantize.RegularizationWarning": "amplitude apply, quantize-demo",
    "quantize.AmplitudeApplication": "amplitude apply, quantize-demo",
    "quantize._amplitude_sum": "amplitude apply, quantize-demo",
    "quantize.apply_amplitude_op": "amplitude apply, quantize-demo",
    "quantize._swap_amplitude": "adjoint apply, quantize-demo",
    "quantize.apply_adjoint": "adjoint apply vs adjoint_symbol, quantize-demo",
    "calculus.reduce_amplitude": "reduced symbol of the amplitude, quantize-demo",
    "bounds.sobolev_boundedness_check": "H^delta ratio stability, bounds",
    "bounds._mixed_norm": "mixed-norm check, bounds",
    "bounds.mixed_lp_check": "mixed-norm check, bounds",
    "bounds.weak_type_check": "weak-type level-set bound, bounds",
    "stochastic.adaptedness_audit": "adaptedness of the drawn fields, garding/bounds/carleman",
}


def _definitions(tree: ast.Module) -> dict:
    """name -> node for the functions, classes and assigned names of a
    module body (__all__ excluded: it lists names, it does not use them)."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name) and n.id != "__all__":
                        out[n.id] = node
    return out


def _mentions(node: ast.AST):
    """Every identifier a node mentions: names, attributes, imported names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def unreached_names() -> set:
    """Top-level definitions of spdo that no code reachable from the cli
    module mentions, by name, as "module.name"."""
    trees = {p.stem: ast.parse(p.read_text()) for p in PKG.glob("*.py")}
    by_name = {}
    for mod, tree in trees.items():
        for name, node in _definitions(tree).items():
            by_name.setdefault(name, []).append((mod, name, node))
    reached = set()
    todo = [trees["cli"]]
    while todo:
        for ident in _mentions(todo.pop()):
            for mod, name, node in by_name.get(ident, ()):
                if (mod, name) not in reached:
                    reached.add((mod, name))
                    todo.append(node)
    return {f"{mod}.{name}" for entries in by_name.values()
            for mod, name, _ in entries
            if (mod, name) not in reached and mod != "cli"}


def test_unreached_code_is_exactly_the_allowlist():
    assert unreached_names() == set(ALLOWED_UNREACHED)


def test_traced_names_resolve():
    # the benchmark's tracer wraps these by name, and a deleted or renamed
    # one breaks its traced round; its tables are read as literals, since
    # importing traced.py needs perfbench's own path
    tree = ast.parse((PKG.parents[1] / "perfbench" / "traced.py").read_text())
    tables = {t.id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) for t in node.targets
              if isinstance(t, ast.Name) and t.id in ("FUNCTIONS", "METHODS")}
    assert tables["FUNCTIONS"] and tables["METHODS"]
    for mod, name in tables["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module(f"spdo.{mod}"),
                                name, None)), f"{mod}.{name}"
    for mod, cls, meth in tables["METHODS"]:
        klass = getattr(importlib.import_module(f"spdo.{mod}"), cls, None)
        assert callable(getattr(klass, meth, None)), f"{mod}.{cls}.{meth}"


def _python(code: str) -> list:
    """The output lines of code run in a fresh interpreter on this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PKG.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


IMPORT_ALL = (
    "import importlib, pkgutil, sys\n"
    "import spdo\n"
    "for m in pkgutil.iter_modules(spdo.__path__):\n"
    "    importlib.import_module('spdo.' + m.name)\n"
    "from spdo.cli import main\n")


def test_no_scipy_module_loads(tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("symbol = garding-stochastic\n")
    code = (
        IMPORT_ALL +
        f"rc = main(['verify-symbol', '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        "assert rc == 0, rc\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        # lambdify with the string 'numpy' runs `from numpy import *`, which
        # loads these two (and unittest, email, socket with them)
        "print(sorted({'numpy.f2py', 'numpy.testing'} & set(sys.modules)))\n")
    assert _python(code)[-2:] == ["[]", "[]"]


# small configs of the commands that do no calculus: they build no symbol,
# or only registry symbols, which are precompiled
NUMERIC = {"integrator": "ensemble.M = 64\nunitary.K = 50\n",
           "cz": "grid.N = 32\nensemble.M = 3\ntime.K = 8\n",
           "uniqueness": "ensemble.M = 8\ntime.K = 16\n",
           "bounds": "grid.N_list = 16,32\nensemble.M = 4\ntime.K = 8\n"
                     "trials = 1\n",
           "garding": "grid.N_list = 16,32\nensemble.M = 4\ntime.K = 8\n"
                      "trials = 1\nexact_check = 1\nexact_trials = 1\n",
           "carleman": "draws = 1\ngrid.N = 32\ntime.K = 32\n",
           "quantize-demo": "grid.N = 16\n"}


def _fresh_run(tmp_path, command, cfg_text, module="sympy"):
    """(exit code, whether module was loaded, output directory) of command
    run in a fresh interpreter that first imports every spdo module."""
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / f"{command}-fresh"
    rc, loaded = _python(
        IMPORT_ALL +
        f"rc = main([{command!r}, '--config', {str(cfg)!r}, "
        f"'--out', {str(out)!r}])\n"
        f"print(rc, {module!r} in sys.modules)\n")[-1].split()
    return int(rc), loaded == "True", out


def test_importing_spdo_loads_no_sympy():
    assert _python(IMPORT_ALL + "print('sympy' in sys.modules)\n") == \
        ["False"]


@pytest.mark.parametrize("command", sorted(NUMERIC))
def test_numeric_command_loads_no_sympy(tmp_path, command):
    rc, loaded, _ = _fresh_run(tmp_path, command, NUMERIC[command])
    assert rc in (0, 2)
    assert not loaded


@pytest.mark.parametrize("count", [3, 20])
def test_random_quantize_demo_loads_no_sympy(tmp_path, count):
    # its random symbols are one precompiled family at drawn parameters
    rc, loaded, out = _fresh_run(
        tmp_path, "quantize-demo", f"random_symbols = {count}\ngrid.N = 16\n")
    assert rc == 0
    assert not loaded
    assert f'"random_symbols": {count}' in (out / "report.json").read_text()


@pytest.mark.parametrize("command", ["bounds", "carleman", "garding",
                                     "uniqueness"])
def test_numeric_command_loads_no_numpy_ma(tmp_path, command):
    # np.unique and np.median import numpy.ma, about 17 ms per process
    rc, loaded, _ = _fresh_run(tmp_path, command, NUMERIC[command],
                               module="numpy.ma")
    assert rc in (0, 2)
    assert not loaded


def test_carleman_with_an_expression_B1_loads_sympy(tmp_path):
    # the default B1 = bessel1 is precompiled; an expression is parsed
    rc, loaded, _ = _fresh_run(
        tmp_path, "carleman",
        NUMERIC["carleman"] + "B1 = sqrt(1+xi**2)\nB1.order = 1\n")
    assert rc == 0
    assert loaded


def test_precompiled_symbol_loads_sympy_for_calculus():
    # make_symbol reads the rendered form; the expression, and sympy with
    # it, is built on the first calculus step, which then agrees with the
    # same step on the symbol built from the expression
    out = _python(
        "import sys\n"
        "from spdo.registry import make_symbol, _expr\n"
        "a = make_symbol('parametrix-demo')\n"
        "print('sympy' in sys.modules)\n"
        "ops = (lambda s: 2 * s, lambda s: s.conjugate(), lambda s: s + 1,\n"
        "       lambda s: s * s, lambda s: s.derivative(1, 1))\n"
        "got = [op(a) for op in ops]\n"
        "print('sympy' in sys.modules)\n"
        "from spdo.symbols import symbol_from_expr\n"
        "b = symbol_from_expr(_expr('parametrix-demo', 1), 1, order=2.0)\n"
        "print([(g.order, g.expr) == (op(b).order, op(b).expr)\n"
        "       for g, op in zip(got, ops)])\n")
    assert out == ["False", "True", str([True] * 5)]


def test_importing_spdo_freezes_nothing():
    assert _python(IMPORT_ALL + "import gc\nprint(gc.get_freeze_count())\n") \
        == ["0"]


@pytest.mark.parametrize("enabled", [True, False])
def test_imports_frozen_and_collector_state_kept(tmp_path, enabled):
    # compose builds symbols, so main imports numpy and then sympy through
    # spdo._import_long_lived; a second main freezes nothing more (the count
    # may fall: a frozen object that is freed leaves it)
    cfg = tmp_path / "compose.cfg"
    cfg.write_text("b = xi\na = x\n")
    run = (f"main(['compose', '--config', {str(cfg)!r}, "
           f"'--out', {str(tmp_path / 'out')!r}])")
    out = _python(
        "import gc, sys\n"
        + ("" if enabled else "gc.disable()\n") +
        "from spdo.cli import main\n"
        f"rc = {run}\n"
        "n = gc.get_freeze_count()\n"
        f"rc2 = {run}\n"
        "print(rc, rc2, 'sympy' in sys.modules, n > 0, gc.isenabled(), "
        "gc.get_freeze_count() <= n)\n")
    assert out[-1] == f"0 0 True True {enabled} True"


@pytest.mark.parametrize("command", ["cz", "uniqueness", "bounds", "garding",
                                     "carleman"])
def test_report_does_not_depend_on_sympy(tmp_path, command):
    rc, loaded, fresh = _fresh_run(tmp_path, command, NUMERIC[command])
    assert not loaded
    from spdo.cli import main
    from spdo.symbols import sp  # noqa: F401  (imports sympy in-process)

    here = tmp_path / f"{command}-here"
    assert main([command, "--config", str(tmp_path / f"{command}.cfg"),
                 "--out", str(here)]) == rc
    assert (here / "report.json").read_bytes() == \
        (fresh / "report.json").read_bytes()
