"""CLI: config parsing, subcommand verdicts, artifacts, determinism."""

import json
import math
import os
import subprocess
import sys
import time

import pytest

from spdo.cli import _COMMON, _KEYS, ConfigError, main, parse_config, \
    resolve_config


def _run(tmp_path, command, cfg_text=None, seed=1234, name="run"):
    out = tmp_path / name
    argv = [command, "--out", str(out), "--seed", str(seed)]
    if cfg_text is not None:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(cfg_text)
        argv += ["--config", str(cfg)]
    code = main(argv)
    return code, out


def test_config_parsing(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("# comment\ngrid.n = 1\nsymbol = xi\n\nmu_list=50,100\n")
    cfg = parse_config(str(p))
    assert cfg == {"grid.n": "1", "symbol": "xi", "mu_list": "50,100"}


def test_config_malformed_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("grid.n = 1\nthis line has no equals\n")
    with pytest.raises(ConfigError) as e:
        parse_config(str(p))
    assert ":2:" in str(e.value)


def test_malformed_config_exit_code(tmp_path):
    code, _ = _run(tmp_path, "verify-symbol", "grid.N = not_an_int\n")
    assert code == 1


def test_unknown_symbol_name_exit_code(tmp_path, capsys):
    code, _ = _run(tmp_path, "verify-symbol", "symbol = zzz&&&\n")
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_verify_symbol_pass(tmp_path):
    code, out = _run(tmp_path, "verify-symbol", "symbol = bessel1\ngrid.N = 64\n")
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is True
    assert (out / "data" / "estimate.csv").exists()
    assert (out / "meta.json").exists()


def test_verify_symbol_fail_misdeclared(tmp_path):
    code, out = _run(tmp_path, "verify-symbol",
                     "symbol = xi**2\nsymbol.order = 1\ngrid.N = 64\n")
    assert code == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False


def test_quantize_demo(tmp_path):
    code, out = _run(tmp_path, "quantize-demo", "grid.N = 32\n")
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["report"]["max_extraction_error"] <= 1e-8


def test_quantize_demo_random_symbols(tmp_path):
    code, out = _run(tmp_path, "quantize-demo",
                     "random_symbols = 3\ngrid.N = 32\n")
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["report"]["random_symbols"] == 3
    assert rep["report"]["max_extraction_error"] <= 1e-8


def test_cz_sweep_mode(tmp_path):
    code, out = _run(tmp_path, "cz",
                     "cases = 1x16,2x8\ndraws = 3\nensemble.M = 2\n"
                     "time.K = 4\n")
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["report"]["total_draws"] == 6
    assert all(rep["report"]["properties"].values())
    assert (out / "data" / "cz_sweep.csv").exists()


def test_garding_exact_check(tmp_path):
    code, out = _run(tmp_path, "garding",
                     "trials = 3\nensemble.M = 4\ntime.K = 8\n"
                     "exact_check = 1\nexact_trials = 3\n")
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["report"]["exact_passed"] is True
    assert all(c <= 1.0 + 1e-9
               for c in rep["report"]["exact_constants"].values())


def test_garding_control_passes_with_zero_constant(tmp_path):
    # this seed measures the exact |xi|^2 control at C = 0 on N = 64: below
    # 1, so it passes, although its stability ratio divides by the floor
    code, out = _run(tmp_path, "garding",
                     "trials = 5\nensemble.M = 16\nexact_check = 1\n"
                     "exact_trials = 2\n", seed=39008036)
    rep = json.loads((out / "report.json").read_text())["report"]
    assert code == 0
    assert rep["exact_constants"]["64"] == 0.0
    assert rep["exact_passed"] is True


@pytest.mark.parametrize("bad", [1.5, math.nan])
def test_garding_control_fails_above_one_or_nan(tmp_path, monkeypatch, bad):
    import spdo.bounds

    real = spdo.bounds.garding_check

    def control_off(a, *args, **kwargs):
        rep = real(a, *args, **kwargs)
        if a.name == "laplacian":  # the exact |xi|^2 control
            rep.constants = {32: 0.5, 64: bad}
        return rep

    monkeypatch.setattr(spdo.bounds, "garding_check", control_off)
    code, out = _run(tmp_path, "garding",
                     "trials = 2\nensemble.M = 4\ntime.K = 8\n"
                     "exact_check = 1\nexact_trials = 2\n")
    rep = json.loads((out / "report.json").read_text())["report"]
    assert code == 2
    assert rep["exact_passed"] is False


def test_bounds_non_finite_constant_fails(tmp_path):
    # the poles of 1/(1 + cos x) at x = pi and of sin(x)/xi at xi = 0 lie on
    # the lattice; the batch of nodes takes the separated path, whose
    # products and inverse FFTs must not warn about them
    res = _spawn(tmp_path, "bounds",
                 "symbol = 1/(1+cos(x)),sin(x)/xi\ngrid.N_list = 32,64\n"
                 "ensemble.M = 2\ntime.K = 8\ntrials = 1\n")
    assert res.returncode == 2, res.stderr
    assert res.stderr == ""
    rep = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
    for name in ("1/(1+cos(x))", "sin(x)/xi"):
        sym = rep["symbols"][name]
        assert sym["passed"] is False
        assert "non-finite" in sym["extra"]["reason"]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the thread count from /proc")
def test_threads_flag_sizes_blas_pool(tmp_path):
    # the flag must act before numpy loads: importing the CLI may not load
    # it, and the process runs one thread after --threads 1
    child = (
        "import sys\n"
        "import spdo.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "code = spdo.cli.main(sys.argv[1:])\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print(code, [l for l in status if l.startswith('Threads:')][0])\n")
    cfg = tmp_path / "cz.cfg"
    cfg.write_text("grid.N = 16\nensemble.M = 2\ntime.K = 4\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run(
        [sys.executable, "-c", child, "cz", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--threads", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    code, threads = res.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0"
    assert threads.split() == ["Threads:", "1"]


@pytest.mark.parametrize("threads", ["-1", "-3"])
def test_negative_threads_exit_1(tmp_path, capsys, threads):
    # rejected while the arguments are parsed, before any work or output
    out = tmp_path / "out"
    assert main(["cz", "--threads", threads, "--out", str(out)]) == 1
    assert "argument --threads" in capsys.readouterr().err
    assert not out.exists()


def test_integrator_subcommand(tmp_path):
    # M = 7200 is the least ensemble whose 3 sqrt(2/M) fits in 5%
    code, out = _run(tmp_path, "integrator",
                     "ensemble.M = 7200\ntime.K = 100\nunitary.K = 200\n"
                     "drift_tol = 1e-6\n", seed=1)
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["report"]["ito_isometry"]["rel_error"] <= 0.05
    assert rep["report"]["unitary"]["norm_drift"] <= 1e-6


def test_integrator_fails_a_nan_unitary_state(tmp_path, monkeypatch):
    # one NaN step of the unitary run makes the drift NaN and FAILs the
    # verdict; Python's max would drop the NaN and PASS it
    import numpy as np

    import spdo.cauchy

    real = spdo.cauchy.integrate_spde_system

    def nan_step(A, f, F, grid, ensemble, y0):
        steps = real(A, f, F, grid, ensemble, y0)
        if A is None:  # the Ito run
            return steps
        return (np.full_like(y, np.nan) if j == 3 else y
                for j, y in enumerate(steps))

    monkeypatch.setattr(spdo.cauchy, "integrate_spde_system", nan_step)
    code, out = _run(tmp_path, "integrator",
                     "ensemble.M = 7200\ntime.K = 100\nunitary.K = 200\n"
                     "drift_tol = 1e-6\n", seed=1)
    assert code == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    assert rep["report"]["ito_isometry"]["rel_error"] <= 0.05
    assert math.isnan(rep["report"]["unitary"]["norm_drift"])


def test_integrator_undersampled_fails(tmp_path, capsys):
    # at M = 4 the Ito estimate has relative standard deviation
    # sqrt(2/4) = 0.71, so it misses the 5% tolerance at most seeds
    code, out = _run(tmp_path, "integrator", "ensemble.M = 4\n", seed=1)
    assert code == 2
    assert "integrator: FAIL" in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    assert rep["report"]["ito_isometry"]["rel_error"] > 0.05


def test_integrator_lucky_undersampled_draw_fails(tmp_path, capsys):
    # at seed 1234 the M = 4 estimate lands within 1% of its target, but
    # 3 sqrt(2/4) = 2.1 does not fit in the 5% tolerance
    code, out = _run(tmp_path, "integrator", "ensemble.M = 4\n", seed=1234)
    assert code == 2
    assert "integrator: FAIL" in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    assert rep["report"]["ito_isometry"]["rel_error"] < 0.01


_LINUX = pytest.mark.skipif(sys.platform != "linux",
                            reason="reads ru_maxrss in KiB, as Linux "
                                   "reports it")


def _max_rss(args):
    """(exit code, peak RSS in MB) of `python args` in a fresh process."""
    # Linux keeps a process's peak RSS across exec, so the process is
    # started from a small interpreter, not forked from this large one
    measure = (
        "import os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
    res = subprocess.run([sys.executable, "-c", measure, sys.executable]
                         + args, env=_child_env(), capture_output=True,
                         text=True, timeout=120)
    code, kib = res.stdout.split()
    return int(code), int(kib) / 1024.0


def _peak_mb(tmp_path, command, cfg_text):
    """(exit code, peak RSS in MB) of `python -m spdo.cli command` on
    cfg_text in a fresh process."""
    cfg = tmp_path / f"{command}-peak.cfg"
    cfg.write_text(cfg_text)
    return _max_rss(["-m", "spdo.cli", command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])


def _import_floor_mb(*modules):
    """Peak RSS in MB of a fresh process that only loads numpy as main
    does, numpy.random and the spdo modules named: a command's import
    floor on this host, which its peak is bounded above."""
    code, mb = _max_rss(["-c", "from spdo import _import_long_lived\n"
                         "_import_long_lived('numpy').random.default_rng(0)\n"
                         + "".join(f"import spdo.{m}\n" for m in modules)])
    assert code == 0
    return mb


@_LINUX
def test_integrator_peak_memory(tmp_path):
    # the defaults (M = 10^4, K = 200, N = 8) would make a 257 MB
    # (path, time) solution and 16 MB of (M, K + 1) paths; the Ito check
    # draws and steps one slice of about 650 paths at a time, drops each
    # before the next is drawn, and keeps Y(T) only at the site the
    # isometry reads, 160 kB.  The process peaks about 1.5 MB above its
    # import floor, where the Y(T) of every site (1.3 MB) and two slices
    # alive at a draw made it 3.3-3.7 MB
    floor = _import_floor_mb("cli", "cauchy")
    code, mb = _peak_mb(tmp_path, "integrator", "")
    assert code == 0
    assert mb - floor < 2.5


@_LINUX
def test_carleman_peak_memory(tmp_path):
    # the perfbench evolution config (N = 64, M = 16, K = 64, 10 draws):
    # blocks of time nodes of 64 KiB per work array (four nodes) peak about
    # 0.6 MB above the import floor, where 256 KiB blocks (16 nodes) peaked
    # 2.7-2.9 MB above it
    floor = _import_floor_mb("cli", "cauchy", "bounds", "registry",
                             "_compiled_symbols")
    code, mb = _peak_mb(tmp_path, "carleman", "draws = 10\n")
    assert code == 0
    assert mb - floor < 1.7


@_LINUX
def test_carleman_2d_peak_memory(tmp_path):
    # 2-D defaults (N = 64, M = 16, K = 64): a draw's (path, time) field is
    # 68 MB, and the moments once held about eight such arrays (a 424 MB
    # peak); blocks of one node peak near 53 MB
    code, mb = _peak_mb(tmp_path, "carleman", "grid.dim = 2\ndraws = 1\n")
    assert code == 0
    assert mb < 100.0


@_LINUX
def test_garding_2d_peak_memory(tmp_path):
    # 2-D defaults (N_list 32, 64): the hypothesis scan of 1,024 points by
    # 4,095 frequencies is 67 MB at one (path, time) sample (a 196 MB
    # peak); in blocks of about 1 MiB of frequencies the run peaks near
    # 58 MB
    code, mb = _peak_mb(tmp_path, "garding", "grid.dim = 2\ntrials = 1\n")
    assert code == 0
    assert mb < 100.0


@_LINUX
def test_bounds_2d_peak_memory(tmp_path):
    # 2-D defaults (N_list 32, 64, M = 8, K = 64): a path's field at every
    # time node is 4.3 MB at N = 64, and path slices of 16 MiB (three
    # paths) peaked near 86 MB; slices of about 1 MiB, one path each, peak
    # near 56 MB
    code, mb = _peak_mb(tmp_path, "bounds", "grid.dim = 2\ntrials = 1\n")
    assert code == 0
    assert mb < 70.0


@_LINUX
def test_garding_peak_memory(tmp_path):
    # the perfbench ensemble config: path slices that counted one field per
    # path held about four times _BLOCK_BYTES (a peak near 42 MB); counting
    # the field, its image and their temporaries, the run peaks near 38 MB
    code, mb = _peak_mb(tmp_path, "garding", "trials = 5\nensemble.M = 16\n"
                        "exact_check = 1\nexact_trials = 2\n")
    assert code == 0
    assert mb < 40.0


@_LINUX
def test_bounds_peak_memory(tmp_path):
    # the perfbench ensemble config, as for garding: near 42 MB with slices
    # of one field per path, near 38 MB with the whole working set counted
    code, mb = _peak_mb(tmp_path, "bounds", "grid.N_list = 32,64,128\n"
                        "ensemble.M = 16\ntrials = 1\n")
    assert code == 0
    assert mb < 40.0


@_LINUX
def test_quantize_demo_2d_dense_peak_memory(tmp_path):
    # mod-x at 2-D N = 64 takes the exact sum over a 4096^2 phase matrix,
    # 268 MB; built at once, its temporaries made the run peak near 554 MB,
    # and filled in row blocks it peaks near 307 MB
    code, mb = _peak_mb(tmp_path, "quantize-demo",
                        "symbol = mod-x\ngrid.dim = 2\ngrid.N = 64\n")
    assert code == 0
    assert mb < 400.0


@_LINUX
def test_uniqueness_2d_peak_memory(tmp_path):
    # 2-D defaults (N = 32, M = 64, K = 128): the two-component (path,
    # time) solution is 137 MB (a 429 MB peak with its |u|^2 temporaries);
    # reduced as each step is made, the run peaks near 55 MB
    code, mb = _peak_mb(tmp_path, "uniqueness", "grid.dim = 2\n")
    assert code == 0
    assert mb < 100.0


def test_carleman_fails_a_single_high_mode_at_the_last_step(tmp_path,
                                                            monkeypatch):
    # pinned, but all of z sits on e^{31ix} at node K - 1 on every path:
    # the jump back to 0 at T costs more than the weighted LHS earns (seed
    # 5, first draw: lhs 1.02, 0.55, 0.31 against rhs -27.4, -13.7, -6.85
    # at mu = 50, 100, 200), so every draw fails at the defaults
    import numpy as np

    from spdo import cauchy
    from spdo.grid import Field

    def last_step_mode(grid, ensemble, rng):
        K = ensemble.timegrid.K
        vals = np.zeros((ensemble.M, K + 1) + grid.shape, np.complex128)
        vals[:, K - 1] = np.exp(31j * grid.points()[..., 0])
        return Field(grid, vals)

    monkeypatch.setattr(cauchy, "pinned_semimartingale", last_step_mode)
    code, out = _run(tmp_path, "carleman", seed=5)
    assert code == 2
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["pass_rate"] == 0.0 and report["passed"] is False
    lines = (out / "data" / "carleman.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 150
    assert all(float(r[2]) > 0.0 > float(r[3]) for r in rows)


@_LINUX
def test_verify_symbol_ellipticity_scan_peak_memory(tmp_path):
    # 2-D N = 128 scans 256 points by 16,384 frequencies (67 MB of complex
    # values at once before the scan was blocked, a 177 MB peak); blocks of
    # about 1 MiB keep the peak near 97 MB, most of it the imports and the
    # derivative-estimate samples
    code, mb = _peak_mb(tmp_path, "verify-symbol",
                        "symbol = bessel1\ngrid.dim = 2\ngrid.N = 128\n")
    assert code == 0
    assert mb < 110.0


def test_garding_nan_hypothesis_exits_1(tmp_path):
    # NaN wherever cos x < 0: a hypothesis error, not a FAIL on a NaN ratio
    res = _spawn(tmp_path, "garding", "symbol = xi**2*(2+sqrt(cos(x)))\n"
                                      "symbol.order = 2\n"
                                      "grid.N_list = 16,32\n")
    assert res.returncode == 1, res.stderr
    (line,) = res.stderr.splitlines()
    assert line.startswith("hypothesis error: ") and "nan" in line


def test_compose_example_prints_expansion(tmp_path, capsys):
    code, out = _run(tmp_path, "compose", "b = xi\na = x\n")
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    text = rep["report"]["expansion"]
    assert "x" in text and "xi" in text


def test_compose_fails_one_term_short(tmp_path):
    # xi^2 after sin(x) is xi^2 sin(x) - 2i xi cos(x) + sin(x); n_terms = 1
    # stops at |alpha| = 1 and drops the last term, n_terms = 2 keeps it
    cfg = "b = xi**2\na = sin(x)\ncheck = 1\nn_terms = {}\n"
    errors = []
    for n_terms, want in ((1, 2), (2, 0)):
        code, out = _run(tmp_path, "compose", cfg.format(n_terms), seed=5,
                         name=f"n{n_terms}")
        assert code == want
        errors.append(json.loads(
            (out / "report.json").read_text())["report"]["relative_error"])
    assert errors[0] > 1e-3 and errors[1] < 1e-12


def test_compose_random_pairs(tmp_path):
    code, out = _run(tmp_path, "compose", "random_pairs = 3\ntrials = 5\n")
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["report"]["worst_relative_error"] <= 1e-9


@pytest.mark.parametrize("dim,N", [(1, 256), (2, 128)])
def test_compose_random_pairs_above_the_dense_cap(tmp_path, dim, N):
    # the composed symbols separate, from their bound expressions
    code, out = _run(tmp_path, "compose", f"random_pairs = 4\ntrials = 2\n"
                     f"grid.dim = {dim}\ngrid.N = {N}\n", seed=5)
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["report"]["worst_relative_error"] <= 1e-9


def test_compose_of_zero_in_2d(tmp_path):
    # b = 0 composes to the empty series, whose sum is the 2-D zero symbol
    code, out = _run(tmp_path, "compose", "b = 0\nb.order = 0\n"
                     "a = sin(x1)*xi1\ngrid.dim = 2\ngrid.N = 16\n"
                     "check = 1\n")
    assert code == 0
    rep = json.loads((out / "report.json").read_text())["report"]
    assert rep["passed"] is True and rep["relative_error"] == 0.0


class _Draws:
    """A generator stand-in: integers and uniform return the given values
    in turn."""

    def __init__(self, integers, uniforms):
        self._i, self._u = iter(integers), iter(uniforms)

    def integers(self, lo, hi):
        return next(self._i)

    def uniform(self, lo, hi):
        return next(self._u)


def test_random_poly_draw_places_each_coefficient():
    from spdo.cli import _random_poly_draw

    # deg 2: c_0 cos x1, c_1 sin x1 xi1, c_2 xi1^2
    p, deg = _random_poly_draw(_Draws([2, 2, 1, 0], [0.5, -1.2344, 1.9996]))
    assert deg == 2
    assert p == [0.0, 0.0, 0.5, 0.0, -1.234, 0.0, 2.0] + [0.0] * 5
    # every coefficient rounds to 0: the constant 1
    p, deg = _random_poly_draw(_Draws([1, 1, 2], [0.0004, -0.0002]))
    assert (p, deg) == ([1.0] + [0.0] * 11, 1)


def _pair_draws():
    """(b draw, a draw) pairs of trig-poly-3: random ones at every degree of
    b, an all-zero draw (the constant 1) and x-independent draws."""
    import numpy as np
    from spdo.cli import _random_poly_draw

    rng = np.random.default_rng(11)
    draws = [_random_poly_draw(rng) for _ in range(40)]
    pairs = [(b, a) for b, a in zip(draws[::2], draws[1::2])]
    pairs = [next(p for p in pairs if p[0][1] == d) for d in range(4)]
    one = ([1.0] + [0.0] * 11, 2)
    x_free = ([0.7, 0, 0, -1.3, 0, 0, 0, 0, 0, 0.25, 0, 0], 3)
    return pairs + [(one, pairs[0][1]), (x_free, one),
                    (pairs[2][0], x_free), (x_free, x_free)]


def _close(got, want):
    import numpy as np

    return np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("dim", [1, 2])
def test_bound_pair_symbols_agree_with_their_expressions(dim):
    # b, a and their composition, bound to each draw, against the
    # evaluators of their expressions; the composition also against the
    # composition of those expressions, as the sweep made it before
    import numpy as np
    from spdo.calculus import compose_symbols
    from spdo.cli import _pair_symbols
    from spdo.grid import Grid
    from spdo.symbols import symbol_from_expr

    grid = Grid(dim, 8)
    x = grid.points().reshape(-1, dim)[:, None, :]
    xi = grid.freqs().reshape(-1, dim)[None, :, :]
    composed = {}
    for b_draw, a_draw in _pair_draws():
        b, a, comp = _pair_symbols(dim, b_draw, a_draw, composed)
        ref = [symbol_from_expr(s.expr, dim, order=s.order)
               for s in (b, a, comp)]
        ref.append(compose_symbols(ref[0], ref[1],
                                   b_draw[1]).symbol_sum())
        for got, want in zip((b, a, comp, comp), ref):
            assert _close(got(0.0, 0.0, x, xi), want(0.0, 0.0, x, xi))
        rank, sep = comp.separated
        vals = sep(0.0, 0.0, x, xi)
        assert _close(sum(c * g for c, g in zip(vals[:rank], vals[rank:])),
                      ref[2](0.0, 0.0, x, xi))
    assert sorted(composed) == [0, 1, 2, 3]


def test_sweep_composes_once_per_degree_of_b(monkeypatch):
    # _source renders and sympy.diff calls, counted as
    # test_compose_compiles_only_the_evaluated_symbol counts renders, come
    # from the compositions of the family at the drawn degrees of b alone
    import numpy as np
    import sympy
    import spdo.cli
    import spdo.symbols
    from spdo.grid import Grid

    calls = {"render": 0, "diff": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spdo.symbols, "_source",
                        counted("render", spdo.symbols._source))
    monkeypatch.setattr(sympy, "diff", counted("diff", sympy.diff))
    real = spdo.cli._composed_family
    per_degree = {}
    for d in range(4):
        calls.update(render=0, diff=0)
        real(1, d)
        per_degree[d] = dict(calls)
    assert all(c["render"] == 1 for c in per_degree.values())
    degrees = []
    monkeypatch.setattr(spdo.cli, "_composed_family",
                        lambda dim, bd: degrees.append(bd) or real(dim, bd))
    for pairs in (3, 30):
        calls.update(render=0, diff=0)
        degrees.clear()
        spdo.cli._compose_pairs(Grid(1, 64), np.random.default_rng(5),
                                pairs, 2)
        assert len(degrees) == len(set(degrees))
        assert calls == {k: sum(per_degree[d][k] for d in degrees)
                         for k in calls}
    assert sorted(degrees) == [0, 1, 2, 3]


def test_cz_subcommand(tmp_path):
    code, out = _run(tmp_path, "cz", "grid.N = 32\nensemble.M = 3\ntime.K = 8\n")
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert all(rep["report"]["properties"].values())


def test_cz_fails_when_a_bad_cube_is_dropped(tmp_path, monkeypatch, capsys):
    # at level 1.5 this draw has two bad cubes; without one of them the
    # good and bad parts no longer add up to u
    import spdo.harmonic

    real = spdo.harmonic.cz_decompose

    def drop_one(*args, **kwargs):
        dec = real(*args, **kwargs)
        assert len(dec.bad) == 2
        dec.bad = dec.bad[1:]
        return dec

    monkeypatch.setattr(spdo.harmonic, "cz_decompose", drop_one)
    code, out = _run(tmp_path, "cz", "grid.N = 32\nensemble.M = 3\n"
                     "time.K = 8\nlevel.r = 1.5\n")
    assert code == 2
    assert "cz: FAIL" in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    assert rep["report"]["properties"]["reconstruction"] is False


@pytest.mark.parametrize("cfg_text", ["grid.N = 32\n",
                                      "grid.N = 16\nrandom_symbols = 2\n"],
                         ids=["registry", "random"])
def test_quantize_demo_fails_at_a_shifted_xi(tmp_path, monkeypatch, capsys,
                                             cfg_text):
    # the quantization reads the symbol one lattice frequency off each mode
    # it is asked for
    import spdo.quantize

    real = spdo.quantize.extract_symbol

    def shifted(a, grid, modes, *args, **kwargs):
        return real(a, grid, [(m[0] + 1,) + tuple(m[1:]) for m in modes],
                    *args, **kwargs)

    monkeypatch.setattr(spdo.quantize, "extract_symbol", shifted)
    code, out = _run(tmp_path, "quantize-demo", cfg_text)
    assert code == 2
    assert "quantize-demo: FAIL" in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    assert rep["report"]["max_extraction_error"] > 1e-3


def test_parametrix_fails_one_term_short(tmp_path, monkeypatch, capsys):
    # each n-term series is built with n - 1 terms, so its residual decays
    # like |k|^-n, one order short of the -(n+1) target
    import spdo.calculus

    real = spdo.calculus.parametrix

    def short(a, n_terms, *args, **kwargs):
        return real(a, n_terms - 1, *args, **kwargs)

    monkeypatch.setattr(spdo.calculus, "parametrix", short)
    code, out = _run(tmp_path, "parametrix",
                     "grid.N = 64\nn_terms = 1,2\nmodes = 8,16\n")
    assert code == 2
    assert "parametrix: FAIL" in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    for n, slope in rep["report"]["slopes"].items():
        target = -(int(n) + 1)
        assert abs(slope - target) > 0.2 * abs(target), (n, slope)
        assert abs(slope + int(n)) < 0.2 * int(n), (n, slope)


def test_carleman_sums_overflow_is_a_config_error(tmp_path):
    # e^(2 * 200 * 1.332^2) = e^709.69 fits in float64, but its products
    # with (t - T) and the moments do not
    res = _spawn(tmp_path, "carleman", "draws = 1\ntime.T = 1.332\n")
    assert res.returncode == 1
    assert res.stderr.startswith(
        "config error: config keys 'mu_list', 'time.T': the weighted sums "
        "at mu = 400 overflow float64"), res.stderr


def test_uniqueness_emits_decay_csv(tmp_path):
    code, out = _run(tmp_path, "uniqueness",
                     "equation = wave\ngrid.N = 32\nensemble.M = 8\n"
                     "time.K = 64\n")
    assert code == 0
    lines = (out / "data" / "decay.csv").read_text().splitlines()
    assert lines[0].startswith("mu,")
    assert len(lines) >= 4


def test_determinism_byte_identical_reports(tmp_path):
    cfg = "grid.N = 32\nensemble.M = 3\ntime.K = 8\n"
    code1, out1 = _run(tmp_path, "cz", cfg, seed=7, name="r1")
    code2, out2 = _run(tmp_path, "cz", cfg, seed=7, name="r2")
    assert code1 == code2 == 0
    b1 = (out1 / "report.json").read_bytes()
    b2 = (out2 / "report.json").read_bytes()
    assert b1 == b2


def test_seed_changes_report(tmp_path):
    cfg = "grid.N = 32\nensemble.M = 3\ntime.K = 8\n"
    _, out1 = _run(tmp_path, "cz", cfg, seed=7, name="s1")
    _, out2 = _run(tmp_path, "cz", cfg, seed=8, name="s2")
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["seed"] != r2["seed"]


def test_config_seed_respected_unless_flag(tmp_path):
    out = tmp_path / "cfgseed"
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("grid.N = 32\nensemble.M = 3\ntime.K = 8\nseed = 99\n")
    code = main(["cz", "--out", str(out), "--config", str(cfg)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["seed"] == 99


def test_unread_config_key_exits_1(tmp_path, capsys):
    # bounds reads grid.N_list: a grid.N would be ignored, and the run PASS
    code, out = _run(tmp_path, "bounds",
                     "grid.N = 100\ntrials = 1\nensemble.M = 4\n")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: unknown key 'grid.N' for bounds"]
    assert not (out / "report.json").exists()


# the README acceptance invocations of criteria 1-9, every key they name
# given, with lowered counts
ACCEPTANCE_CONFIGS = {
    "compose": "random_pairs = 2\ntrials = 2\ngrid.N = 16\n",
    "quantize-demo": "random_symbols = 2\ngrid.N = 16\n",
    "parametrix": "grid.N = 64\nn_terms = 1,2\nmodes = 8,16\n",
    "cz": "cases = 1x32,2x16\ndraws = 2\n",
    "bounds": "grid.N_list = 32,64\nensemble.M = 4\ntrials = 1\n",
    "garding": "trials = 2\nensemble.M = 4\nexact_check = 1\n"
               "exact_trials = 1\n",
    "carleman": "mu_list = 50,100,200\ndraws = 2\nensemble.M = 4\n"
                "time.T = 0.5\nB1 = bessel1\n",
    "uniqueness": "equation = schrodinger\ngrid.N = 16\nensemble.M = 8\n"
                  "time.K = 16\nmu_list = 50,100,200,400\n",
    "integrator": "sigma = 2\nensemble.M = 64\nunitary.K = 50\n",
}


@pytest.mark.parametrize("command", sorted(ACCEPTANCE_CONFIGS))
def test_acceptance_config_leaves_no_key_unread(tmp_path, command):
    # every key given is in the command's table and read in the mode that
    # the given values choose
    p = tmp_path / f"{command}.cfg"
    p.write_text(ACCEPTANCE_CONFIGS[command])
    cfg = parse_config(str(p))
    values = resolve_config(command, cfg)
    assert set(cfg) <= set(values)


# the acceptance configs, a default verify-symbol and a FAIL input: (id,
# command, config, exit code).  integrator's 64 paths FAIL: 3 sqrt(2/M)
# passes iso_tol
_VERDICT_RUNS = [(c, c, text, 2 if c == "integrator" else 0)
                 for c, text in sorted(ACCEPTANCE_CONFIGS.items())] + [
    ("verify-symbol", "verify-symbol", "symbol = xi\n", 0),
    ("compose-one-term-short", "compose",
     "b = xi**2\na = sin(x)\ncheck = 1\nn_terms = 1\n", 2)]


@pytest.mark.parametrize("command, cfg_text, want",
                         [r[1:] for r in _VERDICT_RUNS],
                         ids=[r[0] for r in _VERDICT_RUNS])
def test_exit_code_follows_report_passed(tmp_path, command, cfg_text, want):
    # report["passed"] is the verdict's one carrier: the top-level passed
    # of report.json is a copy of it, and the exit code follows it
    code, out = _run(tmp_path, command, cfg_text, seed=5)
    rep = json.loads((out / "report.json").read_text())
    assert type(rep["passed"]) is bool
    assert rep["passed"] is rep["report"]["passed"]
    assert code == (0 if rep["passed"] else 2) == want


# keys that a base config alone leaves unread: the values that choose
# their mode, and the required keys
_BASE = {"verify-symbol": {"symbol": "xi"}, "compose": {"b": "xi", "a": "x"}}
_MODE = {("quantize-demo", "tol"): {"random_symbols": "1"},
         ("garding", "exact_trials"): {"exact_check": "1"},
         ("carleman", "A1.order"): {"A1": "xi"}}


def _bad_values(parse):
    """The bad values of a key with parser `parse`: '', 'nan' and 'abc'
    for every number or list key, '-1' for integer keys and 'inf' for
    float keys; none for a name.  An empty `cases` is valid."""
    try:
        probe = parse("8")
    except ValueError:  # cz's cases take dimxN entries
        return ["nan", "abc"]
    listed = isinstance(probe, tuple)
    probe = probe[0] if listed else probe
    if isinstance(probe, str) or probe is None:
        return ["", "nan", "abc"] if listed else []
    return ["", "nan", "abc", "-1" if isinstance(probe, int) else "inf"]


def _table(command):
    return {**_COMMON, **_KEYS[command]}


_SWEEP = [(command, key) for command in sorted(_KEYS)
          for key, (parse, *_) in _table(command).items()
          if _bad_values(parse)]


@pytest.mark.parametrize("command, key", _SWEEP,
                         ids=[f"{c}-{k}" for c, k in _SWEEP])
def test_every_number_and_list_key_rejects_bad_values(tmp_path, capsys,
                                                      command, key):
    base = {**_BASE.get(command, {}), **_MODE.get((command, key), {})}
    assert key in resolve_config(command, base)
    for value in _bad_values(_table(command)[key][0]):
        if value == "inf" and key in ("p", "q"):
            continue  # exponents of L^p norms, where inf is valid
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(f"{k} = {v}\n"
                               for k, v in {**base, key: value}.items()))
        code = main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1, (key, value)
        assert len(err.strip().splitlines()) == 1, (key, value, err)
        assert err.startswith("config error: "), (key, value, err)
        assert not (tmp_path / "out" / "report.json").exists()


def test_config_error_comes_before_numpy(tmp_path):
    # the README garding config with a typo: named before any work
    child = ("import sys\n"
             "import spdo.cli\n"
             "code = spdo.cli.main(sys.argv[1:])\n"
             "print(code, 'numpy' in sys.modules)\n")
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("trials = 50\nensemble.M = 16\nexact_check = 1\n"
                   "exact_trails = 10\n")
    res = subprocess.run(
        [sys.executable, "-c", child, "garding", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=_child_env(), capture_output=True, text=True, timeout=60)
    assert res.stdout.split() == ["1", "False"]
    assert res.stderr.splitlines() == [
        "config error: unknown key 'exact_trails' for garding"]


@pytest.mark.parametrize("command", ["compose", "cz"])
def test_negative_seed_flag_exits_1(tmp_path, capsys, command):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("random_pairs = 1\n" if command == "compose" else "")
    code = main([command, "--seed", "-5", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == ["config error: config key 'seed': -5 is below 0"]


def test_meta_holds_effective_config(tmp_path):
    code, out = _run(tmp_path, "cz", "grid.N = 16\ntime.K = 4\n", seed=3)
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"] == {"seed": 3, "cases": [], "grid.dim": 1,
                              "grid.N": 16, "draws": 1, "p": 2.0,
                              "level.r": 0.0, "time.T": 0.5, "time.K": 4,
                              "ensemble.M": 8}
    rep = json.loads((out / "report.json").read_text())
    assert rep["config"] == {"grid.N": "16", "time.K": "4"}


def test_parametrix_lattice_modes_stay_valid(tmp_path):
    # no correction term (n_terms = 0) is a series whose residual decays
    # like k^-1; mode 63, the last below N/2 = 64, gives a real verdict
    code, _ = _run(tmp_path, "parametrix", "n_terms = 0\n", name="n0")
    assert code == 0
    code, out = _run(tmp_path, "parametrix", "modes = 8,16,63\n",
                     name="k63")
    assert code == 2
    assert json.loads((out / "report.json").read_text())["passed"] is False


def test_unknown_command_exit_one():
    assert main(["definitely-not-a-command"]) == 1


def test_verify_symbol_pole_fails(tmp_path):
    # the pole of 1/(1 + cos x) at x = pi lies on the lattice: the ratio is
    # inf and the growth slope NaN, which must read as a violation
    code, out = _run(tmp_path, "verify-symbol",
                     "symbol = 1/(1+cos(x))\nsymbol.order = 0\ngrid.N = 32\n")
    assert code == 2
    rep = json.loads((out / "report.json").read_text())["report"]
    assert rep["passed"] is False
    e0 = rep["estimate"]["entries"][0]
    assert not math.isfinite(e0["max_ratio"]) and e0["violation"] is True


@pytest.mark.parametrize("command, cfg_text", [
    ("garding", "symbol = (1+sin(x))*xi**2/4\nensemble.M = 2\ntime.K = 8\n"),
    ("verify-symbol", "symbol = xi\nsymbol.order = abc\n"),
    ("verify-symbol", "grid.N = 0\n"),
    ("garding", "ensemble.M = 0\n"),
    ("verify-symbol", "symbol = 2**2**20*xi\n"),
    ("verify-symbol", "symbol = 9**9**9*xi\n"),
    ("carleman", "B1 = sin(x)\ndraws = 1\n"),
    ("verify-symbol", "symbol = ()\n"),
    ("carleman", "mu_list = ,\n"),
    ("carleman", "mu_list = 0\n"),
    ("carleman", "mu_list = nan\n"),
    ("uniqueness", "mu_list = ,\n"),
    ("uniqueness", "mu_list = -50,100\n"),
    ("uniqueness", "mu_list = 50\n"),
    ("bounds", "trials = 0\n"),
    ("bounds", "grid.N_list = ,\n"),
    ("bounds", "symbol = ,\n"),
    ("garding", "trials = 0\n"),
    ("garding", "grid.N_list = ,\n"),
    ("compose", "random_pairs = 2\ntrials = 0\n"),
    ("parametrix", "n_terms = ,\n"),
    ("parametrix", "modes = 8\n"),
    ("parametrix", "symbol = cos(x)*(1+xi**2)\nsymbol.order = 2\n"),
    ("verify-symbol", "symbol = xi\ncheck.alpha_max = -1\n"),
    ("carleman", "draws = 0\n"),
    ("integrator", "sigma = 0\n"),
    ("verify-symbol", "symbol = sin(x)*xi**2\ncheck.alpha_max = 200\n"
                      "check.beta_max = 200\n"),
    ("verify-symbol", "symbol = xi\ncheck.alpha_max = 26\n"
                      "check.beta_max = 27\n"),
    ("garding", "r = nan\n"),
    ("cz", "p = -1\n"),
    ("bounds", "q = 0.5\n"),
    ("cz", "level.r = 0.001\n"),
    ("cz", "level.r = -1\n"),
    ("uniqueness", "r = nan\n"),
    ("parametrix", "modes = 8,-16\n"),
    ("integrator", "time.T = inf\n"),
    ("integrator", "sigma = inf\n"),
    ("garding", "eps = inf\n"),
    ("garding", "delta_star = -inf\n"),
    ("compose", "random_pairs = 2\ntol = inf\n"),
    ("verify-symbol", "symbol = xi**3\nsymbol.order = inf\n"),
    ("uniqueness", "r = inf\n"),
    ("uniqueness", "r = -1\n"),
    ("quantize-demo", "random_symbols = -3\n"),
    ("cz", "draws = 0\n"),
    ("cz", "draws = -5\n"),
    ("compose", "b = xi\na = x\nn_terms = -2\n"),
    ("bounds", "grid.N_list = 32\n"),
    ("bounds", "grid.N_list = 32,32\n"),
    ("garding", "grid.N_list = 32\n"),
    ("garding", "grid.N_list = 32,32\n"),
    ("parametrix", "modes = 8,16,200\n"),
    ("parametrix", "modes = 8,16,64\n"),
    ("compose", "seed = -5\n"),
    ("cz", "seed = -5\n"),
    ("compose", "b = xi\na = x\ncheck = false\n"),
    ("garding", "exact_check = false\n"),
    ("compose", "random_pairs = 2\nn_terms = 3\n"),
    ("garding", "exact_trials = 3\n"),
    ("carleman", "B1 = 0\nB1.order = 1\n"),
    ("cz", "cases = 1x32\nlevel.r = 1\n"),
    ("verify-symbol", "symbol =\n"),
    ("integrator", "unitary.K = 2\n"),
    ("uniqueness", "time.T = 30\n"),
    ("uniqueness", "time.K = 2\n"),
    ("carleman", "draws = 1\ntime.T = 2\n"),
    ("carleman", "draws = 1\ntime.T = 30\n"),
    ("carleman", "draws = 1\ntime.T = 1.333\n"),
    ("carleman", "draws = 1\ntime.T = 1.332\n"),
    ("garding", "grid.dim = 4\n"),
    ("uniqueness", "equation = schrodinger\ntime.T = 2\n"),
    ("uniqueness", "equation = schrodinger\ntime.T = 1.333\n"),
    ("verify-symbol", "symbol = sin(x1)*xi1**2\nsymbol.order = 2\n"
                      "grid.dim = 3\ngrid.N = 16\n"),
    ("verify-symbol", "symbol = sin(x1)*xi1**2\nsymbol.order = 2\n"
                      "grid.dim = 3\n"),
    ("cz", "grid.dim = 1000000000\n"),
    # a non-separable x-dependent symbol above the cap of the exact sum
    ("compose", "b = sqrt(1+sin(x)*xi**2)\nb.order = 1\na = x\n"
                "a.order = 0\ncheck = 1\ngrid.N = 256\n"),
    ("quantize-demo", "symbol = sqrt(1+sin(x)*xi**2)\nsymbol.order = 1\n"
                      "grid.N = 256\n"),
    ("parametrix", "symbol = 2+sin(x)+xi**2+sqrt(1+(2+sin(x))*xi**2)\n"
                   "symbol.order = 2\ngrid.N = 256\n"),
    ("carleman", "B1 = sqrt(1+(2+sin(x))*xi**2)\nB1.order = 1\n"
                 "grid.N = 256\n"),
    ("garding", "symbol = sqrt(1+(2+sin(x))*xi**2)\nsymbol.order = 1\n"
                "grid.N_list = 128,256\n"),
    ("bounds", "symbol = sqrt(1+(2+sin(x))*xi**2)\n"
               "grid.N_list = 128,256\n"),
    # in 3-D at N = 32 the phase matrix of the exact sum would be 16 GiB
    ("quantize-demo", "symbol = sqrt(1+(2+sin(x1))*(xi1**2+xi2**2+xi3**2))\n"
                      "symbol.order = 1\ngrid.dim = 3\ngrid.N = 32\n"),
    # past the size budget of a command without an ensemble
    ("quantize-demo", "grid.N = 1099511627776\n"),
    ("compose", "b = bessel1\na = xi\ncheck = 1\n"
                "grid.N = 1099511627776\n"),
    ("parametrix", "grid.N = 1099511627776\n"),
], ids=["garding-hypothesis", "order-not-a-number", "grid-N-0",
        "ensemble-M-0", "huge-power", "power-tower", "carleman-B1-not-elliptic",
        "empty-parens", "carleman-mu-empty", "carleman-mu-zero",
        "carleman-mu-nan", "uniqueness-mu-empty", "uniqueness-mu-negative",
        "uniqueness-mu-single", "bounds-trials-0", "bounds-N-list-empty",
        "bounds-symbol-empty", "garding-trials-0", "garding-N-list-empty",
        "compose-trials-0", "parametrix-n-terms-empty",
        "parametrix-single-mode", "parametrix-not-elliptic",
        "verify-symbol-alpha-max-negative", "carleman-draws-0",
        "integrator-sigma-0", "verify-symbol-caps-200",
        "verify-symbol-caps-past-729", "garding-r-nan", "cz-p-below-1",
        "bounds-q-below-1", "cz-level-too-low", "cz-level-r-negative",
        "uniqueness-r-nan",
        "parametrix-mode-negative", "integrator-T-inf", "integrator-sigma-inf",
        "garding-eps-inf", "garding-delta-star-minus-inf", "compose-tol-inf",
        "verify-symbol-order-inf", "uniqueness-r-inf", "uniqueness-r-negative",
        "quantize-demo-random-symbols-negative", "cz-draws-0",
        "cz-draws-negative", "compose-n-terms-negative",
        "bounds-N-list-single", "bounds-N-list-repeated",
        "garding-N-list-single", "garding-N-list-repeated",
        "parametrix-mode-past-nyquist", "parametrix-mode-nyquist",
        "compose-seed-negative", "cz-seed-negative", "compose-check-false",
        "garding-exact-check-false", "compose-random-mode-n-terms",
        "garding-exact-trials-without-check", "carleman-zero-B1-order",
        "cz-sweep-level-r", "verify-symbol-empty", "integrator-unitary-cfl",
        "uniqueness-T-30", "uniqueness-cfl", "carleman-weight-T-2",
        "carleman-weight-T-30", "carleman-weight-past-bound",
        "carleman-weight-T-1.332", "garding-registry-symbol-dim-4",
        "uniqueness-weight-T-2", "uniqueness-weight-past-bound",
        "verify-symbol-3d-N-16", "verify-symbol-3d-default",
        "cz-dim-huge", "compose-cap", "quantize-demo-cap", "parametrix-cap",
        "carleman-cap", "garding-cap", "bounds-cap", "quantize-demo-3d-cap",
        "quantize-demo-N-huge",
        "compose-N-huge", "parametrix-N-huge"])
def test_bad_input_exits_1_with_one_line(tmp_path, command, cfg_text):
    start = time.monotonic()
    res = _spawn(tmp_path, command, cfg_text)
    assert time.monotonic() - start < 5.0
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 1, res.stderr


@pytest.mark.parametrize("command, cfg_text, key", [
    ("quantize-demo", "symbol = sqrt(1+sin(x)*xi**2)\nsymbol.order = 1\n"
                      "grid.N = 256\n", "grid.N"),
    ("bounds", "symbol = sqrt(1+(2+sin(x))*xi**2)\ngrid.N_list = 128,256\n",
     "grid.N_list"),
], ids=["grid-N", "grid-N-list"])
def test_the_cap_of_the_exact_sum_names_the_grid_key(tmp_path, capsys,
                                                     command, cfg_text, key):
    code, _ = _run(tmp_path, command, cfg_text)
    assert code == 1
    assert capsys.readouterr().err == (
        f"config error: config key {key!r}: exact x-dependent quantization "
        "capped at N=128 for dim 1\n")


@pytest.mark.parametrize("command, cfg_text, keys", [
    # Y(T) is kept at one site, so its row names ensemble.M alone
    ("integrator", "ensemble.M = 10000000000\n", "keys 'ensemble.M': "),
    ("uniqueness", "time.K = 10000000000\n", "'time.K'"),
    ("integrator", "unitary.K = 10000000000\n",
     "'unitary.K', 'grid.dim', 'grid.N'"),
    ("garding", "time.K = 10000000000\n", "'time.K', 'grid.dim', "
                                           "'grid.N_list'"),
    ("bounds", "grid.N_list = 32,1073741824\n", "'grid.N_list'"),
    ("cz", "cases = 1x32,3x4096\n", "'ensemble.M', 'time.K', 'cases'"),
    ("carleman", "grid.N = 1048576\n", "'ensemble.M', 'time.K', "
                                       "'grid.dim', 'grid.N'"),
    ("verify-symbol", "symbol = xi\ngrid.N = 1" + "0" * 400 + "\n",
     "'grid.dim', 'grid.N'"),
    # the hypothesis scan: 4,096 points by 65,536 frequencies, 4 GiB
    ("garding", "grid.dim = 2\ngrid.N_list = 128,256\n",
     "'grid.dim', 'grid.N_list'"),
    # 8,191 plane waves of 8,192 sites and three arrays of their size
    ("quantize-demo", "grid.N = 8192\n", "'grid.dim', 'grid.N'"),
    ("compose", "b = bessel1\na = xi\ncheck = 1\ntrials = 20\n"
                "grid.N = 1048576\n", "'trials', 'grid.dim', 'grid.N'"),
    # at the default three modes this N is within the budget
    ("parametrix", "grid.N = 2097152\nmodes = 8,16,32,64,128,256\n",
     "'modes', 'grid.dim', 'grid.N'"),
], ids=["integrator-M", "uniqueness-K", "integrator-unitary-K", "garding-K",
        "bounds-N-list", "cz-cases", "carleman-N", "verify-symbol-N-400-digits",
        "garding-2d-scan", "quantize-demo-N", "compose-trials-N",
        "parametrix-N"])
def test_arrays_past_the_budget_exit_1_before_numpy_loads(tmp_path, command,
                                                          cfg_text, keys):
    # each is past the budget; the key table rejects it before any array
    cfg = tmp_path / "big.cfg"
    cfg.write_text(cfg_text)
    child = ("import sys\n"
             "import spdo.cli\n"
             "code = spdo.cli.main(sys.argv[1:])\n"
             "print(code, 'numpy' in sys.modules)\n")
    res = subprocess.run(
        [sys.executable, "-c", child, command, "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=_child_env(), capture_output=True, text=True, timeout=60)
    assert res.stdout.split() == ["1", "False"], res.stderr
    line, = res.stderr.strip().splitlines()
    assert line.startswith("config error: config keys ") and keys in line
    assert "past the budget of 2^30" in line


def test_dense_commands_charge_the_phase_matrix():
    # inside the dense cap the exact sum caches the (N^n)^2 complex phase
    # matrix, 268 MB at 2-D N = 64; past the cap no sum is exact
    from spdo.cli import _held_arrays

    phase = "the (N^n)^2 phase matrix of the exact sum"
    for command, cfg in (("quantize-demo", {}), ("parametrix", {}),
                         ("compose", {"random_pairs": "1"})):
        for N, charged in (("64", [16 * 4096**2]), ("128", [])):
            v = resolve_config(command, {"grid.dim": "2", "grid.N": N, **cfg})
            rows = _held_arrays(command, v)
            assert [b for b, _, what in rows if what == phase] == charged


def test_bounds_budget_charges_the_slice_working_set():
    # 2-D N = 512, K = 64: one path's field is 272.6 MB, and its slice holds
    # four such arrays, past 2^30 bytes
    with pytest.raises(ConfigError, match="'grid.N_list'"):
        resolve_config("bounds", {"grid.dim": "2", "grid.N_list": "256,512"})


@pytest.mark.parametrize("command, cfg", [
    ("integrator", {"grid.dim": "2"}),
    ("integrator", {"grid.dim": "3"}),
    ("integrator", {"ensemble.M": "100000"}),
    ("carleman", {"grid.dim": "2"}),
    ("carleman", {"draws": "1000000000"}),
    ("cz", {"cases": "1x32,1x64,2x16,2x32", "draws": "1000000000"}),
    ("uniqueness", {"grid.dim": "2"}),
    ("verify-symbol", {"symbol": "xi", "grid.dim": "2", "grid.N": "256"}),
    ("garding", {"grid.dim": "2"}),
], ids=["integrator-2d", "integrator-3d", "integrator-M-1e5", "carleman-2d",
        "carleman-draws-1e9", "cz-draws-1e9", "uniqueness-2d",
        "verify-symbol-2d-N-256", "garding-2d"])
def test_configs_within_the_budget_are_accepted(command, cfg):
    # resolved, never run: each holds under 300 MB at one time, however
    # many draws it makes one after another
    assert resolve_config(command, cfg)


@pytest.mark.parametrize("command, cfg_text", [
    ("carleman", "draws = 1\ntime.T = 1.32\n"),
    ("uniqueness", "equation = schrodinger\ntime.T = 1.32\n"),
])
def test_carleman_weight_below_the_overflow_bound_runs(tmp_path, command,
                                                       cfg_text):
    # the largest weight is e^697 (2 * 200 or 400 times 1.32^2), below
    # float64's e^709.78; T = 1.333 (e^710.8) is a bad-input row above, and
    # so is T = 1.332, whose weight e^709.69 fits but overflows times (t - T)
    # and the moments
    res = _spawn(tmp_path, command, cfg_text)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""


def test_expanding_power_finishes(tmp_path):
    # within the size bounds, but expanded in every symbol it has 4845 terms
    start = time.monotonic()
    res = _spawn(tmp_path, "verify-symbol",
                 "symbol = (x+xi+t+w+1)**16\ngrid.N = 32\n")
    assert time.monotonic() - start < 5.0
    assert "Traceback" not in res.stderr
    if res.returncode == 1:
        assert len(res.stderr.strip().splitlines()) == 1, res.stderr
    else:
        assert res.returncode in (0, 2), res.stderr


@pytest.mark.parametrize("b1", ["0", "none"])
def test_carleman_zero_b1(tmp_path, b1):
    code, out = _run(tmp_path, "carleman", f"B1 = {b1}\ndraws = 2\n")
    assert code == 0
    assert json.loads((out / "report.json").read_text())["passed"] is True


def test_unknown_symbol_message_unquoted(tmp_path):
    res = _spawn(tmp_path, "verify-symbol", "symbol = zzz\n")
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("config error: unknown symbol 'zzz';")


def test_verify_symbol_pole_prints_no_warning(tmp_path):
    res = _spawn(tmp_path, "verify-symbol",
                 "symbol = 1/(1+cos(x))\nsymbol.order = 0\ngrid.N = 32\n")
    assert res.returncode == 2
    assert res.stderr == ""


def test_compose_nan_error_fails(tmp_path):
    # the pole of b = 1/(1 + cos x) on the lattice makes the relative error
    # NaN, which must fail the check instead of reading as 0
    res = _spawn(tmp_path, "compose", "b = 1/(1+cos(x))\nb.order = 0\n"
                 "a = xi\ncheck = 1\ngrid.N = 32\n")
    assert res.returncode == 2, res.stderr
    assert res.stderr == ""  # the verdict counts the NaN; numpy need not warn
    rep = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
    assert math.isnan(rep["relative_error"])


def _child_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _spawn(tmp_path, command, cfg_text):
    """`python -m spdo.cli command` on cfg_text in a fresh process."""
    cfg = tmp_path / "spawn.cfg"
    cfg.write_text(cfg_text)
    return subprocess.run(
        [sys.executable, "-m", "spdo.cli", command, "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=_child_env(), capture_output=True, text=True, timeout=120)
