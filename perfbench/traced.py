"""Run one spdo CLI invocation with a span around each public layer function.

Usage (from the root of an spdo checkout, with src on PYTHONPATH):

    python3 perfbench/traced.py SPANS.npz INVOCATION_ID COMMAND [spdo args]

The spans are written to SPANS.npz when the command returns; the exit code is
the CLI's.  Wrappers are installed from outside the package: every module
namespace that bound a wrapped function at import time gets the wrapper too
(bounds and cauchy hold their own apply_symbol_op, harmonic its own
lpf_norm_values), and functions imported inside function bodies pick it up
from the defining module when they run.
"""

from __future__ import annotations

import importlib
import sys

from spans import Recorder

MODULES = ("grid", "symbols", "stochastic", "quantize", "calculus",
           "harmonic", "bounds", "cauchy", "registry", "cli")

# (module, function) -> span name
FUNCTIONS = {
    ("quantize", "apply_symbol_ensemble"): "quantize.apply_symbol_ensemble",
    ("quantize", "extract_symbol"): "quantize.extract_symbol",
    ("grid", "sobolev_norm"): "grid.sobolev_norm",
    ("grid", "l2_norm"): "grid.l2_norm",
    ("grid", "fft_forward"): "grid.fft",
    ("grid", "fft_inverse"): "grid.fft",
    ("symbols", "symbol_from_expr"): "symbols.symbol_from_expr",
    ("symbols", "ellipticity_check"): "symbols.ellipticity_check",
    ("calculus", "compose_symbols"): "calculus.compose_symbols",
    ("calculus", "parametrix"): "calculus.parametrix",
    ("calculus", "series_apply"): "calculus.series_apply",
    ("stochastic", "lpf_norm_values"): "stochastic.lpf_norm_values",
    ("stochastic", "sample_brownian"): "stochastic.sample_brownian",
    ("harmonic", "cz_decompose"): "harmonic.cz_decompose",
    ("bounds", "random_adapted_field"): "bounds.random_adapted_field",
    ("bounds", "garding_check"): "bounds.garding_check",
    ("bounds", "l2_boundedness_check"): "bounds.l2_boundedness_check",
    ("cauchy", "integrate_spde_system"): "cauchy.integrate_spde_system",
    ("cauchy", "carleman_report"): "cauchy.carleman_report",
    ("cauchy", "pinned_semimartingale"): "cauchy.pinned_semimartingale",
    ("cauchy", "characteristic_roots"): "cauchy.characteristic_roots",
    ("cauchy", "uniqueness_experiment"): "cauchy.uniqueness_experiment",
    ("registry", "make_symbol"): "registry.make_symbol",
    ("cli", "main"): "cli.main",
}

# (module, class, method) -> span name
METHODS = {
    ("symbols", "Symbol", "__call__"): "symbols.eval",
    ("symbols", "Symbol", "derivative"): "symbols.derivative",
    ("grid", "Grid", "points"): "grid.lattice",
    ("grid", "Grid", "freqs"): "grid.lattice",
}


def apply_path(args, kwargs) -> str:
    """Span name of one apply_symbol_op call: the quantization path it takes.

    x-independent symbols are Fourier multipliers; the rest take the dense
    N^n x N^n path, named by grid size.
    """
    a = args[0] if args else kwargs["a"]
    u = args[1] if len(args) > 1 else kwargs["u"]
    if a.x_independent:
        return "quantize.multiplier"
    return f"quantize.dense.N{u.grid.N}.d{u.grid.dim}"


def install(rec: Recorder) -> dict:
    """Wrap the layer functions in spans; returns the loaded spdo modules."""
    mods = {m: importlib.import_module(f"spdo.{m}") for m in MODULES}
    wrappers = [rec.wrap(name, getattr(mods[m], f))
                for (m, f), name in FUNCTIONS.items()]
    wrappers.append(rec.wrap(apply_path, mods["quantize"].apply_symbol_op))
    for wrapper in wrappers:
        original = wrapper.__wrapped__
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    for (m, cls, meth), name in METHODS.items():
        klass = getattr(mods[m], cls)
        setattr(klass, meth, rec.wrap(name, getattr(klass, meth)))
    commands = mods["cli"]._COMMANDS
    for key, fn in commands.items():
        commands[key] = rec.wrap("cli.command", fn)
    return mods


def main(argv: list[str]) -> int:
    spans_path, invocation, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder(invocation)
    mods = install(rec)
    try:
        return mods["cli"].main(cli_args)
    finally:
        rec.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
