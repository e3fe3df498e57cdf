"""Command-line front end.

Every experiment is a subcommand driven by a flat key=value config file and
a seed; a run writes report.json (deterministic: same config + seed gives
byte-identical output), meta.json (timestamps, versions, the effective
config with defaults filled in) and data/*.csv.

Exit codes: 0 verdict PASS, 2 verdict FAIL, 1 usage or configuration error.
main resolves the config against the command's key table (_KEYS) before
any work: a key outside the table, one that the chosen mode does not read,
and a value out of bounds exit 1 before numpy loads.

numpy is imported after main() has applied --threads:
the BLAS thread pool is sized when numpy loads.  main imports it through
spdo._import_long_lived, with the cyclic collector paused and then frozen,
as symbols does sympy: no later full collection and no interpreter exit
walks their import heap, a walk that took about 0.3 s at every exit of a
process that had loaded sympy.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys

from . import (_BLOCK_BYTES, _NODE_BLOCK_BYTES, _PATH_SLICE_ARRAYS,
               __version__, _import_long_lived)


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


# ---------------------------------------------------------------------------
# config plumbing


def parse_config(path: str) -> dict:
    cfg = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}")
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key:
            raise ConfigError(f"{path}:{ln}: empty key")
        cfg[key] = val
    return cfg


def _number(kind, least=None, positive=False, infinite=False):
    """Parser of one int or float (kind): not NaN, finite unless
    `infinite`, above 0 when `positive`, at least `least` when given."""
    def parse(text):
        try:
            x = kind(text)
        except ValueError:
            x = math.nan
        # comparisons, not math.isnan or :g, which overflow on a huge int
        if x != x:
            raise ValueError(f"{text!r} is not "
                             f"{'an integer' if kind is int else 'a number'}")
        if abs(x) == math.inf and not infinite:
            raise ValueError(f"{text!r} is not finite")
        shown = x if kind is int else f"{x:g}"
        if positive and x <= 0:
            raise ValueError(f"{shown} is not positive")
        if least is not None and x < least:
            raise ValueError(f"{shown} is below {least:g}")
        return x
    return parse


def _list(item, distinct=1):
    """Parser of a comma list of item values with at least `distinct`
    distinct values: an empty list would make a vacuous verdict."""
    def parse(text):
        vals = tuple(item(p.strip()) for p in text.split(",") if p.strip())
        if len(set(vals)) < distinct:
            raise ValueError(f"needs {distinct} or more distinct values, "
                             f"got {len(set(vals))}")
        return vals
    return parse


def _dimxN(text):
    """One entry of cz's cases, e.g. 2x32."""
    dim, _, N = text.partition("x")
    try:
        return int(dim), int(N)
    except ValueError:
        raise ValueError(f"bad entry {text!r}") from None


def _flag(text):
    if text not in ("0", "1"):
        raise ValueError(f"{text!r} is not 0 or 1")
    return text == "1"


def _operator(text):
    """A symbol name, or None for the zero operator: 0, none or empty."""
    return None if text in ("", "none", "0") else text


# _KEYS[command] maps each key to (parser, default[, mode]).  A default is
# a typed value, None for an absent optional key, _REQUIRED, or a function
# of the values above it.  A mode (text, test) reads the key only when
# test(values above) holds; given otherwise, the key is an error, since the
# command would ignore it.  main reads seed for every command.
_INT, _FLOAT, _COUNT = _number(int), _number(float), _number(int, least=1)
_POSITIVE = _number(float, positive=True)
_REQUIRED, _ORDER = object(), (_FLOAT, None)
_COMMON = {"seed": (_number(int, least=0), 1234)}
_DIM = {"grid.dim": (_INT, 1)}


def _ensemble_keys(M=8, K=64):
    return {"time.T": (_FLOAT, 0.5), "time.K": (_INT, K),
            "ensemble.M": (_INT, M)}


def _cz_single(v):
    return v["draws"] == 1 and not v["cases"]


_N_LIST = {**_DIM, "grid.N_list": (_list(_INT, distinct=2), (32, 64))}
_SYMBOL_GIVEN = ("random_symbols = 0", lambda v: v["random_symbols"] == 0)
_PAIR_GIVEN = ("random_pairs = 0", lambda v: v["random_pairs"] == 0)
_NO_CASES = ("no cases", lambda v: not v["cases"])
_KEYS = {
    "verify-symbol": {
        **_DIM, "grid.N": (_INT, 64), **_ensemble_keys(),
        "check.alpha_max": (_number(int, least=0), 2),
        "check.beta_max": (_number(int, least=0), 2),
        "symbol": (str, _REQUIRED), "symbol.order": _ORDER},
    "quantize-demo": {
        **_DIM, "grid.N": (_INT, 64),
        "random_symbols": (_number(int, least=0), 0),
        "tol": (_FLOAT, 1e-8, ("random_symbols > 0",
                               lambda v: v["random_symbols"] > 0)),
        "symbol": (str, "bessel1", _SYMBOL_GIVEN),
        "symbol.order": _ORDER + (_SYMBOL_GIVEN,)},
    "compose": {
        **_DIM, "grid.N": (_INT, 64), "tol": (_FLOAT, 1e-9),
        "trials": (_COUNT, 5), "random_pairs": (_number(int, least=0), 0),
        "b": (str, _REQUIRED, _PAIR_GIVEN), "b.order": _ORDER + (_PAIR_GIVEN,),
        "a": (str, _REQUIRED, _PAIR_GIVEN), "a.order": _ORDER + (_PAIR_GIVEN,),
        "n_terms": (_number(int, least=0), 4, _PAIR_GIVEN),
        "check": (_flag, False, _PAIR_GIVEN)},
    "parametrix": {
        **_DIM, "grid.N": (_INT, 128),
        "symbol": (str, "parametrix-demo"), "symbol.order": _ORDER,
        # the residual slope is fitted through at least two modes
        "modes": (_list(_number(int, least=1), distinct=2), (8, 16, 32)),
        "n_terms": (_list(_number(int, least=0)), (1, 2, 3))},
    "bounds": {
        **_N_LIST, **_ensemble_keys(),
        "symbol": (_list(str), ("identity", "sgn-smoothed", "mod-x")),
        "q": (_number(float, least=1.0, infinite=True), 2.0),
        "trials": (_COUNT, 5)},
    "cz": {
        "cases": (_list(_dimxN, distinct=0), ()),
        "grid.dim": (_INT, 1, _NO_CASES), "grid.N": (_INT, 32, _NO_CASES),
        "draws": (_COUNT, lambda v: 25 if v["cases"] else 1),
        "p": (_number(float, least=1.0, infinite=True), 2.0),
        # 0: the automatic level, 4x the mean site density
        "level.r": (_number(float, least=0.0), 0.0,
                    ("draws = 1 and no cases", _cz_single)),
        "time.T": (_FLOAT, 0.5),
        "time.K": (_INT, lambda v: 64 if _cz_single(v) else 8),
        "ensemble.M": (_INT, lambda v: 8 if _cz_single(v) else 3)},
    "garding": {
        **_N_LIST, **_ensemble_keys(),
        "symbol": (str, "garding-stochastic"), "symbol.order": _ORDER,
        "delta_star": (_FLOAT, 1.0), "eps": (_FLOAT, 0.1), "r": (_FLOAT, 0.0),
        "trials": (_COUNT, 10), "exact_check": (_flag, False),
        "exact_trials": (_COUNT, 10, ("exact_check = 1",
                                      lambda v: v["exact_check"]))},
    "integrator": {
        **_DIM, "grid.N": (_INT, 8), **_ensemble_keys(10_000, 200),
        "sigma": (_FLOAT, 2.0), "unitary.K": (_INT, 1000),
        "iso_tol": (_FLOAT, 0.05), "drift_tol": (_FLOAT, 1e-6)},
    "carleman": {
        "mu_list": (_list(_POSITIVE), (50.0, 100.0, 200.0)),
        **_DIM, "grid.N": (_INT, 64), **_ensemble_keys(16),
        "B1": (_operator, "bessel1"), "B1.order": _ORDER + (
            ("a non-zero B1", lambda v: v["B1"] is not None),),
        "A1": (_operator, None), "A1.order": _ORDER + (
            ("a non-zero A1", lambda v: v["A1"] is not None),),
        "draws": (_COUNT, 50)},
    "uniqueness": {
        # the decay slope is fitted through at least two weights
        "mu_list": (_list(_POSITIVE, distinct=2), (50.0, 100.0, 200.0, 400.0)),
        **_DIM, "grid.N": (_INT, 32), **_ensemble_keys(64, 128),
        "equation": (str, "wave"), "r": (_POSITIVE, 1.5)},
}


# the most bytes the arrays that a command holds at one time may take, as
# _held_arrays counts them.  The defaults of integrator hold a 2 MB draw
# slice and the 1.3 MB Y(T)
_MAX_HELD_BYTES = 1 << 30


def _sites(dim, N):
    # Grid rejects a dimension outside 1..3 later; a huge one here would
    # make a huge power
    return N ** dim if 1 <= dim <= 3 else 0


def _held_arrays(command, v):
    """(bytes, size keys, what) of each array that command holds together
    with the others, as the values v size it; an array of one draw, one
    path slice, one draw slice, one block of time nodes or one step counts
    once."""
    grid = tuple(k for k in ("grid.dim", "grid.N", "grid.N_list", "cases")
                 if k in v)
    shapes = v.get("cases") or [
        (v["grid.dim"], N) for N in v.get("grid.N_list", (v.get("grid.N"),))]
    n = max(_sites(dim, N) for dim, N in shapes)  # of the largest grid
    dim, N = shapes[0]
    # the ellipticity scan holds its values in blocks of about 1 MiB of
    # frequencies, so this row bounds the scan's work at each sample, not
    # its memory
    scan = (16 * _sites(dim, min(N, 16)) * n, grid, "the ellipticity scan "
            "of at least min(N, 16)^n points by N^n frequencies")
    if command == "quantize-demo":
        return [(64 * (N - 1) * n, grid, "the N - 1 plane waves of the "
                 "extraction sweep and three arrays of their size")]
    if command == "compose":
        # a named pair with check = 0 is expanded, and applied to no field
        fields = v["random_pairs"] or v["check"]
        return [(80 * v["trials"] * n * bool(fields), ("trials",) + grid,
                 "the trial fields, their three images and the difference")]
    if command == "parametrix":
        return [(64 * len(v["modes"]) * n, ("modes",) + grid, "the plane "
                 "waves of the modes and three arrays of their size"), scan]
    M, K1 = v["ensemble.M"], v["time.K"] + 1
    path_time = ("ensemble.M", "time.K") + grid
    paths = (8 * M * K1, ("ensemble.M", "time.K"), "the Brownian paths")
    arrays = [] if command == "integrator" else [paths]
    if command == "cz":
        arrays.append((16 * M * K1 * n, path_time,
                       "one draw's field at every (path, time) node"))
    elif command == "carleman":
        # a block of nodes plus the node carried into the next
        block = min(max(1, _NODE_BLOCK_BYTES // max(1, 16 * M * n)), K1 - 1)
        arrays += [(160 * M * (block + 1) * n, path_time, "ten work arrays "
                    "of one block of time nodes"),
                   (160 * M * K1, ("ensemble.M", "time.K"),
                    "ten spatial moments at every (path, time) node")]
    elif command == "uniqueness":
        # two components (the registry's m <= 2): the state, the right
        # side and the values of one step; the source and its spectra
        arrays += [(96 * M * n, ("ensemble.M",) + grid,
                    "one step's two-component state"),
                   (64 * K1 * n, ("time.K",) + grid,
                    "the two-component source and its spectra"),
                   (8 * M * K1, ("ensemble.M", "time.K"),
                    "the ball energy at every (path, time) node")]
    elif command in ("bounds", "garding"):
        arrays.append((_PATH_SLICE_ARRAYS * 16 * K1 * n, ("time.K",) + grid,
                       "one path's field, its image and their temporaries "
                       "at every time node"))
        if command == "garding":
            # as scan's row, this bounds the work at each sample
            stride = max(1, max(N for _, N in shapes) // 16)
            arrays.append((16 * -(-n // stride) * n, grid,
                           "one (path, time) sample's hypothesis scan of "
                           "every (N // 16)-th point by N^n frequencies"))
    elif command == "integrator":
        rows = min(M, max(1, _BLOCK_BYTES // (8 * max(1, K1 - 1))))
        arrays += [(16 * rows * K1, ("ensemble.M", "time.K"),
                    "one draw slice's paths and increments"),
                   (32 * rows * n, ("ensemble.M", "time.K") + grid,
                    "one draw slice's spectral state and right side"),
                   (16 * M * n, ("ensemble.M",) + grid, "Y(T) of every path"),
                   (32 * K1 * n, ("time.K",) + grid,
                    "the noise source and its spectra"),
                   (16 * (v["unitary.K"] + 1) * n, ("unitary.K",) + grid,
                    "the unitary run")]
    elif command == "verify-symbol":
        arrays.append(scan)
    return arrays


def _check_held_bytes(command, values):
    """Reject the values of command when the arrays it holds at one time
    would pass _MAX_HELD_BYTES, naming the keys of the largest."""
    arrays = _held_arrays(command, values)
    nbytes = sum(b for b, _, _ in arrays)
    if nbytes > _MAX_HELD_BYTES:
        _, keys, what = max(arrays)
        # log2, not a float: the product of huge keys overflows a float
        raise ConfigError(
            f"config keys {', '.join(map(repr, keys))}: the arrays {command} "
            f"holds at one time, the largest {what}, take "
            f"2^{math.log2(nbytes):.1f} bytes, past the budget of "
            f"2^{math.log2(_MAX_HELD_BYTES):.0f}")


def resolve_config(command, cfg):
    """The effective config of command: each key of its table that the
    chosen mode reads, parsed from cfg or defaulted, in table order, with
    the arrays it holds at one time within _MAX_HELD_BYTES."""
    table = {**_COMMON, **_KEYS[command]}
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(
            f"unknown key{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(map(repr, unknown))} for {command}")
    values = {}
    for key, (parse, default, *mode) in table.items():
        if mode and not mode[0][1](values):
            if key in cfg:
                raise ConfigError(
                    f"config key {key!r} is read only with {mode[0][0]}")
        elif key in cfg:
            try:
                values[key] = parse(cfg[key])
            except ValueError as e:
                raise ConfigError(f"config key {key!r}: {e}") from None
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            values[key] = default(values) if callable(default) else default
    _check_held_bytes(command, values)
    return values


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.12g}" if isinstance(v, float) else v
                        for v in row])


def _checked(keys, build, *args, **kwargs):
    """build(*args, **kwargs) on the values of config keys; a value it
    rejects with ValueError is a ConfigError naming the keys."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{keys}: {e}") from None


def _grid(dim, N):
    from .grid import Grid

    return _checked(f"grid {dim}x{N}", Grid, dim, N)


def _timegrid(v):
    from .grid import TimeGrid

    return _checked("time.T, time.K", TimeGrid, v["time.T"], v["time.K"])


def _ensemble(v, seed):
    from .stochastic import sample_brownian

    return _checked("ensemble.M", sample_brownian, v["ensemble.M"],
                    _timegrid(v), seed=seed)


def _symbol(v, key, dim):
    from .registry import make_symbol

    return make_symbol(v[key], dim, v[key + ".order"])


# ---------------------------------------------------------------------------
# subcommands: each returns (report dict, {csv name: (header, rows)}), and
# report["passed"] is the verdict


# verify-symbol differentiates and compiles the symbol once per multi-index
# pair (alpha, beta), and (alpha_max + 1)^n (beta_max + 1)^n bounds their
# count; the most it takes is that of the default caps 2/2 in 3-D.  In 1-D
# caps 40/40 (1,681 pairs) run about 8 s
_MAX_DERIVATIVE_PAIRS = 729
# and evaluates each pair at up to 36 (t, path) nodes, each time at 16^n
# points by 64^n frequencies at most: 2^20 in 2-D at any N.  In 3-D at
# N = 16 one evaluation takes 2^24 values (268 MB) and the default caps ran
# past 60 s; at N = 8 (2^18) they run in under 9 s
_MAX_ESTIMATE_SAMPLES = 1 << 20


def run_verify_symbol(v, seed):
    from .symbols import (check_symbol_estimate, ellipticity_check,
                          _sample_freqs, _sample_points)

    grid = _grid(v["grid.dim"], v["grid.N"])
    alpha_max, beta_max = v["check.alpha_max"], v["check.beta_max"]
    pairs = ((alpha_max + 1) * (beta_max + 1)) ** grid.dim
    if pairs > _MAX_DERIVATIVE_PAIRS:
        raise ConfigError(
            f"config keys 'check.alpha_max', 'check.beta_max': "
            f"(alpha_max+1)^n (beta_max+1)^n = {pairs} passes "
            f"{_MAX_DERIVATIVE_PAIRS}")
    samples = len(_sample_points(grid)) * len(_sample_freqs(grid))
    if samples > _MAX_ESTIMATE_SAMPLES:
        raise ConfigError(
            f"config keys 'grid.dim', 'grid.N': one estimate evaluation "
            f"takes {samples} (x, xi) samples, past {_MAX_ESTIMATE_SAMPLES}")
    ens = _ensemble(v, seed)
    a = _symbol(v, "symbol", grid.dim)
    est = check_symbol_estimate(a, alpha_max, beta_max, grid, ensemble=ens)
    ell = ellipticity_check(a, grid, ens)
    report = {
        "symbol": a.name or "<expr>",
        "order": a.order,
        "estimate": est.to_dict(),
        "ellipticity": {"elliptic": ell.elliptic, "C_K": ell.C_K,
                        "R_K": ell.R_K},
        "passed": est.passed,
    }
    rows = [(f"{e.alpha}", f"{e.beta}", float(e.max_ratio), float(e.slope),
             bool(e.violation)) for e in est.entries]
    return report, {"estimate": (("alpha", "beta", "max_ratio", "slope",
                                  "violation"), rows)}


def _extraction_sweep(a, grid):
    import numpy as np
    from .quantize import extract_symbol

    kmax = grid.N // 2 - 1
    ks = np.arange(-kmax, kmax + 1)
    # every mode in one batch, at one (t, w) node
    vals = extract_symbol(a, grid, [(k,) + (0,) * (grid.dim - 1)
                                    for k in ks.tolist()])
    lead = (-1,) + (1,) * grid.dim
    xi0 = np.zeros(vals.shape + (grid.dim,))
    xi0[..., 0] = (2.0 * np.pi * ks / grid.L).reshape(lead)
    direct = np.broadcast_to(a(0.0, 0.0, grid.points(), xi0), vals.shape)
    axes = tuple(range(1, vals.ndim))
    # numpy's maximum propagates NaN, as Python's max(nan, c) does
    denom = np.maximum(np.abs(direct).max(axis=axes), 1e-30)
    errs = np.abs(vals - direct).max(axis=axes) / denom
    return list(zip(ks.tolist(), errs.tolist()))


def run_quantize_demo(v, seed):
    import numpy as np

    grid = _grid(v["grid.dim"], v["grid.N"])
    n_random = v["random_symbols"]
    if n_random > 0:
        from .registry import family_symbol

        # extraction identity on random order-<=1 symbols with periodic
        # (trig-polynomial) coefficients, p0 + p1 sin x1 + p2 cos x1
        # + (p3 + p4 cos x1) xi1, swept over every resolved mode
        rng = np.random.default_rng(seed)
        worst = 0.0
        rows = []
        for i in range(n_random):
            a = family_symbol("trig-order-1", grid.dim,
                              [rng.normal() for _ in range(5)])
            errs = _extraction_sweep(a, grid)
            # numpy's max and maximum propagate NaN; Python's max drops it
            e = float(np.max([err for _, err in errs]))
            worst = float(np.maximum(worst, e))
            rows.append((i, e))
        report = {"random_symbols": n_random, "max_extraction_error": worst,
                  "modes_per_symbol": grid.N - 2, "passed": worst <= v["tol"]}
        return report, {"extraction": (("symbol", "max_rel_error"), rows)}
    a = _symbol(v, "symbol", grid.dim)
    errs = _extraction_sweep(a, grid)
    worst = float(np.max([e for _, e in errs]))
    report = {"symbol": a.name or "<expr>", "max_extraction_error": worst,
              "modes_checked": len(errs), "passed": worst <= 1e-8}
    return report, {"extraction": (("mode", "rel_error"), errs)}


def _compose_error(b, a, comp, grid, rng, trials):
    """Worst relative L2 distance of comp, the composed symbol, from b
    applied after a, over `trials` random fields."""
    import numpy as np
    from .quantize import apply_symbol_op
    from .grid import Field, l2_norm, random_band_limited

    # the trial fields, drawn in turn, applied as one batch at one node
    u = Field(grid, np.stack([random_band_limited(grid, rng).values
                              for _ in range(trials)]))
    direct = apply_symbol_op(b, apply_symbol_op(a, u))
    via = apply_symbol_op(comp, u)
    err = l2_norm(Field(grid, direct.values - via.values))
    # numpy's max and maximum propagate NaN
    return float(np.max(err / np.maximum(l2_norm(direct), 1e-30)))


# the family of the random pairs (registry._FAMILY_TABLE)
_PAIR_FAMILY = "trig-poly-3"


def _random_poly_draw(rng):
    """(parameters p of a member of family trig-poly-3, its degree deg):
    for each d <= deg < 4, a coefficient in [-2, 2] to three decimals at
    p[3 d + kind], kind drawn from 0, 1, 2 (1, sin x1, cos x1); the
    constant 1 when every coefficient is 0."""
    import numpy as np

    p = [0.0] * 12
    deg = int(rng.integers(0, 4))
    for d in range(deg + 1):
        c = float(np.round(rng.uniform(-2, 2), 3))
        p[3 * d + int(rng.integers(0, 3))] = c
    if not any(p):
        p[0] = 1.0
    return p, deg


def _composed_family(dim, bd):
    """The composition of b after a, two members of trig-poly-3 with
    parameters b0..b11 and a0..a11, expanded in sympy to n_terms = bd
    (exact for b of degree <= bd): its expression and its rendered form
    for Symbol._precompiled, the separation not rendered."""
    from .calculus import compose_symbols
    from .registry import _expr
    from .symbols import _source, sp, symbol_from_expr

    b, a = (symbol_from_expr(_expr(_PAIR_FAMILY, dim, sp.symbols(f"{v}0:12")),
                             dim, order=3) for v in "ba")
    comp = compose_symbols(b, a, bd).symbol_sum()
    return comp.expr, (_source(comp.expr, dim, comp._vars), ...,
                       comp.x_independent, comp.tw_independent)


def _pair_symbols(dim, b_draw, a_draw, composed):
    """b, a and the composition of b after a for two draws of
    _random_poly_draw, all read off rendered forms with the draws bound:
    the family's for b and a, and for the composition the family's
    composition at b's degree, which composed (a dict) holds by degree."""
    from functools import partial

    from .registry import family_symbol
    from .symbols import Symbol, sp

    (bp, bd), (ap, _) = b_draw, a_draw
    b = family_symbol(_PAIR_FAMILY, dim, bp)
    a = family_symbol(_PAIR_FAMILY, dim, ap)
    if bd not in composed:
        composed[bd] = _composed_family(dim, bd)
    expr, compiled = composed[bd]
    values = {**{f"b{k}": v for k, v in enumerate(bp)},
              **{f"a{k}": v for k, v in enumerate(ap)}}
    # its expression, built when first read, holds the drawn numbers
    subs = {sp.Symbol(k): sp.Float(v) for k, v in values.items()}
    return b, a, Symbol._precompiled(b.order + a.order, dim, "",
                                     partial(expr.xreplace, subs), compiled,
                                     values)


def _compose_pairs(grid, rng, pairs, trials):
    """Rows (pair, relative error) of the oracle sweep: for each of `pairs`
    random pairs, drawn in turn with their trial fields, the composition
    against b applied after a (_compose_error)."""
    composed, rows = {}, []
    for i in range(pairs):
        b, a, comp = _pair_symbols(grid.dim, _random_poly_draw(rng),
                                   _random_poly_draw(rng), composed)
        rows.append((i, _compose_error(b, a, comp, grid, rng, trials)))
    return rows


def run_compose(v, seed):
    import numpy as np
    from .calculus import compose_symbols

    grid = _grid(v["grid.dim"], v["grid.N"])
    rng = np.random.default_rng(seed)
    tol, trials, pairs = v["tol"], v["trials"], v["random_pairs"]
    if pairs > 0:
        rows = _compose_pairs(grid, rng, pairs, trials)
        # numpy's max propagates NaN
        worst = float(np.max([err for _, err in rows]))
        report = {"random_pairs": pairs, "worst_relative_error": worst,
                  "tol": tol, "passed": worst <= tol}
        return report, {"compose": (("pair", "rel_error"), rows)}
    b = _symbol(v, "b", grid.dim)
    a = _symbol(v, "a", grid.dim)
    n_terms = v["n_terms"]
    series = compose_symbols(b, a, n_terms)
    text = series.pretty()
    print(text)
    report = {"expansion": text, "n_terms": n_terms, "passed": True}
    if v["check"]:
        worst = _compose_error(b, a, series.symbol_sum(), grid, rng, trials)
        report["relative_error"] = worst
        report["tol"] = tol
        report["passed"] = worst <= tol
    return report, {}


def run_parametrix(v, seed):
    import numpy as np
    from .calculus import parametrix, series_apply
    from .quantize import apply_symbol_op
    from .grid import Field, l2_norm, plane_wave

    grid = _grid(v["grid.dim"], v["grid.N"])
    modes = v["modes"]
    # plane_wave aliases a mode at or above N/2, which the slope fit would
    # read as the mode given
    if max(modes) >= grid.N // 2:
        raise ConfigError(f"config key 'modes': {max(modes)} is not below "
                          f"the Nyquist mode N/2 = {grid.N // 2}")
    a = _symbol(v, "symbol", grid.dim)
    # every mode in one batch, at one (t, w) node
    e = plane_wave(grid, [(k,) + (0,) * (grid.dim - 1) for k in modes])
    rows = []
    for n in v["n_terms"]:
        series = parametrix(a, n, grid)
        aqe = apply_symbol_op(a, series_apply(series, e))
        resid = (l2_norm(Field(grid, aqe.values - e.values))
                 / l2_norm(e)).tolist()
        slope = float(np.polyfit(np.log(np.asarray(modes, float)),
                                 np.log(resid), 1)[0])
        target = -(n + 1)
        ok = abs(slope - target) <= 0.2 * abs(target)
        rows.append((n, slope, float(target), ok) + tuple(resid))
    report = {"symbol": a.name or "<expr>", "modes": modes,
              "slopes": {str(r[0]): r[1] for r in rows},
              "passed": all(r[3] for r in rows)}
    hdr = ("n_terms", "slope", "target", "ok") + tuple(
        f"resid_k{k}" for k in modes)
    return report, {"parametrix": (hdr, rows)}


def run_bounds(v, seed):
    from .bounds import l2_boundedness_check
    from .registry import make_symbol

    grids = [_grid(v["grid.dim"], N) for N in v["grid.N_list"]]
    ens = _ensemble(v, seed)
    per = {}
    rows = []
    for name in v["symbol"]:
        a = make_symbol(name, v["grid.dim"])
        rep = l2_boundedness_check(a, v["q"], grids, ens, trials=v["trials"],
                                   seed=seed)
        per[name] = rep.to_dict()
        for n, c in sorted(rep.constants.items()):
            rows.append((name, int(n), float(c)))
    report = {"symbols": per,
              "passed": all(rep["passed"] for rep in per.values())}
    return report, {"bounds": (("symbol", "N", "constant"), rows)}


def run_cz(v, seed):
    import numpy as np
    from .harmonic import cz_decompose
    from .bounds import random_adapted_field
    from .stochastic import lpf_norm_values

    if not _cz_single(v):
        return _run_cz_sweep(v, seed)
    grid = _grid(v["grid.dim"], v["grid.N"])
    ens = _ensemble(v, seed)
    rng = np.random.default_rng(seed)
    u = random_adapted_field(grid, ens, rng)
    r, p = v["level.r"], v["p"]
    if r == 0:
        r = 4.0 * float(np.mean(lpf_norm_values(u.values,
                                                ens.timegrid.nodes(), p)))
    dec = _checked("level.r", cz_decompose, u, ens, r, p)
    checks = _cz_property_checks(u, ens, dec)
    report = {"level": dec.level, "n_bad_cubes": len(dec.bad),
              "cube_measure": dec.cube_measure(), "u_l1_lpf": dec.u_l1_lpf,
              "properties": checks, "passed": all(checks.values())}
    rows = [(i, ",".join(map(str, c.origin)), c.size)
            for i, (c, _) in enumerate(dec.bad)]
    return report, {"cubes": (("index", "origin", "size"), rows)}


def _run_cz_sweep(v, seed):
    """Property suite over many random (u, r) draws, possibly several grids.

    `cases` is a comma list of dimxN entries, e.g. 1x32,1x64,2x16,2x32;
    `draws` counts draws per case.  The level is a random multiple (2-8x)
    of the average density; draws whose level is below the feasible range
    are skipped and reported, with a 90% coverage floor on the rest.
    """
    import numpy as np
    from .harmonic import cz_decompose, LevelTooLowError
    from .bounds import random_adapted_field
    from .stochastic import lpf_norm_values

    cases = v["cases"] or [(v["grid.dim"], v["grid.N"])]
    grids = [_grid(dim, N) for dim, N in cases]
    draws, p = v["draws"], v["p"]
    checked = 0
    total = 0
    agg = None
    rows = []
    for grid, (dim, N) in zip(grids, cases):
        for i in range(draws):
            total += 1
            ens = _ensemble(v, seed + total)
            rng = np.random.default_rng(seed + total)
            u = random_adapted_field(grid, ens, rng)
            avg = float(np.mean(lpf_norm_values(u.values,
                                                ens.timegrid.nodes(), p)))
            r = (2.0 + 6.0 * rng.random()) * avg
            try:
                dec = cz_decompose(u, ens, r, p)
            except LevelTooLowError:
                rows.append((dim, N, i, float(r), "skipped", ""))
                continue
            checked += 1
            checks = _cz_property_checks(u, ens, dec)
            agg = checks if agg is None else \
                {k: agg[k] and checks[k] for k in agg}
            rows.append((dim, N, i, float(r),
                         "pass" if all(checks.values()) else "fail",
                         len(dec.bad)))
    props = agg or {}
    # total >= 1, so the coverage floor fails a sweep that checked nothing
    report = {"cases": [f"{d}x{N}" for d, N in cases], "draws_per_case": draws,
              "total_draws": total, "checked": checked, "properties": props,
              "passed": all(props.values())
              and checked >= int(np.ceil(0.9 * total))}
    hdr = ("dim", "N", "draw", "level", "verdict", "n_bad_cubes")
    return report, {"cz_sweep": (hdr, rows)}


def _cz_property_checks(u, ens, dec):
    """The six decomposition guarantees, evaluated directly."""
    import numpy as np
    from .stochastic import lpf_norm_values

    grid = u.grid
    recon = dec.good.values.copy()
    for c, wk in dec.bad:
        recon[(..., *c.slices())] += wk
    checks = {"reconstruction": bool(np.abs(recon - u.values).max() <= 1e-12
                                     * max(1.0, np.abs(u.values).max()))}
    covered = np.zeros(grid.shape, bool)
    disjoint = True
    for c, _ in dec.bad:
        sl = c.slices()
        if covered[sl].any():
            disjoint = False
        covered[sl] = True
    checks["disjoint_cubes"] = disjoint
    checks["measure_bound"] = bool(
        dec.level * dec.cube_measure() <= dec.u_l1_lpf * (1 + 1e-12))
    zero_mean = True
    for _, wk in dec.bad:
        axes = tuple(range(2, 2 + grid.dim))
        m = np.abs(wk.mean(axis=axes)).max()
        zero_mean &= bool(m <= 1e-12 * max(1.0, np.abs(u.values).max()))
    checks["zero_mean"] = zero_mean
    dens = lpf_norm_values(dec.good.values, ens.timegrid.nodes(),
                           dec.exponent)
    checks["good_bound"] = bool(
        dens.max() <= 2**grid.dim * dec.level * (1 + 1e-12))
    outside = ~covered
    if outside.any():
        diff = np.abs((dec.good.values - u.values)[..., outside]).max()
        checks["untouched_outside"] = bool(
            diff <= 1e-15 * max(1.0, np.abs(u.values).max()))
    else:
        checks["untouched_outside"] = True
    return checks


def run_garding(v, seed):
    from .bounds import garding_check

    dims = v["grid.dim"]
    consts = v["delta_star"], v["eps"], v["r"]
    # the symbol first; the order does not show in the measurements: at the
    # ensemble config either order takes 31.6k-31.7k minor page faults per
    # run, and the same wall time within noise
    a = _symbol(v, "symbol", dims)
    grids = [_grid(dims, N) for N in v["grid.N_list"]]
    ens = _ensemble(v, seed)
    rep = garding_check(a, *consts, grids, ens, trials=v["trials"], seed=seed)
    report = rep.to_dict()
    if v["exact_check"]:
        # analytic control case: Re(|xi|^2) >= (1 - eps)|xi|^2 holds with
        # C <= 1 exactly, so the measured constants must not exceed 1
        from .registry import make_symbol

        rep2 = garding_check(make_symbol("laplacian", dims), *consts, grids,
                             ens, trials=v["exact_trials"], seed=seed)
        # the control is judged on C <= 1 alone (NaN fails the comparison):
        # its stability ratio divides by the 1e-12 floor when a grid gives 0
        report["exact_constants"] = {str(n): float(c) for n, c in
                                     rep2.constants.items()}
        report["exact_passed"] = all(c <= 1.0 + 1e-9
                                     for c in rep2.constants.values())
        report["passed"] = rep.passed and report["exact_passed"]
    rows = [(int(n), float(c)) for n, c in sorted(rep.constants.items())]
    return report, {"garding": (("N", "constant"), rows)}


# ln of the largest float64: the Carleman weight e^{mu T^2} overflows past it
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _weight_fits(mu, T):
    """Reject a run whose largest Carleman weight e^{mu T^2} overflows."""
    # mu * T * T, not T**2: a float product overflows to inf, a power raises
    if mu * T * T > _LOG_FLOAT_MAX:
        raise ConfigError(
            f"config keys 'mu_list', 'time.T': the weight e^(mu T^2) at "
            f"mu = {mu:g} overflows: mu T^2 = {mu * T * T:.6g} > "
            f"ln(float64 max) = {_LOG_FLOAT_MAX:.2f}")


def run_carleman(v, seed):
    import numpy as np
    from .cauchy import pinned_semimartingale, carleman_report

    mu_list = list(v["mu_list"])
    # the robustness sweep runs up to 2 max(mu_list)
    _weight_fits(2.0 * max(mu_list), v["time.T"])
    grid = _grid(v["grid.dim"], v["grid.N"])
    ens = _ensemble(v, seed)
    T = ens.timegrid.T
    B1, A1 = (None if v[key] is None else _symbol(v, key, grid.dim)
              for key in ("B1", "A1"))
    draws = v["draws"]
    rng = np.random.default_rng(seed)
    rows = []
    n_pass = 0
    n_robust = 0
    for d in range(draws):
        z = pinned_semimartingale(grid, ens, rng)
        # mu_list, then the doubled values of the robustness sweep
        try:
            reps = carleman_report(z, A1, B1,
                                   mu_list + [2.0 * mu for mu in mu_list], ens)
        except OverflowError as e:
            raise ConfigError(f"config keys 'mu_list', 'time.T': {e}") \
                from None
        for mu, rep in zip(mu_list, reps):
            rows.append((d, float(mu), rep.lhs, rep.rhs, rep.margin,
                         rep.discretization_gap, rep.passed))
        ok = all(rep.passed for rep in reps[:len(mu_list)])
        n_pass += ok
        n_robust += ok and all(rep.passed for rep in reps[len(mu_list):])
    robust_rate = n_robust / draws
    report = {"T": T, "mu_list": mu_list, "draws": draws,
              "pass_rate": n_pass / draws, "robust_rate_2mu": robust_rate,
              "passed": n_pass == draws and robust_rate >= 0.95}
    hdr = ("draw", "mu", "lhs", "rhs", "margin", "gap", "pass")
    return report, {"carleman": (hdr, rows)}


def _ito_final(F, grid, ens):
    """Y(T), shape (M,) + grid.shape, of the scalar (1/i) dY = F dw from
    Y(0) = 0; only the last spectral state is transformed back."""
    import numpy as np
    from .cauchy import _from_spectrum, integrate_spde_system

    y0 = np.zeros((ens.M, 1) + grid.shape, np.complex128)
    for last in integrate_spde_system(None, None, F, grid, ens, y0):
        pass
    return _from_spectrum(last, grid)[:, 0]


def run_integrator(v, seed):
    """Integrator sanity: Ito isometry at large M, unitary norm drift."""
    import numpy as np
    from .cauchy import EquationSpec, _from_spectrum, integrate_spde_system
    from .grid import TimeGrid
    from .stochastic import brownian_slices, sample_brownian

    g = _grid(v["grid.dim"], v["grid.N"])
    sigma = v["sigma"]
    if sigma == 0:
        raise ConfigError("config key 'sigma': 0 makes the Ito target 0")
    tg, M = _timegrid(v), v["ensemble.M"]
    # the paths are drawn and stepped one slice at a time; only Y(T) is kept
    slices = _checked("ensemble.M", brownian_slices, M, tg, seed)
    tg2 = _checked("unitary.K", TimeGrid, tg.T, v["unitary.K"])
    F = np.zeros((tg.K + 1, 1) + g.shape, np.complex128)
    F[:, 0] = sigma
    final = np.empty((M,) + g.shape, np.complex128)
    s = 0
    for part in slices:
        final[s:s + part.M] = _ito_final(F, g, part)
        s += part.M
    got = float((np.abs(final) ** 2).reshape(M, -1)[:, 0].mean())
    target = sigma**2 * tg.T
    iso_err = abs(got - target) / target

    ens2 = sample_brownian(1, tg2, seed=seed)
    spec = EquationSpec(m=1, dim=g.dim,
                        principal={(0, (1,) + (0,) * (g.dim - 1)): 1.0})
    y0 = np.ones((1, 1) + g.shape, np.complex128)
    # the frozen Cayley pair and its CFL check are built in this call
    steps = _checked("time.T, unitary.K", integrate_spde_system, spec, None,
                     None, g, ens2, y0)
    # np.max keeps a NaN state, which Python's max would drop
    drift = float(np.max(
        [np.abs(np.abs(y0) - 1.0).max()]
        + [np.abs(np.abs(_from_spectrum(y, g)) - 1.0).max() for y in steps]))

    # 3 relative standard deviations of the estimate, 3 sqrt(2/M), must fit
    iso_tol = v["iso_tol"]
    report = {"ito_isometry": {"M": M, "measured": got, "target": target,
                               "rel_error": iso_err},
              "unitary": {"K": v["unitary.K"], "norm_drift": drift},
              "passed": iso_err <= iso_tol
              and 3.0 * np.sqrt(2.0 / M) <= iso_tol
              and drift <= v["drift_tol"]}
    rows = [("ito_isometry_rel_error", iso_err),
            ("unitary_norm_drift", drift)]
    return report, {"integrator": (("check", "value"), rows)}


def run_uniqueness(v, seed):
    from dataclasses import asdict

    from .cauchy import uniqueness_experiment
    from .registry import make_equation

    mu_list = v["mu_list"]
    _weight_fits(max(mu_list), v["time.T"])
    grid = _grid(v["grid.dim"], v["grid.N"])
    ens = _ensemble(v, seed)
    spec = make_equation(v["equation"], dim=grid.dim)
    rep = _checked("time.T, time.K", uniqueness_experiment, spec, mu_list,
                   v["r"], grid, ens, seed=seed)
    rows = list(zip(mu_list, rep.log_bound, rep.log_quotient))
    return asdict(rep), {"decay": (("mu", "log_bound", "log_quotient"), rows)}


def _json_default(o):
    if hasattr(o, "tolist"):  # numpy scalars and arrays
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


# command name -> run_<name>(values of its _KEYS table, seed)
_COMMANDS = {name: globals()["run_" + name.replace("-", "_")]
             for name in _KEYS}


def _thread_count(text):
    # argparse turns the error into exit 1, before any work
    try:
        return _number(int, least=0)(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="spdo",
        description="Stochastic pseudo-differential operator experiments")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the seed config key (default 1234)")
    p.add_argument("--out", default="spdo-out", help="output directory")
    p.add_argument("--threads", type=_thread_count, default=0,
                   help="cap worker threads (0 = library default)")
    try:
        args = p.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    if args.threads > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    started = datetime.datetime.now(datetime.timezone.utc)
    try:
        cfg = parse_config(args.config) if args.config else {}
        values = resolve_config(args.command, cfg)
        if args.seed is not None:  # the flag overrides a valid seed key
            values = resolve_config(args.command,
                                    {**cfg, "seed": str(args.seed)})
        np = _import_long_lived("numpy")
        report, csvs = _COMMANDS[args.command](values, values["seed"])
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        from .bounds import HypothesisError
        from .calculus import EllipticityError
        from .quantize import CapError
        from .registry import RegistryError

        if isinstance(e, RegistryError):
            print(f"config error: {e}", file=sys.stderr)
            return 1
        if isinstance(e, CapError):
            key = "grid.N_list" if "grid.N_list" in values else "grid.N"
            print(f"config error: config key {key!r}: {e}", file=sys.stderr)
            return 1
        if isinstance(e, (HypothesisError, EllipticityError)):
            print(f"hypothesis error: {e}", file=sys.stderr)
            return 1
        raise

    os.makedirs(args.out, exist_ok=True)
    payload = {"command": args.command, "seed": values["seed"],
               "config": cfg, "report": report, "passed": report["passed"]}
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True,
                            default=_json_default) + "\n")
    meta = {
        "started_utc": started.isoformat(),
        "finished_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
        "version": __version__,
        "numpy": np.__version__,
        "threads": args.threads,
        "config": values,
    }
    with open(os.path.join(args.out, "meta.json"), "w") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    if csvs:
        datadir = os.path.join(args.out, "data")
        os.makedirs(datadir, exist_ok=True)
        for name, (hdr, rows) in csvs.items():
            _write_csv(os.path.join(datadir, f"{name}.csv"), hdr, rows)
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"{args.command}: {verdict} (report in {args.out})")
    return 0 if report["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
