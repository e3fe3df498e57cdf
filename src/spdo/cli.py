"""Command-line front end.

Every experiment is a subcommand driven by a flat key=value config file and
a seed; a run writes report.json (deterministic: same config + seed gives
byte-identical output), meta.json (timestamps, versions) and data/*.csv.

Exit codes: 0 verdict PASS, 2 verdict FAIL, 1 usage or configuration error
(a config key that the command never reads is one).

numpy is imported inside the commands, after main() has applied --threads:
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

from . import __version__, _import_long_lived


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


# ---------------------------------------------------------------------------
# config plumbing


class Config(dict):
    """A parsed config that records in `read` every key looked up through
    get, [] or in, so that main can name the keys no command read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def parse_config(path: str) -> Config:
    cfg = Config()
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


def cfg_str(cfg, key, default=None):
    v = cfg.get(key, default)
    if v is None:
        raise ConfigError(f"missing required config key {key!r}")
    return v


def cfg_int(cfg, key, default=None, least=None):
    """Integer config key, at least `least` when that is given."""
    v = cfg.get(key)
    if v is None:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        n = int(v)
    except ValueError:
        raise ConfigError(f"config key {key!r}: {v!r} is not an integer")
    if least is not None and n < least:
        raise ConfigError(f"config key {key!r}: {n} is below {least}")
    return n


def cfg_float(cfg, key, default=None, least=None):
    """Number config key, not NaN, and at least `least` when that is
    given."""
    v = cfg.get(key)
    if v is None:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        x = float(v)
    except ValueError:
        x = math.nan
    if math.isnan(x):
        raise ConfigError(f"config key {key!r}: {v!r} is not a number")
    if least is not None and x < least:
        raise ConfigError(f"config key {key!r}: {x:g} is below {least:g}")
    return x


def cfg_list(cfg, key, default, kind=int, distinct=1, least=None):
    """The comma list of config key `key`, each entry read by kind (int,
    float or str), with at least `distinct` distinct values: an empty list
    would make a vacuous verdict.  Each entry is at least `least` when that
    is given."""
    v = cfg.get(key)
    if v is None:
        return list(default)
    try:
        vals = [kind(p.strip()) for p in v.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"config key {key!r}: {v!r} is not a list of "
                          f"{kind.__name__}")
    if len(set(vals)) < distinct:
        raise ConfigError(f"config key {key!r}: needs {distinct} or more "
                          f"distinct values, got {len(set(vals))}")
    if least is not None and min(vals, default=least) < least:
        raise ConfigError(f"config key {key!r}: {min(vals)} is below {least}")
    return vals


def cfg_mu_list(cfg, default, distinct):
    """The Carleman weights of config key mu_list: finite, positive, and at
    least `distinct` distinct values."""
    mus = cfg_list(cfg, "mu_list", default, float, distinct)
    for mu in mus:
        if not 0.0 < mu < float("inf"):
            raise ConfigError(f"config key 'mu_list': {mu!r} is not a "
                              "finite positive number")
    return mus


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


def _grid(cfg, default_N=64):
    from .grid import Grid

    return _checked("grid.dim, grid.N", Grid, cfg_int(cfg, "grid.dim", 1),
                    cfg_int(cfg, "grid.N", default_N))


def _grids(cfg, dim):
    """The grids of grid.N_list."""
    from .grid import Grid

    return [_checked("grid.dim, grid.N_list", Grid, dim, N)
            for N in cfg_list(cfg, "grid.N_list", (32, 64))]


def _timegrid(cfg, default_T, default_K):
    from .grid import TimeGrid

    return _checked("time.T, time.K", TimeGrid,
                    cfg_float(cfg, "time.T", default_T),
                    cfg_int(cfg, "time.K", default_K))


def _ensemble(cfg, seed, default_M=8, default_T=0.5, default_K=64):
    from .stochastic import sample_brownian

    tg = _timegrid(cfg, default_T, default_K)
    return _checked("ensemble.M", sample_brownian,
                    cfg_int(cfg, "ensemble.M", default_M), tg, seed=seed)


def _symbol(cfg, key, default=None, dim=1):
    from .registry import make_symbol

    name = cfg.get(key, default)
    if name is None:
        raise ConfigError(f"missing required config key {key!r}")
    okey = key + ".order"
    return make_symbol(name, dim, cfg_float(cfg, okey) if okey in cfg else None)


# ---------------------------------------------------------------------------
# subcommands: each returns (report dict, passed, {csv name: (header, rows)})


# verify-symbol differentiates and compiles the symbol once per multi-index
# pair (alpha, beta), and (alpha_max + 1)^n (beta_max + 1)^n bounds their
# count; the most it takes is that of the default caps 2/2 in 3-D.  In 1-D
# caps 40/40 (1,681 pairs) run about 8 s
_MAX_DERIVATIVE_PAIRS = 729


def run_verify_symbol(cfg, seed):
    from .symbols import check_symbol_estimate, ellipticity_check

    grid = _grid(cfg)
    alpha_max = cfg_int(cfg, "check.alpha_max", 2, least=0)
    beta_max = cfg_int(cfg, "check.beta_max", 2, least=0)
    pairs = ((alpha_max + 1) * (beta_max + 1)) ** grid.dim
    if pairs > _MAX_DERIVATIVE_PAIRS:
        raise ConfigError(
            f"config keys 'check.alpha_max', 'check.beta_max': "
            f"(alpha_max+1)^n (beta_max+1)^n = {pairs} passes "
            f"{_MAX_DERIVATIVE_PAIRS}")
    ens = _ensemble(cfg, seed)
    a = _symbol(cfg, "symbol", dim=grid.dim)
    est = check_symbol_estimate(a, alpha_max, beta_max, grid, ensemble=ens)
    ell = ellipticity_check(a, grid, ens)
    passed = not any(e.violation for e in est.entries)
    report = {
        "symbol": a.name or "<expr>",
        "order": a.order,
        "estimate": json.loads(est.to_json()),
        "ellipticity": {"elliptic": ell.elliptic, "C_K": ell.C_K,
                        "R_K": ell.R_K},
        "passed": passed,
    }
    rows = [(f"{e.alpha}", f"{e.beta}", float(e.max_ratio), float(e.slope),
             bool(e.violation)) for e in est.entries]
    return report, passed, {"estimate": (("alpha", "beta", "max_ratio",
                                         "slope", "violation"), rows)}


def _extraction_sweep(a, grid):
    import numpy as np
    from .quantize import extract_symbol

    kmax = grid.N // 2 - 1
    errs = []
    x = grid.points()
    for k in range(-kmax, kmax + 1):
        mode = (k,) + (0,) * (grid.dim - 1)
        vals = extract_symbol(a, grid, mode)
        xi0 = np.zeros(grid.shape + (grid.dim,))
        xi0[..., 0] = 2.0 * np.pi * k / grid.L
        direct = a(0.0, 0.0, x, xi0)
        denom = max(float(np.abs(direct).max()), 1e-30)
        errs.append((k, float(np.abs(vals - direct).max() / denom)))
    return errs


def run_quantize_demo(cfg, seed):
    import numpy as np

    grid = _grid(cfg)
    n_random = cfg_int(cfg, "random_symbols", 0)
    if n_random > 0:
        from .symbols import sp, _X, _XI, symbol_from_expr

        # extraction identity on random order-<=1 symbols with periodic
        # (trig-polynomial) coefficients, swept over every resolved mode
        rng = np.random.default_rng(seed)
        worst = 0.0
        rows = []
        for i in range(n_random):
            c0 = (rng.normal() + rng.normal() * sp.sin(_X[0])
                  + rng.normal() * sp.cos(_X[0]))
            c1 = rng.normal() + rng.normal() * sp.cos(_X[0])
            a = symbol_from_expr(c0 + c1 * _XI[0], grid.dim, order=1)
            errs = _extraction_sweep(a, grid)
            # numpy's max and maximum propagate NaN; Python's max drops it
            e = float(np.max([v for _, v in errs]))
            worst = float(np.maximum(worst, e))
            rows.append((i, e))
        passed = worst <= cfg_float(cfg, "tol", 1e-8)
        report = {"random_symbols": n_random, "max_extraction_error": worst,
                  "modes_per_symbol": grid.N - 2, "passed": passed}
        return report, passed, {"extraction": (("symbol", "max_rel_error"),
                                               rows)}
    a = _symbol(cfg, "symbol", "bessel1", dim=grid.dim)
    errs = _extraction_sweep(a, grid)
    worst = float(np.max([e for _, e in errs]))
    passed = worst <= 1e-8
    report = {"symbol": a.name or "<expr>", "max_extraction_error": worst,
              "modes_checked": len(errs), "passed": passed}
    return report, passed, {"extraction": (("mode", "rel_error"), errs)}


def _compose_error(b, a, grid, rng, trials, n_terms):
    import numpy as np
    from .calculus import compose_symbols
    from .quantize import apply_symbol_op
    from .grid import random_band_limited, l2_norm, SpectralField

    comp = compose_symbols(b, a, n_terms).symbol_sum()
    worst = 0.0
    for _ in range(trials):
        u = random_band_limited(grid, rng)
        direct = apply_symbol_op(b, apply_symbol_op(a, u))
        via = apply_symbol_op(comp, u)
        err = l2_norm(SpectralField(grid, direct.values - via.values))
        worst = float(np.maximum(worst, err / max(l2_norm(direct), 1e-30)))
    return worst


def _random_poly_symbol(rng, dim):
    """xi-polynomial of degree <= 3 with trigonometric (periodic)
    x-coefficients."""
    import numpy as np
    from .symbols import sp, _X, _XI, symbol_from_expr

    expr = sp.S.Zero
    deg = int(rng.integers(0, 4))
    for d in range(deg + 1):
        c = float(np.round(rng.uniform(-2, 2), 3))
        kind = int(rng.integers(0, 3))
        coeff = c if kind == 0 else c * sp.sin(_X[0]) if kind == 1 \
            else c * sp.cos(_X[0])
        expr = expr + coeff * _XI[0] ** d
    if expr == 0:
        expr = sp.S.One
    return symbol_from_expr(expr, dim, order=float(deg)), deg


def run_compose(cfg, seed):
    import numpy as np
    from .calculus import compose_symbols

    grid = _grid(cfg)
    rng = np.random.default_rng(seed)
    tol = cfg_float(cfg, "tol", 1e-9)
    trials = cfg_int(cfg, "trials", 5, least=1)
    pairs = cfg_int(cfg, "random_pairs", 0)
    if pairs > 0:
        # oracle sweep: expansion truncated at the full polynomial degree is
        # exact, so it must reproduce direct operator composition
        worst = 0.0
        rows = []
        for i in range(pairs):
            b, bd = _random_poly_symbol(rng, grid.dim)
            a, _ = _random_poly_symbol(rng, grid.dim)
            err = _compose_error(b, a, grid, rng, trials, n_terms=bd)
            worst = float(np.maximum(worst, err))
            rows.append((i, err))
        passed = worst <= tol
        report = {"random_pairs": pairs, "worst_relative_error": worst,
                  "tol": tol, "passed": passed}
        return report, passed, {"compose": (("pair", "rel_error"), rows)}
    b = _symbol(cfg, "b", dim=grid.dim)
    a = _symbol(cfg, "a", dim=grid.dim)
    n_terms = cfg_int(cfg, "n_terms", 4)
    series = compose_symbols(b, a, n_terms)
    text = series.pretty()
    print(text)
    report = {"expansion": text, "n_terms": n_terms, "passed": True}
    if cfg.get("check") not in (None, "0", ""):
        worst = _compose_error(b, a, grid, rng, trials, n_terms)
        report["relative_error"] = worst
        report["tol"] = tol
        report["passed"] = worst <= tol
    return report, report["passed"], {}


def run_parametrix(cfg, seed):
    import numpy as np
    from .calculus import parametrix, series_apply
    from .quantize import apply_symbol_op
    from .grid import plane_wave, l2_norm, SpectralField

    grid = _grid(cfg, default_N=128)
    a = _symbol(cfg, "symbol", "parametrix-demo", dim=grid.dim)
    # the residual slope is fitted through at least two modes
    modes = cfg_list(cfg, "modes", (8, 16, 32), distinct=2, least=1)
    n_list = cfg_list(cfg, "n_terms", (1, 2, 3))
    rows, all_pass = [], True
    for n in n_list:
        series = parametrix(a, n, grid)
        resid = []
        for k in modes:
            e = plane_wave(grid, k)
            qe = series_apply(series, e)
            aqe = apply_symbol_op(a, qe)
            r = l2_norm(SpectralField(grid, aqe.values - e.values)) \
                / l2_norm(e)
            resid.append(r)
        slope = float(np.polyfit(np.log(np.asarray(modes, float)),
                                 np.log(resid), 1)[0])
        target = -(n + 1)
        ok = abs(slope - target) <= 0.2 * abs(target)
        all_pass &= ok
        rows.append((n, slope, float(target), ok) + tuple(resid))
    report = {"symbol": a.name or "<expr>", "modes": modes,
              "slopes": {str(r[0]): r[1] for r in rows},
              "passed": all_pass}
    hdr = ("n_terms", "slope", "target", "ok") + tuple(
        f"resid_k{k}" for k in modes)
    return report, all_pass, {"parametrix": (hdr, rows)}


def run_bounds(cfg, seed):
    from .bounds import l2_boundedness_check

    dims = cfg_int(cfg, "grid.dim", 1)
    grids = _grids(cfg, dims)
    ens = _ensemble(cfg, seed)
    names = cfg_list(cfg, "symbol", ("identity", "sgn-smoothed", "mod-x"),
                     str)
    all_pass = True
    per = {}
    rows = []
    for name in names:
        a = _symbol({"symbol": name}, "symbol", dim=dims)
        rep = l2_boundedness_check(a, cfg_float(cfg, "q", 2.0, least=1.0),
                                   grids, ens,
                                   trials=cfg_int(cfg, "trials", 5, least=1),
                                   seed=seed)
        per[name] = rep.to_dict()
        all_pass &= rep.passed
        for n, c in sorted(rep.constants.items()):
            rows.append((name, int(n), float(c)))
    report = {"symbols": per, "passed": all_pass}
    return report, all_pass, {"bounds": (("symbol", "N", "constant"), rows)}


def run_cz(cfg, seed):
    import numpy as np
    from .harmonic import cz_decompose
    from .bounds import random_adapted_field

    if cfg_int(cfg, "draws", 1) > 1 or cfg.get("cases"):
        return _run_cz_sweep(cfg, seed)
    grid = _grid(cfg, default_N=32)
    ens = _ensemble(cfg, seed)
    rng = np.random.default_rng(seed)
    u = random_adapted_field(grid, ens, rng)
    r = cfg_float(cfg, "level.r", 0.0)
    p = cfg_float(cfg, "p", 2.0, least=1.0)
    if r <= 0:
        from .harmonic import _site_density

        r = 4.0 * float(np.mean(_site_density(u, p)))
    dec = _checked("level.r", cz_decompose, u, r, p)
    checks = _cz_property_checks(u, dec)
    passed = all(checks.values())
    report = {"level": dec.level, "n_bad_cubes": len(dec.bad),
              "cube_measure": dec.cube_measure(), "u_l1_lpf": dec.u_l1_lpf,
              "properties": checks, "passed": passed}
    rows = [(i, ",".join(map(str, c.origin)), c.size)
            for i, (c, _) in enumerate(dec.bad)]
    return report, passed, {"cubes": (("index", "origin", "size"), rows)}


def _run_cz_sweep(cfg, seed):
    """Property suite over many random (u, r) draws, possibly several grids.

    `cases` is a comma list of dimxN entries, e.g. 1x32,1x64,2x16,2x32;
    `draws` counts draws per case.  The level is a random multiple (2-8x)
    of the average density; draws whose level is below the feasible range
    are skipped and reported, with a 90% coverage floor on the rest.
    """
    import numpy as np
    from .grid import Grid
    from .harmonic import cz_decompose, LevelTooLowError, _site_density
    from .stochastic import sample_brownian
    from .bounds import random_adapted_field

    cases_txt = cfg.get("cases", "")
    if cases_txt:
        cases = []
        for part in cases_txt.split(","):
            part = part.strip()
            try:
                d, N = part.split("x")
                cases.append((int(d), int(N)))
            except ValueError:
                raise ConfigError(f"config key 'cases': bad entry {part!r}")
    else:
        cases = [(cfg_int(cfg, "grid.dim", 1), cfg_int(cfg, "grid.N", 32))]
    draws = cfg_int(cfg, "draws", 25)
    p = cfg_float(cfg, "p", 2.0, least=1.0)
    tg = _timegrid(cfg, 0.5, 8)
    M = cfg_int(cfg, "ensemble.M", 3)
    checked = 0
    total = 0
    agg = None
    rows = []
    for dim, N in cases:
        grid = _checked(f"grid {dim}x{N}", Grid, dim, N)
        for i in range(draws):
            total += 1
            ens = _checked("ensemble.M", sample_brownian, M, tg,
                           seed=seed + total)
            rng = np.random.default_rng(seed + total)
            u = random_adapted_field(grid, ens, rng)
            avg = float(np.mean(_site_density(u, p)))
            r = (2.0 + 6.0 * rng.random()) * avg
            try:
                dec = cz_decompose(u, r, p)
            except LevelTooLowError:
                rows.append((dim, N, i, float(r), "skipped", ""))
                continue
            checked += 1
            checks = _cz_property_checks(u, dec)
            agg = checks if agg is None else \
                {k: agg[k] and checks[k] for k in agg}
            rows.append((dim, N, i, float(r),
                         "pass" if all(checks.values()) else "fail",
                         len(dec.bad)))
    props = agg or {}
    passed = bool(props) and all(props.values()) \
        and checked >= int(np.ceil(0.9 * total))
    report = {"cases": [f"{d}x{N}" for d, N in cases], "draws_per_case": draws,
              "total_draws": total, "checked": checked,
              "properties": props, "passed": passed}
    hdr = ("dim", "N", "draw", "level", "verdict", "n_bad_cubes")
    return report, passed, {"cz_sweep": (hdr, rows)}


def _cz_property_checks(u, dec):
    """The six decomposition guarantees, evaluated directly."""
    import numpy as np
    from .harmonic import _site_density

    grid = u.grid
    recon = dec.good.values.copy()
    for _, wk in dec.bad:
        recon = recon + wk.values
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
    for c, wk in dec.bad:
        sl = (slice(None), slice(None)) + c.slices()
        axes = tuple(range(2, 2 + grid.dim))
        m = np.abs(wk.values[sl].mean(axis=axes)).max()
        zero_mean &= bool(m <= 1e-12 * max(1.0, np.abs(u.values).max()))
    checks["zero_mean"] = zero_mean
    dens = _site_density(dec.good, dec.exponent)
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


def run_garding(cfg, seed):
    from .bounds import garding_check

    dims = cfg_int(cfg, "grid.dim", 1)
    # the symbol first; the order does not show in the measurements: at the
    # ensemble config either order takes 31.6k-31.7k minor page faults per
    # run, and the same wall time within noise
    a = _symbol(cfg, "symbol", "garding-stochastic", dim=dims)
    grids = _grids(cfg, dims)
    ens = _ensemble(cfg, seed)
    rep = garding_check(a, cfg_float(cfg, "delta_star", 1.0),
                        cfg_float(cfg, "eps", 0.1), cfg_float(cfg, "r", 0.0),
                        grids, ens,
                        trials=cfg_int(cfg, "trials", 10, least=1), seed=seed)
    report = rep.to_dict()
    passed = rep.passed
    if cfg.get("exact_check") not in (None, "0", ""):
        # analytic control case: Re(|xi|^2) >= (1 - eps)|xi|^2 holds with
        # C <= 1 exactly, so the measured constants must not exceed 1
        from .symbols import sp, _XI, symbol_from_expr

        expr = sp.sympify(sum(_XI[i] ** 2 for i in range(dims)))
        exact = symbol_from_expr(expr, dims, order=2)
        rep2 = garding_check(exact, cfg_float(cfg, "delta_star", 1.0),
                             cfg_float(cfg, "eps", 0.1),
                             cfg_float(cfg, "r", 0.0), grids, ens,
                             trials=cfg_int(cfg, "exact_trials", 10,
                                            least=1),
                             seed=seed)
        # the control is judged on C <= 1 alone (NaN fails the comparison):
        # its stability ratio divides by the 1e-12 floor when a grid gives 0
        exact_ok = all(c <= 1.0 + 1e-9 for c in rep2.constants.values())
        report["exact_constants"] = {str(n): float(c) for n, c in
                                     sorted(rep2.constants.items())}
        report["exact_passed"] = exact_ok
        passed = passed and exact_ok
        report["passed"] = passed
    rows = [(int(n), float(c)) for n, c in sorted(rep.constants.items())]
    return report, passed, {"garding": (("N", "constant"), rows)}


def run_carleman(cfg, seed):
    import numpy as np
    from .cauchy import pinned_semimartingale, carleman_report

    mu_list = cfg_mu_list(cfg, (50.0, 100.0, 200.0), distinct=1)
    grid = _grid(cfg)
    ens = _ensemble(cfg, seed, default_M=16, default_T=0.5, default_K=64)
    T = ens.timegrid.T

    def _zero_or_symbol(key, default=None):
        if cfg.get(key, default) in (None, "", "none", "0"):
            return None
        return _symbol(cfg, key, default, dim=grid.dim)

    B1, A1 = _zero_or_symbol("B1", "bessel1"), _zero_or_symbol("A1")
    draws = cfg_int(cfg, "draws", 50, least=1)
    rng = np.random.default_rng(seed)
    rows = []
    n_pass = 0
    n_robust = 0
    n_mu = len(mu_list)
    for d in range(draws):
        z = pinned_semimartingale(grid, ens, rng)
        # mu_list, then the doubled values of the robustness sweep
        reps = carleman_report(z, A1, B1,
                               mu_list + [2.0 * mu for mu in mu_list], T, ens)
        for mu, rep in zip(mu_list, reps):
            rows.append((d, float(mu), rep.lhs, rep.rhs, rep.margin,
                         rep.discretization_gap, rep.passed))
        ok = all(rep.passed for rep in reps[:n_mu])
        n_pass += ok
        n_robust += ok and all(rep.passed for rep in reps[n_mu:])
    pass_rate = n_pass / draws
    robust_rate = n_robust / draws
    passed = pass_rate == 1.0 and robust_rate >= 0.95
    report = {"T": T, "mu_list": mu_list, "draws": draws,
              "pass_rate": pass_rate, "robust_rate_2mu": robust_rate,
              "passed": passed}
    hdr = ("draw", "mu", "lhs", "rhs", "margin", "gap", "pass")
    return report, passed, {"carleman": (hdr, rows)}


def _ito_final(F, grid, ens):
    """Y(T), shape (M,) + grid.shape, of the scalar (1/i) dY = F dw from
    Y(0) = 0; only the last spectral state is transformed back."""
    import numpy as np
    from .cauchy import _from_spectrum, _spectral_steps

    y0 = np.zeros((ens.M, 1) + grid.shape, np.complex128)
    for last in _spectral_steps(None, None, F, grid, ens, y0):
        pass
    return _from_spectrum(last, grid)[:, 0]


def run_integrator(cfg, seed):
    """Integrator sanity: Ito isometry at large M, unitary norm drift."""
    import numpy as np
    from .cauchy import (EquationSpec, build_companion_symbol,
                         integrate_spde_system)
    from .grid import TimeGrid
    from .stochastic import sample_brownian

    g = _grid(cfg, default_N=8)
    sigma = cfg_float(cfg, "sigma", 2.0)
    if sigma == 0:
        raise ConfigError("config key 'sigma': 0 makes the Ito target 0")
    ens = _ensemble(cfg, seed, default_M=10_000, default_K=200)
    tg, M = ens.timegrid, ens.M
    F = np.zeros((tg.K + 1, 1) + g.shape, np.complex128)
    F[:, 0] = sigma
    final = _ito_final(F, g, ens)
    got = float((np.abs(final) ** 2).reshape(M, -1)[:, 0].mean())
    target = sigma**2 * tg.T
    iso_err = abs(got - target) / target

    K2 = cfg_int(cfg, "unitary.K", 1000)
    tg2 = _checked("unitary.K", TimeGrid, tg.T, K2)
    ens2 = sample_brownian(1, tg2, seed=seed)
    cs = build_companion_symbol(
        EquationSpec(m=1, dim=g.dim, principal={(0, (1,) + (0,) * (g.dim - 1)):
                                                1.0}))
    init = np.ones((1, 1) + g.shape, np.complex128)
    Y2 = integrate_spde_system(cs, None, None, g, tg2, ens2, initial=init)
    drift = float(np.abs(np.abs(Y2.values[0, :, 0]) - 1.0).max())

    # 3 relative standard deviations of the estimate, 3 sqrt(2/M), must fit
    iso_tol = cfg_float(cfg, "iso_tol", 0.05)
    passed = iso_err <= iso_tol and 3.0 * np.sqrt(2.0 / M) <= iso_tol \
        and drift <= cfg_float(cfg, "drift_tol", 1e-6)
    report = {"ito_isometry": {"M": M, "measured": got, "target": target,
                               "rel_error": iso_err},
              "unitary": {"K": K2, "norm_drift": drift}, "passed": passed}
    rows = [("ito_isometry_rel_error", iso_err),
            ("unitary_norm_drift", drift)]
    return report, passed, {"integrator": (("check", "value"), rows)}


def run_uniqueness(cfg, seed):
    from .cauchy import uniqueness_experiment
    from .registry import make_equation

    # the decay slope is fitted through at least two weights
    mu_list = cfg_mu_list(cfg, (50.0, 100.0, 200.0, 400.0), distinct=2)
    grid = _grid(cfg, default_N=32)
    ens = _ensemble(cfg, seed, default_M=64, default_T=0.5, default_K=128)
    spec = make_equation(cfg_str(cfg, "equation", "wave"),
                         dim=cfg_int(cfg, "grid.dim", 1))
    rep = uniqueness_experiment(spec, mu_list, ens.timegrid.T,
                                cfg_float(cfg, "r", 1.5), grid, ens,
                                seed=seed)
    report = rep.to_dict()
    rows = list(zip(mu_list, rep.log_bound, rep.log_quotient))
    return report, rep.passed, {"decay": (("mu", "log_bound", "log_quotient"),
                                          rows)}


def _json_default(o):
    if hasattr(o, "tolist"):  # numpy scalars and arrays
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


_COMMANDS = {
    "verify-symbol": run_verify_symbol,
    "quantize-demo": run_quantize_demo,
    "compose": run_compose,
    "parametrix": run_parametrix,
    "bounds": run_bounds,
    "cz": run_cz,
    "garding": run_garding,
    "integrator": run_integrator,
    "carleman": run_carleman,
    "uniqueness": run_uniqueness,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="spdo",
        description="Stochastic pseudo-differential operator experiments")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out", default="spdo-out", help="output directory")
    p.add_argument("--threads", type=int, default=0,
                   help="cap worker threads (0 = library default)")
    try:
        args = p.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    if args.threads > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    np = _import_long_lived("numpy")

    raw_args = list(argv) if argv is not None else sys.argv[1:]
    started = datetime.datetime.now(datetime.timezone.utc)
    try:
        cfg = parse_config(args.config) if args.config else Config()
        if "seed" in cfg and "--seed" not in raw_args:
            args.seed = cfg_int(cfg, "seed")
        report, passed, csvs = _COMMANDS[args.command](cfg, args.seed)
        # a key no command reads would be silently ignored (a typo, or
        # grid.N given to a command that reads grid.N_list)
        unknown = sorted(set(cfg) - cfg.read)
        if unknown:
            raise ConfigError(
                f"unknown key{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(map(repr, unknown))} for {args.command}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        from .bounds import HypothesisError
        from .calculus import EllipticityError
        from .registry import RegistryError

        if isinstance(e, RegistryError):
            print(f"config error: {e}", file=sys.stderr)
            return 1
        if isinstance(e, (HypothesisError, EllipticityError)):
            print(f"hypothesis error: {e}", file=sys.stderr)
            return 1
        raise

    os.makedirs(args.out, exist_ok=True)
    payload = {"command": args.command, "seed": args.seed,
               "config": dict(sorted(cfg.items())), "report": report,
               "passed": bool(passed)}
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
    }
    with open(os.path.join(args.out, "meta.json"), "w") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    if csvs:
        datadir = os.path.join(args.out, "data")
        os.makedirs(datadir, exist_ok=True)
        for name, (hdr, rows) in csvs.items():
            _write_csv(os.path.join(datadir, f"{name}.csv"), hdr, rows)
    verdict = "PASS" if passed else "FAIL"
    print(f"{args.command}: {verdict} (report in {args.out})")
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
