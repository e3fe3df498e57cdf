"""Empirical verification of operator boundedness and the Garding
inequality.

A "PASS" here certifies grid-size stability of empirically maximized
ratios, which is consistent with boundedness; finite sampling cannot prove
a supremum over an infinite-dimensional ball, and the reports say so.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _PATH_SLICE_ARRAYS
from .grid import (Field, Grid, band_limited_spectrum, fft_forward,
                   fft_inverse, l2_norm, sobolev_norm)
from .quantize import apply_symbol_ensemble
from .stochastic import BrownianEnsemble, lpf_norm_values, path_slices
from .symbols import Symbol, _node_samples, _scan_blocks

__all__ = [
    "BoundReport",
    "HypothesisError",
    "random_adapted_field",
    "l2_boundedness_check",
    "sobolev_boundedness_check",
    "mixed_lp_check",
    "weak_type_check",
    "garding_check",
]


class HypothesisError(ValueError):
    """The hypothesis of the theorem under test fails on the grid."""


@dataclass
class BoundReport:
    operator_id: str
    source: str
    target: str
    constants: dict  # grid size N -> estimated constant
    stability_factor: float
    passed: bool
    note: str = "finite-sample check: verdict is 'consistent with bounded'"
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # str keys, which json.dumps(sort_keys=True) orders as text ("128"
        # before "32"), as reports always have
        return {**asdict(self),
                "constants": {str(k): v for k, v in self.constants.items()}}


def _report(op_id, source, target, constants, factor, extra=None,
            floor=0.0) -> BoundReport:
    """BoundReport whose verdict is the spread max/min of the positive
    constants staying below factor (a constant below floor counts as floor).
    A non-finite constant fails the verdict, named in extra["reason"]."""
    extra = dict(extra or {})
    bad = [k for k, v in constants.items() if not np.isfinite(v)]
    if bad:
        ratio, ok = math.nan, False
        extra["reason"] = f"non-finite constant at {bad}"
    else:
        vals = [v for v in (max(c, floor) for c in constants.values()) if v > 0]
        ratio = max(vals) / min(vals) if vals else 1.0
        ok = ratio < factor
    return BoundReport(op_id, source, target, constants, ratio, ok,
                       extra=extra)


def _adapted_modes(grid: Grid, rng: np.random.Generator):
    """The mode coefficients c_k (|k_a| <= N/4) and phases of a random
    adapted field, drawn from rng."""
    return (band_limited_spectrum(grid, rng),
            rng.uniform(0, 2 * np.pi, grid.shape))


def _adapted_field(grid: Grid, ensemble: BrownianEnsemble, amp,
                   phase) -> Field:
    """sum_k c_k (1 + sin(W(t) + phase_k)/2) e^{ik.x} on the paths of
    ensemble."""
    Wt = ensemble.paths.reshape(ensemble.paths.shape + (1,) * grid.dim)
    spec = amp * (1.0 + 0.5 * np.sin(Wt + phase))
    return Field(grid, fft_inverse(grid, spec))


def random_adapted_field(grid: Grid, ensemble: BrownianEnsemble,
                         rng: np.random.Generator) -> Field:
    """Band-limited random field (modes |k_a| <= N/4) made adapted by
    modulating each mode with a bounded functional of the path value:
    c_k (1 + sin(W(t) + phase_k)/2)."""
    return _adapted_field(grid, ensemble, *_adapted_modes(grid, rng))


def _trial_constants(a: Symbol, grids, ensemble: BrownianEnsemble,
                     trials: int, seed: int, tables, reduce) -> dict:
    """{N: max over trials of num / den where den > 0}, for random adapted
    fields u.  tables(u, Au) gives arrays with leading (path, time) axes;
    they are built one path slice at a time, joined along the path axis,
    and reduce(*joined) gives (num, den).  NaN propagates, from num and
    from den alike."""
    constants = {}
    for grid in grids:
        rng = np.random.default_rng(seed)
        # a path's whole working set, complex at every (time, site)
        path_bytes = (_PATH_SLICE_ARRAYS * 16 * (ensemble.timegrid.K + 1)
                      * grid.N**grid.dim)
        best = 0.0
        for _ in range(trials):
            amp, phase = _adapted_modes(grid, rng)
            parts = []
            for part in path_slices(ensemble, path_bytes):
                u = _adapted_field(grid, part, amp, phase)
                parts.append(tables(u, apply_symbol_ensemble(a, u, part)))
                del u  # before the next slice's field is built
            num, den = reduce(*(np.concatenate(t) for t in zip(*parts)))
            if den > 0 or np.isnan(den):
                best = float(np.maximum(best, num / den))
        constants[grid.N] = best
    return constants


def _norm_table(u: Field, delta: float | None = None) -> np.ndarray:
    """The spatial L^2 norm of u per (path, time) node (H^delta when
    given)."""
    if delta is None:
        return l2_norm(u)
    return sobolev_norm(u.grid, fft_forward(u.grid, u.values), delta)


def _lqf_norms(nodes, q: float):
    """The reduction of norm tables to their L^q_F(0,T) norms."""
    return lambda *tables: [lpf_norm_values(t, nodes, q) for t in tables]


def l2_boundedness_check(a: Symbol, q: float, grids, ensemble: BrownianEnsemble,
                         trials: int = 5, seed: int = 1234) -> BoundReport:
    """Norm ratio stability for A on L^q_F(0,T; L^2)."""
    constants = _trial_constants(
        a, grids, ensemble, trials, seed,
        lambda u, Au: (_norm_table(Au), _norm_table(u)),
        _lqf_norms(ensemble.timegrid.nodes(), q))
    space = f"LqF(q={q}; L2)"
    return _report(a.name or "symbol", space, space, constants, 2.0)


def sobolev_boundedness_check(a: Symbol, delta: float, q: float, grids,
                              ensemble: BrownianEnsemble, trials: int = 5,
                              seed: int = 1234) -> BoundReport:
    """A of order l maps H^delta -> H^{delta - l}; ratio stability check."""
    ell = a.order
    constants = _trial_constants(
        a, grids, ensemble, trials, seed,
        lambda u, Au: (_norm_table(Au, delta - ell), _norm_table(u, delta)),
        _lqf_norms(ensemble.timegrid.nodes(), q))
    return _report(a.name or "symbol", f"LqF(H^{delta})",
                   f"LqF(H^{delta - ell})", constants, 2.0)


def _mixed_norm(values: np.ndarray, cell: float, outer_p: float,
                inner_p: float, nodes) -> float:
    """L^p_x(torus; L^{inner}_F(0,T)) norm of (path, time, lattice) values."""
    site = lpf_norm_values(values, nodes, inner_p)
    return float((np.sum(site**outer_p) * cell) ** (1.0 / outer_p))


def mixed_lp_check(a: Symbol, p: float, grids, ensemble: BrownianEnsemble,
                   trials: int = 5, seed: int = 1234) -> BoundReport:
    """Mixed-norm mapping for x-independent order-0 symbols.

    For 1 < p < 2 the source carries L^{p'}_F in time and the target L^p_F;
    for p > 2 the exponents swap.
    """
    if not a.x_independent:
        raise HypothesisError("mixed-norm bound requires an x-independent symbol")
    if p <= 1 or p == 2 or math.isinf(p):
        raise ValueError("p must lie in (1, 2) or (2, inf)")
    pp = p / (p - 1.0)
    src_in, tgt_in = (pp, p) if p < 2 else (p, pp)
    nodes = ensemble.timegrid.nodes()
    cell = {g.shape: g.cell_volume for g in grids}
    # the site norms need every path: the tables are the values themselves
    constants = _trial_constants(
        a, grids, ensemble, trials, seed,
        lambda u, Au: (Au.values, u.values),
        lambda vAu, vu: (
            _mixed_norm(vAu, cell[vu.shape[2:]], p, tgt_in, nodes),
            _mixed_norm(vu, cell[vu.shape[2:]], p, src_in, nodes)))
    return _report(a.name or "symbol", f"Lp(x; L{src_in:g}_F)",
                   f"Lp(x; L{tgt_in:g}_F)", constants, 2.0)


def weak_type_check(a: Symbol, u: Field, ensemble: BrownianEnsemble,
                    r_values, p: float = 2.0) -> BoundReport:
    """Weak-type level-set bound:

        r |{x : |Au(t,w,x)| > r}| <= C (|u|_{L1(L^p_F)} + |u(t,w,.)|_{L1}
                                        + r^{-1} |v(t,w,.)|_{L2}^2)

    with v the good part of the CZ decomposition at level r.  Reports the
    empirical C per level; PASS when C is stable within factor 3.
    """
    from .harmonic import cz_decompose, LevelTooLowError

    if not a.x_independent:
        raise HypothesisError("weak-type bound requires an x-independent symbol")
    grid = u.grid
    nodes = ensemble.timegrid.nodes()
    cell = grid.cell_volume
    Au = apply_symbol_ensemble(a, u, ensemble)
    u_l1_lpf = float(lpf_norm_values(u.values, nodes, p).sum() * cell)
    spatial = tuple(range(2, 2 + grid.dim))
    abs_Au = np.abs(Au.values)
    u_l1 = np.abs(u.values).sum(axis=spatial) * cell

    constants = {}
    for r in r_values:
        try:
            dec = cz_decompose(u, ensemble, r, p)
        except LevelTooLowError:
            continue
        lhs = r * ((abs_Au > r).sum(axis=spatial) * cell)
        v_l2sq = (np.abs(dec.good.values) ** 2).sum(axis=spatial) * cell
        rhs = u_l1_lpf + u_l1 + v_l2sq / r
        # the max over the nodes the level set hits; NaN propagates
        hit = lhs > 0.0
        constants[float(r)] = float(np.max(lhs[hit] / rhs[hit], initial=0.0))
    return _report(a.name or "symbol", "weak-type LHS", "weak-type RHS",
                   constants, 3.0, extra={"u_l1_lpf": u_l1_lpf})


def garding_check(a: Symbol, delta_star: float, eps: float, r: float,
                  grids, ensemble: BrownianEnsemble, trials: int = 10,
                  seed: int = 1234) -> BoundReport:
    """Garding inequality check:

        E int Re(Au, u) dt >= (delta* - eps) E int |u|^2_{H^{l/2}} dt
                              - C E int |u|^2_{H^r} dt .

    The lower-bound hypothesis Re a >= (delta* - eps)|xi|^l is verified on
    the grid first (the acceptance symbol attains it with equality at the
    slack level); returns the minimal admissible C per grid size.
    """
    ell = a.order
    nodes = ensemble.timegrid.nodes()
    # hypothesis scan on the largest grid: every (N // 16)-th lattice point
    # by every frequency xi != 0
    gmax = max(grids, key=lambda g: g.N)
    xis = gmax.freqs().reshape(-1, gmax.dim)
    mags = np.sqrt(np.sum(xis**2, axis=-1))
    sel = mags > 0
    scale = mags[sel] ** ell
    xpts = gmax.points().reshape(-1, gmax.dim)[:: max(1, gmax.N // 16)]
    worst = math.inf
    for b, vals in _scan_blocks(a, _node_samples(ensemble, 5), xpts,
                                xis[sel]):
        # np.minimum, not min: a NaN ratio propagates
        worst = np.minimum(worst, (vals.real / scale[b]).min())
    worst = float(worst)
    if not math.isfinite(worst):
        raise HypothesisError(f"Re a / |xi|^l is {worst} on the grid, not a "
                              "finite lower bound")
    if worst < delta_star - eps - 1e-9:
        raise HypothesisError(
            f"Re a / |xi|^l dips to {worst:.6g} < delta* - eps = "
            f"{delta_star - eps:.6g} on the grid")

    def pairings(u, Au):
        # Re(Au, u), |u|^2_{H^{l/2}} and |u|^2_{H^r} per node
        grid = u.grid
        spatial = tuple(range(2, 2 + grid.dim))
        re_pair = (np.sum(Au.values * np.conj(u.values), axis=spatial)
                   * grid.cell_volume).real
        uhat = fft_forward(grid, u.values)
        return (re_pair, sobolev_norm(grid, uhat, ell / 2.0) ** 2,
                sobolev_norm(grid, uhat, r) ** 2)

    def deficit(re_pair, src, low):
        # ((delta* - eps) E int |u|^2_{H^{l/2}} - E int Re(Au, u), E int |u|^2_{H^r})
        lhs = float(np.mean(np.trapezoid(re_pair, nodes, axis=1)))
        main = (delta_star - eps) * float(
            np.mean(np.trapezoid(src, nodes, axis=1)))
        resid = float(np.mean(np.trapezoid(low, nodes, axis=1)))
        return main - lhs, resid

    constants = _trial_constants(a, grids, ensemble, trials, seed, pairings,
                                 deficit)
    # C = 0 on one grid and C > 0 on another reads as unstable
    return _report(a.name or "symbol", f"H^{ell/2:g} coercivity",
                   f"H^{r:g} remainder", constants, 2.0,
                   extra={"delta_star": delta_star, "eps": eps,
                          "hyp_min_ratio": worst}, floor=1e-12)
