"""Uniqueness pipeline for stochastic PDE Cauchy problems: companion-system
reduction, its characteristic roots (which set the CFL bound), stochastic
system integration, Carleman-inequality evaluation, and the uniqueness-decay
experiment.

The order-m scalar equation with principal coefficients a_alpha is encoded
as the m x m order-1 companion system (1/i) dY = A Y dt + f dt + F dw with
superdiagonal |xi| and bottom row a_k(t,w,x,xi) |xi|^{k+1-m}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _NODE_BLOCK_BYTES
from .grid import (Field, Grid, TimeGrid, band_limited_spectrum, fft_forward,
                   fft_inverse)
from .quantize import apply_symbol_op
from .stochastic import BrownianEnsemble
from .symbols import Symbol

__all__ = [
    "EquationSpec",
    "PinnedSemimartingale",
    "CarlemanReport",
    "DecayReport",
    "StabilityError",
    "characteristic_roots",
    "integrate_spde_system",
    "pinned_semimartingale",
    "smooth_time_cutoff",
    "carleman_report",
    "uniqueness_experiment",
]


class StabilityError(ValueError):
    """Resolved-band CFL condition dt max|sigma(A)| <= 0.5 violated: the
    time grid is too coarse for the system."""


# ---------------------------------------------------------------------------
# equation spec and its companion matrices


@dataclass
class EquationSpec:
    """Order-m equation data, and the m x m order-1 homogeneous matrix
    symbol of its companion system, evaluated by calling the spec.

    principal maps (k, alpha) -> coefficient (complex constant or order-0
    Symbol in x), entering a_k(t,w,x,xi) = sum_{|alpha| = m-k} a_alpha xi^alpha.
    """

    m: int
    dim: int
    principal: dict
    name: str = ""

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("equation order m must be >= 1")
        for (k, alpha) in self.principal:
            alpha = tuple(alpha)
            if not (0 <= k < self.m) or len(alpha) != self.dim \
                    or sum(alpha) != self.m - k:
                raise ValueError(f"principal index (k={k}, alpha={alpha}) "
                                 "violates |alpha| = m - k")

    @property
    def x_independent(self) -> bool:
        return not any(isinstance(c, Symbol) and not c.x_independent
                       for c in self.principal.values())

    @property
    def tw_independent(self) -> bool:
        """Constants and expressions free of t and w."""
        return all(not isinstance(c, Symbol) or c.tw_independent
                   for c in self.principal.values())

    def a_k(self, k: int, t, w, x, xi) -> np.ndarray:
        """a_k(t,w,x,xi) = sum_{|alpha|=m-k} a_alpha(t,w,x) xi^alpha, of the
        broadcast shape of t, w and the components of x and xi."""
        x = np.asarray(x, float)
        xi = np.asarray(xi, float)
        out = np.zeros(np.broadcast_shapes(np.shape(t), np.shape(w),
                                           x.shape[:-1], xi.shape[:-1]),
                       dtype=np.complex128)
        for (kk, alpha), coeff in self.principal.items():
            if kk != k:
                continue
            mono = np.ones_like(xi[..., 0])
            for a, p in enumerate(alpha):
                if p:
                    mono = mono * xi[..., a] ** p
            cval = coeff(t, w, x, xi) if isinstance(coeff, Symbol) else coeff
            out = out + cval * mono
        return out

    def __call__(self, t, w, x, xi) -> np.ndarray:
        """The companion matrices, superdiagonal |xi| and bottom row
        a_k |xi|^{k+1-m}: shape broadcast(t, w, x, xi) + (m, m), with x and
        xi counted without their last axis; entries at xi = 0 are 0 (the
        origin patch of the homogeneous extension)."""
        x = np.asarray(x, float)
        xi = np.asarray(xi, float)
        mag = np.sqrt(np.sum(xi**2, axis=-1))
        base = np.broadcast_shapes(np.shape(t), np.shape(w), x.shape[:-1],
                                   mag.shape)
        m = self.m
        out = np.zeros(base + (m, m), dtype=np.complex128)
        for i in range(m - 1):
            out[..., i, i + 1] = mag
        safe = np.where(mag > 0, mag, 1.0)
        for k in range(m):
            ak = self.a_k(k, t, w, x, xi)
            val = ak * safe ** (k + 1 - m)
            out[..., m - 1, k] = np.where(mag > 0, val, 0.0)
        return out


def characteristic_roots(mats: np.ndarray) -> np.ndarray:
    """The roots of p_m(lambda) = lambda^m - sum_k a_k lambda^k, the
    characteristic polynomial of (..., m, m) companion matrices: their
    eigenvalues, of shape (..., m)."""
    return np.linalg.eigvals(mats)


# ---------------------------------------------------------------------------
# system integration


def integrate_spde_system(A: EquationSpec | None, f, F, grid: Grid,
                          ensemble: BrownianEnsemble, y0: np.ndarray):
    """Midpoint semi-implicit Euler-Maruyama for (1/i) dY = A Y dt + f dt
    + F dw, spectral in space:

        (I - i dt/2 A) Y_{j+1} = (I + i dt/2 A) Y_j + i f dt + i F dW_j ,

    with A the companion matrices of an EquationSpec, or None for A = 0.
    Returns an iterator over the spectral states, each (M, nfreq, m), after
    steps 1, ..., K of the ensemble's time grid from Y_0 = y0, (M, m) +
    grid.shape; _from_spectrum takes a state back to values.  f and F are
    either None or arrays (K+1, m) + grid.shape (deterministic sources) or
    (M, K+1, m) + grid.shape.  Only x-independent A is supported (the
    symbol acts per frequency).  The Cayley pair (I + i dt/2 A,
    (I - i dt/2 A)^{-1}) is built in this call when A is free of (t, w),
    else once per step at (t_j + dt/2, W(t_j)) for all paths; the CFL bound
    dt max|sigma(A)| <= 0.5 is checked on the matrices of every pair,
    before it is applied.
    """
    if A is not None and not A.x_independent:
        raise NotImplementedError(
            "implicit integration requires an x-independent system symbol")
    tg = ensemble.timegrid
    m = y0.shape[1]
    nodes = tg.nodes()
    dt = tg.dt
    nfreq = int(np.prod(grid.shape))
    eye = np.eye(m, dtype=np.complex128)
    xis = grid.freqs().reshape(-1, grid.dim)
    x0 = np.zeros((1, grid.dim))

    def _hat(arr):
        # arr: (..., m) + grid.shape -> (..., nfreq, m)
        lead = arr.shape[: arr.ndim - 1 - grid.dim]
        flat = fft_forward(grid, arr).reshape(lead + (m, nfreq))
        return np.swapaxes(flat, -1, -2)

    def _source_hats(src):
        """j -> the spectrum of src at node j: (nfreq, m) for a
        deterministic source, transformed once for every node, or
        (M, nfreq, m) for one per path."""
        if src.ndim == 3 + grid.dim:
            return lambda j: _hat(src[:, j])
        return _hat(src).__getitem__

    def _cayley(t, w):
        # (..., nfreq, m, m) pair; w of shape (M, 1) gives one per path
        mats = A(t, w, x0, xis)
        cfl = dt * float(np.abs(characteristic_roots(mats)).max())
        if cfl > 0.5 + 1e-12:
            raise StabilityError(
                f"dt max|sigma(A)| = {cfl:.3g} > 0.5 at t = {t:.6g}; refine "
                "the time grid")
        half = 0.5j * dt * mats
        return eye + half, np.linalg.inv(eye - half)

    def _act(mats, v):
        # sum_b mats[..., k, a, b] v[..., k, b], one product per component
        out = mats[..., 0] * v[..., 0, None]
        for b in range(1, m):
            out = out + mats[..., b] * v[..., b, None]
        return out

    moving = A is not None and not A.tw_independent
    f_hat = None if f is None else _source_hats(f)
    F_hat = None if F is None else _source_hats(F)

    def steps(yhat, pair):
        for j in range(tg.K):
            if moving:
                pair = _cayley(nodes[j] + dt / 2.0, ensemble.paths[:, j, None])
            rhs = yhat if pair is None else _act(pair[0], yhat)
            if f is not None:
                rhs = rhs + 1j * dt * f_hat(j)
            if F is not None:
                # the increment of step j, as np.diff would subtract it
                dW = ensemble.paths[:, j + 1] - ensemble.paths[:, j]
                rhs = rhs + 1j * dW[:, None, None] * F_hat(j)
            yhat = rhs if pair is None else _act(pair[1], rhs)
            yield yhat

    return steps(_hat(y0), None if A is None or moving else _cayley(0.0, 0.0))


def _from_spectrum(yhat: np.ndarray, grid: Grid) -> np.ndarray:
    """(M, nfreq, m) spectral state -> (M, m) + grid.shape values."""
    back = np.swapaxes(yhat, -1, -2).reshape(yhat.shape[::2] + grid.shape)
    return fft_inverse(grid, back)


# ---------------------------------------------------------------------------
# Carleman machinery


def _apply_nodes(sym: Symbol | None, vals: np.ndarray, grid: Grid,
                 ensemble: BrownianEnsemble, j0: int = 0) -> np.ndarray:
    """sym applied at every (path, time) node of vals, (M, k) + grid.shape,
    over the ensemble's nodes j0, ..., j0 + k - 1; zero when sym is None."""
    if sym is None:
        return np.zeros_like(vals)
    k = vals.shape[1]
    return apply_symbol_op(sym, Field(grid, vals),
                           ensemble.timegrid.nodes()[j0:j0 + k],
                           ensemble.paths[:, j0:j0 + k]).values


def smooth_time_cutoff(tg: TimeGrid) -> np.ndarray:
    """zeta(t): 1 on [0, 2T/3], 0 at T, smooth exp-glue in between."""
    from .harmonic import _smoothstep

    t = tg.nodes()
    T = tg.T
    return 1.0 - _smoothstep((t - 2.0 * T / 3.0) / (T / 3.0))


@dataclass(frozen=True)
class PinnedSemimartingale:
    """z(t) = sin^2(pi t / T) sum_k (a_k + b_k W(t)) e^{i k.x} over an
    ensemble, with spectral amplitudes a and b of grid.shape: a closed form
    in (t_j, W_j), so any block of time nodes is built alone."""

    grid: Grid
    ensemble: BrownianEnsemble
    a: np.ndarray
    b: np.ndarray

    def at(self, j0: int, j1: int) -> np.ndarray:
        """The values at nodes j0, ..., j1 - 1: (M, j1 - j0) + grid.shape."""
        tg = self.ensemble.timegrid
        lattice = (1,) * self.grid.dim
        s = np.sin(np.pi * tg.nodes()[j0:j1] / tg.T) ** 2
        paths = self.ensemble.paths[:, j0:j1]
        Wt = paths.reshape(paths.shape + lattice)
        spec = (self.a + self.b * Wt) * s.reshape((1, -1) + lattice)
        return fft_inverse(self.grid, spec)

    @property
    def values(self) -> np.ndarray:
        """The values at every node: (M, K+1) + grid.shape."""
        return self.at(0, self.ensemble.timegrid.K + 1)


def pinned_semimartingale(grid: Grid, ensemble: BrownianEnsemble,
                          rng: np.random.Generator) -> PinnedSemimartingale:
    """Adapted band-limited semimartingale pinned to zero at t = 0 and T:
    z(t) = sin^2(pi t / T) sum_{|k_a| <= N/4} (a_k + b_k W(t)) e^{i k.x},
    with a_k and b_k drawn from rng."""
    a_amp = band_limited_spectrum(grid, rng)
    b_amp = band_limited_spectrum(grid, rng) * 0.5
    return PinnedSemimartingale(grid, ensemble, a_amp, b_amp)


@dataclass
class CarlemanReport:
    mu: float
    T: float
    lhs_terms: list  # itemized LHS values
    rhs_terms: list  # itemized RHS values
    lhs: float
    rhs: float
    margin: float
    discretization_gap: float
    passed: bool


def _carleman_moments(z, A1, B1, ensemble: BrownianEnsemble):
    """terms(mu) -> (lhs1, lhs2, [rhs1..rhs4], gap) for one z field.  Each
    term is sum_j e^{mu(t_j-T)^2} times a Laurent polynomial in mu whose
    coefficients are path means of spatial moments per node, computed here
    once: (1/mu)|mu(t-T)z - B1z|^2 = mu(t-T)^2|z|^2 - 2(t-T)Re(z, B1z)
    + |B1z|^2/mu, and so on.

    Node j needs z and B1 z at nodes j and j + 1 only, so the moments are
    taken over blocks of time nodes, about _NODE_BLOCK_BYTES of (path, node)
    values each.  z is read a block at a time (a PinnedSemimartingale builds
    each block alone), and z and B1 z at a block's last node are carried
    into the next block as its first.  Each (path, node) moment is kept and
    the path means are taken once over all nodes.  With a multiplier B1
    the terms are the same bits for any blocking; an x-dependent B1 moves
    them at rounding level, and the config fixes the blocking.
    HypothesisError: z is not pinned, z(0) = z(T) = 0."""
    from .bounds import HypothesisError

    grid, tg = z.grid, ensemble.timegrid
    nodes, T, dt, K = tg.nodes(), tg.T, tg.dt, tg.K
    sp_axes = tuple(range(2, 2 + grid.dim))
    step = max(1, _NODE_BLOCK_BYTES // (16 * ensemble.M * grid.N ** grid.dim))
    at = z.at if isinstance(z, PinnedSemimartingale) \
        else lambda j0, j1: z.values[:, j0:j1]
    B1s = None
    if B1 is not None and not B1.x_independent:
        # skew part (B1 - B1*) z; a real multiplier symbol is self-adjoint,
        # so this only triggers on the x-dependent slow path
        from .calculus import adjoint_symbol

        B1s = adjoint_symbol(B1, 2).symbol_sum()
    sums = {}  # moment -> its (M, nodes) spatial inner products per block

    def _add(name, u, v):
        sums.setdefault(name, []).append(np.sum(u * np.conj(v), axis=sp_axes))

    peaks, ends = [], []
    carried = None  # z and B1 z at the last block's last node
    for j0 in range(0, K, step):
        # the block's nodes j0, ..., j1 and the steps from j0, ..., j1 - 1
        j1 = min(j0 + step, K)
        lo = j0 if carried is None else j0 + 1
        zb = at(lo, j1 + 1)
        Bzb = _apply_nodes(B1, zb, grid, ensemble, lo)
        if carried is None:
            ends.append(np.abs(zb[:, 0]).max())
        else:
            zb = np.concatenate([carried[0], zb], axis=1)
            Bzb = np.concatenate([carried[1], Bzb], axis=1)
        peaks.append(np.abs(zb).max())
        carried = zb[:, -1:], Bzb[:, -1:]
        zL, BzL = zb[:, :-1], Bzb[:, :-1]
        dz = np.diff(zb, axis=1)
        drift = dz / 1j - _apply_nodes(A1, zL, grid, ensemble, j0) * dt \
            - 1j * BzL * dt
        # the LHS moments run over all K + 1 nodes: the last block adds K
        zs, Bzs = (zb, Bzb) if j1 == K else (zL, BzL)
        _add("zz", zs, zs)
        _add("BB", Bzs, Bzs)
        _add("zB", zs, Bzs)
        # the drift pairings with i z and i B1 z: Re(u, iv) = Im(u, v)
        _add("P", drift, zL)
        _add("Q", drift, BzL)
        # the midpoint re-evaluation of the leading pairing differs from it
        # by the pairings with the increments dz and d(B1 z)
        _add("Pd", drift, dz)
        _add("Qd", drift, np.diff(Bzb, axis=1))
        _add("dzdz", dz, dz)
        _add("dzBdz", dz, _apply_nodes(B1, dz, grid, ensemble, j0))
        if B1s is not None:
            _add("S", drift, BzL - _apply_nodes(B1s, zL, grid, ensemble, j0))
    ends.append(np.abs(carried[0]).max())

    # np.max keeps a NaN, and a NaN field is a FAIL, not a hypothesis error
    peak, end = float(np.max(peaks)), float(np.max(ends))
    if peak > 0 and end > 1e-10 * peak:
        raise HypothesisError(f"z(0) = z(T) = 0 violated: endpoint "
                              f"magnitude {end:.3e} vs peak {peak:.3e}")
    # path means of the spatial inner products (u, v), per node
    mom = {name: np.mean(np.concatenate(parts, axis=1), axis=0)
           * grid.cell_volume for name, parts in sums.items()}
    zz, BB, zB = mom["zz"].real, mom["BB"].real, mom["zB"].real
    P, Q, Pd, Qd = (mom[name].imag for name in ("P", "Q", "Pd", "Qd"))
    dzdz, dzBdz = mom["dzdz"].real, mom["dzBdz"].real
    S = mom["S"].imag if "S" in mom else None
    tau = nodes - T
    tauL = tau[:K]
    finite = all(np.isfinite(m).all() for m in
                 (zz, BB, zB, P, Q, Pd, Qd, dzdz, dzBdz, S) if m is not None)

    def terms(mu: float):
        th2 = np.exp(mu * tau ** 2)
        w = th2[:K]
        # a weight that fits in float64 can still overflow times a moment
        with np.errstate(over="ignore", invalid="ignore"):
            lhs1 = float(np.trapezoid(th2 * zz, nodes))
            lhs2 = float(np.trapezoid(
                th2 * (mu * tau ** 2 * zz - 2.0 * tau * zB + BB / mu), nodes))
            rhs = [4.0 * np.sum(w * tauL * P) - (4.0 / mu) * np.sum(w * Q),
                   0.0 if S is None else (-2.0 / mu) * np.sum(w * S),
                   -2.0 * np.sum(w * tauL * dzdz),
                   (-2.0 / mu) * np.sum(w * dzBdz)]
            # rhs1 minus rhs1 re-read at z + dz/2, B1z + d(B1z)/2, t + dt/2
            gap = abs(-2.0 * np.sum(w * (tauL * Pd + dt * (P + 0.5 * Pd)))
                      + (2.0 / mu) * np.sum(w * Qd))
        if finite and not np.isfinite([lhs1, lhs2, *rhs, gap]).all():
            raise OverflowError(f"the weighted sums at mu = {mu:g} overflow "
                                "float64")
        return lhs1, lhs2, rhs, float(gap)

    return terms


def carleman_report(z: Field | PinnedSemimartingale, A1: Symbol | None,
                    B1: Symbol | None, mu_list,
                    ensemble: BrownianEnsemble) -> list[CarlemanReport]:
    """Itemized evaluation, one report per mu in mu_list, of the weighted
    inequality

        E int th^2 |z|^2 dt + (1/mu) E int th^2 |mu(t-T)z - B1 z|^2 dt
          <= (4/mu) Re E sum th^2 (dz/i - A1 z dt - i B1 z dt, i mu(t-T)z - i B1 z)
           - (2/mu) Im E sum th^2 (dz/i - A1 z dt - i B1 z dt, (B1-B1*) z)
           - 2 E sum (t-T) th^2 |dz|^2 - (2/mu) Re E sum th^2 (dz, B1 dz)

    with th = e^{mu(t-T)^2/2}, increments in the Ito (left-endpoint) form,
    for z with leading (path, time) axes over ensemble, whose time grid
    gives T: a held Field, or a PinnedSemimartingale built a block of nodes
    at a time.  The field is checked and its moments computed once for
    every mu.  HypothesisError: z is not pinned, or B1 is neither zero nor
    elliptic.  OverflowError: a weighted sum of finite moments passes
    float64.
    """
    from .bounds import HypothesisError
    from .symbols import ellipticity_check

    terms = _carleman_moments(z, A1, B1, ensemble)
    if B1 is not None and not ellipticity_check(B1, z.grid,
                                                ensemble).elliptic:
        raise HypothesisError("B1 must be zero or elliptic")
    reports = []
    for mu in mu_list:
        lhs1, lhs2, rhs_terms, gap = terms(mu)
        lhs, rhs = float(sum([lhs1, lhs2])), float(sum(rhs_terms))
        reports.append(CarlemanReport(
            mu, ensemble.timegrid.T, [lhs1, lhs2], rhs_terms, lhs, rhs,
            rhs - lhs, gap, rhs - lhs >= -1e-9 * abs(rhs)))
    return reports


# ---------------------------------------------------------------------------
# uniqueness decay experiment


@dataclass
class DecayReport:
    mu_list: list
    log_bound: list  # log of the certified decay bound per mu
    slope: float
    target_slope: float
    direct_energy: float  # E int_0^{T/2} |u|^2 dt, measured on the solution
    eq7_constants: list  # empirical LHS/RHS ratio of the weighted inequality
    passed: bool
    log_quotient: list = field(default_factory=list)
    quotient_slope: float = 0.0  # must be <= 0 for the uniqueness mechanism


def _time_plateau(tg: TimeGrid, lo: float, hi: float, ramp: float) -> np.ndarray:
    from .harmonic import _smoothstep

    t = tg.nodes()
    up = _smoothstep((t - lo) / ramp)
    down = 1.0 - _smoothstep((t - (hi - ramp)) / ramp)
    return up * down


def uniqueness_experiment(spec: EquationSpec, mu_list, r: float, grid: Grid,
                          ensemble: BrownianEnsemble,
                          forcing_amplitude: float = 1.0,
                          seed: int = 0) -> DecayReport:
    """Decay-in-mu experiment for the Cauchy uniqueness mechanism, on the
    time grid of the ensemble, of horizon T.

    With zero data and forcing supported in [2T/3, T], the solution vanishes
    on [0, T/2] by causality; the certified bound on E int_0^{T/2} |u|^2 is

        e^{-mu T^2/4} C (T + 1/mu) E int th^2 |source|^2 dt ,

    whose logarithm decreases linearly in mu with slope close to
    -(T^2/4 - T^2/9), the weight gap between [0, T/2] and the forcing
    window.  The fitted slope must lie within 25% of the target, and the
    measured energy must not exceed the bound with C = 1 at any mu.
    """
    tg = ensemble.timegrid
    T = tg.T
    m = spec.m
    rng = np.random.default_rng(seed)
    # spatial profile: fixed band-limited bump
    prof_spec = np.zeros(grid.shape, np.complex128)
    mask = grid.band_mask(grid.N // 8)
    prof_spec[mask] = (rng.standard_normal(int(mask.sum()))
                       + 1j * rng.standard_normal(int(mask.sum())))
    profile = fft_inverse(grid, prof_spec)
    profile *= forcing_amplitude / max(np.abs(profile).max(), 1e-30)

    # narrow window hugging t = 2T/3 pins the decay exponent at T^2/9
    eta = T / 50.0
    window = _time_plateau(tg, 2.0 * T / 3.0, 2.0 * T / 3.0 + 5.0 * eta, eta)
    f = np.zeros((tg.K + 1, m) + grid.shape, np.complex128)
    f[:, m - 1] = window.reshape((-1,) + (1,) * grid.dim) * profile[None]

    nodes = tg.nodes()
    half = nodes <= T / 2.0 + 1e-12
    # local energy over B_r around the torus center, via a smooth radial
    # cutoff (1 inside r, 0 beyond 2r)
    from .quantize import smooth_chi

    center = np.full(grid.dim, grid.L / 2.0)
    dist = grid.torus_distance(grid.points(), center)
    ball_w = smooth_chi(dist / (2.0 * max(r, grid.dx)))
    if not (ball_w > 0).any():
        raise ValueError(f"ball radius r = {r} contains no lattice sites")
    # sum_x ball_w |u|^2 dx per (path, node) of the first component u (the
    # Lambda^{m-1}(zeta u) slot), from zero data: each state is reduced as
    # the scheme yields it, and no (path, time) solution is held
    en = np.zeros((ensemble.M, tg.K + 1))
    y0 = np.zeros((ensemble.M, m) + grid.shape, np.complex128)
    sp_axes = tuple(range(1, 1 + grid.dim))
    for j, yhat in enumerate(integrate_spde_system(spec, f, None, grid,
                                                   ensemble, y0)):
        u = _from_spectrum(yhat[..., :1], grid)[:, 0]
        en[:, j + 1] = np.sum(ball_w * np.abs(u) ** 2, axis=sp_axes) \
            * grid.cell_volume
    direct = float(np.mean(np.trapezoid(en[:, half], nodes[half], axis=1)))

    zeta = smooth_time_cutoff(tg)
    src_l2 = np.sum(np.abs(f) ** 2, axis=tuple(range(1, f.ndim))) \
        * grid.cell_volume

    log_bound = []
    eq7_constants = []
    for mu in mu_list:
        th2 = np.exp(mu * (nodes - T) ** 2)
        rhs = (T + 1.0 / mu) * float(np.trapezoid(th2 * src_l2, nodes))
        log_bound.append(math.log(max(rhs, 1e-300)) - mu * T**2 / 4.0)
        # weighted energy of the cutoff solution vs the source (Eq (7) shape)
        lhs_w = float(np.mean(np.trapezoid(th2 * (zeta**2 * en), nodes,
                                           axis=1)))
        eq7_constants.append(lhs_w / max(rhs, 1e-300))
    slope = float(np.polyfit(np.asarray(mu_list, float), log_bound, 1)[0])
    target = -(T**2 / 4.0 - T**2 / 9.0)
    decreasing = all(b2 < b1 for b1, b2 in zip(log_bound, log_bound[1:]))
    # the measured energy must respect the certified bound (C = 1) at every mu
    certified = all(direct == 0.0 or math.log(direct) <= lb
                    for lb in log_bound)
    passed = decreasing and certified \
        and abs(slope - target) <= 0.25 * abs(target)
    # decay quotient against the mu^{-1} e^{mu T^2/9} reference envelope
    log_q = [lb + mu * T**2 / 4.0 + math.log(mu) - mu * T**2 / 9.0
             for mu, lb in zip(mu_list, log_bound)]
    q_slope = float(np.polyfit(np.asarray(mu_list, float), log_q, 1)[0])
    return DecayReport(list(mu_list), log_bound, slope, target, direct,
                       eq7_constants, passed, log_q, q_slope)
