"""Companion reduction, characteristic roots, integration, and the Carleman
machinery."""

import math
from dataclasses import asdict

import numpy as np
import pytest
import sympy as sp

from spdo import cauchy
from spdo.cauchy import (
    EquationSpec,
    StabilityError,
    _from_spectrum,
    carleman_report,
    characteristic_roots,
    integrate_spde_system,
    pinned_semimartingale,
    smooth_time_cutoff,
    uniqueness_experiment,
)
from spdo.grid import Field, Grid, TimeGrid
from spdo.registry import make_equation, make_symbol
from spdo.stochastic import sample_brownian
from spdo.symbols import symbol_from_expr, _T, _W, _X, _XI

G = Grid(1, 32)


def _held(A, f, F, grid, ens, initial):
    """integrate_spde_system's solution from Y(0) = initial, which
    broadcasts to (M, m) + grid.shape, back in values at every node:
    (M, K+1, m) + grid.shape."""
    m = np.shape(initial)[-1 - grid.dim]
    y0 = np.broadcast_to(initial, (ens.M, m) + grid.shape) + 0j
    states = [_from_spectrum(y, grid)
              for y in integrate_spde_system(A, f, F, grid, ens, y0)]
    return np.stack([y0] + states, axis=1)


# -- companion matrices ------------------------------------------------------

def test_companion_m1_degenerate():
    spec = EquationSpec(m=1, dim=1, principal={(0, (1,)): 1.0})
    sig = spec(0.0, 0.0, np.zeros((1, 1)), np.array([[3.0]]))[0]
    assert sig.shape == (1, 1)
    assert abs(sig[0, 0] - 3.0) < 1e-12


def test_companion_wave_matrix():
    spec = make_equation("wave", 1)
    xi = np.array([[2.0]])
    sig = spec(0.0, 0.0, np.zeros((1, 1)), xi)[0]
    expect = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert np.abs(sig - expect).max() < 1e-12


def test_companion_structure_m3_random_points():
    rng = np.random.default_rng(0)
    spec = EquationSpec(m=3, dim=1, principal={
        (2, (1,)): 1.3, (1, (2,)): -0.7, (0, (3,)): 0.4})
    for _ in range(100):
        xi = rng.uniform(0.5, 8.0) * rng.choice([-1.0, 1.0])
        sig = spec(0.0, 0.0, np.zeros((1, 1)), np.array([[xi]]))[0]
        mag = abs(xi)
        # superdiagonal |xi|, bottom row a_k |xi|^{k+1-m}
        assert abs(sig[0, 1] - mag) < 1e-12 and abs(sig[1, 2] - mag) < 1e-12
        assert abs(sig[1, 0]) < 1e-12 and abs(sig[0, 2]) < 1e-12
        assert abs(sig[2, 0] - 0.4 * xi**3 / mag**2) < 1e-10
        assert abs(sig[2, 1] - (-0.7) * xi**2 / mag) < 1e-10
        assert abs(sig[2, 2] - 1.3 * xi) < 1e-10


def test_companion_origin_patched():
    sig = make_equation("wave", 1)(0.0, 0.0, np.zeros((1, 1)),
                                   np.zeros((1, 1)))[0]
    assert np.abs(sig).max() == 0.0


def test_invalid_principal_index():
    with pytest.raises(ValueError):
        EquationSpec(m=2, dim=1, principal={(0, (1,)): 1.0})  # |alpha| != m-k


# -- characteristic roots ----------------------------------------------------

def _root_distance(got, want):
    """The largest distance from a root in got to the nearest in want, and
    back: 0 when the (..., m) root sets agree."""
    d = np.abs(got[..., :, None] - want[..., None, :])
    return max(d.min(axis=-1).max(), d.min(axis=-2).max())


def _lattice_roots(spec, grid):
    xis = grid.freqs().reshape(-1, grid.dim)
    mats = spec(0.0, 0.0, np.zeros((1, grid.dim)), xis)
    return xis, characteristic_roots(mats)


def _unit_sphere_roots(spec):
    """Roots at the 1-D unit sphere xi = +-1, over a spread of (t, w, x)."""
    t = np.linspace(0.0, 1.0, 5)[:, None, None]
    w = np.array([-1.5, 0.0, 2.0])[None, :, None]
    x = G.points().reshape(-1, 1)[None, None, ::4, None, :]
    xi = np.array([[1.0], [-1.0]])
    mats = spec(t[..., None], w[..., None], x, xi)
    return characteristic_roots(mats).reshape(-1, spec.m)


def test_wave_roots():
    for lams in _unit_sphere_roots(make_equation("wave", 1)):
        got = np.sort(lams.real)
        assert np.abs(np.sort(lams.imag)).max() < 1e-10
        assert np.abs(got - np.array([-1.0, 1.0])).max() < 1e-10


def test_schrodinger_roots():
    for lams in _unit_sphere_roots(make_equation("schrodinger", 1)):
        assert np.abs(np.sort(lams.imag) - np.array([-1.0, 1.0])).max() < 1e-10
        assert np.abs(lams.real).max() < 1e-10


def test_companion_consistency_eigenvalues_equal_roots():
    # the registry equations' roots in closed form: +-|xi|, +-i|xi| and xi_1
    closed = {"wave": lambda xi, mag: np.stack([mag, -mag], -1),
              "schrodinger": lambda xi, mag: np.stack([1j * mag, -1j * mag],
                                                      -1),
              "transport": lambda xi, mag: xi[:, :1]}
    for dim in (1, 2, 3):
        grid = Grid(dim, 16)
        for name, roots in closed.items():
            xis, got = _lattice_roots(make_equation(name, dim), grid)
            want = roots(xis, np.sqrt(np.sum(xis**2, axis=-1)))
            assert got.shape == want.shape
            assert _root_distance(got, want) <= 1e-13


def test_random_cubic_against_independent_solver():
    # m = 3 reaches the bottom-row scaling a_k |xi|^{k+1-m}, which the
    # registry's m <= 2 equations never do; numpy's polynomial companion
    # solver on the raw coefficients is the reference
    spec = EquationSpec(m=3, dim=1, principal={
        (2, (1,)): 1.7, (1, (2,)): -0.3, (0, (3,)): 0.8})
    xis, got = _lattice_roots(spec, G)
    for xi, lams in zip(xis[:, 0], got):
        # monic polynomial lambda^3 - a2 lambda^2 - a1 lambda - a0
        coeffs = [-0.8 * xi**3, -(-0.3) * xi**2, -1.7 * xi, 1.0]
        ref = np.polynomial.polynomial.polyroots(coeffs)
        assert _root_distance(lams, ref) <= 1e-9 * max(1.0, abs(xi))


# -- integrator --------------------------------------------------------------

def test_integrator_zero_sources_zero_solution():
    tg = TimeGrid(0.5, 32)
    ens = sample_brownian(4, tg, seed=0)
    Y = _held(make_equation("wave", 1), None, None, G, ens,
              np.zeros((2,) + G.shape))
    assert np.abs(Y).max() < 1e-14


def test_integrator_unitary_scalar():
    tg = TimeGrid(0.5, 1000)
    ens = sample_brownian(1, tg, seed=0)
    spec = EquationSpec(m=1, dim=1, principal={(0, (1,)): 1.0})
    init = np.ones((1, 1) + G.shape, np.complex128)
    Y = _held(spec, None, None, G, ens, init)
    norms = np.abs(Y[0, :, 0, G.N // 2])
    assert np.abs(norms - 1.0).max() <= 1e-6


def test_integrator_ito_isometry():
    tg = TimeGrid(0.5, 200)
    g = Grid(1, 8)
    ens = sample_brownian(10_000, tg, seed=1)
    sigma = 2.0
    F = np.zeros((tg.K + 1, 1) + g.shape, np.complex128)
    F[:, 0] = sigma
    y0 = np.zeros((ens.M, 1) + g.shape, np.complex128)
    for last in integrate_spde_system(None, None, F, g, ens, y0):
        pass
    # E|Y(T)|^2 = sigma^2 T per site
    site = np.abs(_from_spectrum(last, g)[:, 0, 0]) ** 2
    got = float(site.mean())
    assert abs(got - sigma**2 * tg.T) <= 0.05 * sigma**2 * tg.T


def test_integrator_stability_error():
    tg = TimeGrid(0.5, 4)  # dt max|sigma| far beyond 0.5
    ens = sample_brownian(2, tg, seed=0)
    y0 = np.zeros((2, 2, 64), np.complex128)
    # the frozen pair is built, and its CFL bound checked, in the call
    with pytest.raises(StabilityError):
        integrate_spde_system(make_equation("wave", 1), None, None,
                              Grid(1, 64), ens, y0)


def test_integrator_cfl_checked_along_the_paths():
    # dt max|sigma(A)| = 0.125 at w = 0, but 1 + 100 w^2 grows along the paths
    coeff = symbol_from_expr(1 + 100 * _W**2, 1, order=0)
    spec = EquationSpec(m=1, dim=1, principal={(0, (1,)): coeff})
    tg = TimeGrid(0.5, 64)
    ens = sample_brownian(4, tg, seed=0)
    with pytest.raises(StabilityError):
        _held(spec, None, None, Grid(1, 32), ens, np.zeros((1, 32)))


def test_integrator_reads_m_off_its_inputs():
    tg = TimeGrid(0.5, 8)
    ens = sample_brownian(2, tg, seed=0)
    x = G.points()[..., 0]
    y0 = np.stack([np.cos(x), np.sin(x)]).astype(np.complex128)
    Y = _held(None, None, None, G, ens, y0)
    assert Y.shape[2] == 2
    assert np.abs(Y - y0).max() <= 1e-14


def _path_loop_reference(spec, f, F, tg, ens, y0):
    """The midpoint scheme on the 1-D grid G, written out per path and step:
    (I - i dt/2 A) y' = (I + i dt/2 A) y + i f dt + i F dW, per frequency,
    with A at (t_j + dt/2, W_p(t_j))."""
    dt, m = tg.dt, spec.m
    xis = G.freqs().reshape(-1, 1)
    eye = np.eye(m)
    dW = np.diff(ens.paths, axis=1)
    out = np.zeros((ens.M, tg.K + 1, m, G.N), np.complex128)
    for p in range(ens.M):
        out[p, 0] = y0
        yhat = np.fft.fft(y0, axis=-1).T  # (N, m)
        for j in range(tg.K):
            half = 0.5j * dt * spec(tg.nodes()[j] + dt / 2.0, ens.paths[p, j],
                                  np.zeros((1, 1)), xis)
            rhs = np.einsum("kab,kb->ka", eye + half, yhat) \
                + 1j * dt * np.fft.fft(f[j], axis=-1).T \
                + 1j * dW[p, j] * np.fft.fft(F[j], axis=-1).T
            yhat = np.linalg.solve(eye - half, rhs[..., None])[..., 0]
            out[p, j + 1] = np.fft.ifft(yhat.T, axis=-1)
    return out


def test_integrator_tw_dependent_matches_path_loop():
    # wave speed^2 1 + sin(W)/2 + t: the Cayley pair differs per path and step
    coeff = symbol_from_expr(1 + sp.sin(_W) / 2 + _T, 1, order=0)
    spec = EquationSpec(m=2, dim=1, principal={(0, (2,)): coeff})
    assert not spec.tw_independent
    tg = TimeGrid(0.5, 64)
    ens = sample_brownian(3, tg, seed=6)
    x = G.points()[..., 0]
    f = np.zeros((tg.K + 1, 2, G.N), np.complex128)
    f[:, 1] = np.sin(5.0 * tg.nodes())[:, None] * np.cos(x)
    F = np.zeros_like(f)
    F[:, 1] = 0.3 * np.sin(2.0 * x)
    y0 = np.stack([np.cos(x), np.sin(3.0 * x)]).astype(np.complex128)
    got = _held(spec, f, F, G, ens, y0)
    ref = _path_loop_reference(spec, f, F, tg, ens, y0)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_integrator_w_coefficient_is_not_frozen():
    # 1 + w(w - 1) equals 1 at w = 0 and w = 1; it is not a constant
    tg = TimeGrid(0.5, 64)
    ens = sample_brownian(2, tg, seed=1)
    y0 = np.cos(G.points()[..., 0])[None].astype(np.complex128)
    runs = []
    for coeff in (1.0, symbol_from_expr(1 + _W * (_W - 1), 1, order=0)):
        spec = EquationSpec(m=1, dim=1, principal={(0, (1,)): coeff})
        runs.append(_held(spec, None, None, G, ens, y0))
    assert np.abs(runs[1] - runs[0]).max() > 1e-3


def test_companion_tw_independent_read_off_coefficients():
    def spec(coeff):
        return EquationSpec(m=1, dim=1, principal={(0, (1,)): coeff})

    assert spec(2.0).tw_independent
    assert spec(symbol_from_expr(2 + sp.sin(_X[0]), 1, order=0)).tw_independent
    assert not spec(symbol_from_expr(1 + _W, 1, order=0)).tw_independent
    assert not spec(symbol_from_expr(1 + _T, 1, order=0)).tw_independent


def test_integrator_weak_order_in_dt():
    # deterministic time-varying drift: the left-endpoint source quadrature
    # carries the O(dt) error that the A = 0, F = const case cannot expose
    g = Grid(1, 8)
    errs, Ks = [], [25, 50, 100, 200]
    for K in Ks:
        tg = TimeGrid(0.5, K)
        ens = sample_brownian(1, tg, seed=0)
        f = np.zeros((tg.K + 1, 1) + g.shape, np.complex128)
        f[:, 0] = np.cos(3.0 * tg.nodes()).reshape(-1, 1)
        Y = _held(None, f, None, g, ens, np.zeros((1, 1) + g.shape))
        exact = 1j * math.sin(3.0 * tg.T) / 3.0
        errs.append(abs(Y[0, -1, 0, 0] - exact))
    slope = np.polyfit(np.log(Ks), np.log(errs), 1)[0]
    assert abs(slope + 1.0) <= 0.30


# -- Carleman ----------------------------------------------------------------

TG_C = TimeGrid(0.5, 64)
ENS_C = sample_brownian(8, TG_C, seed=11)
B1 = symbol_from_expr(sp.sqrt(1 + _XI[0] ** 2), 1, order=1)


def _zero_field():
    vals = np.zeros((ENS_C.M, TG_C.K + 1) + G.shape, np.complex128)
    return Field(G, vals)


def test_carleman_zero_field_trivial_pass():
    rep, = carleman_report(_zero_field(), None, B1, [100.0], ENS_C)
    assert rep.passed
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_carleman_deterministic_bump():
    nodes = TG_C.nodes()
    x = G.points()[..., 0]
    vals = np.empty((ENS_C.M, TG_C.K + 1) + G.shape, np.complex128)
    prof = np.exp(1j * x) + 0.3 * np.exp(-2j * x)
    for j, t in enumerate(nodes):
        vals[:, j] = math.sin(math.pi * t / 0.5) ** 2 * prof
    z = Field(G, vals)
    rep, = carleman_report(z, None, B1, [100.0], ENS_C)
    assert rep.passed
    assert rep.margin >= 0.0


def test_carleman_endpoint_violation():
    vals = np.ones((ENS_C.M, TG_C.K + 1) + G.shape, np.complex128)
    z = Field(G, vals)
    from spdo.bounds import HypothesisError
    with pytest.raises(HypothesisError):
        carleman_report(z, None, B1, [100.0], ENS_C)


def test_carleman_random_semimartingales():
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = pinned_semimartingale(G, ENS_C, rng)
        reps = carleman_report(z, None, B1, [50.0, 100.0, 200.0], ENS_C)
        assert [rep.mu for rep in reps] == [50.0, 100.0, 200.0]
        assert all(rep.passed for rep in reps)


def test_carleman_robust_at_doubled_mu():
    rng = np.random.default_rng(6)
    for _ in range(20):
        z = pinned_semimartingale(G, ENS_C, rng)
        r1, r2 = carleman_report(z, None, B1, [100.0, 200.0], ENS_C)
        assert r1.passed and r2.passed


def test_carleman_weighted_sum_overflow_raises():
    # e^(400 * 1.332^2) = e^709.69 fits in float64; times (t - T) and the
    # moments of a random field it does not
    tg = TimeGrid(1.332, 64)
    ens = sample_brownian(4, tg, seed=5)
    z = pinned_semimartingale(G, ens, np.random.default_rng(5))
    with pytest.raises(OverflowError, match="mu = 400 overflow"):
        carleman_report(z, None, B1, [400.0], ens)


def test_carleman_nan_field_fails_without_overflow_error():
    # non-finite moments are a FAIL of the field, not an overflow
    z = Field(G, pinned_semimartingale(G, ENS_C,
                                       np.random.default_rng(5)).values)
    z.values[0, 5, 3] = np.nan
    reps = carleman_report(z, None, B1, [50.0, 400.0], ENS_C)
    assert [rep.passed for rep in reps] == [False, False]


def test_carleman_single_mode_at_last_step_fails():
    # pinned, but all of z sits on one high mode at node K-1: the jump
    # back to 0 at T costs more than the weighted LHS earns, at every mu
    grid = Grid(1, 64)
    tg = TimeGrid(0.5, 64)
    ens = sample_brownian(16, tg, seed=11)
    vals = np.zeros((ens.M, tg.K + 1) + grid.shape, np.complex128)
    vals[:, tg.K - 1] = np.exp(16j * grid.points()[..., 0])
    z = Field(grid, vals)
    reps = carleman_report(z, None, make_symbol("bessel1", dim=1),
                           [50.0, 100.0, 200.0, 400.0], ens)
    assert [rep.passed for rep in reps] == [False] * 4
    assert all(rep.margin < 0.0 for rep in reps)


def _reference_terms(z, A1, B1, mu, ensemble):
    """The per-mu evaluation the moments replace, kept as an oracle: every
    term recomputed on the (M, K+1, N) arrays for this one mu."""
    from spdo.calculus import adjoint_symbol

    apply = cauchy._apply_nodes
    grid, tg = z.grid, ensemble.timegrid
    nodes = tg.nodes()
    T = tg.T
    th2 = np.exp(mu * (nodes - T) ** 2)
    Kp1 = z.values.shape[1]
    K = Kp1 - 1
    Bz_all = apply(B1, z.values, grid, ensemble)
    A1z_all = apply(A1, z.values, grid, ensemble)
    sp_axes = tuple(range(2, 2 + grid.dim))
    tshape = (1, Kp1) + (1,) * grid.dim
    tmT = (nodes - T).reshape(tshape)
    lhs1_j = th2[None, :] * np.sum(np.abs(z.values) ** 2,
                                   axis=sp_axes).real * grid.cell_volume
    lhs2_j = th2[None, :] / mu * np.sum(
        np.abs(mu * tmT * z.values - Bz_all) ** 2,
        axis=sp_axes).real * grid.cell_volume
    lhs1 = float(np.mean(np.trapezoid(lhs1_j, nodes, axis=1)))
    lhs2 = float(np.mean(np.trapezoid(lhs2_j, nodes, axis=1)))
    dz = np.diff(z.values, axis=1)
    zL, BzL, A1zL = z.values[:, :K], Bz_all[:, :K], A1z_all[:, :K]
    drift = dz / 1j - A1zL * tg.dt - 1j * BzL * tg.dt
    tmTL = tmT[:, :K]
    G_ = 1j * mu * tmTL * zL - 1j * BzL

    def _ipt(u, v):
        return np.sum(u * np.conj(v), axis=sp_axes) * grid.cell_volume

    w_th2 = th2[None, :K]
    rhs = np.zeros(4)
    rhs[0] = (4.0 / mu) * float(np.mean(
        np.sum(w_th2 * _ipt(drift, G_).real, axis=1)))
    if B1 is not None and not B1.x_independent:
        B1s = adjoint_symbol(B1, 2).symbol_sum()
        skew = BzL - apply(B1s, zL, grid, ensemble)
        rhs[1] = (-2.0 / mu) * float(np.mean(
            np.sum(w_th2 * _ipt(drift, skew).imag, axis=1)))
    rhs[2] = -2.0 * float(np.mean(np.sum(
        w_th2 * (nodes[None, :K] - T)
        * np.sum(np.abs(dz) ** 2, axis=sp_axes).real * grid.cell_volume,
        axis=1)))
    Bdz = apply(B1, dz, grid, ensemble)
    rhs[3] = (-2.0 / mu) * float(np.mean(
        np.sum(w_th2 * _ipt(dz, Bdz).real, axis=1)))
    zmid = 0.5 * (z.values[:, 1:] + z.values[:, :K])
    Bmid = 0.5 * (Bz_all[:, 1:] + Bz_all[:, :K])
    Gmid = 1j * mu * (tmTL + tg.dt / 2.0) * zmid - 1j * Bmid
    rhs1_mid = (4.0 / mu) * float(np.mean(
        np.sum(w_th2 * _ipt(drift, Gmid).real, axis=1)))
    return [lhs1, lhs2], list(rhs), abs(rhs[0] - rhs1_mid)


@pytest.mark.parametrize("case", ["A1-unset", "A1-set", "B1-x-dependent"])
def test_carleman_moments_match_per_mu_terms(case):
    A1 = None
    b1 = B1
    if case == "A1-set":
        A1 = symbol_from_expr(sp.Rational(1, 2) * _XI[0] + _W, 1, order=1)
    if case == "B1-x-dependent":
        # x-dependent, so the skew term (B1 - B1*) z is not zero
        b1 = symbol_from_expr((2 + sp.sin(_X[0])) * sp.sqrt(1 + _XI[0] ** 2),
                              1, order=1)
    z = pinned_semimartingale(G, ENS_C, np.random.default_rng(12))
    mus = [50.0, 100.0, 200.0, 400.0]
    reps = carleman_report(z, A1, b1, mus, ENS_C)
    for mu, rep in zip(mus, reps):
        lhs_terms, rhs_terms, gap = _reference_terms(z, A1, b1, mu, ENS_C)
        if case == "B1-x-dependent":
            assert abs(rhs_terms[1]) > 1e-6 * abs(rhs_terms[0])
        lhs, rhs = sum(lhs_terms), sum(rhs_terms)
        pairs = list(zip(rep.lhs_terms + rep.rhs_terms,
                         lhs_terms + rhs_terms))
        pairs += [(rep.lhs, lhs), (rep.rhs, rhs), (rep.margin, rhs - lhs),
                  (rep.discretization_gap, gap)]
        for got, want in pairs:
            assert abs(got - want) <= 1e-12 * abs(want), (mu, got, want)


@pytest.mark.parametrize("case", ["held", "closed-form", "A1-set",
                                  "B1-x-dependent"])
def test_carleman_moments_do_not_depend_on_the_blocks(monkeypatch, case):
    # one block of all 64 steps, blocks of 1 and 2 nodes, and uneven blocks
    # of 7 (the last of 1): the same terms, a held Field read through the
    # block loop as a closed form built block by block.  Bit for bit with a
    # multiplier B1; an x-dependent B1 is applied in chunks of the block's
    # nodes, which moves its terms at rounding level
    A1, b1 = None, B1
    if case == "A1-set":
        A1 = symbol_from_expr(sp.Rational(1, 2) * _XI[0] + _W, 1, order=1)
    if case == "B1-x-dependent":
        b1 = symbol_from_expr((2 + sp.sin(_X[0])) * sp.sqrt(1 + _XI[0] ** 2),
                              1, order=1)
    z = pinned_semimartingale(G, ENS_C, np.random.default_rng(3))
    if case != "closed-form":
        z = Field(G, z.values)
    mus = [50.0, 100.0, 200.0, 400.0]
    node_bytes = 16 * ENS_C.M * G.N
    runs = []
    for nodes in (TG_C.K, 1, 2, 7):
        monkeypatch.setattr(cauchy, "_NODE_BLOCK_BYTES", nodes * node_bytes)
        runs.append(carleman_report(z, A1, b1, mus, ENS_C))
    if case != "B1-x-dependent":
        assert all(list(map(asdict, run)) == list(map(asdict, runs[0]))
                   for run in runs[1:])
    for run in runs[1:]:
        for got, ref in zip(run, runs[0]):
            scale = max(abs(ref.lhs), abs(ref.rhs))
            assert got.passed == ref.passed
            for a, b in zip(got.lhs_terms + got.rhs_terms,
                            ref.lhs_terms + ref.rhs_terms):
                assert abs(a - b) <= 1e-12 * scale


@pytest.mark.parametrize("held", [True, False], ids=["held", "closed-form"])
def test_carleman_known_answer_draw(monkeypatch, held):
    # z = phi(t) e^{ikx} on every path, phi = sin^2(pi t/T), with A1 unset
    # and the multiplier B1 = bessel1, b = B1(k) = sqrt(1 + k^2): each
    # spatial moment is L times a scalar sequence in phi_j and b, so each
    # term is a scalar sum over the time grid.  With delta_j = phi_{j+1} -
    # phi_j, tau = t - T and w = e^{mu tau^2}:
    #   lhs1 = L int w phi^2,  lhs2 = (L/mu) int w phi^2 (mu tau - b)^2,
    #   rhs1 = -4L sum w phi (delta + b phi dt)(tau - b/mu),  rhs2 = 0,
    #   rhs3 = -2L sum w tau delta^2,  rhs4 = -(2/mu) L b sum w delta^2
    grid, tg, k = Grid(1, 64), TimeGrid(0.5, 64), 3
    ens = sample_brownian(16, tg, seed=5)
    # blocks of 10 nodes: their edges fall inside the run
    monkeypatch.setattr(cauchy, "_NODE_BLOCK_BYTES", 10 * 16 * 16 * 64)
    phi = np.sin(np.pi * tg.nodes() / tg.T) ** 2
    mode = np.exp(1j * k * grid.points()[..., 0])
    if held:
        z = Field(grid, np.broadcast_to(phi[:, None] * mode,
                                        (ens.M, tg.K + 1, grid.N)).copy())
    else:
        a = cauchy.fft_forward(grid, mode)
        z = cauchy.PinnedSemimartingale(grid, ens, a, np.zeros_like(a))
    L, b, dt = grid.L, math.sqrt(1.0 + k * k), tg.dt
    tau = tg.nodes() - tg.T
    delta = np.diff(phi)
    phiL, tauL = phi[:-1], tau[:-1]
    mus = [50.0, 100.0, 200.0]
    reps = carleman_report(z, None, make_symbol("bessel1", dim=1), mus, ens)
    for mu, rep in zip(mus, reps):
        w = np.exp(mu * tau ** 2)
        wL = w[:-1]
        want = [L * np.trapezoid(w * phi ** 2, tg.nodes()),
                L / mu * np.trapezoid(w * phi ** 2 * (mu * tau - b) ** 2,
                                      tg.nodes()),
                -4.0 * L * np.sum(wL * phiL * (delta + b * phiL * dt)
                                  * (tauL - b / mu)),
                -2.0 * L * np.sum(wL * tauL * delta ** 2),
                -2.0 / mu * L * b * np.sum(wL * delta ** 2)]
        got = rep.lhs_terms + [rep.rhs_terms[0]] + rep.rhs_terms[2:]
        assert rep.rhs_terms[1] == 0.0
        for g, x in zip(got, want):
            assert abs(g - x) <= 1e-12 * abs(x), (mu, g, x)


def test_carleman_report_terms_itemized():
    rng = np.random.default_rng(7)
    z = pinned_semimartingale(G, ENS_C, rng)
    rep, = carleman_report(z, None, B1, [100.0], ENS_C)
    assert len(rep.lhs_terms) == 2 and len(rep.rhs_terms) == 4
    assert abs(rep.lhs - sum(rep.lhs_terms)) < 1e-9 * abs(rep.lhs)
    assert abs(rep.rhs - sum(rep.rhs_terms)) < 1e-9 * abs(rep.rhs)
    assert rep.discretization_gap >= 0.0


def test_carleman_dense_path_matches_multiplier_path():
    # (sin^2 + cos^2) keeps x in the expression, so these symbols take an
    # x-dependent path at every node (including the skew term): the
    # separated one, c(x) = sin^2 + cos^2 times g(xi), as each apply holds
    # many nodes; yet they equal the Fourier multipliers xi and sqrt(1 + xi^2)
    one = sp.sin(_X[0]) ** 2 + sp.cos(_X[0]) ** 2
    A1 = symbol_from_expr(_XI[0], 1, order=1)
    A1x = symbol_from_expr(one * _XI[0], 1, order=1)
    B1x = symbol_from_expr(one * sp.sqrt(1 + _XI[0] ** 2), 1, order=1)
    assert not (A1x.x_independent or B1x.x_independent)
    z = pinned_semimartingale(G, ENS_C, np.random.default_rng(10))
    ref, = carleman_report(z, A1, B1, [100.0], ENS_C)
    got, = carleman_report(z, A1x, B1x, [100.0], ENS_C)
    scale = max(abs(ref.lhs), abs(ref.rhs))
    for a, b in zip(ref.lhs_terms + ref.rhs_terms,
                    got.lhs_terms + got.rhs_terms):
        assert abs(a - b) <= 1e-10 * scale
    assert got.passed == ref.passed


# -- cutoff and uniqueness ---------------------------------------------------

def test_smooth_time_cutoff_profile():
    tg = TimeGrid(0.6, 60)
    z = smooth_time_cutoff(tg)
    nodes = tg.nodes()
    assert np.all(z[nodes <= 0.4 + 1e-12] == 1.0)
    assert z[-1] == 0.0
    assert np.all((z >= 0.0) & (z <= 1.0))


def test_pinned_semimartingale_contract():
    rng = np.random.default_rng(10)
    z = pinned_semimartingale(G, ENS_C, rng)
    assert np.abs(z.values[:, 0]).max() < 1e-12
    assert np.abs(z.values[:, -1]).max() < 1e-12


@pytest.mark.parametrize("equation, dim, N", [("wave", 1, 32),
                                              ("schrodinger", 1, 32),
                                              ("wave", 2, 16),
                                              ("schrodinger", 2, 16)])
def test_ball_energies_equal_those_of_the_held_solution(equation, dim, N,
                                                       monkeypatch):
    # uniqueness_experiment reduces each state as the scheme yields it: its
    # Eq (7) constants are bit for bit those of the whole (path, time)
    # solution of the same scheme
    from spdo.quantize import smooth_chi

    g = Grid(dim, N)
    tg = TimeGrid(0.5, 64)
    ens = sample_brownian(6, tg, seed=4)
    calls = []
    real = cauchy.integrate_spde_system

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cauchy, "integrate_spde_system", spy)
    mu_list, r = [50.0, 100.0], 1.5
    rep = uniqueness_experiment(make_equation(equation, dim), mu_list, r, g,
                                ens)
    (A, f, F, _, _, y0), = calls
    u = _held(A, f, F, g, ens, y0)[:, :, 0]
    dist = g.torus_distance(g.points(), np.full(dim, g.L / 2.0))
    weight = smooth_chi(dist / (2.0 * max(r, g.dx)))
    en = np.sum(weight * np.abs(u) ** 2, axis=tuple(range(2, 2 + dim))) \
        * g.cell_volume
    nodes, T = tg.nodes(), tg.T
    zeta2 = smooth_time_cutoff(tg) ** 2
    src_l2 = np.sum(np.abs(f) ** 2, axis=tuple(range(1, f.ndim))) \
        * g.cell_volume
    for mu, const in zip(mu_list, rep.eq7_constants):
        th2 = np.exp(mu * (nodes - T) ** 2)
        rhs = (T + 1.0 / mu) * float(np.trapezoid(th2 * src_l2, nodes))
        lhs = float(np.mean(np.trapezoid(th2 * (zeta2 * en), nodes, axis=1)))
        assert const > 0.0 and const == lhs / rhs


def test_uniqueness_zero_forcing():
    tg = TimeGrid(0.5, 64)
    ens = sample_brownian(4, tg, seed=1)
    rep = uniqueness_experiment(make_equation("schrodinger", 1),
                                [50.0, 100.0], 1.5, G, ens,
                                forcing_amplitude=0.0)
    assert rep.direct_energy == 0.0


def test_uniqueness_schrodinger_decay():
    tg = TimeGrid(0.5, 128)
    ens = sample_brownian(16, tg, seed=2)
    rep = uniqueness_experiment(make_equation("schrodinger", 1),
                                [50.0, 100.0, 200.0, 400.0], 1.5, G, ens)
    assert rep.passed
    assert all(b2 < b1 for b1, b2 in zip(rep.log_bound, rep.log_bound[1:]))
    target = -(0.5**2 / 4.0 - 0.5**2 / 9.0)
    assert abs(rep.slope - target) <= 0.25 * abs(target)
    assert rep.quotient_slope <= 1e-9


def test_uniqueness_wave_branch():
    tg = TimeGrid(0.5, 128)
    ens = sample_brownian(16, tg, seed=3)
    rep = uniqueness_experiment(make_equation("wave", 1),
                                [50.0, 100.0, 200.0, 400.0], 1.5, G, ens)
    assert rep.passed


def test_uniqueness_fails_on_garbage_solver(monkeypatch):
    import spdo.cauchy as cauchy

    tg = TimeGrid(0.5, 64)
    ens = sample_brownian(4, tg, seed=2)
    args = (make_equation("schrodinger", 1), [50.0, 100.0, 200.0, 400.0],
            1.5, G, ens)
    assert uniqueness_experiment(*args).passed

    def garbage(A, f, F, grid, ensemble, y0):
        # the spectral states of every step, (M, nfreq, m)
        rng = np.random.default_rng(0)
        shape = (ensemble.M, grid.N ** grid.dim, A.m)
        for _ in range(ensemble.timegrid.K):
            yield 1e6 * (rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape))

    monkeypatch.setattr(cauchy, "integrate_spde_system", garbage)
    rep = uniqueness_experiment(*args)
    assert rep.direct_energy > 1e6
    assert not rep.passed


def test_uniqueness_report_serialization():
    tg = TimeGrid(0.5, 64)
    ens = sample_brownian(4, tg, seed=4)
    rep = uniqueness_experiment(make_equation("wave", 1), [50.0, 100.0],
                                1.5, G, ens)
    d = asdict(rep)
    assert "slope" in d and "log_bound" in d


@pytest.mark.parametrize("dim", [1, 2])
def test_ito_final_matches_whole_trajectory(dim):
    # the Ito check transforms only the last spectral state back and keeps
    # its first site: the same Y(T) there, bit for bit, as the last node of
    # the whole trajectory
    from spdo.cli import _ito_final

    g = Grid(dim, 8)
    tg = TimeGrid(0.5, 16)
    ens = sample_brownian(64, tg, seed=2)
    rng = np.random.default_rng(0)
    F = np.zeros((tg.K + 1, 1) + g.shape, np.complex128)
    F[:, 0] = rng.standard_normal((tg.K + 1,) + g.shape)
    whole = _held(None, None, F, g, ens, np.zeros((1, 1) + g.shape))
    site = whole[:, -1, 0].reshape(ens.M, -1)[:, 0]
    assert np.array_equal(_ito_final(F, g, ens), site)


def test_deterministic_source_matches_its_per_path_copy():
    # a deterministic source is transformed once for every node, a per-path
    # source node by node: the same Y, bit for bit
    from spdo.stochastic import sample_brownian

    g = Grid(2, 8)
    tg = TimeGrid(0.5, 16)
    ens = sample_brownian(5, tg, seed=3)
    rng = np.random.default_rng(1)
    src = rng.standard_normal((tg.K + 1, 1) + g.shape) + 0j
    per_path = np.broadcast_to(src, (ens.M,) + src.shape)
    y0 = np.zeros((1, 1) + g.shape)
    for f, F in ((src, None), (None, src)):
        fp = None if f is None else per_path
        Fp = None if F is None else per_path
        assert np.array_equal(_held(None, f, F, g, ens, y0),
                              _held(None, fp, Fp, g, ens, y0))
