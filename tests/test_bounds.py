"""Boundedness checks, weak-type bound, and the Garding inequality."""

import math

import numpy as np
import pytest
import sympy as sp

from spdo.bounds import (
    HypothesisError,
    garding_check,
    l2_boundedness_check,
    mixed_lp_check,
    random_adapted_field,
    sobolev_boundedness_check,
    weak_type_check,
)
from spdo.grid import Grid, TimeGrid
from spdo.stochastic import sample_brownian
from spdo.symbols import constant_symbol, symbol_from_expr, _W, _X, _XI

GRIDS = [Grid(1, 32), Grid(1, 64)]
ENS = sample_brownian(8, TimeGrid(0.5, 32), seed=3)


def test_identity_norm_one():
    rep = l2_boundedness_check(constant_symbol(1.0), 2.0, GRIDS, ENS)
    assert rep.passed
    for N, c in rep.constants.items():
        assert abs(c - 1.0) < 1e-9


def test_scalar_norm_is_modulus():
    rep = l2_boundedness_check(constant_symbol(-2.5), 2.0, GRIDS, ENS)
    assert rep.passed
    for N, c in rep.constants.items():
        assert abs(c - 2.5) < 1e-9


def test_order_zero_symbol_stable():
    a = symbol_from_expr((2 + sp.sin(_X[0])) * _XI[0]
                         / sp.sqrt(1 + _XI[0] ** 2)
                         * (1 + sp.sin(_W) / 2), 1, order=0)
    rep = l2_boundedness_check(a, 2.0, GRIDS, ENS)
    assert rep.passed
    assert rep.stability_factor < 2.0


def test_sobolev_lambda_isometry():
    # Lambda^l = (1+|xi|^2)^{l/2} is an exact isometry H^d -> H^{d-l}
    a = symbol_from_expr((1 + _XI[0] ** 2) ** sp.Rational(1, 2), 1, order=1)
    rep = sobolev_boundedness_check(a, 1.0, 2.0, GRIDS, ENS)
    assert rep.passed
    for N, c in rep.constants.items():
        assert abs(c - 1.0) < 1e-9


def test_sobolev_x_dependent_passes():
    a = symbol_from_expr(sp.sin(_X[0]) * (1 + _XI[0] ** 2) ** sp.Rational(1, 2),
                         1, order=1)
    rep = sobolev_boundedness_check(a, 1.0, 2.0, GRIDS, ENS)
    assert rep.passed


def test_mixed_lp_identity_and_scaling():
    rep1 = mixed_lp_check(constant_symbol(1.0), 4.0 / 3.0, GRIDS, ENS)
    rep2 = mixed_lp_check(constant_symbol(2.0), 4.0 / 3.0, GRIDS, ENS)
    assert rep1.passed and rep2.passed
    for N in rep1.constants:
        assert abs(rep2.constants[N] - 2.0 * rep1.constants[N]) \
            < 1e-9 * rep2.constants[N]


def test_mixed_lp_sgn_multiplier():
    a = symbol_from_expr(_XI[0] / sp.sqrt(1 + _XI[0] ** 2), 1, order=0,
                         name="sgn-smoothed")
    rep = mixed_lp_check(a, 4.0 / 3.0, GRIDS, ENS)
    assert rep.passed


def test_weak_type_requires_x_independent():
    a = symbol_from_expr(sp.sin(_X[0]), 1, order=0)
    u = random_adapted_field(GRIDS[0], ENS, np.random.default_rng(0))
    with pytest.raises(HypothesisError):
        weak_type_check(a, u, ENS, [0.5, 1.0])


def test_weak_type_trivial_at_large_level():
    a = constant_symbol(1.0)
    u = random_adapted_field(GRIDS[0], ENS, np.random.default_rng(1))
    big = 100.0 * float(np.abs(u.values).max())
    rep = weak_type_check(a, u, ENS, [big])
    assert all(c == 0.0 for c in rep.constants.values())


def test_weak_type_sgn_stable():
    a = symbol_from_expr(_XI[0] / sp.sqrt(1 + _XI[0] ** 2), 1, order=0)
    u = random_adapted_field(GRIDS[0], ENS, np.random.default_rng(2))
    peak = float(np.abs(u.values).max())
    rep = weak_type_check(a, u, ENS, [peak / 8.0, peak / 4.0, peak / 2.0])
    assert rep.passed


def test_weak_type_constants_match_node_loop():
    from spdo.harmonic import cz_decompose
    from spdo.quantize import apply_symbol_ensemble
    from spdo.stochastic import lpf_norm_values

    a = symbol_from_expr(_XI[0] / sp.sqrt(1 + _XI[0] ** 2), 1, order=0)
    g = GRIDS[0]
    u = random_adapted_field(g, ENS, np.random.default_rng(2))
    peak = float(np.abs(u.values).max())
    levels = [peak / 2.0, peak / 1.5, 100.0 * peak]
    rep = weak_type_check(a, u, ENS, levels)
    assert sorted(rep.constants) == sorted(levels)
    Au = apply_symbol_ensemble(a, u, ENS).values
    cell = g.cell_volume
    u_l1_lpf = float(lpf_norm_values(u.values, ENS.timegrid.nodes(),
                                     2.0).sum() * cell)
    for r in levels:
        v = cz_decompose(u, ENS, r, 2.0).good.values
        C = 0.0
        for m in range(ENS.M):
            for j in range(ENS.timegrid.K + 1):
                lhs = r * float((np.abs(Au[m, j]) > r).sum() * cell)
                if lhs > 0.0:
                    rhs = (u_l1_lpf + float(np.abs(u.values[m, j]).sum() * cell)
                           + float((np.abs(v[m, j]) ** 2).sum() * cell) / r)
                    C = max(C, lhs / rhs)
        assert math.isclose(rep.constants[float(r)], C, rel_tol=1e-14)
    assert rep.constants[levels[0]] > 0.0
    assert rep.constants[levels[-1]] == 0.0


# -- Garding -----------------------------------------------------------------

def test_garding_exact_laplacian():
    # |xi|^2 >= (1 - 0.1)(1+|xi|^2) - C: C = 1 certifies on the frequency side
    a = symbol_from_expr(_XI[0] ** 2, 1, order=2)
    rep = garding_check(a, 1.0, 0.1, 0.0, GRIDS, ENS, trials=10)
    assert rep.passed
    for N, c in rep.constants.items():
        assert c <= 1.0 + 1e-9


def test_garding_constant_symbol_zero_C():
    a = constant_symbol(1.0)
    rep = garding_check(a, 1.0, 0.1, 0.0, GRIDS, ENS, trials=5)
    assert rep.passed
    for N, c in rep.constants.items():
        assert c <= 1e-9


def test_garding_stochastic_symbol():
    a = symbol_from_expr((2 + sp.sin(_X[0]) + sp.sin(_W) / 10) * _XI[0] ** 2,
                         1, order=2)
    rep = garding_check(a, 1.0, 0.1, 0.0, GRIDS, ENS, trials=10)
    assert rep.passed
    assert all(math.isfinite(c) for c in rep.constants.values())


def test_garding_hypothesis_violation():
    # Re a dips below (delta* - eps)|xi|^2 when the x-modulation goes negative
    a = symbol_from_expr((1 + sp.sin(_X[0])) * _XI[0] ** 2 / 4, 1, order=2)
    with pytest.raises(HypothesisError):
        garding_check(a, 1.0, 0.1, 0.0, GRIDS, ENS, trials=2)


def test_garding_nan_hypothesis_is_a_violation():
    # sqrt(cos x) is NaN wherever cos x < 0: the ratio min is NaN, which no
    # comparison with delta* - eps may let through
    a = symbol_from_expr(_XI[0] ** 2 * (2 + sp.sqrt(sp.cos(_X[0]))), 1,
                         order=2)
    with pytest.raises(HypothesisError, match="nan"):
        garding_check(a, 1.0, 0.1, 0.0, GRIDS, ENS, trials=2)


def test_garding_margin_monotone_in_constant_shift():
    # adding c > 0 (order-0 part) never increases the required C
    a = symbol_from_expr(_XI[0] ** 2, 1, order=2)
    b = symbol_from_expr(_XI[0] ** 2 + 3, 1, order=2)
    ra = garding_check(a, 1.0, 0.1, 0.0, GRIDS[:1], ENS, trials=8)
    rb = garding_check(b, 1.0, 0.1, 0.0, GRIDS[:1], ENS, trials=8)
    for N in ra.constants:
        assert rb.constants[N] <= ra.constants[N] + 1e-9


def test_l2_check_fails_on_nan_exponent():
    # the NaN ratio of every trial is a non-finite constant, not a skip
    rep = l2_boundedness_check(constant_symbol(1.0), math.nan, GRIDS, ENS,
                               trials=1)
    assert not rep.passed
    assert all(math.isnan(c) for c in rep.constants.values())


def test_garding_check_fails_on_nan_remainder_order():
    a = symbol_from_expr(_XI[0] ** 2, 1, order=2)
    rep = garding_check(a, 1.0, 0.1, math.nan, GRIDS, ENS, trials=1)
    assert not rep.passed
    assert all(math.isnan(c) for c in rep.constants.values())


def test_adjoint_norm_symmetry():
    from spdo.calculus import adjoint_symbol
    a = symbol_from_expr(sp.sin(_X[0]) * _XI[0] / sp.sqrt(1 + _XI[0] ** 2),
                         1, order=0)
    astar = adjoint_symbol(a, 2).symbol_sum()
    ra = l2_boundedness_check(a, 2.0, GRIDS[:1], ENS, trials=10)
    rs = l2_boundedness_check(astar, 2.0, GRIDS[:1], ENS, trials=10)
    for N in ra.constants:
        assert abs(ra.constants[N] - rs.constants[N]) \
            <= 0.10 * max(ra.constants[N], rs.constants[N])


def test_report_serialization():
    rep = l2_boundedness_check(constant_symbol(1.0), 2.0, GRIDS[:1], ENS, trials=2)
    assert rep.to_dict()["constants"].keys() == {"32"}


@pytest.mark.parametrize("dim, Ns, per_slice", [(1, (16, 32), 7),
                                               (2, (8, 16), 5)])
def test_path_slices_give_the_same_constants(monkeypatch, dim, Ns, per_slice):
    # M = 64 paths in uneven slices (per_slice paths on the largest grid,
    # twice or four times that on the smaller) against one slice, bit for
    # bit: mod-x takes the separated path with its terms evaluated once,
    # garding-stochastic with its terms evaluated per node
    from spdo import _PATH_SLICE_ARRAYS, stochastic
    from spdo.registry import make_symbol

    grids = [Grid(dim, N) for N in Ns]
    ens = sample_brownian(64, TimeGrid(0.5, 8), seed=5)

    def constants():
        l2 = l2_boundedness_check(make_symbol("mod-x", dim), 2.0, grids, ens,
                                  trials=2, seed=3)
        g = garding_check(make_symbol("garding-stochastic", dim), 1.0, 0.1,
                          0.0, grids, ens, trials=2, seed=3)
        return l2.constants, g.constants

    monkeypatch.setattr(stochastic, "_BLOCK_BYTES", 1 << 40)
    whole = constants()
    # the working set of a path, as _trial_constants counts it
    path_bytes = _PATH_SLICE_ARRAYS * 16 * 9 * max(Ns) ** dim
    monkeypatch.setattr(stochastic, "_BLOCK_BYTES", per_slice * path_bytes)
    sizes = [p.M for p in stochastic.path_slices(ens, path_bytes)]
    assert sizes[0] == per_slice and sizes[-1] == 64 % per_slice
    assert constants() == whole
