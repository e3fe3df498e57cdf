"""Symbol classes, derivative machinery, estimate and ellipticity checks."""

import ast
import inspect
import math
import pathlib

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import spdo.symbols
from spdo.grid import Grid
from spdo.symbols import (
    UndefinedExponentError,
    amplitude_from_expr,
    check_symbol_estimate,
    constant_symbol,
    ellipticity_check,
    qstar,
    symbol_from_expr,
    _X,
    _XI,
    _W,
    _T,
    _Y,
)

G = Grid(1, 64)


# -- evaluation over (t, w) arrays --------------------------------------------

def test_evaluators_broadcast_over_t_and_w():
    a = symbol_from_expr((2 + sp.sin(_X[0]) + sp.sin(_W) / 10) * _XI[0] ** 2
                         + _T, 1, order=2)
    amp = amplitude_from_expr(sp.cos(_W) * _Y[0] * _XI[0] + _T, 1, order=1)
    t = np.array([0.0, 0.1, 0.3])[:, None, None]
    w = np.array([0.5, -1.0, 2.0])[:, None, None]
    x = np.linspace(0.0, 6.0, 4)[:, None, None]  # (4, 1, 1)
    xi = np.arange(-2.0, 3.0)[None, :, None]  # (1, 5, 1)
    got_a = a(t, w, x, xi)
    got_amp = amp(t, w, x, x, xi)
    assert got_a.shape == got_amp.shape == (3, 4, 5)
    for i in range(3):
        assert np.array_equal(got_a[i], a(t.flat[i], w.flat[i], x, xi))
        assert np.array_equal(got_amp[i],
                              amp(t.flat[i], w.flat[i], x, x, xi))


# -- q* composition exponent -------------------------------------------------

def test_qstar_oracles():
    assert qstar(2.0, 2.0) == 1.0
    assert qstar(math.inf, 3.0) == 3.0
    assert qstar(3.0, math.inf) == 3.0
    assert qstar(math.inf, math.inf) == math.inf


def test_qstar_undefined():
    # pq < p + q with both finite has no admissible exponent
    with pytest.raises(UndefinedExponentError):
        qstar(1.0, 1.5)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=2.0, max_value=50.0),
       st.floats(min_value=2.0, max_value=50.0))
def test_qstar_formula(p, q):
    got = qstar(p, q)
    assert abs(got - p * q / (p + q)) < 1e-12


# -- evaluation and derivatives ----------------------------------------------

def test_closed_form_derivative_matches_hand():
    a = symbol_from_expr(_XI[0] ** 3, 1, order=3)
    d = a.derivative((2,), ())
    xi = np.array([[2.0], [3.0]])
    x = np.zeros((1, 1))
    got = d(0.0, 0.0, x, xi)
    assert np.abs(got.ravel() - np.array([12.0, 18.0])).max() < 1e-12


def _count_calls(monkeypatch, name, module=sp):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_symbol_from_expr_compiles_on_first_call(monkeypatch):
    # a compile is one _source render of the expression
    compiled = _count_calls(monkeypatch, "_source", spdo.symbols)
    polys = _count_calls(monkeypatch, "Poly")
    a = symbol_from_expr(sp.sin(_X[0]) * _XI[0] ** 2, 1, order=2)
    b = (3 * a + a * a).derivative((1,), (1,)).conjugate()
    assert compiled == [] and polys == []
    x, xi = np.zeros((1, 1)), np.full((1, 1), 2.0)
    assert abs(a(0.0, 0.0, x, xi)) == 0.0
    assert len(compiled) == 1
    a(0.0, 0.0, x, xi + 1.0)  # the evaluator is cached
    assert len(compiled) == 1
    # d_xi d_x (3 sin(x) xi^2 + sin(x)^2 xi^4) at x = 0, xi = 2
    assert abs(b(0.0, 0.0, x, xi) - 12.0) < 1e-12
    assert len(compiled) == 2


def test_derivative_is_the_diff_chain():
    # d^alpha_xi d^beta_x a is sp.diff(e, v, k) taken over xi, then x, each
    # in axis order: the same expression tree, which the compiled evaluator
    # and so every report's bits are read off
    two_d = symbol_from_expr(sp.sin(_X[0]) * _XI[0] ** 3 * _XI[1] ** 2
                             + sp.exp(_X[0] * _XI[1]) * sp.cos(_X[1])
                             * _XI[0] ** 2 + _XI[1], 2, order=5)
    product = symbol_from_expr((2 + sp.sin(_X[0])) * _XI[0] ** 2
                               * sp.sqrt(1 + _XI[0] ** 2), 1, order=3)
    for a, alpha, beta in ((two_d, (2, 1), (1, 2)), (two_d, (0, 3), (2, 0)),
                           (product, (3,), (2,)), (product, (2,), (0,)),
                           (product, (0,), (3,))):
        chain = a.expr
        for v, k in zip(_XI[:a.dim] + _X[:a.dim], alpha + beta):
            chain = sp.diff(chain, v, k)
        d = a.derivative(alpha, beta)
        assert d.expr == chain
        assert d.order == a.order - sum(alpha)
    # an amplitude's chain takes xi, then y
    amp = amplitude_from_expr(sp.cos(_X[0] * _Y[0]) * sp.sqrt(1 + _XI[0] ** 2),
                              1, order=1)
    chain = sp.diff(sp.diff(amp.expr, _XI[0], 2), _Y[0], 2)
    assert amp.derivative((2,), (2,)).expr == chain


def test_only_symbols_calls_sympy_diff():
    # every symbol derivative is Symbol.derivative's diff chain: no other
    # module takes sympy's diff, as sp.diff, sympy.diff or an imported diff
    pkg = pathlib.Path(spdo.__file__).parent
    callers = set()
    for path in pkg.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "diff"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("sp", "sympy")) or (
                    isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("sympy")
                    and any(a.name == "diff" for a in node.names)):
                callers.add(path.name)
    assert callers == {"symbols.py"}


def test_symbol_algebra_orders():
    a = symbol_from_expr(_XI[0] ** 2, 1, order=2)
    b = symbol_from_expr(_XI[0], 1, order=1)
    assert (a * b).order == 3
    assert (a + b).order == 2
    assert (a - b).order == 2
    c = a.conjugate()
    xi = np.array([[4.0]])
    assert abs(c(0, 0, np.zeros((1, 1)), xi) - 16.0) < 1e-12


def test_constant_symbol():
    c = constant_symbol(3.0 + 1.0j, dim=1)
    assert c.order == 0
    v = c(0.0, 0.0, np.zeros((2, 1)), np.ones((2, 1)))
    assert np.abs(v - (3.0 + 1.0j)).max() < 1e-15


# -- derivative estimate check -----------------------------------------------

def test_estimate_bessel_order_one_clean():
    a = symbol_from_expr(sp.sqrt(1 + _XI[0] ** 2), 1, order=1, name="bessel1")
    rep = check_symbol_estimate(a, 2, 0, G)
    assert rep.passed
    for e in rep.entries:
        assert not e.violation


def test_estimate_misdeclared_order_flagged():
    # xi^2 declared at order 1: the alpha = 0 ratio grows like (1+|xi|)
    a = symbol_from_expr(_XI[0] ** 2, 1, order=1)
    rep = check_symbol_estimate(a, 1, 0, G)
    assert not rep.passed
    e0 = next(e for e in rep.entries if e.alpha == (0,))
    assert e0.violation
    assert abs(e0.slope - 1.0) < 0.5


def test_estimate_constant_symbol():
    a = constant_symbol(2.5, dim=1)
    rep = check_symbol_estimate(a, 1, 1, G)
    assert rep.passed
    e00 = next(e for e in rep.entries if e.alpha == (0,) and e.beta == (0,))
    assert abs(e00.majorant_lpf - 2.5) < 1e-10
    for e in rep.entries:
        if sum(e.alpha) + sum(e.beta) > 0:
            assert e.max_ratio < 1e-10


def test_estimate_correct_orders_clean():
    for expr, order in [(_XI[0] ** 2, 2), (_XI[0] ** 3, 3),
                        (1 + _XI[0] ** 2, 2),
                        (_XI[0] / sp.sqrt(1 + _XI[0] ** 2), 0)]:
        a = symbol_from_expr(expr, 1, order=order)
        rep = check_symbol_estimate(a, 2, 0, G)
        assert rep.passed, f"false violation for {expr}"


def test_estimate_report_serializes():
    a = constant_symbol(1.0, dim=1)
    rep = check_symbol_estimate(a, 1, 0, G)
    d = rep.to_dict()
    assert d["passed"] is True
    assert "entries" in d


# -- ellipticity -------------------------------------------------------------

def test_ellipticity_bessel():
    a = symbol_from_expr(sp.sqrt(1 + _XI[0] ** 2), 1, order=1)
    res = ellipticity_check(a, G)
    assert res.elliptic
    # min over the band of sqrt(1+xi^2)/(1+xi) = 1/sqrt(2) at xi = 1
    assert abs(res.C_K - 1.0 / math.sqrt(2.0)) < 0.05
    assert res.R_K == 0.0


def test_ellipticity_laplacian():
    a = symbol_from_expr(_XI[0] ** 2, 1, order=2)
    res = ellipticity_check(a, G)
    assert res.elliptic
    # |xi|^2/(1+|xi|)^2 >= 1/4 for |xi| >= 1
    assert res.R_K <= 1.0
    assert 0.15 <= res.C_K <= 0.30


def test_ellipticity_ray_collapse():
    # xi1 in n=2 vanishes along the xi1 = 0 ray
    a = symbol_from_expr(_XI[0], 2, order=1)
    res = ellipticity_check(a, Grid(2, 32))
    assert not res.elliptic


def test_ellipticity_scaling_invariance():
    a = symbol_from_expr(1 + _XI[0] ** 2, 1, order=2)
    r1 = ellipticity_check(a, G)
    r2 = ellipticity_check(symbol_from_expr(5 * (1 + _XI[0] ** 2), 1, order=2), G)
    assert r1.elliptic and r2.elliptic
    assert abs(r2.C_K - 5.0 * r1.C_K) < 1e-9 * r2.C_K + 1e-12


@pytest.mark.parametrize("grid", [Grid(1, 32), Grid(2, 16)],
                         ids=["1d", "2d"])
def test_ellipticity_scan_is_the_same_in_any_blocking(monkeypatch, grid):
    # the scan takes the minimum over the points a block of frequencies at
    # a time: one frequency per block, 7 (a short last block), the default
    # and all at once give the same result, whichever frequency holds the
    # minimum
    from spdo.stochastic import sample_brownian
    from spdo.grid import TimeGrid

    ens = sample_brownian(6, TimeGrid(0.5, 16), seed=4)
    npts = min(grid.N, 16) ** grid.dim
    for c in (0.0, 0.3, -1.1, 2.5):
        a = symbol_from_expr((1 + sum(v ** 2 for v in _XI[:grid.dim]))
                             * (2 + sp.sin(_X[0] + c * _XI[0])
                                + sp.sin(_W) / 10), grid.dim, order=2)
        got = set()
        for block in (1, 7, None, grid.N ** grid.dim):
            if block is not None:
                monkeypatch.setattr(spdo.symbols, "_BLOCK_BYTES",
                                    16 * npts * block)
            res = ellipticity_check(a, grid, ens)
            got.add((res.elliptic, res.C_K, res.R_K))
        assert len(got) == 1


def test_garding_scan_is_the_same_in_any_blocking(monkeypatch):
    # the Garding hypothesis takes the same blocked scan: one frequency per
    # block, 7, the default and the whole lattice give the same bits, and a
    # NaN at the frequency (3, 2), in a middle block of the first two,
    # still fails the hypothesis
    from spdo.bounds import HypothesisError, garding_check
    from spdo.grid import TimeGrid
    from spdo.registry import make_symbol
    from spdo.stochastic import sample_brownian

    grids = [Grid(2, 16)]
    ens = sample_brownian(6, TimeGrid(0.5, 16), seed=4)
    a = make_symbol("garding-stochastic", 2)
    # s log s is NaN at s = 0 and >= 0 at every other lattice frequency
    s = (_XI[0] - 3) ** 2 + (_XI[1] - 2) ** 2
    nan_at = symbol_from_expr(2 * (_XI[0] ** 2 + _XI[1] ** 2) + s * sp.log(s),
                              2, order=2)
    npts = 16 ** 2  # every point of the lattice at N = 16
    ratios = set()
    for block in (1, 7, None, 16 ** 2):
        if block is not None:
            monkeypatch.setattr(spdo.symbols, "_BLOCK_BYTES",
                                16 * npts * block)
        rep = garding_check(a, 1.0, 0.1, 0.0, grids, ens, trials=1)
        ratios.add(rep.extra["hyp_min_ratio"])
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(HypothesisError, match="nan"):
            garding_check(nan_at, 1.0, 0.1, 0.0, grids, ens, trials=1)
    assert len(ratios) == 1


def _lambdify_source(expr, dim, groups):
    return inspect.getsource(sp.lambdify(
        (_T, _W) + tuple(v for g in groups for v in g[:dim]), expr,
        modules=[np], docstring_limit=-1))


def test_source_is_the_text_lambdify_writes(monkeypatch):
    # every expression _source renders on a corpus of registry symbols in
    # dims 1-3 and their separation lists, a parametrix with its psi5
    # Piecewise cutoff, a complex compose sum, an amplitude and Abs, sqrt,
    # exp, float and rational coefficients
    from spdo.calculus import compose_symbols, parametrix
    from spdo.registry import _FAMILY_TABLE, _SYMBOL_TABLE, _expr

    renders = []
    real = spdo.symbols._source

    def recorded(expr, dim, groups):
        renders.append((expr, dim, groups, real(expr, dim, groups)))
        return renders[-1][-1]

    monkeypatch.setattr(spdo.symbols, "_source", recorded)
    symbols = []
    for dim in (1, 2, 3):
        for name, (order, _, _) in _SYMBOL_TABLE.items():
            symbols.append(symbol_from_expr(_expr(name, dim), dim,
                                            order=order))
        for name, (order, count, _) in _FAMILY_TABLE.items():
            for params in (sp.symbols(f"p0:{count}"),
                           np.random.default_rng(dim).normal(size=count)
                           .tolist()):
                symbols.append(symbol_from_expr(_expr(name, dim, params),
                                                dim, order=order))
    demo = symbol_from_expr(_expr("parametrix-demo", 1), 1, order=2)
    symbols += [s for _, s in parametrix(demo, 2, Grid(1, 32)).terms]
    symbols.append(compose_symbols(
        symbol_from_expr(sp.sin(_X[0]) * _XI[0] ** 2 + sp.I * _XI[0], 1,
                         order=2),
        symbol_from_expr(sp.exp(sp.cos(_X[0]) + _W) * _XI[0] + 0.25, 1,
                         order=1), 3).symbol_sum())
    symbols.append(symbol_from_expr(
        sp.Abs(sp.sin(_X[0])) * sp.sqrt(1 + _XI[0] ** 2 + _XI[1] ** 2)
        + sp.exp(-_T) * sp.Rational(3, 7) - 1e-300 * _XI[1], 2, order=1))
    for a in symbols:
        a.fn
        a.separated
    amp = amplitude_from_expr(sp.cos(_W) * _Y[0] * _XI[0] + _X[0] / 3, 1,
                              order=1)
    amp.fn
    assert len(renders) > len(symbols) + 1  # with the separations
    for expr, dim, groups, text in renders:
        assert text == _lambdify_source(expr, dim, groups), expr


def test_loads_of_one_source_keep_their_own_values():
    # the source is compiled once; each load binds its own parameter values
    # and evaluates bit for bit as a load compiled afresh
    from spdo._compiled_symbols import COMPILED
    from spdo.symbols import _compile, _load

    source = COMPILED["trig-poly-3", 1][0]
    rng = np.random.default_rng(3)
    draws = [dict(zip((f"p{k}" for k in range(12)),
                      rng.normal(size=12).tolist())) for _ in range(2)]
    x = G.points()[:, None, :]
    xi = G.freqs()[None, :, :]
    _compile.cache_clear()
    fns = [_load(source, 1, p) for p in draws]
    assert (_compile.cache_info().misses, _compile.cache_info().hits) == (1, 1)
    vals = [f(0.0, 0.0, x, xi) for f in fns]
    assert not np.array_equal(vals[0], vals[1])
    for p, v in zip(draws, vals):
        _compile.cache_clear()
        fresh = _load(source, 1, p)(0.0, 0.0, x, xi)
        assert v.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 10, 11])
def test_median_is_np_median(n):
    from spdo.symbols import _median

    rng = np.random.default_rng(n)
    with np.errstate(over="ignore"):  # both warn when a middle sum overflows
        for special in (None, math.nan, math.inf, -math.inf):
            for _ in range(20):
                vals = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300)
                if special is not None:
                    vals[rng.integers(n)] = special
                got, want = _median(vals), float(np.median(vals))
                assert got == want or (math.isnan(got) and math.isnan(want))
        big = np.array([1.5e308, 1.6e308])
        assert _median(big) == float(np.median(big)) == math.inf


def test_stochastic_symbol_evaluates_on_path_value():
    a = symbol_from_expr((2 + sp.sin(_W)) * _XI[0] ** 2, 1, order=2)
    xi = np.array([[3.0]])
    x = np.zeros((1, 1))
    v0 = a(0.0, 0.0, x, xi)
    v1 = a(0.0, np.pi / 2.0, x, xi)
    assert abs(v0 - 18.0) < 1e-12
    assert abs(v1 - 27.0) < 1e-12
