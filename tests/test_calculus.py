"""Symbol calculus: composition, adjoint expansion, amplitude reduction,
parametrix."""

import math

import numpy as np
import pytest
import sympy as sp

from spdo.calculus import (
    EllipticityError,
    adjoint_symbol,
    compose_symbols,
    parametrix,
    reduce_amplitude,
    series_apply,
)
from spdo.grid import Grid, l2_norm, random_band_limited
from spdo.quantize import apply_symbol_op, apply_adjoint
from spdo.symbols import (
    amplitude_from_expr,
    symbol_from_expr,
    _X,
    _XI,
    _Y,
)

G = Grid(1, 64)


def _eval(s, x, xi, t=0.0, w=0.0):
    return complex(np.asarray(s(t, w, np.array([[x]]), np.array([[xi]]))).ravel()[0])


# -- composition -------------------------------------------------------------

def test_compose_compiles_only_the_evaluated_symbol(monkeypatch):
    import spdo.symbols
    from spdo.registry import make_symbol

    b = make_symbol("drift-wave")
    a = make_symbol("garding-stochastic")
    # a compile is one _source render of an expression
    compiled = []
    real = spdo.symbols._source

    def counted(*args, **kwargs):
        compiled.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spdo.symbols, "_source", counted)
    s = compose_symbols(b, a, 3).symbol_sum()
    assert compiled == []
    # sin(x) xi (2 + sin x + sin(w)/10) xi^2 - i sin(x) cos(x) xi^2
    x, xi = 0.5, 3.0
    want = (math.sin(x) * xi * (2 + math.sin(x)) * xi**2
            - 1j * math.sin(x) * math.cos(x) * xi**2)
    assert abs(_eval(s, x, xi) - want) < 1e-12 * abs(want)
    assert len(compiled) == 1


def test_compose_xi_with_x():
    # D (x u) = x D u + u / i: left symbol x xi - i
    b = symbol_from_expr(_XI[0], 1, order=1)
    a = symbol_from_expr(_X[0], 1, order=0)
    ser = compose_symbols(b, a, 2)
    s = ser.symbol_sum()
    for x, xi in [(0.3, 2.0), (1.5, -4.0), (2.0, 7.0)]:
        assert abs(_eval(s, x, xi) - (x * xi - 1j)) < 1e-12


def test_compose_multipliers_multiply():
    b = symbol_from_expr(_XI[0] ** 2, 1, order=2)
    a = symbol_from_expr(_XI[0] ** 2, 1, order=2)
    ser = compose_symbols(b, a, 3)
    # all alpha >= 1 terms vanish for x-independent a
    orders = [o for o, s in ser.terms]
    assert orders[0] == 4
    s = ser.symbol_sum()
    assert abs(_eval(s, 0.0, 3.0) - 81.0) < 1e-12
    for o, term in ser.terms[1:]:
        assert abs(_eval(term, 0.5, 3.0)) < 1e-12


def test_compose_against_operator_composition():
    b = symbol_from_expr(_XI[0], 1, order=1)
    a = symbol_from_expr(sp.sin(_X[0]) * _XI[0], 1, order=1)
    ser = compose_symbols(b, a, 2)
    s = ser.symbol_sum()
    # closed form: sin(x) xi^2 - i cos(x) xi
    for x, xi in [(0.2, 3.0), (1.0, -5.0)]:
        expect = math.sin(x) * xi**2 - 1j * math.cos(x) * xi
        assert abs(_eval(s, x, xi) - expect) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = random_band_limited(G, rng)
        direct = apply_symbol_op(b, apply_symbol_op(a, u))
        viaser = apply_symbol_op(s, u)
        assert (np.abs(direct.values - viaser.values).max()
                <= 1e-9 * max(1.0, np.abs(direct.values).max()))


def test_compose_order_bookkeeping():
    b = symbol_from_expr(sp.sin(_X[0]) * _XI[0] ** 2, 1, order=2)
    a = symbol_from_expr(sp.cos(_X[0]) * _XI[0], 1, order=1)
    ser = compose_symbols(b, a, 3)
    orders = [o for o, _ in ser.terms]
    assert orders == sorted(orders, reverse=True)
    assert orders[0] == 3
    assert ser.leading_order == 3


# -- adjoint -----------------------------------------------------------------

def test_adjoint_oracles():
    a = symbol_from_expr(2 * _XI[0] ** 2, 1, order=2)  # real, x-independent
    s = adjoint_symbol(a, 2).symbol_sum()
    assert abs(_eval(s, 0.4, 3.0) - 18.0) < 1e-12

    c = symbol_from_expr(sp.I * sp.cos(_X[0]), 1, order=0)
    s = adjoint_symbol(c, 2).symbol_sum()
    assert abs(_eval(s, 0.4, 3.0) + 1j * math.cos(0.4)) < 1e-12


def test_adjoint_sin_x_xi_matches_quantized_adjoint():
    a = symbol_from_expr(sp.sin(_X[0]) * _XI[0], 1, order=1)
    s = adjoint_symbol(a, 2).symbol_sum()
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = random_band_limited(G, rng)
        got = apply_symbol_op(s, u)
        ref = apply_adjoint(a, u)
        assert (np.abs(got.values - ref.values).max()
                <= 1e-9 * max(1.0, np.abs(ref.values).max()))


# -- amplitude reduction -----------------------------------------------------

def test_reduce_amplitude_y_independent():
    amp = amplitude_from_expr(sp.sin(_X[0]) * _XI[0], 1, order=1)
    s = reduce_amplitude(amp, 2).symbol_sum()
    assert abs(_eval(s, 0.9, 4.0) - math.sin(0.9) * 4.0) < 1e-10


def test_reduce_amplitude_y_xi():
    amp = amplitude_from_expr(_Y[0] * _XI[0], 1, order=1)
    s = reduce_amplitude(amp, 2).symbol_sum()
    # left symbol of D (x .) is x xi - i
    assert abs(_eval(s, 0.9, 4.0) - (0.9 * 4.0 - 1j)) < 1e-10


def _random_symbol(rng, dim):
    """Three terms c * (1, sin or cos of one x_k) * xi_m^d, d <= 3."""
    expr = 0
    for _ in range(3):
        k, m = rng.integers(0, dim, 2)
        coeff = (1, sp.sin(_X[k]), sp.cos(_X[k]))[rng.integers(3)]
        expr += (float(np.round(rng.uniform(-2, 2), 3)) * coeff
                 * _XI[m] ** int(rng.integers(0, 4)))
    return symbol_from_expr(expr, dim, order=3)


def test_zero_terms_are_those_the_expanded_term_drops(monkeypatch):
    # expanding the factors of a one-summand term, not their product, drops
    # exactly the terms that the expand of the whole term drops
    import spdo.calculus as calculus

    seen = []
    real = calculus._is_zero

    def recorded(s, summands):
        got = real(s, summands)
        whole = not s.expr.has(sp.Piecewise) and sp.expand(s.expr) == 0
        seen.append((got, whole, s.expr == 0, len(summands)))
        return got

    monkeypatch.setattr(calculus, "_is_zero", recorded)
    rng = np.random.default_rng(4)
    for dim in (1, 2):
        for _ in range(8):
            compose_symbols(_random_symbol(rng, dim), _random_symbol(rng, dim),
                            3)
    adjoint_symbol(symbol_from_expr(sp.sin(_X[0]) * _XI[0] ** 2
                                    + sp.I * sp.cos(_X[0]) * _XI[0], 1,
                                    order=2), 3)
    reduce_amplitude(amplitude_from_expr(sp.sin(_Y[0]) * _X[0] * _XI[0] ** 2,
                                         1, order=2), 3)
    # a factor that is zero in disguise
    z = (_XI[0] + 1) ** 3 - _XI[0] ** 3 - 3 * _XI[0] ** 2 - 3 * _XI[0] - 1
    assert not compose_symbols(symbol_from_expr(z * sp.sin(_X[0]), 1, order=3),
                               symbol_from_expr(sp.sin(_X[0]) * _XI[0], 1,
                                                order=1), 3).terms
    assert all(got == whole for got, whole, _, _ in seen)
    assert any(got and not literal for got, _, literal, _ in seen)
    assert any(not got for got, _, _, _ in seen)
    assert any(n > 1 for _, _, _, n in seen)


# -- parametrix --------------------------------------------------------------

def test_parametrix_exact_multiplier():
    a = symbol_from_expr(1 + _XI[0] ** 2, 1, order=2)
    ser = parametrix(a, 1, grid=G)
    rng = np.random.default_rng(3)
    # above the cutoff band Q A u = u: test on high modes
    from spdo.grid import plane_wave
    for k in (8, 12, 16):
        u = plane_wave(G, k)
        Au = apply_symbol_op(a, u)
        QAu = series_apply(ser, Au)
        assert np.abs(QAu.values - u.values).max() < 1e-9


def test_parametrix_residual_decays_in_frequency():
    a = symbol_from_expr((1 + sp.sin(_X[0]) ** 2) * (1 + _XI[0] ** 2), 1, order=2)
    g = Grid(1, 128)
    ser = parametrix(a, 2, grid=g)
    from spdo.grid import plane_wave
    errs = []
    ks = [8, 16, 32]
    for k in ks:
        u = plane_wave(g, k)
        Au = apply_symbol_op(a, u)
        QAu = series_apply(ser, Au)
        errs.append(np.abs(QAu.values - u.values).max())
    slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
    assert slope < -2.0  # 2-term parametrix: residual order -(2+1)


def test_parametrix_rejects_non_elliptic():
    a = symbol_from_expr(_XI[0], 2, order=1)
    with pytest.raises(EllipticityError):
        parametrix(a, 1, grid=Grid(2, 32))


def test_series_pretty_prints():
    b = symbol_from_expr(_XI[0], 1, order=1)
    a = symbol_from_expr(_X[0], 1, order=0)
    txt = compose_symbols(b, a, 1).pretty()
    assert isinstance(txt, str) and len(txt) > 0


def test_series_apply_of_a_batch():
    # each field of a batch as if it came alone; an empty series gives
    # complex zeros in the shape of the batch
    from spdo.calculus import AsymptoticSeries
    from spdo.grid import Field

    rng = np.random.default_rng(5)
    u = Field(G, np.stack([random_band_limited(G, rng).values
                           for _ in range(3)]))
    ser = compose_symbols(symbol_from_expr(_XI[0], 1, order=1),
                          symbol_from_expr(sp.sin(_X[0]) * _XI[0], 1,
                                           order=1), 1)
    got = series_apply(ser, u).values
    for f in range(3):
        assert np.array_equal(got[f],
                              series_apply(ser, Field(G, u.values[f])).values)
    zero = series_apply(AsymptoticSeries([], 1), u).values
    assert zero.shape == u.values.shape and zero.dtype == np.complex128
    assert not zero.any()
