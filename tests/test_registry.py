"""Registry names and the restricted expression grammar."""

import numpy as np
import pytest
import sympy as sp

from spdo.grid import Grid
from spdo.registry import (
    EQUATIONS,
    RegistryError,
    SYMBOLS,
    family_symbol,
    make_equation,
    make_symbol,
    parse_symbol_expr,
)
from spdo.symbols import _T, _W, _X, _XI, _xi_degree


def test_all_registry_symbols_instantiate():
    for name in SYMBOLS:
        a = make_symbol(name, dim=1)
        assert a.name == name
        v = a(0.0, 0.0, np.zeros((1, 1)), np.ones((1, 1)))
        assert np.all(np.isfinite(np.asarray(v, complex)))


def test_known_symbol_values():
    lap = make_symbol("laplacian", dim=2)
    v = lap(0.0, 0.0, np.zeros((1, 2)), np.array([[3.0, 4.0]]))
    assert abs(complex(np.ravel(v)[0]) - 25.0) < 1e-12
    ident = make_symbol("identity")
    assert ident.order == 0.0


def test_expression_parsing():
    a = parse_symbol_expr("sin(x)*xi", 1, order=1)
    v = a(0.0, 0.0, np.array([[0.5]]), np.array([[3.0]]))
    assert abs(complex(np.ravel(v)[0]) - np.sin(0.5) * 3.0) < 1e-12


def test_expression_default_order_from_degree():
    a = parse_symbol_expr("xi**2 + 1", 1)
    assert a.order == 2.0


def test_expression_rejects_bad_tokens():
    for text in ["__import__('os')", "lambda: 0", "xi; import os",
                 "open(1)", "a+b"]:
        with pytest.raises(RegistryError):
            parse_symbol_expr(text, 1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bounded_parse_keeps_every_expression(dim):
    # the registry symbols, printed, and the README expressions parse to
    # the expression an unbounded sympify gives
    loc = {"t": _T, "w": _W, "pi": sp.pi, "sin": sp.sin, "cos": sp.cos,
           "exp": sp.exp, "abs": sp.Abs, "sqrt": sp.sqrt, "x": _X[0],
           "xi": _XI[0]}
    loc.update({f"x{k+1}": _X[k] for k in range(3)})
    loc.update({f"xi{k+1}": _XI[k] for k in range(3)})
    texts = [str(make_symbol(name, dim).expr) for name in SYMBOLS]
    texts += ["sin(x)*xi + 2", "xi", "x", "1/(1+cos(x))", "xi**2 + 1"]
    for text in texts:
        got = parse_symbol_expr(text, dim, order=0).expr
        assert got == sp.sympify(text, locals=loc), text


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_xi_degree_matches_full_expansion(dim):
    # the degree read at generic points of the other symbols equals the
    # one of the polynomial expanded in every symbol, on the registry
    # symbols, the README expressions and cancelling leading terms
    xi = _XI[:dim]
    exprs = [make_symbol(name, dim).expr for name in SYMBOLS]
    exprs += [parse_symbol_expr(text, dim, order=0).expr for text in
              ["sin(x)*xi + 2", "xi", "x", "1/(1+cos(x))", "xi**2 + 1",
               "(xi + 1)**2 - xi**2", "(x - 1/97)*xi**2 + xi",
               "(x + xi + t + w + 1)**4", "sin(x)*xi**3 + w*xi"]]
    for expr in exprs:
        want = (int(sp.Poly(expr, *xi).total_degree())
                if expr.is_polynomial(*xi) else None)
        assert _xi_degree(expr, dim) == want, expr


@pytest.mark.parametrize("text", [
    "((xi + 1)**16)**16", "1" * 31 + "*xi", "sin(" * 60 + "x" + ")" * 60])
def test_expression_size_bounds(text):
    with pytest.raises(RegistryError):
        parse_symbol_expr(text, 1, order=1)


def test_expression_dimension_check():
    with pytest.raises(RegistryError):
        parse_symbol_expr("xi2", 1)
    a = parse_symbol_expr("xi2", 2, order=1)
    v = a(0.0, 0.0, np.zeros((1, 2)), np.array([[1.0, 7.0]]))
    assert abs(complex(np.ravel(v)[0]) - 7.0) < 1e-12


def test_unknown_symbol_name():
    with pytest.raises(RegistryError):
        make_symbol("no-such-symbol&&&")


def test_make_symbol_expression_fallback():
    a = make_symbol("xi**2", dim=1)
    assert a.order == 2.0


def test_equations():
    assert set(EQUATIONS) == {"wave", "schrodinger", "transport"}
    wave = make_equation("wave", 1)
    assert wave.m == 2
    tr = make_equation("transport", 2)
    assert tr.m == 1 and tr.dim == 2
    with pytest.raises(RegistryError):
        make_equation("heat")


def test_stochastic_registry_symbol_uses_path_value():
    a = make_symbol("garding-stochastic", dim=1)
    xi = np.array([[2.0]])
    x = np.zeros((1, 1))
    v0 = complex(np.ravel(a(0.0, 0.0, x, xi))[0])
    v1 = complex(np.ravel(a(0.0, np.pi / 2.0, x, xi))[0])
    assert abs(v0 - 8.0) < 1e-12
    assert abs(v1 - 8.4) < 1e-12


def _bits(v):
    return np.ascontiguousarray(v).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_compiled_symbol_matches_the_sympy_path(name, dim):
    from spdo.registry import _SYMBOL_TABLE, _expr
    from spdo.symbols import symbol_from_expr

    got = make_symbol(name, dim)
    want = symbol_from_expr(_expr(name, dim), dim,
                            order=_SYMBOL_TABLE[name][0], name=name)
    # a lattice sample at four (t, w) nodes
    grid = Grid(dim, 8)
    X = grid.points().reshape(1, -1, dim)
    XI = grid.freqs().reshape(1, -1, dim)
    t = np.array([[0.0], [0.1], [0.3], [0.5]])
    w = np.array([[0.0], [-0.7], [0.4], [1.3]])
    assert _bits(got(t, w, X, XI)) == _bits(want(t, w, X, XI))
    assert (got.x_independent, got.tw_independent) == \
        (want.x_independent, want.tw_independent)
    assert got.separated[0] == want.separated[0]
    for g, v in zip(got.separated[1](t, w, X, XI),
                    want.separated[1](t, w, X, XI), strict=True):
        assert _bits(g) == _bits(v)
    assert (got.order, got.name) == (want.order, want.name)
    assert got.expr == want.expr


def _drawn_family(dim, seed):
    """The quantize-demo family at a draw of seed, and the expression built
    from the same draw as a sympy expression in the order of the draws."""
    rng = np.random.default_rng(seed)
    c0 = (rng.normal() + rng.normal() * sp.sin(_X[0])
          + rng.normal() * sp.cos(_X[0]))
    c1 = rng.normal() + rng.normal() * sp.cos(_X[0])
    rng = np.random.default_rng(seed)
    a = family_symbol("trig-order-1", dim, [rng.normal() for _ in range(5)])
    return a, c0 + c1 * _XI[0]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_family_symbol_agrees_with_its_drawn_expression(dim):
    a, want = _drawn_family(dim, 40 + dim)
    grid = Grid(dim, 8)
    x = grid.points().reshape(-1, dim)[:, None, :]
    xi = grid.freqs().reshape(-1, dim)[None, :, :]
    f = sp.lambdify((_T, _W) + _X[:dim] + _XI[:dim], want, modules=[np])
    ref = np.broadcast_to(f(0.0, 0.0, *np.moveaxis(x, -1, 0),
                            *np.moveaxis(xi, -1, 0)), (len(x), xi.shape[1]))
    rank, sep = a.separated
    vals = sep(0.0, 0.0, x, xi)
    separated = sum(c * g for c, g in zip(vals[:rank], vals[rank:]))
    scale = np.abs(ref).max()
    for got in (a(0.0, 0.0, x, xi), separated):
        assert np.abs(got - ref).max() <= 1e-14 * scale
    assert (rank, a.x_independent, a.tw_independent) == (2, False, True)
    assert (a.order, a.dim) == (1.0, dim)
    # the expression is built on first read, with the same numbers
    assert a.expr == want


def test_family_applies_agree_with_its_drawn_expression():
    # the dense sum at one node and the separated path over many nodes
    from spdo.grid import Field, random_band_limited
    from spdo.quantize import apply_symbol_op
    from spdo.symbols import symbol_from_expr

    for dim, N in ((1, 32), (2, 16)):
        a, want = _drawn_family(dim, 7)
        b = symbol_from_expr(want, dim, order=1)
        grid = Grid(dim, N)
        rng = np.random.default_rng(dim)
        u = Field(grid, np.stack([random_band_limited(grid, rng).values
                                  for _ in range(3)]))
        for t in (0.0, np.array([0.0, 0.1, 0.2])):
            got = apply_symbol_op(a, u, t, 0.5).values
            ref = apply_symbol_op(b, u, t, 0.5).values
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_family_is_not_a_registry_name():
    for name in ("trig-order-1", "trig-poly-3"):
        with pytest.raises(RegistryError):
            make_symbol(name)


def test_compiled_symbols_module_is_current():
    import importlib.util
    import pathlib

    tool = pathlib.Path(__file__).parents[1] / "tools" / \
        "gen_compiled_symbols.py"
    spec = importlib.util.spec_from_file_location("gen_compiled_symbols",
                                                  tool)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.render() == gen.TARGET.read_text(), \
        "src/spdo/_compiled_symbols.py is stale: run " \
        "python3 tools/gen_compiled_symbols.py"


def test_make_symbol_order_override_keeps_the_compiled_form():
    a = make_symbol("bessel1", 2, order=3.0)
    assert a.order == 3.0 and a.x_independent and a.separated[0] == 1
    assert a.expr == sp.sqrt(1 + _XI[0] ** 2 + _XI[1] ** 2)


@pytest.mark.parametrize("dim", [0, 4])
def test_registry_symbol_outside_dims_1_to_3(dim):
    with pytest.raises(RegistryError, match="dim must be 1..3"):
        make_symbol("laplacian", dim)
