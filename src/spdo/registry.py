"""Built-in symbol and equation registry plus a restricted expression
grammar, so every experiment is reproducible from plain text.

Expressions may use t, w (Brownian value), x or x1..x3, xi or xi1..xi3,
numbers, + - * / ** parentheses, and the functions sin, cos, exp, abs,
sqrt.  Anything else is rejected before sympy ever sees the string, and
the size of what sympy is asked to evaluate is bounded: numeric literals
of at most 30 digits, numeric exponents whose product along nested powers
is at most 64, and trees at most 50 levels deep.
"""

from __future__ import annotations

import re
from functools import partial

from .cauchy import EquationSpec
from .symbols import Symbol, symbol_from_expr, _xi_degree

__all__ = [
    "RegistryError",
    "SYMBOLS",
    "EQUATIONS",
    "make_symbol",
    "family_symbol",
    "make_equation",
    "parse_symbol_expr",
]


class RegistryError(ValueError):
    """Unknown registry name or malformed expression."""


_TOKEN_RE = re.compile(
    r"\s*(?:(\d+\.?\d*)(?:[eE][+-]?\d+)?|sin|cos|exp|abs|sqrt|pi"
    r"|xi[123]?|x[123]?|t|w|\*\*|[-+*/()])\s*")
_MAX_DIGITS = 30
_MAX_POWER = 64.0
_MAX_DEPTH = 50


def _validate(text: str) -> None:
    if not text.strip():
        raise RegistryError("empty expression")
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise RegistryError(
                f"expression rejected at position {pos}: {text[pos:pos+12]!r}"
                " (allowed: numbers, t, w, x1..x3, xi1..xi3, + - * / **, "
                "sin, cos, exp, abs, sqrt, pi)")
        digits = sum(c.isdigit() for c in m.group(1) or "")
        if digits > _MAX_DIGITS:
            raise RegistryError(f"number at position {pos} has {digits} "
                                f"digits; at most {_MAX_DIGITS} are allowed")
        pos = m.end()


def _check_size(e, budget: float, depth: int) -> None:
    """Reject an unevaluated tree deeper than _MAX_DEPTH, or whose numeric
    exponents multiply, along a chain of nested powers, to more than
    _MAX_POWER (an exponent below 1 counts as 1); budget is what the powers
    enclosing e leave of _MAX_POWER, depth the level of e."""
    if depth > _MAX_DEPTH:
        raise RegistryError(f"expression nests deeper than {_MAX_DEPTH} "
                            "levels")
    if e.is_Pow and not e.exp.free_symbols:
        _check_size(e.exp, _MAX_POWER, depth + 1)
        p = abs(complex(e.exp))  # bounded by the check just made
        if not p <= budget:
            raise RegistryError(f"power {e} exceeds the bound "
                                f"{_MAX_POWER:g} on nested exponents")
        _check_size(e.base, budget / max(p, 1.0), depth + 1)
        return
    for arg in e.args:
        _check_size(arg, budget, depth + 1)


def parse_symbol_expr(text: str, dim: int, order: float | None = None,
                      name: str = "") -> Symbol:
    """Symbol from a restricted expression string."""
    _validate(text)
    from sympy.parsing.sympy_parser import parse_expr
    from .symbols import sp, _T, _W, _X, _XI

    loc = {"t": _T, "w": _W, "pi": sp.pi,
           "sin": sp.sin, "cos": sp.cos, "exp": sp.exp,
           "abs": sp.Abs, "sqrt": sp.sqrt,
           "x": _X[0], "xi": _XI[0]}
    for k in range(3):
        loc[f"x{k+1}"] = _X[k]
        loc[f"xi{k+1}"] = _XI[k]
    try:
        tree = parse_expr(text, local_dict=loc, evaluate=False)
        if not isinstance(tree, sp.Basic):  # "()" parses to a tuple
            raise TypeError(f"not an expression: {tree!r}")
        _check_size(tree, _MAX_POWER, 0)
        expr = sp.sympify(text, locals=loc)
    except (sp.SympifyError, SyntaxError, TypeError, RecursionError) as e:
        raise RegistryError(f"expression does not parse: {text!r} ({e})")
    used = expr.free_symbols - {_T, _W} - set(_X[:dim]) - set(_XI[:dim])
    if used:
        raise RegistryError(
            f"expression uses symbols {sorted(map(str, used))} outside "
            f"dimension {dim}")
    if order is None:  # the degree of a xi-polynomial, else 0
        order = float(_xi_degree(expr, dim) or 0)
    return symbol_from_expr(expr, dim, order=order, name=name)


def _abs2(xi):
    return sum(v ** 2 for v in xi)


# name -> (order, description, expr builder over (sympy, x, xi, w)), with
# xi the frequency variables of the dimension
_SYMBOL_TABLE = {
    "identity": (0.0, "multiplication by 1",
                 lambda sp, x, xi, w: sp.Integer(1)),
    "xi": (1.0, "first frequency coordinate (D along axis 1)",
           lambda sp, x, xi, w: xi[0]),
    "laplacian": (2.0, "principal symbol |xi|^2 of -Laplacian",
                  lambda sp, x, xi, w: _abs2(xi)),
    "bessel1": (1.0, "first-order Bessel multiplier sqrt(1+|xi|^2)",
                lambda sp, x, xi, w: sp.sqrt(1 + _abs2(xi))),
    "elliptic-1": (2.0, "elliptic symbol 1 + |xi|^2",
                   lambda sp, x, xi, w: 1 + _abs2(xi)),
    "sgn-smoothed": (0.0, "smoothed sign multiplier xi1/sqrt(1+|xi|^2)",
                     lambda sp, x, xi, w: xi[0] / sp.sqrt(1 + _abs2(xi))),
    "mod-x": (0.0, "multiplication by 1 + sin(x1)/2",
              lambda sp, x, xi, w: 1 + sp.sin(x[0]) / 2),
    "mixed-0": (0.0, "x-dependent order-0 symbol cos(x1) |xi|^2/(1+|xi|^2)",
                lambda sp, x, xi, w: sp.cos(x[0]) * _abs2(xi)
                / (1 + _abs2(xi))),
    "drift-wave": (1.0, "transport symbol sin(x1) xi1",
                   lambda sp, x, xi, w: sp.sin(x[0]) * xi[0]),
    "garding-stochastic": (
        2.0, "(2 + sin x1 + 0.1 sin W(t)) |xi|^2",
        lambda sp, x, xi, w: (2 + sp.sin(x[0]) + sp.sin(w) / 10)
        * _abs2(xi)),
    "parametrix-demo": (2.0, "(1 + sin^2 x1)(1 + |xi|^2)",
                        lambda sp, x, xi, w: (1 + sp.sin(x[0]) ** 2)
                        * (1 + _abs2(xi))),
}

SYMBOLS = {k: v[1] for k, v in _SYMBOL_TABLE.items()}

# name -> (order, parameter count, expr builder over (sympy, x, xi, w, p)):
# families of symbols whose parameters p0, p1, .. are drawn at run time.
# They are rendered like the registry symbols, with the parameters left as
# free names, and make_symbol does not know them.
_FAMILY_TABLE = {
    # the random symbols of quantize-demo
    "trig-order-1": (1.0, 5, lambda sp, x, xi, w, p: p[0]
                     + p[1] * sp.sin(x[0]) + p[2] * sp.cos(x[0])
                     + (p[3] + p[4] * sp.cos(x[0])) * xi[0]),
    # the random pairs of compose: p[3 d + kind] times
    # (1, sin x1, cos x1)[kind] xi1^d, d <= 3
    "trig-poly-3": (3.0, 12, lambda sp, x, xi, w, p: sum(
        p[3 * d + kind] * f * xi[0] ** d for d in range(4)
        for kind, f in enumerate((1, sp.sin(x[0]), sp.cos(x[0]))))),
}


def _expr(name: str, dim: int, params=None):
    """The sympy expression of registry symbol `name` in dimension dim, or
    of family `name` at the parameter values params."""
    from .symbols import sp, _W, _X, _XI

    if params is None:
        return _SYMBOL_TABLE[name][2](sp, _X, _XI[:dim], _W)
    return _FAMILY_TABLE[name][2](sp, _X, _XI[:dim], _W, params)


def make_symbol(name: str, dim: int = 1, order: float | None = None) -> Symbol:
    """Instantiate a registry symbol, or parse an expression string.

    A registry symbol is read off its rendered form in _compiled_symbols
    (tools/gen_compiled_symbols.py writes it) without sympy; sympy loads
    when its expression is first read, for calculus on it."""
    if name in _SYMBOL_TABLE:
        from ._compiled_symbols import COMPILED

        if (name, dim) not in COMPILED:
            raise RegistryError(f"symbol {name!r}: dim must be 1..3, "
                                f"got {dim}")
        o = _SYMBOL_TABLE[name][0]
        return Symbol._precompiled(o if order is None else order, dim, name,
                                   partial(_expr, name, dim),
                                   COMPILED[name, dim])
    try:
        return parse_symbol_expr(name, dim, order=order, name=name)
    except RegistryError as e:
        raise RegistryError(
            f"unknown symbol {name!r}; known: {sorted(SYMBOLS)} or an "
            f"expression over (t, w, x, xi): {e}") from None


def family_symbol(name: str, dim: int, params) -> Symbol:
    """The symbol of family `name` at the parameter values params, read off
    its rendered form in _compiled_symbols with the values bound to the
    names p0, p1, .. and no sympy; sympy loads when its expression is first
    read."""
    from ._compiled_symbols import COMPILED

    return Symbol._precompiled(_FAMILY_TABLE[name][0], dim, "",
                               partial(_expr, name, dim, params),
                               COMPILED[name, dim],
                               {f"p{k}": v for k, v in enumerate(params)})


def _order_2(sign: float, name: str, dim: int) -> EquationSpec:
    # lambda^2 = sign |xi|^2: roots +-|xi| (sign +1) or +-i|xi| (sign -1)
    principal = {(0, tuple(2 * (b == a) for b in range(dim))): sign
                 for a in range(dim)}
    return EquationSpec(m=2, dim=dim, principal=principal, name=name)


def _transport(dim: int) -> EquationSpec:
    alpha = (1,) + (0,) * (dim - 1)
    return EquationSpec(m=1, dim=dim, principal={(0, alpha): 1.0},
                        name="transport")


# name -> (description, builder of the spec in dimension dim)
_EQUATION_TABLE = {
    "wave": ("order-2 spec with real simple roots +-|xi|",
             partial(_order_2, 1.0, "wave")),
    "schrodinger": ("order-2 spec with imaginary roots +-i|xi|",
                    partial(_order_2, -1.0, "schrodinger")),
    "transport": ("order-1 spec with root xi1", _transport),
}

EQUATIONS = {k: v[0] for k, v in _EQUATION_TABLE.items()}


def make_equation(name: str, dim: int = 1) -> EquationSpec:
    if name not in _EQUATION_TABLE:
        raise RegistryError(
            f"unknown equation {name!r}; known: {sorted(EQUATIONS)}")
    return _EQUATION_TABLE[name][1](dim)
