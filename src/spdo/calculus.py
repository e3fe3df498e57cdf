"""Symbolic calculus: truncated asymptotic expansions for composition,
adjoint and amplitude reduction, and the elliptic parametrix.

All expansions share the template sum over multi-indices alpha of
(1 / (alpha! i^{|alpha|})) times paired derivatives, each taken exactly on
the sympy expressions of the inputs, so every term is exact at any depth.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .symbols import (Amplitude, Symbol, _multiindices, qstar,
                      symbol_from_expr)

__all__ = [
    "AsymptoticSeries",
    "EllipticityError",
    "compose_symbols",
    "adjoint_symbol",
    "reduce_amplitude",
    "parametrix",
    "psi5_expr",
    "series_apply",
]


class EllipticityError(ValueError):
    """Parametrix requested for a symbol that fails the ellipticity check."""


@dataclass
class AsymptoticSeries:
    """Ordered finite list of (order, Symbol) with strictly decreasing
    orders, of symbols in dim variables."""

    terms: list  # [(order_j, Symbol)]
    dim: int

    def __post_init__(self):
        orders = [o for o, _ in self.terms]
        if any(b >= a for a, b in zip(orders, orders[1:])):
            raise ValueError(f"series orders must strictly decrease, got {orders}")

    @property
    def leading_order(self) -> float:
        return self.terms[0][0] if self.terms else -math.inf

    def symbol_sum(self) -> Symbol:
        """Plain finite sum of the terms (no cutoffs); exact for truncated
        expansions of differential operators."""
        if not self.terms:
            return symbol_from_expr(0, self.dim, order=0)
        total = self.terms[0][1]
        for _, s in self.terms[1:]:
            total = total + s
        total.order = self.leading_order
        return total

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        from .symbols import sp

        parts = []
        for o, s in self.terms:
            if not s.expr.has(sp.Piecewise):
                body = str(sp.expand(s.expr))
            else:
                body = f"<order {o:g} term>"
            parts.append(f"[{o:g}] {body}")
        return "  +  ".join(parts)


def _weighted_alphas(j: int, dim: int):
    """(1 / (alpha! i^{|alpha|}), alpha) for each multi-index |alpha| = j."""
    for alpha in _multiindices(j, dim):
        if sum(alpha) == j:
            fact = math.prod(math.factorial(k) for k in alpha)
            yield 1.0 / (fact * (1j ** j)), alpha


def _expansion(term, only_lead, lead, n_terms, integrability, dim):
    """The template of every expansion here: the series whose term j <=
    n_terms is sum_{|alpha| = j} (1 / (alpha! i^{|alpha|})) times the
    product of the factors term(alpha), of order lead - j, with zero terms
    dropped.  only_lead stops at j = 0, for inputs whose paired derivatives
    vanish."""
    out = []
    for j in range(1 if only_lead else n_terms + 1):
        s, summands = None, []
        for wgt, alpha in _weighted_alphas(j, dim):
            summands.append(term(alpha))
            piece = wgt * functools.reduce(operator.mul, summands[-1])
            s = piece if s is None else s + piece
        if _is_zero(s, summands):
            continue
        s.order = lead - j
        s.integrability = integrability
        out.append((lead - j, s))
    return AsymptoticSeries(out, dim)


def _is_zero(s, summands) -> bool:
    """Whether the term s, the weighted sum of the products of the factors
    in summands, is exactly 0 (a term with a Piecewise is kept).  One
    summand's product expands to 0 exactly when a factor does: expand works
    in a polynomial ring over the atoms, with no zero divisors, and sympy
    Floats do not underflow."""
    from .symbols import sp

    if s.expr == 0:
        return True
    if s.expr.has(sp.Piecewise):
        return False
    if len(summands) == 1:
        return any(sp.expand(f.expr) == 0 for f in summands[0])
    return sp.expand(s.expr) == 0


def compose_symbols(b: Symbol, a: Symbol, n_terms: int) -> AsymptoticSeries:
    """Expansion of the composition B then A applied first:

        sigma_{B.A} ~ sum_alpha (1/alpha! i^{|alpha|})
                      d^alpha_xi sigma_B  d^alpha_x sigma_A .

    Exact (all higher terms vanish) when b is polynomial in xi of degree
    <= n_terms.
    """
    if b.dim != a.dim:
        raise ValueError("dimension mismatch")
    zero = (0,) * b.dim
    return _expansion(
        lambda alpha: (b.derivative(alpha, zero), a.derivative(zero, alpha)),
        a.x_independent, b.order + a.order, n_terms,
        qstar(b.integrability, a.integrability), b.dim)


def adjoint_symbol(a: Symbol, n_terms: int) -> AsymptoticSeries:
    """sigma_{A*} ~ sum (1/alpha! i^{|alpha|}) d^alpha_xi d^alpha_x conj(a)."""
    c = a.conjugate()
    return _expansion(lambda alpha: (c.derivative(alpha, alpha),),
                      c.x_independent, c.order, n_terms, c.integrability,
                      c.dim)


def reduce_amplitude(a: Amplitude, n_terms: int) -> AsymptoticSeries:
    """Left symbol of an amplitude:

        sigma_A ~ sum (1/alpha! i^{|alpha|}) d^alpha_xi d^alpha_y a |_{y=x}.
    """
    return _expansion(
        lambda alpha: (a.derivative(alpha, alpha).diagonal_symbol(),),
        a.y_independent, a.order, n_terms, a.integrability, a.dim)


def psi5_expr(dim: int, scale: float = 1.0):
    """Smooth radial step in xi: 0 for |xi| <= scale/2, 1 for |xi| >= scale."""
    from .symbols import sp, _XI

    r = sp.sqrt(sum(_XI[k] ** 2 for k in range(dim))) / scale
    u = 2 * r - 1
    f = sp.exp(-1 / u)
    g = sp.exp(-1 / (1 - u))
    return sp.Piecewise((0, r <= sp.Rational(1, 2)), (1, r >= 1),
                        (f / (f + g), True))


# ---------------------------------------------------------------------------
# parametrix


def parametrix(a: Symbol, n_terms: int, grid) -> AsymptoticSeries:
    """Truncated left parametrix series for an elliptic symbol.

    q0 = highpass / a above the low-frequency cutoff at radius max(R_K, 1),
    with R_K from the ellipticity check on grid; each q_{j+1} cancels the
    next order of the composition expansion q # a, so the residual of the
    n-term construction has order -(n+1) on the high band.
    """
    from .symbols import sp, _X, _XI, ellipticity_check

    ellipticity = ellipticity_check(a, grid, None)
    if not ellipticity.elliptic:
        raise EllipticityError("symbol failed the ellipticity check")
    R0 = max(ellipticity.R_K, 1.0)
    dim = a.dim
    # recursion on the raw 1/a terms; the low-frequency cutoff is attached
    # once at the end (its support lies below the elliptic band, so the
    # cancellation above |xi| = 2 R0 is untouched)
    raw = [sp.cancel(1 / a.expr) if not a.expr.has(sp.sin, sp.cos, sp.exp)
           else 1 / a.expr]
    for step in range(1, n_terms + 1):
        acc = sp.S.Zero
        for i, qi in enumerate(raw):
            j = step - i  # |alpha| so that i + |alpha| == step
            for wgt, alpha in _weighted_alphas(j, dim):
                dq, da = qi, a.expr
                for ax, k in enumerate(alpha):
                    dq = sp.diff(dq, _XI[ax], k)
                    da = sp.diff(da, _X[ax], k)
                acc = acc + wgt * dq * da
        nxt = sp.together(-(1 / a.expr) * acc)
        raw.append(nxt)
    highpass = psi5_expr(dim, scale=2.0 * R0)  # 1 for |xi| >= 2 R0, 0 below R0
    terms = []
    for j, q in enumerate(raw):
        if q == 0:
            continue
        terms.append((-a.order - j,
                      symbol_from_expr(highpass * q, dim, order=-a.order - j,
                                       integrability=math.inf)))
    return AsymptoticSeries(terms, dim)


def series_apply(series: AsymptoticSeries, u, t: float = 0.0, w=0.0):
    """Apply the quantization of the finite series to the field u, or to
    each field of a batch u at the node (t, w)."""
    from .grid import Field
    from .quantize import apply_symbol_op

    out = np.zeros_like(u.values)
    for j, (_, s) in enumerate(series.terms):
        v = apply_symbol_op(s, u, t, w).values
        # the first term as it is: 0.0 + v would turn its -0.0 into 0.0
        out = v if j == 0 else out + v
    return Field(u.grid, out)
