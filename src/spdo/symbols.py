"""Symbols and amplitudes of order (l, p): representation, order arithmetic,
empirical verification of the defining derivative estimates, and ellipticity
detection on the resolved frequency band.

A symbol evaluator has signature ``fn(t, w, x, xi)`` where ``w`` is the
driving Brownian value at time t (adaptedness is then automatic), and ``x``
and ``xi`` are arrays whose last axis is the spatial dimension.  ``t`` and
``w`` may be arrays too (one entry per (path, time) node); the evaluator
must broadcast them against the components of ``x`` and ``xi``.  Symbols
built from sympy expressions carry exact derivatives of every order; plain
callables fall back to nested central differences.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
import sympy as sp

__all__ = [
    "Symbol",
    "Amplitude",
    "EstimateReport",
    "EllipticityResult",
    "UndefinedExponentError",
    "DerivativeAccuracyError",
    "qstar",
    "symbol_from_expr",
    "amplitude_from_expr",
    "check_symbol_estimate",
    "ellipticity_check",
]

_T, _W = sp.symbols("t w", real=True)
_X = sp.symbols("x1 x2 x3", real=True)
_XI = sp.symbols("xi1 xi2 xi3", real=True)


class UndefinedExponentError(ValueError):
    """q* is undefined for finite p, q with pq < p + q."""


class DerivativeAccuracyError(ArithmeticError):
    """Finite-difference step underflowed at the requested order."""


def qstar(p: float, q: float) -> float:
    """Combined integrability exponent for a product of (l1,p) and (l2,q)."""
    if p < 1 or q < 1:
        raise ValueError("exponents must lie in [1, inf]")
    p_inf = math.isinf(p)
    q_inf = math.isinf(q)
    if p_inf and q_inf:
        return math.inf
    if p_inf:
        return q
    if q_inf:
        return p
    if p * q < p + q:
        raise UndefinedExponentError(f"q* undefined for p={p}, q={q} (pq < p+q)")
    return p * q / (p + q)


def _current_w(w):
    """W(t) from a path value, an array of them, or a path prefix."""
    if w is None:
        return 0.0
    return getattr(w, "current", w)


def _split_components(arr, dim):
    arr = np.asarray(arr, dtype=float)
    if arr.shape == () or arr.shape[-1] != dim:
        raise ValueError(f"expected trailing axis of length {dim}, got {arr.shape}")
    return [arr[..., a] for a in range(dim)]


@dataclass
class Symbol:
    """Symbol a(t, w, x, xi) of order (l, p)."""

    order: float
    fn: object  # callable (t, w, x, xi) -> complex array
    dim: int = 1
    integrability: float = math.inf
    x_independent: bool = False
    xi_polynomial_degree: int | None = None
    homogeneous_degree: float | None = None
    xi_compact_support: bool = False
    expr: object = None  # sympy expression, when available
    name: str = ""

    def __post_init__(self):
        if self.xi_polynomial_degree is not None and self.order != self.xi_polynomial_degree:
            raise ValueError("a xi-polynomial symbol must declare order == degree")

    def __call__(self, t, w, x, xi):
        return np.asarray(self.fn(t, w, x, xi), dtype=np.complex128)

    # -- derivatives ------------------------------------------------------

    def derivative(self, alpha=(), beta=()) -> "Symbol":
        """d^alpha_xi d^beta_x a, as a new Symbol of order l - |alpha|."""
        alpha = _as_multiindex(alpha, self.dim)
        beta = _as_multiindex(beta, self.dim)
        if sum(alpha) == 0 and sum(beta) == 0:
            return self
        new_order = self.order - sum(alpha)
        deg = None
        if self.xi_polynomial_degree is not None:
            deg = max(self.xi_polynomial_degree - sum(alpha), 0)
            new_order = deg
        if self.expr is not None:
            e = self.expr
            for a, k in enumerate(alpha):
                e = sp.diff(e, _XI[a], k)
            for a, k in enumerate(beta):
                e = sp.diff(e, _X[a], k)
            out = symbol_from_expr(e, self.dim, order=new_order,
                                   integrability=self.integrability)
            out.xi_polynomial_degree = deg if deg is not None and e != 0 else deg
            return out
        fn = _fd_derivative(self.fn, self.dim, alpha, beta)
        return Symbol(order=new_order, fn=fn, dim=self.dim,
                      integrability=self.integrability,
                      x_independent=self.x_independent and sum(beta) == 0,
                      xi_polynomial_degree=deg)

    # -- arithmetic (exact when expressions are available) ----------------

    def __mul__(self, other):
        if isinstance(other, Symbol):
            if self.expr is not None and other.expr is not None:
                out = symbol_from_expr(
                    self.expr * other.expr, self.dim,
                    order=self.order + other.order,
                    integrability=qstar(self.integrability, other.integrability))
            else:
                f, g = self.fn, other.fn
                out = Symbol(self.order + other.order,
                             lambda t, w, x, xi: np.asarray(f(t, w, x, xi)) * np.asarray(g(t, w, x, xi)),
                             dim=self.dim,
                             integrability=qstar(self.integrability, other.integrability))
            out.x_independent = self.x_independent and other.x_independent
            if self.xi_polynomial_degree is not None and other.xi_polynomial_degree is not None:
                out.xi_polynomial_degree = self.xi_polynomial_degree + other.xi_polynomial_degree
                out.order = out.xi_polynomial_degree
            return out
        c = complex(other)
        if self.expr is not None:
            out = symbol_from_expr(sp.nsimplify(c, rational=False) * self.expr
                                   if c == int(c.real) and c.imag == 0 else c * self.expr,
                                   self.dim, order=self.order,
                                   integrability=self.integrability)
        else:
            f = self.fn
            out = Symbol(self.order, lambda t, w, x, xi: c * np.asarray(f(t, w, x, xi)),
                         dim=self.dim, integrability=self.integrability)
        out.x_independent = self.x_independent
        out.xi_polynomial_degree = self.xi_polynomial_degree
        return out

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, Symbol):
            other = constant_symbol(other, self.dim)
        order = max(self.order, other.order)
        integ = min(self.integrability, other.integrability)
        if self.expr is not None and other.expr is not None:
            out = symbol_from_expr(self.expr + other.expr, self.dim,
                                   order=order, integrability=integ)
        else:
            f, g = self.fn, other.fn
            out = Symbol(order,
                         lambda t, w, x, xi: np.asarray(f(t, w, x, xi)) + np.asarray(g(t, w, x, xi)),
                         dim=self.dim, integrability=integ)
        out.x_independent = self.x_independent and other.x_independent
        if self.xi_polynomial_degree is not None and other.xi_polynomial_degree is not None:
            out.xi_polynomial_degree = max(self.xi_polynomial_degree, other.xi_polynomial_degree)
            out.order = out.xi_polynomial_degree
        return out

    def __sub__(self, other):
        if not isinstance(other, Symbol):
            other = constant_symbol(other, self.dim)
        return self + (-1.0) * other

    def conjugate(self) -> "Symbol":
        if self.expr is not None:
            out = symbol_from_expr(sp.conjugate(self.expr), self.dim,
                                   order=self.order, integrability=self.integrability)
        else:
            f = self.fn
            out = Symbol(self.order, lambda t, w, x, xi: np.conj(f(t, w, x, xi)),
                         dim=self.dim, integrability=self.integrability)
        out.x_independent = self.x_independent
        out.xi_polynomial_degree = self.xi_polynomial_degree
        return out


@dataclass
class Amplitude:
    """Amplitude a(t, w, x, y, xi) of order (l, p)."""

    order: float
    fn: object  # callable (t, w, x, y, xi)
    dim: int = 1
    integrability: float = math.inf
    expr: object = None
    y_independent: bool = False

    def __call__(self, t, w, x, y, xi):
        return np.asarray(self.fn(t, w, x, y, xi), dtype=np.complex128)

    def derivative(self, alpha=(), beta_y=()) -> "Amplitude":
        """d^alpha_xi d^beta_y a."""
        alpha = _as_multiindex(alpha, self.dim)
        beta_y = _as_multiindex(beta_y, self.dim)
        if self.expr is not None:
            e = self.expr
            for a, k in enumerate(alpha):
                e = sp.diff(e, _XI[a], k)
            for a, k in enumerate(beta_y):
                e = sp.diff(e, _Y[a], k)
            return amplitude_from_expr(e, self.dim,
                                       order=self.order - sum(alpha),
                                       integrability=self.integrability)
        fn = _fd_amplitude_derivative(self.fn, self.dim, alpha, beta_y)
        return Amplitude(self.order - sum(alpha), fn, dim=self.dim,
                         integrability=self.integrability)

    def diagonal_symbol(self) -> Symbol:
        """a(t, w, x, x, xi) as a Symbol (the y = x restriction)."""
        if self.expr is not None:
            e = self.expr.subs({_Y[a]: _X[a] for a in range(self.dim)})
            return symbol_from_expr(e, self.dim, order=self.order,
                                    integrability=self.integrability)
        f = self.fn
        return Symbol(self.order, lambda t, w, x, xi: f(t, w, x, x, xi),
                      dim=self.dim, integrability=self.integrability)


_Y = sp.symbols("y1 y2 y3", real=True)


def _as_multiindex(m, dim):
    if np.isscalar(m):
        m = (int(m),) + (0,) * (dim - 1)
    m = tuple(int(v) for v in m)
    if len(m) == 0:
        m = (0,) * dim
    if len(m) != dim:
        raise ValueError(f"multi-index length {len(m)} != dim {dim}")
    return m


def _lambdify(expr, args):
    f = sp.lambdify(args, expr, modules=["numpy"])

    def wrapped(*vals):
        with np.errstate(all="ignore"):
            out = f(*vals)
        return np.asarray(out, dtype=np.complex128)

    return wrapped


def symbol_from_expr(expr, dim=1, order=None, integrability=math.inf,
                     name="") -> Symbol:
    """Build a Symbol from a sympy expression in t, w, x1..xn, xi1..xin."""
    expr = sp.sympify(expr)
    args = (_T, _W) + _X[:dim] + _XI[:dim]
    f = _lambdify(expr, args)

    def fn(t, w, x, xi):
        xs = _split_components(x, dim)
        xis = _split_components(xi, dim)
        wv = _current_w(w)
        out = f(t, wv, *xs, *xis)
        target = np.broadcast(t, wv, xs[0], xis[0]).shape
        return np.broadcast_to(out, target) if out.shape != target else out

    x_indep = not any(expr.has(s) for s in _X[:dim])
    deg = None
    if all(expr.is_polynomial(s) for s in _XI[:dim]):
        try:
            deg = int(sp.total_degree(sp.Poly(expr, *_XI[:dim]).as_expr(), *_XI[:dim]))
        except (sp.PolynomialError, sp.GeneratorsNeeded):
            deg = 0 if not any(expr.has(s) for s in _XI[:dim]) else None
    if order is None:
        if deg is None:
            raise ValueError("order must be given for non-polynomial symbols")
        order = deg
    if deg is not None and deg != order:
        deg = None  # declared order overrides; drop the polynomial fast path
    return Symbol(order=order, fn=fn, dim=dim, integrability=integrability,
                  x_independent=x_indep, xi_polynomial_degree=deg,
                  expr=expr, name=name)


def amplitude_from_expr(expr, dim=1, order=None, integrability=math.inf) -> Amplitude:
    """Amplitude from a sympy expression in t, w, x1.., y1.., xi1..  ."""
    expr = sp.sympify(expr)
    args = (_T, _W) + _X[:dim] + _Y[:dim] + _XI[:dim]
    f = _lambdify(expr, args)

    def fn(t, w, x, y, xi):
        xs = _split_components(x, dim)
        ys = _split_components(y, dim)
        xis = _split_components(xi, dim)
        wv = _current_w(w)
        out = f(t, wv, *xs, *ys, *xis)
        target = np.broadcast(t, wv, xs[0], ys[0], xis[0]).shape
        return np.broadcast_to(out, target) if out.shape != target else out

    if order is None:
        raise ValueError("order must be given for amplitudes")
    y_indep = not any(expr.has(s) for s in _Y[:dim])
    return Amplitude(order=order, fn=fn, dim=dim, integrability=integrability,
                     expr=expr, y_independent=y_indep)


def constant_symbol(c, dim=1) -> Symbol:
    return symbol_from_expr(sp.sympify(c), dim, order=0)


# ---------------------------------------------------------------------------
# finite differences


def _fd_step(total_order: int, scale):
    # the documented base step 2^-16 underflows in roundoff beyond second
    # derivatives; grow it with the order
    h = max(2.0**-16, np.finfo(float).eps ** (1.0 / (total_order + 4)))
    step = h * scale
    if np.any(step == 0):
        raise DerivativeAccuracyError("finite-difference step underflowed")
    return step


def _central4(f, v, h):
    # h is step * unit-vector; divide by the scalar magnitude so the result
    # broadcasts like f(v), not like the component-axis step array
    hmag = np.sqrt(np.sum(np.asarray(h) ** 2, axis=-1))
    return (-f(v + 2 * h) + 8 * f(v + h) - 8 * f(v - h)
            + f(v - 2 * h)) / (12 * hmag)


def _fd_derivative(fn, dim, alpha, beta):
    total = sum(alpha) + sum(beta)

    def dfn(t, w, x, xi):
        return _fd_eval(fn, t, w, np.asarray(x, float), np.asarray(xi, float),
                        list(alpha), list(beta), total, dim)

    return dfn


def _fd_eval(fn, t, w, x, xi, alpha, beta, total, dim):
    for a in range(dim):
        if alpha[a] > 0:
            alpha2 = alpha.copy()
            alpha2[a] -= 1
            h = _fd_step(total, 1.0 + np.sqrt(np.sum(xi**2, axis=-1, keepdims=True)))
            e = np.zeros(dim)
            e[a] = 1.0
            return _central4(
                lambda s: _fd_eval(fn, t, w, x, s, alpha2, beta, total, dim),
                xi, h * e)
        if beta[a] > 0:
            beta2 = beta.copy()
            beta2[a] -= 1
            h = _fd_step(total, 2.0 * np.pi)
            e = np.zeros(dim)
            e[a] = 1.0
            return _central4(
                lambda s: _fd_eval(fn, t, w, s, xi, alpha, beta2, total, dim),
                x, h * e)
    return np.asarray(fn(t, w, x, xi), dtype=np.complex128)


def _fd_amplitude_derivative(fn, dim, alpha, beta_y):
    total = sum(alpha) + sum(beta_y)

    def dfn(t, w, x, y, xi):
        return _fd_amp_eval(fn, t, w, np.asarray(x, float), np.asarray(y, float),
                            np.asarray(xi, float), list(alpha), list(beta_y),
                            total, dim)

    return dfn


def _fd_amp_eval(fn, t, w, x, y, xi, alpha, beta, total, dim):
    for a in range(dim):
        if alpha[a] > 0:
            alpha2 = alpha.copy()
            alpha2[a] -= 1
            h = _fd_step(total, 1.0 + np.sqrt(np.sum(xi**2, axis=-1, keepdims=True)))
            e = np.zeros(dim)
            e[a] = 1.0
            return _central4(
                lambda s: _fd_amp_eval(fn, t, w, x, y, s, alpha2, beta, total, dim),
                xi, h * e)
        if beta[a] > 0:
            beta2 = beta.copy()
            beta2[a] -= 1
            h = _fd_step(total, 2.0 * np.pi)
            e = np.zeros(dim)
            e[a] = 1.0
            return _central4(
                lambda s: _fd_amp_eval(fn, t, w, x, s, xi, alpha, beta2, total, dim),
                y, h * e)
    return np.asarray(fn(t, w, x, y, xi), dtype=np.complex128)


# ---------------------------------------------------------------------------
# derivative-estimate verification


def _multiindices(max_total, dim):
    out = []
    for total in range(max_total + 1):
        for combo in itertools.product(range(total + 1), repeat=dim):
            if sum(combo) == total:
                out.append(combo)
    return out


@dataclass
class EstimateEntry:
    alpha: tuple
    beta: tuple
    majorant_lpf: float
    max_ratio: float
    slope: float
    violation: bool


@dataclass
class EstimateReport:
    order: float
    integrability: float
    alpha_max: int
    beta_max: int
    entries: list
    note: str = ("finite check: the defining estimate is only verified for "
                 "multi-indices up to the caps")

    @property
    def passed(self) -> bool:
        return not any(e.violation for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "integrability": ("inf" if math.isinf(self.integrability)
                              else self.integrability),
            "alpha_max": self.alpha_max,
            "beta_max": self.beta_max,
            "passed": self.passed,
            "note": self.note,
            "entries": [
                {"alpha": list(e.alpha), "beta": list(e.beta),
                 "majorant_lpf": e.majorant_lpf, "max_ratio": e.max_ratio,
                 "slope": e.slope, "violation": e.violation}
                for e in self.entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _sample_points(grid, max_per_axis=16):
    pts = grid.points()
    step = max(1, grid.N // max_per_axis)
    sl = (slice(None, None, step),) * grid.dim
    return pts[sl].reshape(-1, grid.dim)


def _sample_freqs(grid, max_per_axis=64):
    fr = grid.freqs()
    step = max(1, grid.N // max_per_axis)
    sl = (slice(None, None, step),) * grid.dim
    return fr[sl].reshape(-1, grid.dim)


def _time_path_samples(ensemble, max_times=9, max_paths=4):
    nodes = ensemble.timegrid.nodes()
    K = ensemble.timegrid.K
    tidx = np.unique(np.linspace(0, K, min(max_times, K + 1)).astype(int))
    pidx = np.arange(min(max_paths, ensemble.paths.shape[0]))
    return tidx, pidx


def _slope_loglog(mags, vals):
    """Growth rate of vals against (1 + mags) in log-log, measured as the
    sup over the outer half-band versus the sup over the inner half.

    A bounded ratio that merely saturates (its sup is attained at low |xi|)
    reads as slope <= 0; a misdeclared order reads as slope ~ excess order.
    """
    mags = np.asarray(mags)
    vals = np.asarray(vals)
    keep = vals > 0
    if keep.sum() < 3:
        return 0.0
    mmax = float(mags[keep].max())
    if mmax <= 0:
        return 0.0
    inner = keep & (mags < mmax / 2.0)
    outer = keep & (mags >= mmax / 2.0)
    if not inner.any() or not outer.any():
        return 0.0
    dx = np.log(1.0 + mmax) - np.log(1.0 + mmax / 2.0)
    return float((np.log(vals[outer].max()) - np.log(vals[inner].max())) / dx)


def check_symbol_estimate(a: Symbol, alpha_max: int, beta_max: int, grid,
                          ensemble=None, quantile: float = 1.0) -> EstimateReport:
    """Empirically verify |d^a_xi d^b_x a| <= M(t,w) (1+|xi|)^{l-|a|}.

    For each multi-index pair up to the caps, reports the per-(t, path)
    majorant (the quantile over sampled (x, xi) of the normalized derivative)
    and its Monte Carlo L^p_F(0,T) norm, and flags a violation whenever the
    normalized ratio still grows along the frequency band (log-log slope
    above 0.1).
    """
    if a.expr is None and (alpha_max > 4 or beta_max > 4):
        raise ValueError("caps above 4 require closed-form derivatives")
    from .stochastic import lpf_norm_values

    xs = _sample_points(grid)
    xis = _sample_freqs(grid)
    mags = np.sqrt(np.sum(xis**2, axis=-1))
    if ensemble is None:
        tidx = np.array([0])
        pidx = np.array([0])
        nodes = np.array([0.0])
        wvals = np.zeros((1, 1))
    else:
        tidx, pidx = _time_path_samples(ensemble)
        nodes = ensemble.timegrid.nodes()[tidx]
        wvals = ensemble.paths[np.ix_(pidx, tidx)]

    entries = []
    X = xs[:, None, :]  # (nx, 1, dim)
    XI = xis[None, :, :]  # (1, nxi, dim)
    for alpha in _multiindices(alpha_max, a.dim):
        for beta in _multiindices(beta_max, a.dim):
            if a.x_independent and sum(beta) > 0:
                entries.append(EstimateEntry(alpha, beta, 0.0, 0.0, 0.0, False))
                continue
            d = a.derivative(alpha, beta)
            weight = (1.0 + mags) ** (a.order - sum(alpha))
            # smooth bracket for the growth metric: same symbol class, but
            # free of the (1+|xi|)-vs-|xi| saturation transient that would
            # mimic residual growth on a finite band
            weight2 = (1.0 + mags**2) ** ((a.order - sum(alpha)) / 2.0)
            maj = np.zeros((len(pidx), len(tidx)))
            max_ratio = 0.0
            ratio_by_xi = np.zeros(len(xis))
            growth_by_xi = np.zeros(len(xis))
            for i, _ in enumerate(pidx):
                for j, tj in enumerate(nodes):
                    vals = np.abs(d(tj, wvals[i, j], X, XI))  # (nx, nxi)
                    ratio = vals / weight[None, :]
                    per_xi = ratio.max(axis=0)
                    ratio_by_xi = np.maximum(ratio_by_xi, per_xi)
                    growth_by_xi = np.maximum(growth_by_xi,
                                              (vals / weight2[None, :]).max(axis=0))
                    maj[i, j] = np.quantile(ratio, quantile)
                    max_ratio = max(max_ratio, float(per_xi.max()))
            slope = _slope_loglog(mags, growth_by_xi)
            violation = slope > 0.1
            if ensemble is None:
                lpf = float(maj[0, 0])
            else:
                lpf = lpf_norm_values(maj, nodes, a.integrability)
            entries.append(EstimateEntry(alpha, beta, lpf, max_ratio, slope,
                                         violation))
    return EstimateReport(a.order, a.integrability, alpha_max, beta_max, entries)


# ---------------------------------------------------------------------------
# ellipticity


@dataclass
class EllipticityResult:
    elliptic: bool
    C_K: float = 0.0
    R_K: float = 0.0
    detail: str = ""

    def __iter__(self):
        yield self.C_K
        yield self.R_K


def ellipticity_check(a: Symbol, grid, ensemble=None) -> EllipticityResult:
    """Largest C_K and smallest dyadic R_K with |a| >= C_K (1+|xi|)^l for
    |xi| >= R_K on the resolved band, or not-elliptic when the normalized
    modulus collapses along some resolved ray."""
    xs = _sample_points(grid)
    xis = _sample_freqs(grid, max_per_axis=grid.N)
    mags = np.sqrt(np.sum(xis**2, axis=-1))
    if ensemble is None:
        samples = [(0.0, 0.0)]
    else:
        tidx, pidx = _time_path_samples(ensemble)
        nodes = ensemble.timegrid.nodes()
        samples = [(nodes[j], ensemble.paths[i, j]) for i in pidx for j in tidx]

    weight = (1.0 + mags) ** a.order
    min_ratio = np.full(len(xis), np.inf)
    X = xs[:, None, :]
    XI = xis[None, :, :]
    for tj, wv in samples:
        vals = np.abs(a(tj, wv, X, XI)) / weight[None, :]
        min_ratio = np.minimum(min_ratio, vals.min(axis=0))

    xi_max = grid.max_resolved_freq
    r_big = xi_max / 2.0
    outer = mags >= r_big
    plateau = float(min_ratio[outer].min()) if outer.any() else 0.0
    outer_med = float(np.median(min_ratio[outer])) if outer.any() else 0.0
    if plateau <= max(1e-8, 1e-3 * outer_med):
        return EllipticityResult(False, detail="normalized modulus collapses on "
                                               "a resolved ray")

    candidates = [0.0]
    r = 1.0
    while r <= r_big:
        candidates.append(r)
        r *= 2.0
    for R in candidates:
        sel = mags >= R
        C = float(min_ratio[sel].min())
        if C >= 0.2 * plateau:
            return EllipticityResult(True, C_K=C, R_K=R)
    return EllipticityResult(True, C_K=plateau, R_K=r_big)
