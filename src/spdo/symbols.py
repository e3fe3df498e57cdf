"""Symbols and amplitudes of order (l, p): sympy expressions, order arithmetic,
empirical verification of the defining derivative estimates, and ellipticity
detection on the resolved frequency band.

A symbol is a sympy expression in t, w, x1..xn and xi1..xin, where ``w``
is the driving Brownian value at time t (adaptedness is then automatic);
an amplitude adds y1..yn.  Derivatives of every order, arithmetic and the
x- and y-independence flags are exact operations on the expression.  The
numpy evaluator ``fn(t, w, x, xi)`` is compiled only when the symbol is
first evaluated: ``x`` and ``xi`` are arrays whose last axis is the spatial
dimension, and ``t`` and ``w`` may be arrays too (one entry per (path,
time) node), broadcast against the components of ``x`` and ``xi``.  A
compile renders the evaluator's source with sympy's numpy printer, the text
lambdify would write (_source), and runs it (_load), compiling each
distinct text once.  A registry symbol, or a member of a registry family at
drawn parameter values, is read off sources rendered ahead of time
(Symbol._precompiled), so it needs no sympy until its expression is read.

sympy is imported on first use, with the cyclic collector paused, and the
heap is then frozen (``spdo._import_long_lived``): sympy's lives as long as
the process, and no later collection or interpreter exit walks it.
"""

from __future__ import annotations

import builtins
import itertools
import math
from dataclasses import asdict, dataclass
from functools import cache, cached_property

import numpy as np

from . import _BLOCK_BYTES

__all__ = [
    "Symbol",
    "Amplitude",
    "EstimateReport",
    "EllipticityResult",
    "UndefinedExponentError",
    "qstar",
    "symbol_from_expr",
    "amplitude_from_expr",
    "check_symbol_estimate",
    "ellipticity_check",
]

# the most terms Symbol.separated expands a symbol to
_SEPARATE_TERMS = 1000

# sympy and the variables are built on first use, so a command that builds
# no symbol never imports sympy
_SYMPY_GLOBALS = ("sp", "_T", "_W", "_X", "_XI", "_Y")


def __getattr__(name):
    """The module global `name` of _SYMPY_GLOBALS: sympy as ``sp`` and the
    variables t, w, x1..x3, xi1..xi3, y1..y3 as ``_T, _W, _X, _XI, _Y``.

    The first call imports sympy and builds them all as plain module
    globals, so later lookups never come here.  Python calls this for a
    name the module lacks (PEP 562: ``from spdo.symbols import _X``); code
    in this module calls it before its first sympy use.
    """
    global sp, _T, _W, _X, _XI, _Y
    if name not in _SYMPY_GLOBALS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if "sp" not in globals():
        from . import _import_long_lived
        sympy = _import_long_lived("sympy")
        _T, _W = sympy.symbols("t w", real=True)
        _X = sympy.symbols("x1 x2 x3", real=True)
        _XI = sympy.symbols("xi1 xi2 xi3", real=True)
        _Y = sympy.symbols("y1 y2 y3", real=True)
        sp = sympy
    return globals()[name]


class UndefinedExponentError(ValueError):
    """q* is undefined for finite p, q with pq < p + q."""


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


def _split_components(arr, dim):
    arr = np.asarray(arr, dtype=float)
    if arr.shape == () or arr.shape[-1] != dim:
        raise ValueError(f"expected trailing axis of length {dim}, got {arr.shape}")
    return [arr[..., a] for a in range(dim)]


class _Evaluable:
    """What Symbol and Amplitude share: the sympy expression ``expr`` and
    its numpy evaluator ``fn(t, w, *arrays)``, compiled when first used.
    ``_vars`` holds the sympy variables of each array argument, xi last.
    """

    def __init__(self, order, expr, dim=1, integrability=math.inf):
        self.order = order
        self.expr = __getattr__("sp").sympify(expr)
        self.dim = dim
        self.integrability = integrability

    @cached_property
    def fn(self):
        return _load(_source(self.expr, self.dim, self._vars), self.dim)

    def __call__(self, t, w, *arrays):
        return np.asarray(self.fn(t, w, *arrays), dtype=np.complex128)

    def _derivative(self, orders, order):
        """Derivative of multi-index orders[i] in array argument i."""
        if not any(map(any, orders)):
            return self
        last = len(orders) - 1
        e = self.expr
        for i in (last,) + tuple(range(last)):  # xi first, then x (and y)
            for v, k in zip(self._vars[i], orders[i]):
                e = sp.diff(e, v, k)
        return type(self)(order, e, self.dim, self.integrability)


class Symbol(_Evaluable):
    """Symbol a(t, w, x, xi) of order (l, p)."""

    @property
    def _vars(self):
        return _X, _XI

    def __init__(self, order, expr, dim=1, integrability=math.inf, name=""):
        super().__init__(order, expr, dim, integrability)
        self.name = name

    @classmethod
    def _precompiled(cls, order, dim, name, build, compiled,
                     params=None) -> "Symbol":
        """The Symbol of expression build(), read off its rendered form
        compiled = (_source of fn, _separation, x_independent,
        tw_independent) with no sympy, the free names of the sources bound
        to the values of params: only reading ``expr`` calls build.  A
        separation given as ``...`` is not rendered: ``separated`` is then
        read off ``expr`` when first asked for."""
        a = cls.__new__(cls)
        a.order, a.dim, a.integrability, a.name = order, dim, math.inf, name
        a._build = build
        source, separation, a.x_independent, a.tw_independent = compiled
        a.fn = _load(source, dim, params)
        if separation is not ...:
            a.separated = _load_separation(separation, dim, params)
        return a

    @cached_property
    def expr(self):
        return __getattr__("sp").sympify(self._build())

    @cached_property
    def x_independent(self) -> bool:
        return not self.expr.has(*_X[:self.dim])

    @cached_property
    def tw_independent(self) -> bool:
        return not self.expr.has(_T, _W)

    @cached_property
    def separated(self):
        """(r, fn) with a = sum_{k<r} c_k(t, w, x) g_k(t, w, xi) and
        fn(t, w, x, xi) the list of values c_0..c_{r-1}, g_0..g_{r-1}, or
        None (see _separation)."""
        return _load_separation(self._separation(), self.dim)

    def _separation(self):
        """(r, _source of [c_0..c_{r-1}, g_0..g_{r-1}]) read off the
        expanded expression (terms grouped by xi-factor, then by x-factor);
        None when a xi-factor still holds x, or when the expansion could
        pass _SEPARATE_TERMS terms (a power of a sum within the parser's
        bounds can expand to millions)."""
        if _expand_bound(self.expr) > _SEPARATE_TERMS:
            return None
        by_g, by_c = {}, {}
        for term in sp.Add.make_args(sp.expand(self.expr)):
            c, g = term.as_independent(*_XI[:self.dim], as_Add=False)
            if g.has(*_X[:self.dim]):
                return None
            by_g[g] = by_g.get(g, 0) + c
        for g, c in by_g.items():
            by_c[c] = by_c.get(c, 0) + g
        return len(by_c), _source(list(by_c) + list(by_c.values()),
                                  self.dim, self._vars)

    def derivative(self, alpha=(), beta=()) -> "Symbol":
        """d^alpha_xi d^beta_x a, as a new Symbol of order l - |alpha|."""
        alpha = _as_multiindex(alpha, self.dim)
        beta = _as_multiindex(beta, self.dim)
        return self._derivative((beta, alpha), self.order - sum(alpha))

    # -- arithmetic, exact on the expressions -------------------------------

    def __mul__(self, other):
        if isinstance(other, Symbol):
            return Symbol(self.order + other.order, self.expr * other.expr,
                          self.dim,
                          qstar(self.integrability, other.integrability))
        c = complex(other)
        if c == int(c.real) and c.imag == 0:
            c = __getattr__("sp").nsimplify(c, rational=False)
        return Symbol(self.order, c * self.expr, self.dim, self.integrability)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, Symbol):
            other = constant_symbol(other, self.dim)
        return Symbol(max(self.order, other.order), self.expr + other.expr,
                      self.dim, min(self.integrability, other.integrability))

    def __sub__(self, other):
        if not isinstance(other, Symbol):
            other = constant_symbol(other, self.dim)
        return self + (-1.0) * other

    def conjugate(self) -> "Symbol":
        return Symbol(self.order, self.expr.conjugate(), self.dim,
                      self.integrability)


class Amplitude(_Evaluable):
    """Amplitude a(t, w, x, y, xi) of order (l, p)."""

    @property
    def _vars(self):
        return _X, _Y, _XI

    @cached_property
    def y_independent(self) -> bool:
        return not self.expr.has(*_Y[:self.dim])

    def derivative(self, alpha=(), beta_y=()) -> "Amplitude":
        """d^alpha_xi d^beta_y a."""
        alpha = _as_multiindex(alpha, self.dim)
        beta_y = _as_multiindex(beta_y, self.dim)
        return self._derivative(((0,) * self.dim, beta_y, alpha),
                                self.order - sum(alpha))

    def diagonal_symbol(self) -> Symbol:
        """a(t, w, x, x, xi) as a Symbol (the y = x restriction)."""
        return Symbol(self.order,
                      self.expr.subs({_Y[a]: _X[a] for a in range(self.dim)}),
                      self.dim, self.integrability)


def _as_multiindex(m, dim):
    if np.isscalar(m):
        m = (int(m),) + (0,) * (dim - 1)
    m = tuple(int(v) for v in m)
    if len(m) == 0:
        m = (0,) * dim
    if len(m) != dim:
        raise ValueError(f"multi-index length {len(m)} != dim {dim}")
    return m


def _expand_bound(e) -> int:
    """An upper bound on the terms sympy.expand writes out for e: sums add,
    products and integer powers multiply.  An exponent counts at most 64:
    a base of two or more terms is past any budget by then."""
    if e.is_Add:
        return sum(map(_expand_bound, e.args))
    if e.is_Mul:
        return math.prod(map(_expand_bound, e.args))
    if e.is_Pow and e.exp.is_Integer:
        return _expand_bound(e.base) ** min(abs(int(e.exp)), 64)
    return max(1, sum(map(_expand_bound, e.args)))


def _source(expr, dim, groups) -> str:
    """The source text of the numpy evaluator of expr, whose arguments are
    t, w and the first dim variables of each group (a list of expressions
    gives a function returning the list of their values): the text
    lambdify(modules=[numpy]) writes, its body rendered with the printer
    and the settings lambdify uses.  Free names other than the arguments
    stay names, bound by _load's params."""
    from sympy.printing.numpy import NumPyPrinter

    doprint = NumPyPrinter({"fully_qualified_modules": False, "inline": True,
                            "allow_unknown_functions": True,
                            "user_functions": {}}).doprint
    body = ("[" + ", ".join(map(doprint, expr)) + "]"
            if isinstance(expr, list) else doprint(expr))
    args = ", ".join(str(v) for v in (_T, _W) + tuple(
        v for g in groups for v in g[:dim]))
    return f"def _lambdifygenerated({args}):\n    return {body}\n"


def _load(source, dim, params=None):
    """numpy evaluator fn(t, w, *arrays) of a _source text, run in the
    namespace lambdify(modules=[numpy]) runs it in, with the names of the
    dict params bound to its values: one array per variable group,
    components on the last axis; the result takes the broadcast shape of
    t, w and the components (a list result is the list of the values, each
    in the shape of the variables it holds)."""
    scope = {}
    exec(_compile(source), {**np.__dict__, "builtins": builtins,
                            "range": range, **(params or {})}, scope)
    (f,) = scope.values()

    def fn(t, w, *arrays):
        comps = [_split_components(a, dim) for a in arrays]
        with np.errstate(all="ignore"):
            out = f(t, w, *(c for cs in comps for c in cs))
        if isinstance(out, list):
            return [np.asarray(v, dtype=np.complex128) for v in out]
        out = np.asarray(out, dtype=np.complex128)
        target = np.broadcast(t, w, *(cs[0] for cs in comps)).shape
        return np.broadcast_to(out, target) if out.shape != target else out

    return fn


@cache
def _compile(source):
    """The code object of a _source text, compiled once per text."""
    return compile(source, "<string>", "exec")


def _load_separation(separation, dim, params=None):
    """(r, fn) of a _separation (r, source), or None."""
    return separation and (separation[0], _load(separation[1], dim, params))


def _xi_degree(expr, dim) -> int | None:
    """Total degree of expr in xi1..xin when it is a polynomial in them,
    expanded in xi alone (not in t, w, x: seconds on (x+xi+t+w+1)**16) at
    two generic rational values of the other symbols, the larger counting."""
    xi = _XI[:dim]
    if not expr.is_polynomial(*xi):
        return None
    rest = sorted(expr.free_symbols - set(xi), key=str)
    return max(int(sp.Poly(expr.subs({s: sp.Rational(1 + 2 * k, q)
                                      for k, s in enumerate(rest)}),
                           *xi).total_degree())
               for q in (97, -89))


def symbol_from_expr(expr, dim=1, order=None, integrability=math.inf,
                     name="") -> Symbol:
    """Build a Symbol from a sympy expression in t, w, x1..xn, xi1..xin.

    The order defaults to the degree of a xi-polynomial.  Nothing is
    compiled here: the evaluator is built when the symbol is first called.
    """
    expr = __getattr__("sp").sympify(expr)
    if order is None:
        order = _xi_degree(expr, dim)
        if order is None:
            raise ValueError("order must be given for non-polynomial symbols")
    return Symbol(order, expr, dim, integrability, name)


def amplitude_from_expr(expr, dim=1, order=None, integrability=math.inf) -> Amplitude:
    """Amplitude from a sympy expression in t, w, x1.., y1.., xi1..  ."""
    if order is None:
        raise ValueError("order must be given for amplitudes")
    return Amplitude(order, expr, dim, integrability)


def constant_symbol(c, dim=1) -> Symbol:
    return symbol_from_expr(c, dim, order=0)


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
        return {**asdict(self), "passed": self.passed,
                "integrability": ("inf" if math.isinf(self.integrability)
                                  else self.integrability)}


def _sample_points(grid):
    pts = grid.points()
    step = max(1, grid.N // 16)
    sl = (slice(None, None, step),) * grid.dim
    return pts[sl].reshape(-1, grid.dim)


def _sample_freqs(grid, max_per_axis=64):
    fr = grid.freqs()
    step = max(1, grid.N // max_per_axis)
    sl = (slice(None, None, step),) * grid.dim
    return fr[sl].reshape(-1, grid.dim)


def _node_samples(ensemble, times):
    """The (t, w) nodes a symbol scan samples, as their times (T,) and path
    values (P, T): the first 4 paths at `times` time nodes spread over the
    grid, or t = w = 0 alone without an ensemble."""
    if ensemble is None:
        return np.zeros(1), np.zeros((1, 1))
    tidx = ensemble.timegrid.node_indices(times)
    return ensemble.timegrid.nodes()[tidx], ensemble.paths[:4, tidx]


def _scan_blocks(a, samples, xs, xis):
    """(b, a(t, w, x, xi)) for each (t, w) node of samples in turn, path by
    path, and each block b of the frequencies xis: a slice of them whose
    (points, frequencies) values take about _BLOCK_BYTES.  A minimum over
    the blocks is exact in any blocking."""
    nodes, wvals = samples
    X = xs[:, None, :]
    XI = xis[None, :, :]
    step = max(1, _BLOCK_BYTES // (16 * len(xs)))
    for row in wvals:
        for tj, wv in zip(nodes, row):
            for s in range(0, len(xis), step):
                b = slice(s, s + step)
                yield b, a(tj, wv, X, XI[:, b])


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
                          ensemble=None) -> EstimateReport:
    """Empirically verify |d^a_xi d^b_x a| <= M(t,w) (1+|xi|)^{l-|a|}.

    For each multi-index pair up to the caps, reports the per-(t, path)
    majorant (the max over sampled (x, xi) of the normalized derivative)
    and its Monte Carlo L^p_F(0,T) norm, and flags a violation whenever the
    normalized ratio still grows along the frequency band (log-log slope
    above 0.1) or is not finite.
    """
    from .stochastic import lpf_norm_values

    xs = _sample_points(grid)
    xis = _sample_freqs(grid)
    mags = np.sqrt(np.sum(xis**2, axis=-1))
    nodes, wvals = _node_samples(ensemble, 9)

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
            maj = np.zeros(wvals.shape)
            growth_by_xi = np.zeros(len(xis))
            for i, row in enumerate(wvals):
                for j, tj in enumerate(nodes):
                    vals = np.abs(d(tj, row[j], X, XI))  # (nx, nxi)
                    maj[i, j] = (vals / weight[None, :]).max()
                    growth_by_xi = np.maximum(growth_by_xi,
                                              (vals / weight2[None, :]).max(axis=0))
            max_ratio = float(maj.max())  # NaN propagates
            with np.errstate(invalid="ignore"):
                slope = _slope_loglog(mags, growth_by_xi)
            # a non-finite ratio or slope (a pole on the grid) is a violation
            violation = not (math.isfinite(max_ratio) and math.isfinite(slope)
                             and slope <= 0.1)
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


def _median(vals: np.ndarray) -> float:
    """float(np.median(vals)) of a non-empty 1-D float array, NaN when any
    value is NaN, without the numpy.ma import np.median makes."""
    s = np.sort(vals)  # NaN sorts last
    n = s.size
    if np.isnan(s[-1]):
        return math.nan
    return float(s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0)


def ellipticity_check(a: Symbol, grid, ensemble=None) -> EllipticityResult:
    """Largest C_K and smallest dyadic R_K with |a| >= C_K (1+|xi|)^l for
    |xi| >= R_K on the resolved band, or not-elliptic when the normalized
    modulus collapses along some resolved ray."""
    xs = _sample_points(grid)
    xis = _sample_freqs(grid, max_per_axis=grid.N)
    mags = np.sqrt(np.sum(xis**2, axis=-1))
    weight = (1.0 + mags) ** a.order
    min_ratio = np.full(len(xis), np.inf)
    for b, vals in _scan_blocks(a, _node_samples(ensemble, 9), xs, xis):
        min_ratio[b] = np.minimum(min_ratio[b],
                                  (np.abs(vals) / weight[b]).min(axis=0))

    xi_max = grid.max_resolved_freq
    r_big = xi_max / 2.0
    outer = mags >= r_big
    plateau = float(min_ratio[outer].min()) if outer.any() else 0.0
    outer_med = _median(min_ratio[outer]) if outer.any() else 0.0
    if plateau <= max(1e-8, 1e-3 * outer_med):
        return EllipticityResult(False)

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
