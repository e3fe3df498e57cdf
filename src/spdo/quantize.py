"""Quantization: symbols and amplitudes acting on sampled fields.

The operator attached to a symbol a is the discrete Kohn-Nirenberg sum

    (Au)(x) = sum_xi a(t, w, x, xi) e^{i x.xi} u_hat(xi) * (1/L)^n

over the resolved frequency lattice.  For x-independent symbols this is a
diagonal multiplier plus an inverse FFT; otherwise the exact O(N^{2n}) sum
is evaluated (N capped by dimension).  Amplitudes are applied through the
regularized double sum with a smooth cutoff chi(eps xi).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (FREQUENCY, Grid, SpectralField, TimeGrid, to_frequency,
                   to_physical)
from .symbols import Amplitude, Symbol

__all__ = [
    "SampledField",
    "KernelMatrix",
    "SingularKernelError",
    "RegularizationWarning",
    "apply_symbol_op",
    "apply_amplitude_op",
    "apply_adjoint",
    "apply_transpose",
    "apply_symbol_ensemble",
    "compute_kernel",
    "kernel_decay_check",
    "extract_symbol",
    "smooth_chi",
]

# exact-sum size caps per dimension; correctness first at desk scale
_N_CAP = {1: 128, 2: 64, 3: 32}
# work-array budget of one chunk of (path, time) nodes: as fast as larger
# chunks, and it keeps peak memory flat in the ensemble size
_CHUNK_BYTES = 1 << 20


class SingularKernelError(ValueError):
    """On-diagonal kernel entries requested for a non-integrable order."""


class RegularizationWarning(UserWarning):
    """Amplitude cutoff refinement did not converge to tolerance."""


@dataclass
class SampledField:
    """Random field u(t, w, x) as a (path, time, lattice) complex array."""

    grid: Grid
    timegrid: TimeGrid
    values: np.ndarray  # (M, K+1) + grid.shape

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        expect = self.values.shape[2:]
        if expect != self.grid.shape or self.values.shape[1] != self.timegrid.K + 1:
            raise ValueError("sampled field shape does not match grid/timegrid")

    @property
    def M(self) -> int:
        return self.values.shape[0]

    def copy(self) -> "SampledField":
        return SampledField(self.grid, self.timegrid, self.values.copy())


def _flat_points(grid: Grid) -> np.ndarray:
    return grid.points().reshape(-1, grid.dim)


def _flat_freqs(grid: Grid) -> np.ndarray:
    return grid.freqs().reshape(-1, grid.dim)


def _check_cap(grid: Grid) -> None:
    if grid.N > _N_CAP[grid.dim]:
        raise ValueError(
            f"exact x-dependent quantization capped at N={_N_CAP[grid.dim]} "
            f"for dim {grid.dim}")


def apply_symbol_op(a: Symbol, u: SpectralField, t=0.0, w=0.0) -> SpectralField:
    """Kohn-Nirenberg quantization of a applied to u at (t, w).

    u may carry batch axes before the grid axes, one field per (t, w) node;
    t and w broadcast against those axes.  The nodes are processed in chunks
    whose work arrays hold about _CHUNK_BYTES (at least one node, and at
    least one lattice row of the dense sum, per chunk).
    """
    grid = u.grid
    if a.dim != grid.dim:
        raise ValueError("symbol/grid dimension mismatch")
    if not a.x_independent:
        _check_cap(grid)
    batch = u.values.shape[:u.values.ndim - grid.dim]
    t = np.broadcast_to(t, batch).reshape(-1)
    w = np.broadcast_to(w, batch).reshape(-1)
    fields = u.values.reshape((-1,) + grid.shape)
    npts = grid.N**grid.dim
    if a.x_independent:
        apply_chunk, node_bytes = _apply_multiplier, 16 * npts
    else:
        apply_chunk, node_bytes = _apply_dense, 16 * npts * npts
    step = max(1, _CHUNK_BYTES // node_bytes)
    out = np.empty_like(fields)
    for s in range(0, len(fields), step):
        c = slice(s, s + step)
        uhat = to_frequency(
            SpectralField(grid, fields[c], u.representation)).values
        out[c] = apply_chunk(a, grid, uhat, t[c], w[c])
    return SpectralField(grid, out.reshape(u.values.shape))


def _apply_multiplier(a, grid, uhat, t, w):
    """x-independent symbol: a diagonal multiplier on the spectra."""
    lead = (-1,) + (1,) * grid.dim
    x0 = np.zeros(grid.shape + (grid.dim,))
    mult = a(t.reshape(lead), w.reshape(lead), x0, grid.freqs())
    return to_physical(SpectralField(grid, mult * uhat, FREQUENCY)).values


def _apply_dense(a, grid, uhat, t, w):
    """x-dependent symbol: the exact sum over the frequency lattice, a block
    of lattice rows at a time."""
    xs = _flat_points(grid)
    xis = _flat_freqs(grid)
    phase = grid.phase_matrix()
    uhat = uhat.reshape(len(t), -1, 1)
    out = np.empty((len(t), len(xs)), dtype=np.complex128)
    rows = max(1, _CHUNK_BYTES // (16 * uhat.size))
    for r in range(0, len(xs), rows):
        x = slice(r, r + rows)
        vals = a(t[:, None, None], w[:, None, None], xs[x, None, :],
                 xis[None, :, :])  # (nodes, rows, Nxi)
        out[:, x] = ((vals * phase[x]) @ uhat)[..., 0]
    return (out * grid.freq_cell_volume).reshape((len(t),) + grid.shape)


def apply_symbol_ensemble(a: Symbol, u: SampledField, ensemble) -> SampledField:
    """Apply the operator of a at every (path, time) node of u."""
    f = apply_symbol_op(a, SpectralField(u.grid, u.values),
                        u.timegrid.nodes(), ensemble.paths)
    return SampledField(u.grid, u.timegrid, f.values)


def smooth_chi(s: np.ndarray) -> np.ndarray:
    """C-infinity cutoff: 1 on |s| <= 1/2, 0 on |s| >= 1, exp-bump glue."""
    from .harmonic import _smoothstep

    return _smoothstep(2.0 - 2.0 * np.abs(np.asarray(s, dtype=float)))


@dataclass
class AmplitudeApplication:
    result: SpectralField
    eps: float
    relative_change: float  # between eps and eps/2 evaluations
    converged: bool


def _amplitude_sum(a: Amplitude, u: SpectralField, t, w, eps) -> np.ndarray:
    grid = u.grid
    xs = _flat_points(grid)
    xis = _flat_freqs(grid)
    uvals = to_physical(u).values.reshape(-1)
    cut = smooth_chi(eps * np.sqrt(np.sum(xis**2, axis=-1)))
    X = xs[:, None, None, :]
    Y = xs[None, :, None, :]
    XI = xis[None, None, :, :]
    vals = a(t, w, X, Y, XI)  # (Nx, Ny, Nxi)
    phase = grid.phase_matrix()  # e^{i x.xi}, (Nx, Nxi)
    inner = np.einsum("xyk,yk,y->xk", vals, phase.conj(), uvals) \
        * grid.cell_volume
    out = np.einsum("xk,xk,k->x", inner, phase, cut) * grid.freq_cell_volume
    return out.reshape(grid.shape)


def apply_amplitude_op(a: Amplitude, u: SpectralField, t: float = 0.0,
                       w=0.0) -> AmplitudeApplication:
    """Regularized double-sum quantization of an amplitude.

    Evaluates with the smooth cutoff chi(eps xi) at eps and eps/2, where
    eps = 1/2 over the largest resolved |xi| leaves chi = 1 up to the
    Nyquist ring, and reports the refinement gap; warns when the gap
    exceeds 1e-3.
    """
    grid = u.grid
    if grid.N > 64 or (grid.dim >= 2 and grid.N > 16):
        raise ValueError("amplitude double sum capped at N=64 (n=1) / 16 (n>=2)")
    eps = 0.5 / max(grid.max_resolved_freq, 1.0)
    v1 = _amplitude_sum(a, u, t, w, eps)
    v2 = _amplitude_sum(a, u, t, w, eps / 2.0)
    denom = max(np.max(np.abs(v2)), 1e-300)
    rel = float(np.max(np.abs(v1 - v2)) / denom)
    ok = rel <= 1e-3
    if not ok:
        warnings.warn(f"amplitude cutoff refinement gap {rel:.3e} > 1e-3",
                      RegularizationWarning)
    return AmplitudeApplication(SpectralField(grid, v2), eps, rel, ok)


def _as_amplitude(a) -> Amplitude:
    if isinstance(a, Amplitude):
        return a
    fn = a.fn
    return Amplitude(a.order, lambda t, w, x, y, xi: fn(t, w, x, xi),
                     dim=a.dim, integrability=a.integrability, y_independent=True)


def _swap_amplitude(a: Amplitude, conj: bool, negate_xi: bool) -> Amplitude:
    amp = _as_amplitude(a)
    base = amp.fn

    def fn2(t, w, x, y, xi):
        v = base(t, w, y, x, -np.asarray(xi) if negate_xi else xi)
        return np.conj(v) if conj else v

    return Amplitude(amp.order, fn2, dim=amp.dim, integrability=amp.integrability)


def apply_adjoint(a, u: SpectralField, t: float = 0.0, w=0.0) -> SpectralField:
    """A* u via the conjugated swapped amplitude conj(a(y, x, xi))."""
    return apply_amplitude_op(_swap_amplitude(a, conj=True, negate_xi=False),
                              u, t, w).result


def apply_transpose(a, u: SpectralField, t: float = 0.0, w=0.0) -> SpectralField:
    """tA u via the swapped, xi-reflected amplitude a(y, x, -xi)."""
    return apply_amplitude_op(_swap_amplitude(a, conj=False, negate_xi=True),
                              u, t, w).result


# ---------------------------------------------------------------------------
# kernels


@dataclass
class KernelMatrix:
    grid: Grid
    matrix: np.ndarray  # (N^n, N^n), K(x_i, y_j)
    diagonal_valid: bool = True

    def circulant_defect(self) -> float:
        """Max deviation of K(x, y) from dependence on x - y (torus shift)."""
        n = self.grid.dim
        N = self.grid.N
        K = self.matrix.reshape(self.grid.shape * 2)
        ref = K[(0,) * n]  # row at x = 0, indexed by y
        worst = 0.0
        idx = np.indices(self.grid.shape)
        for flat in range(N**n):
            xi = np.unravel_index(flat, self.grid.shape)
            row = K[xi]
            shifted = ref[tuple((idx[a] - xi[a]) % N for a in range(n))]
            if self.diagonal_valid:
                worst = max(worst, float(np.max(np.abs(row - shifted))))
            else:
                m = np.ones(self.grid.shape, bool)
                m[xi] = False
                m[(0,) * n] = False
                worst = max(worst, float(np.max(np.abs((row - shifted)[m]))))
        return worst

    def to_csv(self, path: str) -> None:
        """Row-major, real/imag interleaved."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            cols = []
            for j in range(self.matrix.shape[1]):
                cols += [f"re_{j}", f"im_{j}"]
            w.writerow(cols)
            for row in self.matrix:
                out = []
                for v in row:
                    out += [f"{v.real:.17g}", f"{v.imag:.17g}"]
                w.writerow(out)


def compute_kernel(a, grid: Grid, t: float = 0.0, w=0.0,
                   off_diagonal_only: bool = False) -> KernelMatrix:
    """Dense kernel K(x, y) = (2 pi)^{-n} integral e^{i(x-y).xi} a dxi.

    Absolutely convergent assembly needs order < -n or a xi-compactly
    supported symbol; otherwise only the off-diagonal entries are defined,
    through the integration-by-parts form |x-y|^{-2k} Laplacian^k_xi a.
    """
    amp = isinstance(a, Amplitude)
    integrable = a.order < -grid.dim or getattr(a, "xi_compact_support", False)
    if not integrable and not off_diagonal_only:
        raise SingularKernelError(
            f"kernel diagonal undefined at order {a.order} >= -n; "
            "request off-diagonal entries only")
    xs = _flat_points(grid)
    xis = _flat_freqs(grid)
    # e^{i(x-y).xi} = e^{i x.xi} e^{-i y.xi}
    phase = grid.phase_matrix()
    if integrable:
        if amp:
            vals = a(t, w, xs[:, None, None, :], xs[None, :, None, :],
                     xis[None, None, :, :])
            K = np.einsum("xyk,xk,yk->xy", vals, phase, phase.conj()) \
                * grid.freq_cell_volume
        else:
            vals = a(t, w, xs[:, None, :], xis[None, :, :])  # (Nx, Nxi)
            K = ((vals * phase) @ phase.conj().T) * grid.freq_cell_volume
        return KernelMatrix(grid, K, diagonal_valid=True)
    # integration-by-parts form off the diagonal
    if amp:
        raise SingularKernelError("off-diagonal IBP assembly needs a Symbol")
    k_ibp = max(int(np.ceil((a.order + grid.dim + 1) / 2.0)), 1)
    zero = (0,) * grid.dim
    b = a
    for _ in range(k_ibp):  # b = Laplacian_xi^k_ibp a
        terms = [b.derivative(tuple(2 * (i == axis) for i in range(grid.dim)),
                              zero) for axis in range(grid.dim)]
        b = sum(terms[1:], terms[0])
    vals = b(t, w, xs[:, None, :], xis[None, :, :])
    raw = ((vals * phase) @ phase.conj().T) * grid.freq_cell_volume
    # |x - y| on the torus; diagonal left as nan
    dist = grid.torus_distance(xs[:, None, :], xs[None, :, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        K = ((-1.0) ** k_ibp) * raw / dist ** (2 * k_ibp)
    np.fill_diagonal(K, np.nan)
    return KernelMatrix(grid, K, diagonal_valid=False)


@dataclass
class DecayReport:
    exponent: float
    target: float
    passed: bool
    separations: np.ndarray
    magnitudes: np.ndarray


def kernel_decay_check(a: Symbol, grid: Grid, t: float = 0.0,
                       w=0.0) -> DecayReport:
    """Fit log |K(0, y)| against log(1 + |y|) on dyadic separations.

    PASS when the fitted exponent is at most -(n+1) + 0.3, the discrete
    stand-in for the off-diagonal kernel decay bound.
    """
    integrable = a.order < -grid.dim or a.xi_compact_support
    km = compute_kernel(a, grid, t, w, off_diagonal_only=not integrable)
    n = grid.dim
    K = km.matrix.reshape(grid.shape * 2)[(0,) * n]  # row at x = 0, over y
    dist = grid.torus_distance(grid.points(), np.zeros(n))
    sep, mag = [], []
    d = 2.0 * grid.dx
    while d <= grid.L / 2.0:
        band = (dist >= d) & (dist < 2.0 * d)
        if band.any():
            vals = np.abs(K[band])
            vals = vals[np.isfinite(vals)]
            if len(vals) and vals.max() > 0:
                sep.append(d)
                mag.append(float(vals.max()))
        d *= 2.0
    if len(sep) < 2:
        return DecayReport(0.0, -(n + 1) + 0.3, False, np.array(sep),
                           np.array(mag))
    slope = float(np.polyfit(np.log(1.0 + np.array(sep)), np.log(mag), 1)[0])
    target = -(n + 1) + 0.3
    return DecayReport(slope, target, slope <= target, np.array(sep),
                       np.array(mag))


def extract_symbol(a: Symbol, grid: Grid, k, t: float = 0.0, w=0.0) -> np.ndarray:
    """sigma_A(x, xi_0) = e^{-i x.xi_0} (A e^{i x.xi_0}) for lattice mode k.

    Exact on the discrete lattice with the chosen normalization; returns the
    array of values over x.
    """
    from .grid import plane_wave

    e = plane_wave(grid, k)
    Ae = apply_symbol_op(a, e, t, w)
    return Ae.values / e.values
