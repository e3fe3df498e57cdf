"""Quantization: symbols and amplitudes acting on fields.

The operator attached to a symbol a is the discrete Kohn-Nirenberg sum

    (Au)(x) = sum_xi a(t, w, x, xi) e^{i x.xi} u_hat(xi) * (1/L)^n

over the resolved frequency lattice, by one of three paths.  An
x-independent symbol is a diagonal multiplier plus an inverse FFT.  A
separated symbol sum_r c_r(t, w, x) g_r(t, w, xi) (Symbol.separated) is
sum_r c_r times the inverse FFT of g_r u_hat, with no cap on N; it runs
when the batch holds more than one (t, w) node or N is above the cap,
since the separation of an expression symbol costs a few ms of sympy
(registry separations are precompiled, and take the same paths).
Otherwise the exact O(N^{2n}) sum is evaluated (N capped by dimension).
A batch of fields at scalar (t, w) is one node, whose symbol values are
evaluated once for all its fields.
Amplitudes are applied through the regularized double sum with a smooth
cutoff chi(eps xi).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _BLOCK_BYTES
from .grid import Field, Grid, fft_forward, fft_inverse
from .symbols import Amplitude, Symbol

__all__ = [
    "RegularizationWarning",
    "apply_symbol_op",
    "apply_amplitude_op",
    "apply_adjoint",
    "apply_symbol_ensemble",
    "extract_symbol",
    "smooth_chi",
]

# dense-sum size caps per dimension; correctness first at desk scale.  The
# phase matrix is (N^n)^2 complex: 256 MiB at the caps of 2-D and 3-D
_N_CAP = {1: 128, 2: 64, 3: 16}


class RegularizationWarning(UserWarning):
    """Amplitude cutoff refinement did not converge to tolerance."""


class CapError(ValueError):
    """The exact sum, which a symbol that does not separate takes, is past
    its cap on N."""


def _flat_points(grid: Grid) -> np.ndarray:
    return grid.points().reshape(-1, grid.dim)


def _flat_freqs(grid: Grid) -> np.ndarray:
    return grid.freqs().reshape(-1, grid.dim)


def _check_cap(grid: Grid) -> None:
    if grid.N > _N_CAP[grid.dim]:
        raise CapError(
            f"exact x-dependent quantization capped at N={_N_CAP[grid.dim]} "
            f"for dim {grid.dim}")


def apply_symbol_op(a: Symbol, u: Field, t=0.0, w=0.0) -> Field:
    """Kohn-Nirenberg quantization of a applied to u at (t, w).

    u may carry batch axes before the grid axes.  Scalar t and w make the
    whole batch one (t, w) node; arrays give one node per field and
    broadcast against those axes.  An x-dependent symbol takes the separated
    path when it separates and there is more than one node or N is above
    the cap of the dense sum; otherwise the dense sum.  The fields are
    processed in chunks whose work arrays hold about _BLOCK_BYTES (at least
    one field, and at least one lattice row of the dense sum, per chunk).
    """
    grid = u.grid
    if a.dim != grid.dim:
        raise ValueError("symbol/grid dimension mismatch")
    fields = u.values.reshape((-1,) + grid.shape)
    if np.isscalar(t) and np.isscalar(w):
        t, w = np.array([t]), np.array([w])
    else:
        batch = u.values.shape[:u.values.ndim - grid.dim]
        t = np.broadcast_to(t, batch).reshape(-1)
        w = np.broadcast_to(w, batch).reshape(-1)
    one_node = len(t) == 1
    npts = grid.N**grid.dim
    if a.x_independent:
        apply_chunk, field_bytes = _apply_multiplier, 16 * npts
    # the sympy separation costs a few ms, which pays back over many nodes
    elif (not one_node or grid.N > _N_CAP[grid.dim]) and a.separated:
        # every c_r and g_r, then g_r u_hat, its inverse FFT, c_r times that
        # and the sum
        apply_chunk = _apply_separated
        field_bytes = 16 * npts * (2 * a.separated[0] + 4)
    else:
        _check_cap(grid)
        apply_chunk = _apply_dense
        # at one node every field shares the work array, the symbol on a
        # block of rows
        field_bytes = 0 if one_node else 16 * npts * npts
    if apply_chunk is not _apply_dense and (one_node or a.tw_independent):
        # the same values at every node: evaluated once, not per chunk
        node = (t[0].item(), w[0].item()) if one_node else (0.0, 0.0)
        apply_chunk = partial(apply_chunk,
                              values=_node_values(a, grid, *node))
    step = max(1, _BLOCK_BYTES // field_bytes if field_bytes
               else len(fields))
    out = np.empty_like(fields)
    for s in range(0, len(fields), step):
        c = slice(s, s + step)
        nodes = slice(None) if one_node else c
        uhat = fft_forward(grid, fields[c])
        out[c] = apply_chunk(a, grid, uhat, t[nodes], w[nodes])
    return Field(grid, out.reshape(u.values.shape))


def _node_values(a, grid, t, w):
    """At the node (t, w), or at each node of the arrays t and w: an
    x-independent symbol on the frequency lattice, or else the separated
    terms c_0..c_{r-1}, g_0..g_{r-1}."""
    if not np.isscalar(t):
        lead = (-1,) + (1,) * grid.dim
        t, w = t.reshape(lead), w.reshape(lead)
    if a.x_independent:
        return a(t, w, np.zeros(grid.shape + (grid.dim,)), grid.freqs())
    return a.separated[1](t, w, grid.points(), grid.freqs())


def _apply_multiplier(a, grid, uhat, t, w, values=None):
    """x-independent symbol: a diagonal multiplier on the spectra.  values,
    when given, holds the multiplier at the node of every field."""
    if values is None:
        values = _node_values(a, grid, t, w)
    return fft_inverse(grid, values * uhat)


def _apply_separated(a, grid, uhat, t, w, values=None):
    """Separated symbol sum_r c_r(t, w, x) g_r(t, w, xi): the sum over r of
    c_r times the inverse FFT of g_r u_hat, one term at a time.  values,
    when given, holds the terms at the node of every field."""
    rank = a.separated[0]
    if values is None:
        values = _node_values(a, grid, t, w)
    out = 0.0
    # a pole on the lattice gives non-finite values, which the verdicts count
    with np.errstate(invalid="ignore", divide="ignore"):
        for c, g in zip(values[:rank], values[rank:]):
            out = out + c * fft_inverse(grid, g * uhat)
    return out


def _apply_dense(a, grid, uhat, t, w):
    """x-dependent symbol: the exact sum over the frequency lattice, a block
    of lattice rows at a time.  t and w hold one node per field, or one node
    for all: each field then takes its own product with the block."""
    xs = _flat_points(grid)
    xis = _flat_freqs(grid)
    phase = grid.phase_matrix()
    uhat = uhat.reshape(len(uhat), -1, 1)
    out = np.empty((len(uhat), len(xs)), dtype=np.complex128)
    rows = max(1, _BLOCK_BYTES // (16 * len(t) * len(xis)))
    for r in range(0, len(xs), rows):
        x = slice(r, r + rows)
        vals = a(t[:, None, None], w[:, None, None], xs[x, None, :],
                 xis[None, :, :])  # (nodes, rows, Nxi)
        # a pole on the lattice gives non-finite values, which the verdicts
        # count; the product need not warn about them as well
        with np.errstate(invalid="ignore", divide="ignore"):
            out[:, x] = ((vals * phase[x]) @ uhat)[..., 0]
    return (out * grid.freq_cell_volume).reshape((len(uhat),) + grid.shape)


def apply_symbol_ensemble(a: Symbol, u: Field, ensemble) -> Field:
    """Apply the operator of a at every (path, time) node of u."""
    return apply_symbol_op(a, u, ensemble.timegrid.nodes(), ensemble.paths)


def smooth_chi(s: np.ndarray) -> np.ndarray:
    """C-infinity cutoff: 1 on |s| <= 1/2, 0 on |s| >= 1, exp-bump glue."""
    from .harmonic import _smoothstep

    return _smoothstep(2.0 - 2.0 * np.abs(np.asarray(s, dtype=float)))


@dataclass
class AmplitudeApplication:
    result: Field
    eps: float
    relative_change: float  # between eps and eps/2 evaluations
    converged: bool


def _amplitude_sum(a: Amplitude, u: Field, t, w, eps) -> np.ndarray:
    grid = u.grid
    xs = _flat_points(grid)
    xis = _flat_freqs(grid)
    uvals = u.values.reshape(-1)
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


def apply_amplitude_op(a: Amplitude, u: Field, t: float = 0.0,
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
    return AmplitudeApplication(Field(grid, v2), eps, rel, ok)


def _swap_amplitude(a) -> Amplitude:
    """conj(a(t, w, y, x, xi)): the amplitude of the adjoint.  A Symbol
    counts as the amplitude free of y."""
    from .symbols import sp, _X, _Y

    swap = {}
    for x, y in zip(_X[:a.dim], _Y[:a.dim]):
        swap[x], swap[y] = y, x
    swapped = a.expr.subs(swap, simultaneous=True)
    return Amplitude(a.order, sp.conjugate(swapped), a.dim, a.integrability)


def apply_adjoint(a, u: Field, t: float = 0.0, w=0.0) -> Field:
    """A* u via the conjugated swapped amplitude conj(a(y, x, xi))."""
    return apply_amplitude_op(_swap_amplitude(a), u, t, w).result


def extract_symbol(a: Symbol, grid: Grid, k, t: float = 0.0, w=0.0) -> np.ndarray:
    """sigma_A(x, xi_0) = e^{-i x.xi_0} (A e^{i x.xi_0}) for lattice mode k.

    Exact on the discrete lattice with the chosen normalization; returns the
    array of values over x.  k is one mode or a sequence of modes (as for
    grid.plane_wave), which are applied as one batch at the node (t, w);
    the arrays then lead with one axis of modes.
    """
    from .grid import plane_wave

    e = plane_wave(grid, k)
    Ae = apply_symbol_op(a, e, t, w)
    return Ae.values / e.values
