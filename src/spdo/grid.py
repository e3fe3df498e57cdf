"""Periodic spatial grid, frequency lattice and spectral transforms.

Normalization convention
------------------------
Fields hold lattice values.  Spectra are plain arrays that fft_forward
makes and fft_inverse reads, and only these two carry the weights.  The
forward transform approximates the continuum integral

    u_hat(xi) = integral exp(-i x.xi) u(x) dx

so fft_forward carries a cell weight of (L/N) per axis.  fft_inverse
carries 1/L per axis on the inverse sum ((N/L)^n on ifftn), which is the
discrete analogue of (2 pi)^{-n} integral dxi on the frequency lattice
{2 pi k / L}.  With this pairing, symbol values multiply spectra with the
same magnitudes as in the continuum quantization, and Parseval reads

    sum_x |u|^2 (L/N)^n  ==  sum_xi |u_hat|^2 (1/L)^n .
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice of N points per axis on the torus [0, L)^n."""

    dim: int = 1
    N: int = 64
    L: ClassVar[float] = 2.0 * np.pi
    # lattice arrays, built once per grid and handed out read-only
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        n, N = self.dim, self.N
        if not 1 <= n <= 3:
            raise ValueError(f"dim must be 1..3, got {n}")
        if N < 8 or (N & (N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 8, got {N}")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def freq_cell_volume(self) -> float:
        # discrete (2 pi)^{-n} dxi^n
        return (1.0 / self.L) ** self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.dim

    def axis_points(self) -> np.ndarray:
        return np.arange(self.N) * self.dx

    def axis_freqs(self) -> np.ndarray:
        """Frequency lattice values per axis, in FFT (wrapped) order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)

    def _cached(self, key: str, build) -> np.ndarray:
        arr = self._cache.get(key)
        if arr is None:
            arr = build()
            arr.flags.writeable = False
            self._cache[key] = arr
        return arr

    def _lattice(self, axis_values) -> np.ndarray:
        axes = np.meshgrid(*([axis_values] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)

    def points(self) -> np.ndarray:
        """Lattice points, shape grid.shape + (n,); read-only."""
        return self._cached("points", lambda: self._lattice(self.axis_points()))

    def freqs(self) -> np.ndarray:
        """Frequency lattice, FFT order, shape grid.shape + (n,); read-only."""
        return self._cached("freqs", lambda: self._lattice(self.axis_freqs()))

    def freq_norms(self) -> np.ndarray:
        return self._cached(
            "freq_norms", lambda: np.sqrt(np.sum(self.freqs() ** 2, axis=-1)))

    def band_mask(self, max_mode: int) -> np.ndarray:
        """True on the lattice modes k with every |k_a| <= max_mode."""
        ints = np.abs(np.fft.fftfreq(self.N) * self.N)
        return self._lattice(ints <= max_mode).all(axis=-1)

    def phase_matrix(self) -> np.ndarray:
        """exp(i x.xi) over flattened (points, freqs), shape (N^n, N^n);
        read-only."""
        def build():
            xs = self.points().reshape(-1, self.dim)
            xis = self.freqs().reshape(-1, self.dim)
            return np.exp(1j * (xs @ xis.T))

        return self._cached("phase", build)

    @property
    def max_resolved_freq(self) -> float:
        return 2.0 * np.pi * (self.N // 2) / self.L

    def torus_distance(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Geodesic distance on the torus; inputs broadcast, last axis = dim."""
        d = np.abs(np.asarray(x) - np.asarray(y))
        d = np.minimum(d, self.L - d)
        return np.sqrt(np.sum(d**2, axis=-1))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] with K steps (K + 1 nodes)."""

    T: float
    K: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.K < 2:
            raise ValueError("need at least 2 time steps")

    @property
    def dt(self) -> float:
        return self.T / self.K

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.K + 1)

    def node_indices(self, n: int) -> np.ndarray:
        """Indices of n nodes spread evenly over 0, ..., K: the integer
        parts of linspace(0, K, n), repeats dropped (np.unique's result,
        without the numpy.ma import np.unique makes)."""
        idx = np.linspace(0, self.K, n).astype(int)
        return idx[np.diff(idx, prepend=-1) > 0]


@dataclass
class Field:
    """Complex field on a Grid: its values at the lattice points.

    values has shape grid.shape, or leading axes followed by grid.shape, one
    field per entry: a random field over a BrownianEnsemble leads with
    (path, time) axes, and a system's solution with (path, time, component)
    axes.  Norms act on the trailing grid axes.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape[self.values.ndim - self.grid.dim:] != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} does not end "
                             f"in grid shape {self.grid.shape}")


def _grid_axes(grid: Grid) -> tuple[int, ...]:
    return tuple(range(-grid.dim, 0))


def fft_forward(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Spectra of lattice values over the trailing grid axes, carrying the
    (L/N)^n cell weight."""
    return np.fft.fftn(values, axes=_grid_axes(grid)) * grid.cell_volume


def fft_inverse(grid: Grid, spectra: np.ndarray) -> np.ndarray:
    """Lattice values of spectra over the trailing grid axes, carrying the
    (N/L)^n weight."""
    return (np.fft.ifftn(spectra, axes=_grid_axes(grid))
            * (grid.N / grid.L) ** grid.dim)


def _lattice_norm(grid: Grid, density: np.ndarray,
                  cell: float) -> float | np.ndarray:
    """sqrt of the cell-weighted sum over the trailing grid axes: a float for
    one field, an array over the batch axes otherwise."""
    norm = np.sqrt(np.sum(density, axis=_grid_axes(grid)) * cell)
    return float(norm) if norm.ndim == 0 else norm


def l2_norm(f: Field) -> float | np.ndarray:
    return _lattice_norm(f.grid, np.abs(f.values) ** 2, f.grid.cell_volume)


def sobolev_norm(grid: Grid, spectra: np.ndarray,
                 delta: float) -> float | np.ndarray:
    """H^delta norm from the spectra (fft_forward) of fields, via the Bessel
    weight (1+|xi|^2)^{delta/2}."""
    w = (1.0 + grid.freq_norms() ** 2) ** delta
    return _lattice_norm(grid, w * np.abs(spectra) ** 2,
                         grid.freq_cell_volume)


def plane_wave(grid: Grid, k) -> Field:
    """exp(i k.x 2 pi / L) for integer lattice mode k: an int (the mode
    (k, 0, ..)) or a tuple of dim ints; for a sequence of such tuples, one
    field per mode, in order."""
    if np.isscalar(k):
        k = (int(k),) + (0,) * (grid.dim - 1)
    k = np.asarray(k)
    x = grid.points()
    lead = k.shape[:-1] + (1,) * grid.dim
    phase = sum(2.0 * np.pi * k[..., a].reshape(lead) / grid.L * x[..., a]
                for a in range(grid.dim))
    return Field(grid, np.exp(1j * phase))


def random_band_limited(grid: Grid, rng: np.random.Generator) -> Field:
    """Random field with iid complex Gaussian amplitudes on the modes
    |k_a| <= N/4."""
    spec = np.zeros(grid.shape, dtype=np.complex128)
    mask = grid.band_mask(grid.N // 4)
    amp = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    spec[mask] = amp[mask]
    return Field(grid, fft_inverse(grid, spec))
