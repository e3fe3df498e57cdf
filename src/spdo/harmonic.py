"""The stochastic Calderon-Zygmund decomposition, and the smooth step that
the cutoffs of the other modules are built from.

The CZ decomposition runs the dyadic stopping-time walk on the per-site
L^p_F(0,T) density, one dyadic level at a time: cubes split in half per
axis (half-open, lattice-aligned) until the cube average of the density
reaches the level r, at which point the cube is frozen as a bad cube.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid
from .stochastic import BrownianEnsemble, lpf_norm_values

__all__ = [
    "DyadicCube",
    "CZDecomposition",
    "LevelTooLowError",
    "cz_decompose",
]


class LevelTooLowError(ValueError):
    """CZ level r is at or below the global average density; raise r."""


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C-infinity monotone 0 -> 1 on [0, 1] via the exp glue."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        f = np.where(u > 0, np.exp(-1.0 / np.where(u > 0, u, 1.0)), 0.0)
        g = np.where(u < 1, np.exp(-1.0 / np.where(u < 1, 1.0 - u, 1.0)), 0.0)
    return f / (f + g)


# ---------------------------------------------------------------------------
# Calderon-Zygmund


@dataclass(frozen=True)
class DyadicCube:
    """Half-open lattice-aligned box [origin, origin + size) in cell indices."""

    origin: tuple
    size: int  # cells per axis

    def slices(self):
        return tuple(slice(o, o + self.size) for o in self.origin)

    def volume(self, grid: Grid) -> float:
        return (self.size * grid.dx) ** grid.dim


@dataclass
class CZDecomposition:
    good: Field  # v
    bad: list  # [(DyadicCube, w_k on the cube: (path, time) + (size,) * n)]
    level: float
    exponent: float
    u_l1_lpf: float  # |u|_{L^1(R^n; L^p_F)}

    def cube_measure(self) -> float:
        g = self.good.grid
        return sum(c.volume(g) for c, _ in self.bad)


def cz_decompose(u: Field, ensemble: BrownianEnsemble, r: float,
                 p: float = 2.0) -> CZDecomposition:
    """Calderon-Zygmund decomposition u = v + sum_k w_k at level r of a
    field with leading (path, time) axes over ensemble.

    Guarantees, by construction: disjoint half-open dyadic cubes;
    r sum|I_k| <= |u|_{L^1(L^p_F)}; each w_k has zero spatial mean per
    (t, path); |v(., ., x)|_{L^p_F} <= 2^n r; v = u off the cubes.  Each
    w_k is zero off its cube and is held as its values on the cube.
    """
    if r <= 0:
        raise ValueError("level r must be positive")
    grid = u.grid
    density = lpf_norm_values(u.values, ensemble.timegrid.nodes(), p)
    cell = grid.cell_volume
    total = float(density.sum() * cell)
    global_avg = total / grid.L**grid.dim
    if global_avg >= r:
        raise LevelTooLowError(
            f"global average density {global_avg:.6g} >= r = {r:.6g}; "
            "raise the level r")

    # one pass per dyadic level: a block is bad when its parent is still
    # walked and its average reaches r; it is walked on while below r
    n, N = grid.dim, grid.N
    order = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    bad_cubes = []
    active = np.ones((1,) * n, dtype=bool)
    for j in range(1, N.bit_length()):
        s, k = N >> j, 1 << j  # block size, blocks per axis
        # each block's cells made contiguous, so they are summed in the
        # order of density[block].sum()
        blocks = density.reshape((k, s) * n).transpose(order)
        avg = blocks.reshape((k,) * n + (-1,)).sum(axis=-1) * cell \
            / (s * grid.dx) ** n
        active = active[np.ix_(*[np.arange(k) // 2] * n)]  # the parent's
        hit = avg >= r
        bad_cubes += [DyadicCube(tuple(int(i) * s for i in idx), s)
                      for idx in np.argwhere(active & hit)]
        active &= ~hit

    v = u.values.copy()
    bad = []
    for cube in sorted(bad_cubes, key=lambda c: (c.origin, c.size)):
        sl = (slice(None), slice(None)) + cube.slices()
        axes = tuple(range(2, 2 + grid.dim))
        mean = u.values[sl].mean(axis=axes, keepdims=True)
        bad.append((cube, u.values[sl] - mean))
        v[sl] = np.broadcast_to(mean, u.values[sl].shape)
    good = Field(grid, v)
    return CZDecomposition(good, bad, float(r), p, total)
