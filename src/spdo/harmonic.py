"""The stochastic Calderon-Zygmund decomposition, and the smooth step that
the cutoffs of the other modules are built from.

The CZ decomposition runs the dyadic stopping-time walk on the per-site
L^p_F(0,T) density: cubes split in half per axis (lexicographic order,
half-open, lattice-aligned) until the cube average of the density exceeds
the level r, at which point the cube is frozen as a bad cube.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .quantize import SampledField
from .stochastic import lpf_norm_values

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

    def children(self):
        half = self.size // 2
        dim = len(self.origin)
        out = []
        for bits in range(2**dim):
            off = tuple(self.origin[a] + ((bits >> a) & 1) * half
                        for a in range(dim))
            out.append(DyadicCube(off, half))
        return sorted(out, key=lambda c: c.origin)

    def to_dict(self) -> dict:
        return {"origin": list(self.origin), "size": self.size}


@dataclass
class CZDecomposition:
    good: SampledField  # v
    bad: list  # [(DyadicCube, SampledField w_k)]
    level: float
    exponent: float
    u_l1_lpf: float  # |u|_{L^1(R^n; L^p_F)}

    def cube_measure(self) -> float:
        g = self.good.grid
        return sum(c.volume(g) for c, _ in self.bad)

    def to_json(self) -> str:
        return json.dumps({
            "level": self.level,
            "exponent": ("inf" if math.isinf(self.exponent) else self.exponent),
            "u_l1_lpf": self.u_l1_lpf,
            "cubes": [c.to_dict() for c, _ in self.bad],
        }, indent=2, sort_keys=True)


def _site_density(u: SampledField, p: float) -> np.ndarray:
    """|u(., ., x)|_{L^p_F} per lattice site, shape grid.shape."""
    return lpf_norm_values(u.values, u.timegrid.nodes(), p)


def cz_decompose(u: SampledField, r: float, p: float = 2.0) -> CZDecomposition:
    """Calderon-Zygmund decomposition u = v + sum_k w_k at level r.

    Guarantees, by construction: disjoint half-open dyadic cubes;
    r sum|I_k| <= |u|_{L^1(L^p_F)}; each w_k has zero spatial mean per
    (t, path); |v(., ., x)|_{L^p_F} <= 2^n r; v = u off the cubes.
    """
    if r <= 0:
        raise ValueError("level r must be positive")
    grid = u.grid
    density = _site_density(u, p)
    cell = grid.cell_volume
    total = float(density.sum() * cell)
    global_avg = total / grid.L**grid.dim
    if global_avg >= r:
        raise LevelTooLowError(
            f"global average density {global_avg:.6g} >= r = {r:.6g}; "
            "raise the level r")

    bad_cubes = []
    stack = [DyadicCube((0,) * grid.dim, grid.N)]
    while stack:
        cube = stack.pop(0)
        if cube.size == 1:
            d = float(density[tuple(cube.origin)])
            if d >= r:
                bad_cubes.append(cube)
            continue
        for child in cube.children():
            avg = float(density[child.slices()].sum() * cell) / child.volume(grid)
            if avg >= r:
                bad_cubes.append(child)
            else:
                if child.size > 1:
                    stack.append(child)
                # single cell below level stays good

    v = u.values.copy()
    bad = []
    for cube in sorted(bad_cubes, key=lambda c: (c.origin, c.size)):
        sl = (slice(None), slice(None)) + cube.slices()
        axes = tuple(range(2, 2 + grid.dim))
        mean = u.values[sl].mean(axis=axes, keepdims=True)
        w = np.zeros_like(u.values)
        w[sl] = u.values[sl] - mean
        v[sl] = np.broadcast_to(mean, u.values[sl].shape)
        bad.append((cube, SampledField(grid, u.timegrid, w)))
    good = SampledField(grid, u.timegrid, v)
    return CZDecomposition(good, bad, float(r), p, total)
