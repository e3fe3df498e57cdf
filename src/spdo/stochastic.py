"""Brownian path ensembles and Monte Carlo mixed norms.

The driving noise is a single scalar Brownian motion.  An ensemble stores M
sampled paths on a uniform time grid; expectation is the equal-weight path
average.  The L^p_F(0,T) norm of an adapted scalar process is the path mean
of the trapezoidal time integral of |X|^p, raised to 1/p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _BLOCK_BYTES
from .grid import TimeGrid

__all__ = [
    "BrownianEnsemble",
    "sample_brownian",
    "brownian_slices",
    "path_slices",
    "lpf_norm_values",
    "adaptedness_audit",
]


@dataclass(frozen=True)
class BrownianEnsemble:
    """M Brownian paths W_m(t_j) on a TimeGrid, reproducible from the seed."""

    paths: np.ndarray  # (M, K+1)
    seed: int
    timegrid: TimeGrid

    def __post_init__(self):
        M, nodes = self.paths.shape
        if nodes != self.timegrid.K + 1:
            raise ValueError("path array does not match the time grid")
        if M < 1:
            raise ValueError("need at least one path")

    @property
    def M(self) -> int:
        return self.paths.shape[0]

    def truncated(self, j: int) -> "BrownianEnsemble":
        """Copy with all values after node j replaced by NaN."""
        p = self.paths.copy()
        p[:, j + 1:] = np.nan
        return BrownianEnsemble(p, self.seed, self.timegrid)


def sample_brownian(M: int, tg: TimeGrid, seed: int = 0) -> BrownianEnsemble:
    """M paths with W(0) = 0 and independent N(0, dt) increments: the
    slices of brownian_slices(M, tg, seed), written into one array."""
    parts = brownian_slices(M, tg, seed)
    paths = np.empty((M, tg.K + 1))
    s = 0
    for part in parts:
        paths[s:s + part.M] = part.paths
        s += part.M
    return BrownianEnsemble(paths, int(seed), tg)


def brownian_slices(M: int, tg: TimeGrid, seed: int = 0):
    """The paths of sample_brownian(M, tg, seed) as BrownianEnsembles over
    consecutive slices of rows, each drawn when it is reached: about
    _BLOCK_BYTES of increments and as many of paths.

    The increments come from one Generator, a slice of rows at a time, and
    each slice is scaled in place and summed into its paths.  Row-major
    draws in slices take the stream as one (M, K) draw does, so the paths
    are bit-equal to cumsum(standard_normal((M, K)) * sqrt(dt), axis=1)
    after a zero column.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    rng = np.random.default_rng(seed)
    rows = max(1, _BLOCK_BYTES // (8 * tg.K))

    def draw(n):
        paths = np.zeros((n, tg.K + 1))
        inc = rng.standard_normal((n, tg.K))
        inc *= math.sqrt(tg.dt)
        np.cumsum(inc, axis=1, out=paths[:, 1:])
        return BrownianEnsemble(paths, int(seed), tg)

    return (draw(min(rows, M - s)) for s in range(0, M, rows))


def path_slices(ensemble: BrownianEnsemble, path_bytes: int):
    """Sub-ensembles over consecutive rows of ensemble.paths, with its seed
    and time grid, each of about _BLOCK_BYTES for path_bytes bytes of work
    per path (at least one path per slice): a command that only reduces
    over the paths runs one slice at a time."""
    step = max(1, _BLOCK_BYTES // path_bytes)
    for s in range(0, ensemble.M, step):
        yield BrownianEnsemble(ensemble.paths[s:s + step], ensemble.seed,
                               ensemble.timegrid)


def lpf_norm_values(values: np.ndarray, nodes: np.ndarray, p: float):
    """L^p_F(0,T) norm of (path, time) samples, over the first two axes.

    A float for an (M, K+1) array; for (M, K+1) + site axes, the array of
    per-site norms over the site axes.
    """
    values = np.abs(np.asarray(values, dtype=np.complex128))
    sites = values.shape[2:]
    # one contiguous (M, K+1) table per site: its time sum and path mean
    # then add in the same order as for a single table
    tables = np.ascontiguousarray(
        np.moveaxis(values.reshape(values.shape[:2] + (-1,)), -1, 0))
    if math.isinf(p):
        norms = tables.max(axis=(1, 2))
    else:
        means = np.mean(np.trapezoid(tables**p, nodes, axis=-1), axis=-1)
        if not sites:
            # the scalar root; numpy's vectorized one may differ in the last bit
            return float(means[0] ** (1.0 / p))
        norms = means ** (1.0 / p)
    return norms.reshape(sites) if sites else float(norms[0])


def adaptedness_audit(generate, ensemble: BrownianEnsemble, j: int) -> bool:
    """True iff the field `generate(ensemble)`, an array with leading
    (path, time) axes, is bitwise unchanged at the nodes <= j when it is
    regenerated from the paths truncated after j (future values poisoned
    with NaN)."""
    full = np.asarray(generate(ensemble))
    trial = np.asarray(generate(ensemble.truncated(j)))
    return np.array_equal(full[:, : j + 1], trial[:, : j + 1])
