"""Brownian path ensembles and Monte Carlo mixed norms.

The driving noise is a single scalar Brownian motion.  An ensemble stores M
sampled paths on a uniform time grid; expectation is the equal-weight path
average.  The L^p_F(0,T) norm of an adapted scalar process is the path mean
of the trapezoidal time integral of |X|^p, raised to 1/p (the raw E-integral
is also available).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid

__all__ = [
    "BrownianEnsemble",
    "sample_brownian",
    "lpf_norm",
    "lpf_norm_values",
    "lpf_integral_values",
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

    def to_csv(self, path: str) -> None:
        nodes = self.timegrid.nodes()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["path"] + [f"t={t:.12g}" for t in nodes])
            for m in range(self.M):
                w.writerow([m] + [f"{v:.17g}" for v in self.paths[m]])


def sample_brownian(M: int, tg: TimeGrid, seed: int = 0) -> BrownianEnsemble:
    """M paths with W(0) = 0 and independent N(0, dt) increments."""
    if M < 1:
        raise ValueError("M must be >= 1")
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal((M, tg.K)) * math.sqrt(tg.dt)
    paths = np.zeros((M, tg.K + 1))
    np.cumsum(inc, axis=1, out=paths[:, 1:])
    return BrownianEnsemble(paths, int(seed), tg)


def lpf_integral_values(values: np.ndarray, nodes: np.ndarray, p: float) -> float:
    """Raw E integral_0^T |X|^p dt by trapezoid in t, mean over paths."""
    values = np.abs(np.asarray(values, dtype=np.complex128))
    integ = np.trapezoid(values**p, nodes, axis=1)
    return float(np.mean(integ.real))


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


def lpf_norm(process, ensemble: BrownianEnsemble, p: float) -> float:
    """Monte Carlo L^p_F(0,T) norm of an adapted scalar process.

    `process` is either a (M, K+1) array of samples X_m(t_j), or a callable
    (t, w) -> X evaluated once on the nodes (K+1,) and the path values
    (M, K+1); like a symbol evaluator, it must broadcast them.
    """
    nodes = ensemble.timegrid.nodes()
    if callable(process):
        vals = np.broadcast_to(process(nodes, ensemble.paths),
                               ensemble.paths.shape)
    else:
        vals = np.asarray(process)
        if vals.shape != (ensemble.M, len(nodes)):
            raise ValueError("process samples must have shape (M, K+1)")
    return lpf_norm_values(vals, nodes, p)


def adaptedness_audit(generate, ensemble: BrownianEnsemble, j: int) -> bool:
    """True iff the field `generate(ensemble)`, an array with leading
    (path, time) axes, is bitwise unchanged at the nodes <= j when it is
    regenerated from the paths truncated after j (future values poisoned
    with NaN)."""
    full = np.asarray(generate(ensemble))
    trial = np.asarray(generate(ensemble.truncated(j)))
    return np.array_equal(full[:, : j + 1], trial[:, : j + 1])
