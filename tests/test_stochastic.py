"""Brownian ensembles, adaptedness, and Monte Carlo L^p_F norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdo import stochastic
from spdo.grid import TimeGrid
from spdo.stochastic import (
    adaptedness_audit,
    brownian_slices,
    lpf_norm_values,
    path_slices,
    sample_brownian,
)

TG = TimeGrid(1.0, 64)


def test_paths_start_at_zero():
    ens = sample_brownian(16, TG, seed=3)
    assert np.all(ens.paths[:, 0] == 0.0)


def test_path_slices_cover_the_paths_in_order(monkeypatch):
    ens = sample_brownian(5, TG, seed=3)
    monkeypatch.setattr(stochastic, "_BLOCK_BYTES", 2500)
    assert [p.M for p in path_slices(ens, 1000)] == [2, 2, 1]
    # a path past the budget still makes a slice
    parts = list(path_slices(ens, 3000))
    assert [p.M for p in parts] == [1] * 5
    assert np.array_equal(np.concatenate([p.paths for p in parts]), ens.paths)
    assert all(p.seed == ens.seed and p.timegrid == ens.timegrid
               for p in parts)


def _one_shot_brownian(M, tg, seed):
    """The paths as one (M, K) draw makes them: the reference."""
    inc = np.random.default_rng(seed).standard_normal((M, tg.K)) \
        * math.sqrt(tg.dt)
    paths = np.zeros((M, tg.K + 1))
    np.cumsum(inc, axis=1, out=paths[:, 1:])
    return paths


@pytest.mark.parametrize("M, K", [(1, 64), (7, 64), (10, 2), (1, 2),
                                  (250, 7)])
def test_sliced_draws_equal_one_draw(monkeypatch, M, K):
    # 3 rows of 64 steps per slice: 7 paths make slices of 3, 3 and 1; the
    # draw slices are the rows that sample_brownian writes
    monkeypatch.setattr(stochastic, "_BLOCK_BYTES", 3 * 8 * 64)
    tg = TimeGrid(0.7, K)
    ens = sample_brownian(M, tg, seed=11)
    assert np.array_equal(ens.paths, _one_shot_brownian(M, tg, 11))
    parts = list(brownian_slices(M, tg, seed=11))
    rows = 3 * 64 // K
    assert [p.M for p in parts] == [min(rows, M - s)
                                    for s in range(0, M, rows)]
    assert all(p.seed == 11 and p.timegrid == tg for p in parts)
    assert np.array_equal(np.concatenate([p.paths for p in parts]),
                          ens.paths)


def test_draw_slices_reject_no_paths_before_drawing():
    # the check is made at the call, not at the first slice
    with pytest.raises(ValueError, match="M must be >= 1"):
        brownian_slices(0, TG, seed=1)


def test_default_slices_equal_one_draw():
    # 10,000 x 200: about 650 rows per slice, and a shorter last slice
    tg = TimeGrid(1.0, 200)
    ens = sample_brownian(10_000, tg, seed=5)
    assert np.array_equal(ens.paths, _one_shot_brownian(10_000, tg, 5))


def test_terminal_variance():
    ens = sample_brownian(10_000, TG, seed=5)
    var = float(np.var(ens.paths[:, -1]))
    assert abs(var - TG.T) < 0.05 * TG.T


def test_increment_statistics():
    ens = sample_brownian(5000, TG, seed=7)
    inc = np.diff(ens.paths, axis=1)
    assert abs(float(inc.mean())) < 3.0 / math.sqrt(5000 * TG.K) + 1e-3
    assert abs(float(inc.var()) - TG.dt) < 0.05 * TG.dt


def test_seed_determinism():
    a = sample_brownian(8, TG, seed=42)
    b = sample_brownian(8, TG, seed=42)
    assert np.array_equal(a.paths, b.paths)
    c = sample_brownian(8, TG, seed=43)
    assert not np.array_equal(a.paths, c.paths)


def test_truncation():
    ens = sample_brownian(4, TG, seed=0)
    trunc = ens.truncated(10)
    assert np.array_equal(trunc.paths[:, : 11], ens.paths[:, : 11])
    assert np.all(np.isnan(trunc.paths[:, 11:]))


def test_lpf_constant_process():
    ens = sample_brownian(6, TG, seed=1)
    vals = np.full((6, TG.K + 1), 3.0)
    # E int c^2 dt = c^2 T exactly under the trapezoid rule
    assert abs(lpf_norm_values(vals, TG.nodes(), 2.0) ** 2 - 9.0 * TG.T) < 1e-12
    assert abs(lpf_norm_values(vals, TG.nodes(), 2.0) - 3.0 * math.sqrt(TG.T)) < 1e-12
    assert lpf_norm_values(vals, TG.nodes(), math.inf) == 3.0
    del ens


def test_lpf_brownian_oracles():
    # E int_0^T W^2 dt = T^2/2 and E int W^4 dt = T^3 (E W^4 = 3 t^2)
    ens = sample_brownian(10_000, TG, seed=2)
    nodes = TG.nodes()
    got2 = lpf_norm_values(ens.paths, nodes, 2.0) ** 2
    assert abs(got2 - TG.T**2 / 2.0) < 0.05 * TG.T**2 / 2.0
    got4 = lpf_norm_values(ens.paths, nodes, 4.0) ** 4
    assert abs(got4 - TG.T**3) < 0.08 * TG.T**3


def test_adaptedness_audit_passes_for_adapted():
    from spdo.bounds import random_adapted_field
    from spdo.cauchy import pinned_semimartingale
    from spdo.grid import Grid

    g = Grid(1, 16)
    ens = sample_brownian(4, TG, seed=11)
    for make in (random_adapted_field, pinned_semimartingale):
        for j in (0, 20, TG.K - 1):
            assert adaptedness_audit(
                lambda e: make(g, e, np.random.default_rng(5)).values, ens, j)


def test_adaptedness_audit_fails_on_future_peeking():
    ens = sample_brownian(4, TG, seed=11)
    # reads node j + 1: at node j it sees the poisoned future
    assert not adaptedness_audit(
        lambda e: np.sin(np.roll(e.paths, -1, axis=1)), ens, 20)
    assert adaptedness_audit(lambda e: np.sin(e.paths), ens, 20)


def test_adapted_field_ignores_future_path_values():
    # evaluating with paths truncated after node j reproduces all values at
    # nodes <= j bitwise and poisons everything after
    from spdo.bounds import random_adapted_field
    from spdo.grid import Grid

    g = Grid(1, 16)
    ens = sample_brownian(3, TimeGrid(0.5, 16), seed=4)
    j = 7
    u_full = random_adapted_field(g, ens, np.random.default_rng(0))
    u_trunc = random_adapted_field(g, ens.truncated(j), np.random.default_rng(0))
    assert np.array_equal(u_full.values[:, : j + 1], u_trunc.values[:, : j + 1])
    assert np.all(np.isnan(u_trunc.values[:, j + 1:].real))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4))
def test_lpf_monotone_in_p_when_sup_le_one(seed, scale):
    # Jensen: on the probability-normalized time interval, p -> norm is
    # monotone for processes with sup <= 1
    rng = np.random.default_rng(seed)
    tg = TimeGrid(1.0, 32)
    vals = rng.uniform(0.0, 1.0 / scale, (8, 33))
    n2 = lpf_norm_values(vals, tg.nodes(), 2.0)
    n4 = lpf_norm_values(vals, tg.nodes(), 4.0)
    assert n2 <= n4 + 1e-12
    assert n4 <= lpf_norm_values(vals, tg.nodes(), math.inf) + 1e-12


def test_lpf_norm_values_per_site_matches_tables():
    rng = np.random.default_rng(4)
    vals = (rng.standard_normal((6, TG.K + 1, 4, 3))
            + 1j * rng.standard_normal((6, TG.K + 1, 4, 3)))
    for p in (2.0, math.inf):
        got = lpf_norm_values(vals, TG.nodes(), p)
        assert got.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                ref = lpf_norm_values(vals[:, :, i, j], TG.nodes(), p)
                assert isinstance(ref, float)
                assert abs(got[i, j] - ref) <= 1e-15 * ref
