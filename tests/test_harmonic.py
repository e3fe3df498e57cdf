"""Calderon-Zygmund decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdo.grid import Field, Grid, TimeGrid
from spdo.harmonic import LevelTooLowError, cz_decompose
from spdo.stochastic import lpf_norm_values, sample_brownian


# -- Calderon-Zygmund --------------------------------------------------------

def _random_field(grid, ens, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    from spdo.bounds import random_adapted_field
    u = random_adapted_field(grid, ens, rng)
    u.values *= scale
    return u


def _check_all_properties(u, ens, dec, grid):
    n = grid.dim
    r = dec.level
    cell = grid.cell_volume
    # 1: reconstruction u = v + sum w_k, each w_k held on its cube
    total = dec.good.values.copy()
    for c, w in dec.bad:
        total[(..., *c.slices())] += w
    assert np.abs(total - u.values).max() < 1e-12

    # 2: cubes disjoint
    mask = np.zeros(grid.shape, dtype=int)
    for c, _ in dec.bad:
        mask[c.slices()] += 1
    assert mask.max() <= 1

    # 3: measure bound r sum |I_k| <= |u|_{L1(LpF)}
    assert r * dec.cube_measure() <= dec.u_l1_lpf + 1e-12

    # 4: each w_k has zero spatial mean per (path, time)
    for _, w in dec.bad:
        axes = tuple(range(2, 2 + n))
        means = np.abs(w.sum(axis=axes)) * cell
        l1 = np.abs(w).sum(axis=axes) * cell
        assert np.all(means <= 1e-12 * np.maximum(l1, 1e-30))

    # 5: good part density bounded by 2^n r
    dens = lpf_norm_values(dec.good.values, ens.timegrid.nodes(),
                           dec.exponent)
    assert dens.max() <= 2**n * r + 1e-9 * r

    # 6: v = u outside the cubes
    outside = mask == 0
    if outside.any():
        diff = np.abs(dec.good.values - u.values)[:, :, outside]
        assert diff.max() < 1e-12


def test_cz_level_too_low():
    g = Grid(1, 32)
    ens = sample_brownian(4, TimeGrid(0.5, 16), seed=0)
    u = _random_field(g, ens, 0)
    with pytest.raises(LevelTooLowError):
        cz_decompose(u, ens, 1e-9)


def test_cz_high_level_trivial():
    g = Grid(1, 32)
    ens = sample_brownian(4, TimeGrid(0.5, 16), seed=0)
    u = _random_field(g, ens, 1)
    dec = cz_decompose(u, ens, 1e9)
    assert dec.bad == []
    assert np.array_equal(dec.good.values, u.values)


def test_cz_deterministic_tall_bump():
    g = Grid(1, 64)
    tg = TimeGrid(0.5, 8)
    ens = sample_brownian(2, tg, seed=1)
    x = g.points()[..., 0]
    bump = 10.0 * np.exp(-((x - np.pi) ** 2) * 8.0) + 0.05
    vals = np.broadcast_to(bump, (2, 9) + g.shape).astype(np.complex128).copy()
    u = Field(g, vals)
    avg = float(lpf_norm_values(u.values, tg.nodes(), 2.0).mean())
    dec = cz_decompose(u, ens, 4.0 * avg)
    assert len(dec.bad) >= 1
    _check_all_properties(u, ens, dec, g)


def test_cz_properties_random_draws():
    for n, N, seed in [(1, 64, 2), (1, 64, 3), (2, 16, 4), (2, 16, 5)]:
        g = Grid(n, N)
        ens = sample_brownian(3, TimeGrid(0.5, 8), seed=seed)
        u = _random_field(g, ens, seed)
        avg = float(lpf_norm_values(u.values, ens.timegrid.nodes(),
                                    2.0).mean())
        dec = cz_decompose(u, ens, 3.0 * avg)
        _check_all_properties(u, ens, dec, g)


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16), (3, 8)])
def test_cz_bad_parts_are_held_on_their_cubes(n, N):
    g = Grid(n, N)
    ens = sample_brownian(3, TimeGrid(0.5, 8), seed=n)
    u = _random_field(g, ens, N)
    u.values *= np.exp(1.5 * np.random.default_rng(n).standard_normal(g.shape))
    avg = float(lpf_norm_values(u.values, ens.timegrid.nodes(), 2.0).mean())
    dec = cz_decompose(u, ens, 2.0 * avg)
    assert len(dec.bad) >= 2
    total = dec.good.values.copy()
    for c, w in dec.bad:
        assert w.shape == (3, 9) + (c.size,) * n
        total[(..., *c.slices())] += w
    assert np.abs(total - u.values).max() <= 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=2.0, max_value=8.0))
def test_cz_zero_mean_property(seed, factor):
    g = Grid(1, 32)
    ens = sample_brownian(2, TimeGrid(0.5, 8), seed=seed % 97)
    u = _random_field(g, ens, seed)
    avg = float(lpf_norm_values(u.values, ens.timegrid.nodes(), 2.0).mean())
    try:
        dec = cz_decompose(u, ens, factor * avg)
    except LevelTooLowError:
        return
    cell = g.cell_volume
    for _, w in dec.bad:
        means = np.abs(w.sum(axis=2)) * cell
        l1 = np.abs(w).sum(axis=2) * cell
        assert np.all(means <= 1e-12 * np.maximum(l1, 1e-30))


def _cube_average(density, grid, origin, size):
    sl = tuple(slice(o, o + size) for o in origin)
    return float(density[sl].sum() * grid.cell_volume) \
        / (size * grid.dx) ** grid.dim


def _stack_walk(density, grid, r):
    """The cube-at-a-time walk that the level-synchronous one replaced: a
    cube whose average reaches r is bad, a smaller one is split further."""
    bad = []
    stack = [((0,) * grid.dim, grid.N)]
    while stack:
        origin, size = stack.pop(0)
        half = size // 2
        for bits in range(2**grid.dim):
            child = tuple(o + ((bits >> a) & 1) * half
                          for a, o in enumerate(origin))
            if _cube_average(density, grid, child, half) >= r:
                bad.append((child, half))
            elif half > 1:
                stack.append((child, half))
    return sorted(bad)


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16), (2, 32), (3, 8)])
def test_cz_walk_matches_cube_at_a_time_walk(n, N):
    g = Grid(n, N)
    ens = sample_brownian(3, TimeGrid(0.5, 8), seed=n)
    u = _random_field(g, ens, N)
    # heavy-tailed site weights give bad cubes at every level
    rng = np.random.default_rng(N + n)
    u.values *= np.exp(1.5 * rng.standard_normal(g.shape))
    density = lpf_norm_values(u.values, ens.timegrid.nodes(), 2.0)
    # levels equal to a cube's exact average: the largest top-level cube,
    # and the densest single cell, whose ancestors all average below it
    top = max(((tuple(i * N // 2 for i in o), N // 2)
               for o in np.ndindex(*(2,) * n)),
              key=lambda c: _cube_average(density, g, *c))
    peak = (tuple(int(i) for i in np.unravel_index(np.argmax(density),
                                                  g.shape)), 1)
    ties = [(_cube_average(density, g, *c), c) for c in (top, peak)]
    ties += [(r, None) for r in np.mean(density) * np.array([1.5, 2.5, 4, 7])]
    for r, tied in ties:
        expected = _stack_walk(density, g, r)
        got = [(c.origin, c.size) for c, _ in cz_decompose(u, ens, r).bad]
        assert got == expected
        assert expected and (tied is None or tied in expected)
