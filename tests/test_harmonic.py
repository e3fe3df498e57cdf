"""Calderon-Zygmund decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdo.grid import Grid, TimeGrid
from spdo.harmonic import LevelTooLowError, cz_decompose
from spdo.quantize import SampledField
from spdo.stochastic import sample_brownian


# -- Calderon-Zygmund --------------------------------------------------------

def _random_field(grid, ens, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    from spdo.bounds import random_adapted_field
    u = random_adapted_field(grid, ens, rng)
    u.values *= scale
    return u


def _check_all_properties(u, dec, grid):
    n = grid.dim
    r = dec.level
    cell = grid.cell_volume
    # 1: reconstruction u = v + sum w_k
    total = dec.good.values.copy()
    for _, w in dec.bad:
        total = total + w.values
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
        means = np.abs(w.values.sum(axis=axes)) * cell
        l1 = np.abs(w.values).sum(axis=axes) * cell
        assert np.all(means <= 1e-12 * np.maximum(l1, 1e-30))

    # 5: good part density bounded by 2^n r
    from spdo.harmonic import _site_density
    dens = _site_density(dec.good, dec.exponent)
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
        cz_decompose(u, 1e-9)


def test_cz_high_level_trivial():
    g = Grid(1, 32)
    ens = sample_brownian(4, TimeGrid(0.5, 16), seed=0)
    u = _random_field(g, ens, 1)
    dec = cz_decompose(u, 1e9)
    assert dec.bad == []
    assert np.array_equal(dec.good.values, u.values)


def test_cz_deterministic_tall_bump():
    g = Grid(1, 64)
    tg = TimeGrid(0.5, 8)
    ens = sample_brownian(2, tg, seed=1)
    x = g.points()[..., 0]
    bump = 10.0 * np.exp(-((x - np.pi) ** 2) * 8.0) + 0.05
    vals = np.broadcast_to(bump, (2, 9) + g.shape).astype(np.complex128).copy()
    u = SampledField(g, tg, vals)
    from spdo.harmonic import _site_density
    avg = float(_site_density(u, 2.0).mean())
    dec = cz_decompose(u, 4.0 * avg)
    assert len(dec.bad) >= 1
    _check_all_properties(u, dec, g)


def test_cz_properties_random_draws():
    for n, N, seed in [(1, 64, 2), (1, 64, 3), (2, 16, 4), (2, 16, 5)]:
        g = Grid(n, N)
        ens = sample_brownian(3, TimeGrid(0.5, 8), seed=seed)
        u = _random_field(g, ens, seed)
        from spdo.harmonic import _site_density
        avg = float(_site_density(u, 2.0).mean())
        dec = cz_decompose(u, 3.0 * avg)
        _check_all_properties(u, dec, g)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=2.0, max_value=8.0))
def test_cz_zero_mean_property(seed, factor):
    g = Grid(1, 32)
    ens = sample_brownian(2, TimeGrid(0.5, 8), seed=seed % 97)
    u = _random_field(g, ens, seed)
    from spdo.harmonic import _site_density
    avg = float(_site_density(u, 2.0).mean())
    try:
        dec = cz_decompose(u, factor * avg)
    except LevelTooLowError:
        return
    cell = g.cell_volume
    for _, w in dec.bad:
        means = np.abs(w.values.sum(axis=2)) * cell
        l1 = np.abs(w.values).sum(axis=2) * cell
        assert np.all(means <= 1e-12 * np.maximum(l1, 1e-30))
