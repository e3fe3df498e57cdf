"""Quantization: operator application, adjoints, transposes, symbol
extraction."""

import math
import warnings

import numpy as np
import pytest
import sympy as sp

from spdo import quantize
from spdo.grid import (Grid, SpectralField, TimeGrid, l2_norm, plane_wave,
                       random_band_limited)
from spdo.quantize import (
    RegularizationWarning,
    SampledField,
    apply_adjoint,
    apply_amplitude_op,
    apply_symbol_ensemble,
    apply_symbol_op,
    apply_transpose,
    extract_symbol,
    smooth_chi,
)
from spdo.stochastic import sample_brownian
from spdo.symbols import (amplitude_from_expr, constant_symbol, symbol_from_expr, _T, _W,
                          _X, _XI, _Y)

G = Grid(1, 64)


def test_derivative_of_resolved_mode():
    # a(xi) = i xi quantizes to d/dx: sin(kx) -> k cos(kx)
    a = symbol_from_expr(sp.I * _XI[0], 1, order=1)
    k = 5
    u = SpectralField(G, np.sin(k * G.points()[..., 0]))
    got = apply_symbol_op(a, u)
    expect = k * np.cos(k * G.points()[..., 0])
    assert np.abs(got.values - expect).max() < 1e-10


def test_identity_symbol():
    u = random_band_limited(G, np.random.default_rng(0))
    got = apply_symbol_op(constant_symbol(1.0), u)
    assert np.abs(got.values - u.values).max() < 1e-12


def test_bessel_multiplier_on_single_mode():
    a = symbol_from_expr(sp.sqrt(1 + _XI[0] ** 2), 1, order=1)
    u = plane_wave(G, 3)
    got = apply_symbol_op(a, u)
    assert np.abs(got.values - math.sqrt(10.0) * u.values).max() < 1e-10


def test_x_dependent_multiplication():
    # order-0 symbol c(x) quantizes to multiplication by c
    a = symbol_from_expr(sp.sin(_X[0]), 1, order=0)
    u = random_band_limited(G, np.random.default_rng(1))
    got = apply_symbol_op(a, u)
    expect = np.sin(G.points()[..., 0]) * u.values
    assert np.abs(got.values - expect).max() < 1e-10


def test_amplitude_reduces_to_symbol():
    amp = amplitude_from_expr(sp.sin(_X[0]) * _XI[0], 1, order=1)
    a = symbol_from_expr(sp.sin(_X[0]) * _XI[0], 1, order=1)
    u = random_band_limited(G, np.random.default_rng(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RegularizationWarning)
        got = apply_amplitude_op(amp, u).result
    ref = apply_symbol_op(a, u)
    assert np.abs(got.values - ref.values).max() < 1e-10 * max(1.0, np.abs(ref.values).max())


def test_amplitude_y_xi_leibniz():
    # a(x, y, xi) = y xi quantizes to D(x u) = x D u - i u
    amp = amplitude_from_expr(_Y[0] * _XI[0], 1, order=1)
    u = random_band_limited(G, np.random.default_rng(3))
    got = apply_amplitude_op(amp, u).result
    d = symbol_from_expr(_XI[0], 1, order=1)
    du = apply_symbol_op(d, u)
    x = G.points()[..., 0]
    # D(x u) on the periodic grid: compare through the spectral derivative of
    # the band-limited product (x is sawtooth-periodic; stay on inner modes)
    xu = SpectralField(G, x * u.values)
    ref = apply_symbol_op(d, xu)
    err = np.abs(got.values - ref.values)
    # the wrap discontinuity of x pollutes the top modes; compare in the bulk
    interior = slice(8, 56)
    assert err[interior].max() < 5e-2 * max(1.0, np.abs(ref.values).max())


def test_adjoint_self_adjoint_multiplication():
    a = symbol_from_expr(2 + sp.cos(_X[0]), 1, order=0)
    u = random_band_limited(G, np.random.default_rng(4))
    got = apply_adjoint(a, u)
    ref = apply_symbol_op(a, u)
    assert np.abs(got.values - ref.values).max() < 1e-10


def test_transpose_of_derivative_is_minus():
    a = symbol_from_expr(_XI[0], 1, order=1)
    u = random_band_limited(G, np.random.default_rng(5))
    got = apply_transpose(a, u)
    ref = apply_symbol_op(a, u)
    assert np.abs(got.values + ref.values).max() < 1e-10


def test_adjoint_inner_product_identity():
    rng = np.random.default_rng(6)
    a = symbol_from_expr(sp.sin(_X[0]) * _XI[0] / sp.sqrt(1 + _XI[0] ** 2),
                         1, order=0)
    for _ in range(20):
        u = random_band_limited(G, rng)
        v = random_band_limited(G, rng)
        Au = apply_symbol_op(a, u)
        Asv = apply_adjoint(a, v)
        lhs = np.sum(Au.values * np.conj(v.values)) * G.cell_volume
        rhs = np.sum(u.values * np.conj(Asv.values)) * G.cell_volume
        assert abs(lhs - rhs) <= 1e-8 * l2_norm(u) * l2_norm(v)


def test_transpose_bilinear_identity():
    rng = np.random.default_rng(7)
    a = symbol_from_expr(sp.cos(_X[0]) * _XI[0], 1, order=1)
    for _ in range(5):
        u = random_band_limited(G, rng)
        v = random_band_limited(G, rng)
        Au = apply_symbol_op(a, u)
        Atv = apply_transpose(a, v)
        lhs = np.sum(Au.values * v.values) * G.cell_volume
        rhs = np.sum(u.values * Atv.values) * G.cell_volume
        assert abs(lhs - rhs) <= 1e-8 * l2_norm(u) * l2_norm(v)


# -- batched core ------------------------------------------------------------

BATCH_SYMBOLS = {
    "multiplier-w": ((1 + sp.sin(_W) / 2) * _XI[0] / sp.sqrt(1 + _XI[0] ** 2), 0),
    "multiplier-t": ((1 + _T) * _XI[0] ** 2, 2),
    "dense-w": ((2 + sp.sin(_X[0]) + sp.sin(_W) / 10) * _XI[0] ** 2, 2),
    "dense-t": (sp.cos(_X[0]) * _T * _XI[0] + 1, 1),
}


def _per_node_reference(a, grid, values, nodes, paths):
    """The Kohn-Nirenberg sum evaluated node by node, straight from its
    definition."""
    xs = grid.points().reshape(-1, grid.dim)
    xis = grid.freqs().reshape(-1, grid.dim)
    phase = np.exp(1j * (xs @ xis.T))
    out = np.empty_like(values)
    for m in range(values.shape[0]):
        for j in range(values.shape[1]):
            uhat = np.fft.fftn(values[m, j]).reshape(-1) * grid.cell_volume
            sym = a(nodes[j], paths[m, j], xs[:, None, :], xis[None, :, :])
            out[m, j] = ((sym * phase) @ uhat).reshape(grid.shape) \
                * grid.freq_cell_volume
    return out


@pytest.mark.parametrize("name", sorted(BATCH_SYMBOLS))
@pytest.mark.parametrize("dim,N", [(1, 32), (2, 8)])
@pytest.mark.parametrize("nodes_per_chunk", [None, 3, 0.2])
def test_batched_core_matches_per_node_loop(monkeypatch, name, dim, N,
                                            nodes_per_chunk):
    # 2 paths x 5 nodes = 10 nodes: chunks of 3 leave a remainder of 1, and
    # a fifth of a node splits the dense sum into row blocks
    expr, order = BATCH_SYMBOLS[name]
    a = symbol_from_expr(expr, dim, order=order)
    assert a.x_independent == name.startswith("multiplier")
    grid = Grid(dim, N)
    if nodes_per_chunk is not None:
        npts = N**dim
        per_node = 16 * (npts if a.x_independent else npts * npts)
        monkeypatch.setattr(quantize, "_CHUNK_BYTES",
                            int(nodes_per_chunk * per_node))
    ens = sample_brownian(2, TimeGrid(0.5, 4), seed=4)
    rng = np.random.default_rng(5)
    values = np.stack([[random_band_limited(grid, rng).values
                        for _ in range(5)] for _ in range(2)])
    u = SampledField(grid, ens.timegrid, values)
    got = apply_symbol_ensemble(a, u, ens).values
    ref = _per_node_reference(a, grid, values, ens.timegrid.nodes(), ens.paths)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_single_field_is_a_batch_of_one():
    a = symbol_from_expr(BATCH_SYMBOLS["dense-w"][0], 1, order=2)
    u = random_band_limited(G, np.random.default_rng(8))
    one = apply_symbol_op(a, u, 0.25, 0.7)
    batch = apply_symbol_op(a, SpectralField(G, u.values[None]), [0.25], [0.7])
    assert one.values.shape == G.shape
    assert np.array_equal(batch.values[0], one.values)


# -- extraction --------------------------------------------------------------

def test_extract_symbol_x_independent():
    a = symbol_from_expr(_XI[0] / sp.sqrt(1 + _XI[0] ** 2), 1, order=0)
    for k in (-7, 0, 3, 12):
        xi0 = 2.0 * np.pi * k / G.L
        got = extract_symbol(a, G, k)
        expect = xi0 / math.sqrt(1 + xi0**2)
        assert np.abs(got - expect).max() < 1e-10


def test_extract_symbol_x_dependent():
    a = symbol_from_expr(sp.sin(_X[0]) * _XI[0], 1, order=1)
    k = 4
    got = extract_symbol(a, G, k)
    expect = np.sin(G.points()[..., 0]) * (2.0 * np.pi * k / G.L)
    assert np.abs(got - expect).max() < 1e-9


def test_smooth_chi_profile():
    s = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    v = smooth_chi(s)
    assert v[0] == 1.0 and v[1] == 1.0
    assert v[-1] == 0.0
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert np.all(np.diff(v) <= 1e-12)
