"""Quantization: operator application, adjoints, symbol extraction."""

import math
import warnings

import numpy as np
import pytest
import sympy as sp

from spdo import quantize
from spdo.grid import (Field, Grid, TimeGrid, l2_norm, plane_wave,
                       random_band_limited)
from spdo.quantize import (
    RegularizationWarning,
    apply_adjoint,
    apply_amplitude_op,
    apply_symbol_ensemble,
    apply_symbol_op,
    extract_symbol,
    smooth_chi,
)
from spdo.registry import make_symbol
from spdo.stochastic import sample_brownian
from spdo.symbols import (amplitude_from_expr, constant_symbol,
                          symbol_from_expr, _T, _W, _X, _XI, _Y)

G = Grid(1, 64)


def test_derivative_of_resolved_mode():
    # a(xi) = i xi quantizes to d/dx: sin(kx) -> k cos(kx)
    a = symbol_from_expr(sp.I * _XI[0], 1, order=1)
    k = 5
    u = Field(G, np.sin(k * G.points()[..., 0]))
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
    xu = Field(G, x * u.values)
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


# -- batched core ------------------------------------------------------------

# "dense-" names the x-dependent symbols: dense-w and dense-t separate, so a
# batch of nodes takes the separated path; dense-x-xi does not separate and
# keeps the dense sum
BATCH_SYMBOLS = {
    "multiplier-w": ((1 + sp.sin(_W) / 2) * _XI[0] / sp.sqrt(1 + _XI[0] ** 2), 0),
    "multiplier-t": ((1 + _T) * _XI[0] ** 2, 2),
    "dense-w": ((2 + sp.sin(_X[0]) + sp.sin(_W) / 10) * _XI[0] ** 2, 2),
    "dense-t": (sp.cos(_X[0]) * _T * _XI[0] + 1, 1),
    "dense-x-xi": ((1 + _T) * sp.sin(_X[0] * _XI[0]) + sp.cos(_W), 0),
}


def _node_bytes(a, grid):
    """The work bytes per node that apply_symbol_op sizes its chunks from,
    for a batch of more than one node."""
    npts = grid.N**grid.dim
    if a.x_independent:
        return 16 * npts
    if a.separated:
        return 16 * npts * (2 * a.separated[0] + 4)
    return 16 * npts * npts


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


def _batch(grid, seed=5):
    """2 paths x 5 nodes of random band-limited fields."""
    ens = sample_brownian(2, TimeGrid(0.5, 4), seed=4)
    rng = np.random.default_rng(seed)
    values = np.stack([[random_band_limited(grid, rng).values
                        for _ in range(5)] for _ in range(2)])
    return ens, Field(grid, values)


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
    assert (a.x_independent or a.separated is None) == (
        name != "dense-w" and name != "dense-t")
    grid = Grid(dim, N)
    if nodes_per_chunk is not None:
        monkeypatch.setattr(quantize, "_BLOCK_BYTES",
                            int(nodes_per_chunk * _node_bytes(a, grid)))
    ens, u = _batch(grid)
    got = apply_symbol_ensemble(a, u, ens).values
    ref = _per_node_reference(a, grid, u.values, ens.timegrid.nodes(),
                              ens.paths)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _separable_expr(dim):
    """Rank dim + 2: t in a c and in a g, w in a c and in a g."""
    x, xi = _X[0], _XI[0]
    e = ((1 + _T) * sp.sin(x) * xi ** 2
         + sp.cos(_W) * sp.cos(x) * sp.sqrt(1 + _W ** 2 * xi ** 2)
         + sp.sin(_T + x) * sp.exp(sp.I * _T * xi))
    return e + sum(sp.cos(_X[k]) * _XI[k] for k in range(1, dim))


@pytest.mark.parametrize("dim,N", [(1, 32), (2, 16)])
@pytest.mark.parametrize("nodes_per_chunk", [None, 3])
def test_separated_path_matches_per_node_loop(monkeypatch, dim, N,
                                              nodes_per_chunk):
    a = symbol_from_expr(_separable_expr(dim), dim, order=2)
    assert a.separated[0] == dim + 2
    grid = Grid(dim, N)
    if nodes_per_chunk is not None:  # chunks of 3, 3, 3 and 1 nodes
        monkeypatch.setattr(quantize, "_BLOCK_BYTES",
                            nodes_per_chunk * _node_bytes(a, grid))
    ens, u = _batch(grid, seed=6)
    got = apply_symbol_ensemble(a, u, ens).values
    ref = _per_node_reference(a, grid, u.values, ens.timegrid.nodes(),
                              ens.paths)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_separated_terms_free_of_t_and_w_are_evaluated_once(monkeypatch):
    # mixed-0 in chunks of 3 nodes: its terms are evaluated once for the 10
    # nodes, with the same bits as an evaluation per chunk
    a = make_symbol("mixed-0", 2)
    assert a.tw_independent
    rank, fn = a.separated
    calls = []
    a.__dict__["separated"] = (rank, lambda *args: calls.append(1) or fn(*args))
    grid = Grid(2, 16)
    monkeypatch.setattr(quantize, "_BLOCK_BYTES", 3 * _node_bytes(a, grid))
    ens, u = _batch(grid, seed=7)
    once = apply_symbol_ensemble(a, u, ens).values
    assert len(calls) == 1
    a.__dict__["tw_independent"] = False
    per_chunk = apply_symbol_ensemble(a, u, ens).values
    assert len(calls) == 1 + 4
    assert np.array_equal(once, per_chunk)


@pytest.mark.parametrize("name,N", [("multiplier-t", 32), ("dense-w", 256)])
def test_one_node_values_are_evaluated_once(monkeypatch, name, N):
    # 10 fields at one scalar node, 3 to a chunk: the multiplier, or the
    # separated terms above the dense cap, are evaluated once for all of
    # them, with the bits of each field applied alone
    a = symbol_from_expr(BATCH_SYMBOLS[name][0], 1, order=2)
    grid = Grid(1, N)
    _, u = _batch(grid, seed=6)
    alone = [apply_symbol_op(a, Field(grid, v), 0.25, 0.7).values
             for v in u.values.reshape((-1,) + grid.shape)]
    calls = []
    if a.x_independent:
        fn = a.fn
        a.__dict__["fn"] = lambda *args: calls.append(1) or fn(*args)
    else:
        rank, fn = a.separated
        a.__dict__["separated"] = (rank, lambda *args: calls.append(1)
                                   or fn(*args))
    monkeypatch.setattr(quantize, "_BLOCK_BYTES", 3 * _node_bytes(a, grid))
    got = apply_symbol_op(a, u, 0.25, 0.7).values
    assert len(calls) == 1
    assert np.array_equal(got.reshape(-1, N), np.stack(alone))


def test_separated_is_none_when_not_separable_or_too_many_terms():
    assert symbol_from_expr(sp.sin(_X[0] * _XI[0]), 1, order=0).separated \
        is None
    # separable, but the expansion would write out 814385 terms
    big = symbol_from_expr((_X[0] + _XI[0] + _T + _W + 1) ** 64, 1, order=64)
    assert big.separated is None


def test_separated_path_lifts_the_cap():
    # mixed-0 = cos(x1) |xi|^2 / (1 + |xi|^2) at N = 128 in 2-D, past the
    # dense cap of 64: the extraction identity e^{-ix.xi} A e^{ix.xi} gives
    # the closed form at every resolved mode of the two axes and the
    # diagonal, in one batched apply
    grid = Grid(2, 128)
    a = make_symbol("mixed-0", 2)
    ks = np.arange(-63, 64)
    zero = np.zeros_like(ks)
    modes = np.concatenate([np.stack(p, axis=-1) for p in
                            ((ks, zero), (zero, ks), (ks, ks))])
    xi = 2.0 * np.pi * modes / grid.L
    x = grid.points()
    waves = np.exp(1j * np.einsum("md,...d->m...", xi, x))
    got = apply_symbol_op(a, Field(grid, waves)).values / waves
    mag2 = np.sum(xi ** 2, axis=-1)[:, None, None]
    expect = np.cos(x[..., 0]) * mag2 / (1.0 + mag2)
    assert np.abs(got - expect).max() <= 1e-8
    with pytest.raises(ValueError, match="capped"):
        apply_symbol_op(symbol_from_expr(sp.sin(_X[0] * _XI[0]), 2, order=0),
                        Field(grid, waves[0]))


def test_single_field_is_a_batch_of_one():
    a = symbol_from_expr(BATCH_SYMBOLS["dense-w"][0], 1, order=2)
    u = random_band_limited(G, np.random.default_rng(8))
    one = apply_symbol_op(a, u, 0.25, 0.7)
    batch = apply_symbol_op(a, Field(G, u.values[None]), [0.25], [0.7])
    assert one.values.shape == G.shape
    assert np.array_equal(batch.values[0], one.values)


def test_single_field_inside_the_cap_stays_dense():
    # the separation pays back only over many nodes: one field, or a batch
    # of 20 at one scalar node, inside the cap keeps the dense sum, bit for
    # bit each field as if it came alone, and never separates the symbol;
    # the batch evaluates the symbol once, for its one block of rows
    rng = np.random.default_rng(9)
    for batch in ((), (20,)):
        a = symbol_from_expr(BATCH_SYMBOLS["dense-w"][0], 1, order=2)
        u = np.stack([random_band_limited(G, rng).values
                      for _ in range(math.prod(batch))])
        calls = []
        fn = a.fn
        a.__dict__["fn"] = lambda *args: calls.append(1) or fn(*args)
        got = apply_symbol_op(a, Field(G, u.reshape(batch + G.shape)), 0.25,
                              0.7).values
        assert got.shape == batch + G.shape and len(calls) == 1
        for f, v in enumerate(got.reshape(u.shape)):
            uhat = np.fft.fftn(u[f])[None] * G.cell_volume
            dense = quantize._apply_dense(a, G, uhat, np.array([0.25]),
                                          np.array([0.7]))[0]
            assert np.array_equal(v, dense)
        assert "separated" not in vars(a)


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
