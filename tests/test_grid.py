"""Grid, FFT normalization, and norm oracles."""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spdo
from spdo.grid import (
    Field,
    Grid,
    TimeGrid,
    fft_forward,
    fft_inverse,
    l2_norm,
    plane_wave,
    random_band_limited,
    sobolev_norm,
)

G32 = Grid(1, 32)


def _sobolev(f, delta):
    return sobolev_norm(f.grid, fft_forward(f.grid, f.values), delta)


def test_constant_field_mass_on_zero_mode():
    f = Field(G32, np.ones(G32.points().shape[:-1]))
    fh = fft_forward(G32, f.values)
    assert abs(fh[0] - 2.0 * np.pi) < 1e-12
    assert np.abs(fh[1:]).max() < 1e-12


def test_plane_wave_single_mode():
    # e^{i3x} on N=32: unit mass at k=3 after the 1/L normalization
    spec = fft_forward(G32, plane_wave(G32, 3).values) * G32.freq_cell_volume
    k = np.fft.fftfreq(32, d=G32.dx) * 2.0 * np.pi
    idx = int(np.argmin(np.abs(k - 3.0)))
    assert abs(spec[idx] - 1.0) < 1e-12
    spec[idx] = 0.0
    assert np.abs(spec).max() < 1e-12


def test_round_trip_identity():
    rng = np.random.default_rng(0)
    f = random_band_limited(G32, rng)
    g = fft_inverse(G32, fft_forward(G32, f.values))
    assert np.abs(g - f.values).max() < 1e-12


def test_parseval():
    rng = np.random.default_rng(1)
    f = random_band_limited(G32, rng)
    fh = fft_forward(G32, f.values)
    phys = np.sum(np.abs(f.values) ** 2) * G32.cell_volume
    freq = np.sum(np.abs(fh) ** 2) * G32.freq_cell_volume
    assert abs(phys - freq) < 1e-10 * phys


def test_sobolev_norm_oracles():
    f = plane_wave(G32, 3)
    base = l2_norm(f)
    assert abs(base - math.sqrt(2.0 * np.pi)) < 1e-10
    # delta = 0 is the plain L2 norm
    assert abs(_sobolev(f, 0.0) - base) < 1e-12
    # single mode k=3: (1 + 9)^{1/2} scaling
    assert abs(_sobolev(f, 1.0) - math.sqrt(10.0) * base) < 1e-9
    # two modes combine in Pythagorean fashion
    g = Field(G32, plane_wave(G32, 3).values + plane_wave(G32, 5).values)
    expect = math.sqrt(10.0 * base**2 + 26.0 * base**2)
    assert abs(_sobolev(g, 1.0) - expect) < 1e-9


def test_torus_distance_wraps():
    d = G32.torus_distance(np.array([0.1]), np.array([2.0 * np.pi - 0.1]))
    assert abs(float(d) - 0.2) < 1e-12
    assert float(G32.torus_distance(np.array([1.0]), np.array([1.0]))) == 0.0


def test_grid_properties_2d():
    g = Grid(2, 16)
    assert g.shape == (16, 16)
    assert abs(g.cell_volume - (2.0 * np.pi / 16) ** 2) < 1e-15
    assert g.freqs().shape == (16, 16, 2)


def test_lattice_arrays_cached_read_only():
    g = Grid(2, 8)
    for build in (g.points, g.freqs, g.freq_norms, g.phase_matrix):
        arr = build()
        assert arr is build()
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    assert g.phase_matrix().shape == (64, 64)
    assert g == Grid(2, 8) and hash(g) == hash(Grid(2, 8))


def test_norms_reduce_over_trailing_grid_axes():
    g = Grid(2, 8)
    rng = np.random.default_rng(2)
    fields = [random_band_limited(g, rng) for _ in range(6)]
    batch = Field(g, np.stack([f.values for f in fields]).reshape(
        (2, 3) + g.shape))
    spec = fft_forward(g, batch.values)
    l2 = l2_norm(batch)
    sob = sobolev_norm(g, spec, 0.75)
    assert spec.shape == batch.values.shape
    assert l2.shape == sob.shape == (2, 3)
    for i, f in enumerate(fields):
        assert np.array_equal(spec.reshape((6,) + g.shape)[i],
                              fft_forward(g, f.values))
        assert abs(l2.flat[i] - l2_norm(f)) <= 1e-14 * l2_norm(f)
        assert abs(sob.flat[i] - _sobolev(f, 0.75)) \
            <= 1e-14 * _sobolev(f, 0.75)
    assert np.abs(fft_inverse(g, spec) - batch.values).max() < 1e-12
    with pytest.raises(ValueError):
        Field(g, np.zeros((3, 8)))


def test_timegrid():
    tg = TimeGrid(0.5, 64)
    assert tg.K == 64
    assert abs(tg.dt - 0.5 / 64) < 1e-15
    nodes = tg.nodes()
    assert nodes[0] == 0.0 and abs(nodes[-1] - 0.5) < 1e-15


@pytest.mark.parametrize("K", [2, 3, 7, 8, 64, 127, 200])
@pytest.mark.parametrize("n", [1, 3, 5, 9, 300])
def test_node_indices_are_np_unique_of_linspace(K, n):
    got = TimeGrid(1.0, K).node_indices(n)
    want = np.unique(np.linspace(0, K, n).astype(int))
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_mode_orthogonality(k1, k2):
    f1, f2 = plane_wave(G32, k1), plane_wave(G32, k2)
    ip = np.sum(f1.values * np.conj(f2.values)) * G32.cell_volume
    expect = 2.0 * np.pi if k1 == k2 else 0.0
    assert abs(ip - expect) < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_band_limited_is_band_limited(seed):
    rng = np.random.default_rng(seed)
    f = random_band_limited(G32, rng)
    spec = fft_forward(G32, f.values)
    ints = np.rint(np.fft.fftfreq(32) * 32).astype(int)
    assert np.abs(spec[np.abs(ints) > 8]).max() < 1e-12


def test_only_grid_calls_numpy_fft():
    # the transform weights live in fft_forward and fft_inverse alone
    pkg = pathlib.Path(spdo.__file__).parent
    users = {p.name for p in pkg.glob("*.py") if "np.fft" in p.read_text()}
    assert users == {"grid.py"}


def test_one_block_size():
    # every streamed loop reads spdo._BLOCK_BYTES; a Carleman block of about
    # ten work arrays has its own, and the budget its ceiling
    pkg = pathlib.Path(spdo.__file__).parent
    names = set()
    for path in pkg.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            names |= {(path.name, t.id) for t in targets
                      if isinstance(t, ast.Name) and t.id.endswith("_BYTES")}
    assert names == {("__init__.py", "_BLOCK_BYTES"),
                     ("__init__.py", "_NODE_BLOCK_BYTES"),
                     ("cli.py", "_MAX_HELD_BYTES")}


def test_one_field_type_and_one_time_grid_source():
    # a field is (grid, values), and its time grid is its ensemble's: no
    # function takes an ensemble with a second copy of the time grid, and
    # only Field holds values and only BrownianEnsemble a time grid
    pkg = pathlib.Path(spdo.__file__).parent
    both, holders = [], {"values": set(), "timegrid": set()}
    for path in pkg.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args
                         + args.kwonlyargs}
                if "ensemble" in names and names & {"T", "tg", "timegrid"}:
                    both.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) \
                            and getattr(item.target, "id", None) in holders:
                        holders[item.target.id].add(node.name)
    assert both == []
    assert holders == {"values": {"Field"}, "timegrid": {"BrownianEnsemble"}}
