"""Kernel mutants: each row breaks one kernel with monkeypatch and runs an
acceptance invocation at a small config in-process through cli.main; the
verdict that covers the kernel must FAIL it (exit 2)."""

import functools
import json
import operator

import pytest

import spdo.calculus
import spdo.grid
import spdo.quantize
from spdo.cli import main


def _flipped_weights(real):
    # 1 / (alpha! (-i)^{|alpha|}): the conjugate of each weight
    def weights(j, dim):
        for wgt, alpha in real(j, dim):
            yield wgt.conjugate(), alpha
    return weights


def _unweighted_fft(real):
    # the spectra without the (L/N)^n cell weight
    def fft_forward(grid, values):
        return real(grid, values) / grid.cell_volume
    return fft_forward


def _conjugated_phase(real):
    # exp(-i x.xi): the dense path's phase sign flipped
    def phase_matrix(self):
        return real(self).conj()
    return phase_matrix


def _last_term_dropped(real):
    # the separated sum without its last term, c_{r-1} g_{r-1}: its c zeroed
    def apply(a, grid, uhat, t, w, values=None):
        if values is None:
            values = spdo.quantize._node_values(a, grid, t, w)
        rank = a.separated[0]
        values = list(values)
        values[rank - 1] = 0.0 * values[rank - 1]
        return real(a, grid, uhat, t, w, values)
    return apply


def _corrections_dropped(real):
    # no weights for |alpha| >= 2: the parametrix recursion skips those terms
    def weights(j, dim):
        if j < 2:
            yield from real(j, dim)
    return weights


# (row, module, attribute, the mutant of the real kernel, command, config,
# seed, report key of the error, with "." into a nested key, and the least
# error it must reach)
MUTANTS = [
    ("sign of i^-|alpha| flipped", spdo.calculus, "_weighted_alphas",
     _flipped_weights, "compose",
     "random_pairs = 30\ntrials = 20\ngrid.N = 64\n", 5,
     "worst_relative_error", 0.5),
    # quantize imports the name, so spdo.grid alone would miss its applies
    ("(L/N)^n weight dropped in fft_forward", spdo.quantize, "fft_forward",
     _unweighted_fft, "quantize-demo", "random_symbols = 20\ngrid.N = 64\n",
     5, "max_extraction_error", 1.0),
    ("dense phase sign flipped in Grid.phase_matrix", spdo.grid.Grid,
     "phase_matrix", _conjugated_phase, "quantize-demo",
     "random_symbols = 20\ngrid.N = 64\n", 5, "max_extraction_error", 1.0),
    # above the dense cap (N = 128 in 1-D) the pairs take the separated path
    ("last term of a separated sum dropped", spdo.quantize,
     "_apply_separated", _last_term_dropped, "compose",
     "random_pairs = 30\ntrials = 20\ngrid.N = 256\n", 5,
     "worst_relative_error", 1.0),
    # the n = 3 residual slope passes in -4 +- 20%: the mutant's reaches
    # above -3.2 (-1.95 at seed 5)
    ("parametrix |alpha| >= 2 corrections dropped", spdo.calculus,
     "_weighted_alphas", _corrections_dropped, "parametrix", "", 5,
     "slopes.3", -3.2),
]


@pytest.mark.parametrize("row", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_fails_its_verdict(tmp_path, monkeypatch, row):
    _, module, name, mutant, command, cfg_text, seed, key, least = row
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "run"
    code = main([command, "--config", str(cfg), "--seed", str(seed),
                 "--out", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())["report"]
    error = functools.reduce(operator.getitem, key.split("."), report)
    assert report["passed"] is False and error >= least
