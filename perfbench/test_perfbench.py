"""Tests of the benchmark itself: span arithmetic, the gate, trace counts.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys

import pytest

import gate
import run
from spans import Recorder, SpanTable

HERE = os.path.dirname(os.path.abspath(__file__))


def test_self_times_of_nested_span_tree():
    # a [0, 100] holds b [10, 40] (which holds c [15, 25]) and d [50, 90];
    # e [200, 230] is a second root
    names = ["a", "b", "c", "d", "e"]
    table = SpanTable("inv", names, name_id=[0, 1, 2, 3, 4],
                      parent=[-1, 0, 1, 0, -1],
                      start=[0, 10, 15, 50, 200], end=[100, 40, 25, 90, 230])
    assert list(table.self_times() * 1e9) == pytest.approx([30, 20, 10, 40, 30])
    assert table.root_time() * 1e9 == pytest.approx(130)
    assert table.self_times().sum() == pytest.approx(table.root_time())


def test_recorder_nests_and_counts_calls(tmp_path):
    rec = Recorder("inv-7")

    def leaf(x):
        return x + 1

    leaf_w = rec.wrap("leaf", leaf)
    outer_w = rec.wrap(lambda args, kwargs: f"outer.{args[0]}",
                       lambda n: sum(leaf_w(i) for i in range(n)))
    assert outer_w(3) == 6 and outer_w(2) == 3
    rec.save(str(tmp_path / "s.npz"))
    table = SpanTable.load(str(tmp_path / "s.npz"))
    assert table.invocation == "inv-7"
    totals = table.totals()
    assert {k: c for k, (c, _) in totals.items()} == \
        {"leaf": 5, "outer.3": 1, "outer.2": 1}
    leaves = [i for i, n in enumerate(table.name_id) if table.names[n] == "leaf"]
    assert [table.parent[i] for i in leaves] == [0, 0, 0, 4, 4]
    assert sum(s for _, s in totals.values()) == pytest.approx(
        table.root_time())


def _payload(command, seed, report):
    return json.dumps({"command": command, "seed": seed, "config": {},
                       "passed": report["passed"], "report": report},
                      indent=2, sort_keys=True).encode() + b"\n"


GOOD = {
    "compose": {"random_pairs": 20, "worst_relative_error": 4.7e-14,
                "tol": 1e-9, "passed": True},
    "integrator": {"ito_isometry": {"M": 10000, "measured": 1.974,
                                    "target": 2.0, "rel_error": 0.013},
                   "unitary": {"K": 1000, "norm_drift": 0.0}, "passed": True},
    "parametrix": {"slopes": {"1": -1.99, "2": -3.01, "3": -4.02},
                   "passed": True},
}


@pytest.mark.parametrize("command", sorted(GOOD))
def test_gate_passes_good_report(command):
    assert gate.check(command, 5, 0, _payload(command, 5, GOOD[command])) == []


@pytest.mark.parametrize("command,path,value", [
    ("compose", ("worst_relative_error",), 2e-9),
    ("compose", ("worst_relative_error",), float("nan")),
    ("integrator", ("ito_isometry", "measured"), 2.2),
    ("integrator", ("unitary", "norm_drift"), 1e-5),
    ("parametrix", ("slopes", "2"), -2.2),
])
def test_gate_flags_figure_out_of_tolerance(command, path, value):
    # `passed` stays true: the gate re-checks the figure itself
    report = json.loads(json.dumps(GOOD[command]))
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert gate.check(command, 5, 0, _payload(command, 5, report))


def test_gate_flags_flipped_passed():
    inner = dict(GOOD["compose"], passed=False)
    envelope = json.loads(_payload("compose", 5, GOOD["compose"]))
    envelope["passed"] = False
    assert gate.check("compose", 5, 0, _payload("compose", 5, inner))
    assert gate.check("compose", 5, 0, json.dumps(envelope).encode())


def test_gate_flags_exit_code_and_stale_report():
    good = _payload("compose", 5, GOOD["compose"])
    assert gate.check("compose", 5, 2, good) == ["exit code 2"]
    assert gate.check("compose", 6, 0, good)
    assert gate.check("compose", 5, 0, None)


def test_one_changed_byte_fails_the_repeat_check():
    good = _payload("compose", 5, GOOD["compose"])
    changed = good.replace(b"4.7e-14", b"4.8e-14")
    assert len(good) == len(changed) and good != changed
    rounds = [{"invocations": [{"sha256": gate.sha256(blob), "reasons": []}]}
              for blob in (good, good, changed)]
    run.check_repeats(rounds)
    assert all(r["reasons"] for rd in rounds for r in rd["invocations"])
    same = [{"invocations": [{"sha256": gate.sha256(good), "reasons": []}]}
            for _ in range(2)]
    run.check_repeats(same)
    assert not any(r["reasons"] for rd in same for r in rd["invocations"])


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == run.end_to_end_names()
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _traced_counts(tmp_path, tag):
    cfg = tmp_path / "cz.cfg"
    cfg.write_text("cases = 1x32,2x16\ndraws = 2\n")
    spans = tmp_path / f"{tag}.npz"
    out = tmp_path / tag
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "traced.py"), str(spans), tag,
         "cz", "--config", str(cfg), "--seed", "3", "--out", str(out)],
        env=run.child_env(), cwd=run.ROOT, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    table = SpanTable.load(str(spans))
    assert table.invocation == tag
    assert table.self_times().sum() == pytest.approx(table.root_time())
    return {k: c for k, (c, _) in table.totals().items()}, \
        (out / "report.json").read_bytes()


def test_traced_call_counts_repeat_exactly(tmp_path):
    first, report1 = _traced_counts(tmp_path, "t1")
    second, report2 = _traced_counts(tmp_path, "t2")
    assert first == second
    assert report1 == report2
    assert first["harmonic.cz_decompose"] == 4
    assert first["cli.main"] == 1 and first["cli.command"] == 1
