"""tools/bench_pairs.py: the recorder of before/after benchmark pairs."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_run_without_a_result_exits_with_one_line(tmp_path, capsys):
    # a checkout whose benchmark prints no result line, as a crashed run does
    stub = tmp_path / "stub"
    (stub / "perfbench").mkdir(parents=True)
    (stub / "perfbench" / "run.py").write_text("print('no result')\n")
    logs = tmp_path / "logs"
    out = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    code = _bench_pairs().main([str(stub), str(stub), "--seed", "1",
                                "--pairs", "symbolic=2", "--logs", str(logs),
                                "--out", *out])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(logs / "symbolic-parent-1.txt") in err[0]
    assert not any(pathlib.Path(p).exists() for p in out)


def _log(rss):
    """A run.py log of one workload, two rounds, with the given per-round
    (garding, bounds) peaks."""
    lines = ['# environment {"cpus": 2}']
    for k, (g, b) in enumerate(rss):
        lines.append(f"# round {k} (untraced): wall 0.400 s")
        for command, mb in (("garding", g), ("bounds", b)):
            lines.append(f"#   {command:<14} seed {7:<11} {0.2:8.3f} s  exit 0"
                         f"  rss {mb:6.1f} MB  threads 1  sha256 ab12  ok")
    lines += ["# verdict_s.garding 0.2000 s (median of 2 rounds)",
              "# verdict_s.bounds 0.1500 s (median of 2 rounds)",
              '{"correct": true, "attempted": 4, "failed": 0, "metrics": '
              '{"peak_rss_mb": {"value": %.1f, "unit": "MB"}}}'
              % max(max(r) for r in rss)]
    return "\n".join(lines) + "\n"


def test_the_peak_of_each_invocation_is_recorded(tmp_path):
    # per run the largest rss of an invocation over its rounds; per
    # workload the median of those over the runs
    tool = _bench_pairs()
    runs = []
    for i, rss in enumerate(([(41.0, 38.0), (41.5, 37.0)],
                             [(40.0, 39.5), (40.5, 38.5)],
                             [(42.0, 38.2), (39.0, 38.1)])):
        log = tmp_path / f"ensemble-parent-{i + 1}.txt"
        log.write_text(_log(rss))
        runs.append(tool._parse(str(log)))
    assert runs[0]["rss_mb"] == {"garding": 41.5, "bounds": 38.0}
    summary = tool._summary(runs)
    assert summary["rss_mb"] == {"garding": 41.5, "bounds": 38.2}
    assert summary["verdict_s"] == {"garding": 0.2, "bounds": 0.15}
    assert summary["metrics"]["peak_rss_mb"]["values"] == [41.5, 40.5, 42.0]
