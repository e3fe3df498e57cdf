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
