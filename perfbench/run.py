"""spdo benchmark: acceptance invocations of the `spdo` CLI, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an spdo checkout.  A workload is a fixed sequence of
README acceptance invocations; each is a fresh `python3 -m spdo.cli`
process with the BLAS thread variables pinned to 1 in its environment before
numpy loads.  The sequence is repeated with the same seeds (a round) until
`--seconds` is used up, at least twice, so every run also checks that
report.json is byte-identical across repeats (criterion 10).  Every report is
re-checked by gate.py.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and one
traced round (traced.py puts a span around each public layer function) and
prints the per-layer metrics.  The last line of standard output is one JSON
object; earlier lines describe each invocation.  Working files go to
.perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import gate
from spans import SpanTable
from traced import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

# README acceptance configs.  Only repetition counts (trials, exact_trials,
# draws, random_pairs) are below the README values, so that several rounds fit
# in a run; N, dim, M, K and the symbol mix decide which quantization path runs
# and how large the arrays are, and are kept.  Why each workload: see
# BENCHMARK.json and README.md.
WORKLOADS = {
    "symbolic": [
        ("compose", {"random_pairs": 30, "trials": 20, "grid.N": 64}),
        ("quantize-demo", {"random_symbols": 20, "grid.N": 64}),
        ("parametrix", {}),
    ],
    "ensemble": [
        ("garding", {"trials": 5, "ensemble.M": 16, "exact_check": 1,
                     "exact_trials": 2}),
        ("bounds", {"grid.N_list": "32,64,128", "ensemble.M": 16,
                    "trials": 1}),
    ],
    "evolution": [
        ("carleman", {"draws": 10}),
        ("uniqueness", {"equation": "schrodinger"}),
        ("integrator", {}),
        ("cz", {"cases": "1x32,1x64,2x16,2x32", "draws": 10}),
    ],
}

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
MIN_ROUNDS = 2
BUDGET_S = 170.0  # every child is killed after this; the run must end in 180

# Layer metrics of the traced round: <layer>.calls, a call count, and
# <layer>.self_pct, self time as % of the traced wall time.  A layer sums the
# spans of its own name, or those in SPAN_GROUPS ("*" matches any suffix).
LAYERS = (
    "quantize.apply_symbol_op", "quantize.multiplier", "quantize.dense",
    "quantize.apply_symbol_ensemble", "quantize.extract_symbol",
    "grid.sobolev_norm", "grid.l2_norm", "grid.fft", "grid.lattice",
    "symbols.symbol_from_expr", "symbols.derivative", "symbols.eval",
    "symbols.ellipticity_check",
    "calculus.compose_symbols", "calculus.parametrix", "calculus.series_apply",
    "stochastic.lpf_norm_values", "stochastic.sample_brownian",
    "harmonic.cz_decompose",
    "bounds.random_adapted_field", "bounds.garding_check",
    "bounds.l2_boundedness_check",
    "cauchy.integrate_spde_system", "cauchy.carleman_report",
    "cauchy.pinned_semimartingale", "cauchy.characteristic_roots",
    "cauchy.uniqueness_experiment",
    "registry.make_symbol",
    "cli.command", "cli.output",
)
SPAN_GROUPS = {
    "quantize.apply_symbol_op": ("quantize.multiplier", "quantize.dense.*"),
    "quantize.dense": ("quantize.dense.*",),
    "cli.output": ("cli.main",),
}
# metrics that sum others in the table: left out when adding up to the wall
AGGREGATES = {"quantize.apply_symbol_op"}
# layers whose call count is not a metric: one call per invocation
NO_CALLS = {"bounds.garding_check", "bounds.l2_boundedness_check",
            "cauchy.uniqueness_experiment", "cli.command", "cli.output"}
DENSE_SIZES = (32, 64, 128)


def end_to_end_names() -> list[str]:
    return ["setup_s", "wall_s", "peak_rss_mb", "passed_frac"]


def per_layer_names() -> list[str]:
    names = []
    for metric in LAYERS:
        if metric not in NO_CALLS:
            names.append(f"{metric}.calls")
        names.append(f"{metric}.self_pct")
        if metric == "quantize.dense":
            names += [f"quantize.dense.self_pct.N{n}" for n in DENSE_SIZES]
            names.append("quantize.dense.matrix_bytes")
        if metric == "harmonic.cz_decompose":
            names.append("harmonic.cz_checked_ratio")
    return names + ["other.self_pct", "other.self_s", "trace.wall_s",
                    "trace.overhead_s"]


def invocation_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + 7919 * (index + 1)) % 2**31


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(),
            **versions, "pinned": PINNED}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _sample_threads(pid: int, stop: threading.Event, seen: list) -> None:
    """Record the Threads: line of /proc/<pid>/status until stopped."""
    path = f"/proc/{pid}/status"
    while not stop.wait(0.05):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith("Threads:"):
                        seen.append(int(line.split()[1]))
                        break
        except OSError:
            return


def spawn(argv, env, deadline, log_path) -> dict:
    """Run one child to completion; its wall time, exit code, RSS, threads."""
    seen: list[int] = []
    stop = threading.Event()
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        sampler = threading.Thread(target=_sample_threads,
                                   args=(proc.pid, stop, seen), daemon=True)
        killer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        sampler.start()
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            stop.set()
            sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "exit": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "threads": max(seen) if seen else None}


def measure_setup(env, deadline, workdir) -> list[float]:
    """Wall time of fresh pinned interpreters importing every spdo module."""
    code = "import " + ", ".join(f"spdo.{m}" for m in MODULES)
    times = []
    for i in range(SETUP_REPEATS):
        r = spawn([sys.executable, "-c", code], env, deadline,
                  os.path.join(workdir, f"setup{i}.log"))
        if r["exit"] != 0:
            raise RuntimeError(f"importing spdo failed; see {workdir}/setup{i}.log")
        times.append(r["seconds"])
    return times


def run_round(name, k, seed, env, deadline, workdir, traced=False) -> dict:
    """One pass over the workload's invocations, one process at a time."""
    rdir = os.path.join(workdir, f"round{k}")
    os.makedirs(rdir)
    results = []
    t0 = time.perf_counter()
    for i, (command, _) in enumerate(WORKLOADS[name]):
        out = os.path.join(rdir, f"{i}-{command}")
        inv_seed = invocation_seed(seed, i)
        args = [command, "--config", os.path.join(workdir, f"{i}-{command}.cfg"),
                "--seed", str(inv_seed), "--out", out]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced.py"),
                    out + ".spans.npz", f"{k}/{i}-{command}"] + args
        else:
            argv = [sys.executable, "-m", "spdo.cli"] + args
        r = spawn(argv, env, deadline, out + ".log")
        r.update(command=command, seed=inv_seed, out=out)
        results.append(r)
    wall = time.perf_counter() - t0
    for r in results:
        try:
            with open(os.path.join(r["out"], "report.json"), "rb") as fh:
                data = fh.read()
        except OSError:
            data = None
        r["sha256"] = gate.sha256(data) if data is not None else None
        r["reasons"] = gate.check(r["command"], r["seed"], r["exit"], data)
    return {"wall": wall, "traced": traced, "invocations": results}


def check_repeats(rounds) -> None:
    """Criterion 10: the same invocation gives the same report bytes."""
    for i in range(len(rounds[0]["invocations"])):
        runs = [rd["invocations"][i] for rd in rounds]
        if len({r["sha256"] for r in runs}) > 1:
            for r in runs:
                r["reasons"].append("report.json differs between repeats")


def layer_metrics(rounds) -> tuple[dict, dict]:
    """Per-layer metrics from the traced round, plus the layer table."""

    plain = next(rd for rd in rounds if not rd["traced"])
    traced = next(rd for rd in rounds if rd["traced"])
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    in_spans = 0.0
    for r in traced["invocations"]:
        if not os.path.exists(r["out"] + ".spans.npz"):
            continue  # the child died early; the gate counts it as failed
        table = SpanTable.load(r["out"] + ".spans.npz")
        in_spans += table.root_time()
        for span, (c, s) in table.totals().items():
            calls[span] = calls.get(span, 0) + c
            self_s[span] = self_s.get(span, 0.0) + s
    wall = traced["wall"]

    def matching(pattern):
        if pattern.endswith("*"):
            return [s for s in calls if s.startswith(pattern[:-1])]
        return [pattern] if pattern in calls else []

    metrics, table = {}, {}
    for metric in LAYERS:
        spans = [s for p in SPAN_GROUPS.get(metric, (metric,))
                 for s in matching(p)]
        c = sum(calls[s] for s in spans)
        s = sum(self_s[s] for s in spans)
        table[metric] = (c, s)
        if metric not in NO_CALLS:
            metrics[f"{metric}.calls"] = (c, "count")
        metrics[f"{metric}.self_pct"] = (100.0 * s / wall, "%")
    dense = {n: 0.0 for n in DENSE_SIZES}
    matrix_bytes = 0
    for span in matching("quantize.dense.*"):
        n, d = (int(p[1:]) for p in span.split(".")[2:4])
        dense[n] = dense.get(n, 0.0) + self_s[span]
        matrix_bytes += calls[span] * 2 * 16 * (n**d) ** 2
    for n in DENSE_SIZES:
        metrics[f"quantize.dense.self_pct.N{n}"] = (100.0 * dense[n] / wall,
                                                   "%")
    metrics["quantize.dense.matrix_bytes"] = (matrix_bytes, "B")
    attempted = checked = 0
    for r in traced["invocations"]:
        if r["command"] == "cz" and not r["reasons"]:
            with open(os.path.join(r["out"], "report.json")) as fh:
                rep = json.load(fh)["report"]
            attempted += rep["total_draws"]
            checked += rep["checked"]
    metrics["harmonic.cz_checked_ratio"] = (checked / max(attempted, 1),
                                            "ratio")
    other = wall - in_spans
    metrics["other.self_pct"] = (100.0 * other / wall, "%")
    metrics["other.self_s"] = (other, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - plain["wall"], "s")
    table["other"] = (0, other)
    return {k: metrics[k] for k in per_layer_names()}, table


def end_to_end(rounds, setup) -> dict:
    invs = [r for rd in rounds for r in rd["invocations"]]
    failed = sum(1 for r in invs if r["reasons"])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(rd["wall"] for rd in rounds), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in invs), "MB"),
        "passed_frac": ((len(invs) - failed) / len(invs), "fraction"),
    }


def describe(rounds) -> None:
    for k, rd in enumerate(rounds):
        tag = "traced" if rd["traced"] else "untraced"
        print(f"# round {k} ({tag}): wall {rd['wall']:.3f} s")
        for r in rd["invocations"]:
            verdict = "ok" if not r["reasons"] else \
                "FAILED: " + "; ".join(r["reasons"])
            print(f"#   {r['command']:<14} seed {r['seed']:<11} "
                  f"{r['seconds']:8.3f} s  exit {r['exit']}  "
                  f"rss {r['rss_mb']:6.1f} MB  threads {r['threads']}  "
                  f"sha256 {r['sha256']}  {verdict}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spdo", "cli.py")):
        print(f"perfbench: no spdo sources under {SRC}; run from the root of "
              "an spdo checkout", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + BUDGET_S
    compileall.compile_dir(os.path.join(SRC, "spdo"), quiet=1)
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for i, (command, cfg) in enumerate(WORKLOADS[args.workload]):
        with open(os.path.join(workdir, f"{i}-{command}.cfg"), "w") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in cfg.items())
    env = child_env()
    info = environment()
    print("# environment " + json.dumps(info, sort_keys=True))

    rounds = []
    if args.trace:
        for k, traced in enumerate((False, True)):
            rounds.append(run_round(args.workload, k, args.seed, env,
                                    deadline, workdir, traced))
    else:
        setup = measure_setup(env, deadline, workdir)
        t0 = time.perf_counter()
        while True:
            rounds.append(run_round(args.workload, len(rounds), args.seed,
                                    env, deadline, workdir))
            used = time.perf_counter() - t0
            typical = statistics.median(rd["wall"] for rd in rounds)
            if len(rounds) >= MIN_ROUNDS and (
                    used + typical > args.seconds
                    or time.perf_counter() + typical > deadline):
                break
    check_repeats(rounds)
    describe(rounds)

    if args.trace:
        metrics, table = layer_metrics(rounds)
        print("# layer self times (traced round): calls, self seconds")
        for metric, (c, s) in table.items():
            print(f"#   {metric:<32} {c:9d} {s:10.4f}")
        parts = sum(s for m, (_, s) in table.items() if m not in AGGREGATES)
        print(f"#   {'sum, = trace.wall_s':<32} {'':9} {parts:10.4f}")
    else:
        metrics = end_to_end(rounds, setup)
        print("# setup_s samples " + " ".join(f"{t:.4f}" for t in setup))
        for i, (command, _) in enumerate(WORKLOADS[args.workload]):
            times = [rd["invocations"][i]["seconds"] for rd in rounds]
            print(f"# verdict_s.{command} {statistics.median(times):.4f} s "
                  f"(median of {len(times)} rounds)")
    invs = [r for rd in rounds for r in rd["invocations"]]
    failed = sum(1 for r in invs if r["reasons"])
    result = {"correct": failed == 0, "attempted": len(invs), "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"environment": info, "workload": args.workload,
                   "seed": args.seed, "rounds": rounds, **result}, fh,
                  indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
