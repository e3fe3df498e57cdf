"""Record a before/after benchmark pair: BENCH_<n>.json for two checkouts.

Usage (from anywhere; each checkout is an spdo source tree with perfbench/):

    python3 tools/bench_pairs.py PARENT CHANGE --seed S \
        --pairs evolution=10,ensemble=6,symbolic=6 \
        --logs DIR --out BENCH_1.json BENCH_2.json

For each workload it runs `perfbench/run.py --workload W --seed S
--seconds 36 --trace 0` in PARENT and in CHANGE, one after the other,
alternating which side runs first, for the given number of pairs. Each run's
output is kept as DIR/<workload>-<side>-<pair>.txt; a run whose log already
holds a result is not repeated, so an interrupted recording resumes.

Each output file holds, per workload: the median and quartiles of every
end-to-end metric over the runs, the median over runs of each
`verdict_s.<command>` and of each invocation's peak RSS, `rss_mb.<command>`
(the largest `rss` of its per-round `#` lines in a run), and the
`# environment` line. The comparison printed at the end counts, per metric,
the pairs the change wins (ties count for neither side) against the
parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")
SECONDS = 36


def _run(checkout: str, workload: str, seed: int, log: str) -> None:
    if os.path.exists(log) and _parse(log) is not None:
        return
    with open(log, "w") as fh:
        subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        workload, "--seed", str(seed), "--seconds",
                        str(SECONDS), "--trace", "0"],
                       cwd=checkout, stdout=fh, stderr=subprocess.STDOUT,
                       check=False)


def _parse(log: str) -> dict | None:
    """The result, verdict times, invocation peaks and environment of one
    run.py log."""
    lines = open(log).read().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    result = json.loads(lines[-1])
    verdict, rss = {}, {}
    env = None
    for line in lines:
        m = re.match(r"# verdict_s\.(\S+) ([0-9.]+) s", line)
        if m:
            verdict[m.group(1)] = float(m.group(2))
        m = re.match(r"#\s+(\S+)\s+seed .* rss\s+([0-9.]+) MB", line)
        if m:
            rss[m.group(1)] = max(rss.get(m.group(1), 0.0),
                                  float(m.group(2)))
        if line.startswith("# environment "):
            env = json.loads(line[len("# environment "):])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    return {"metrics": metrics, "units": units, "verdict_s": verdict,
            "rss_mb": rss, "environment": env, "correct": result["correct"]}


def _summary(runs: list) -> dict:
    out = {"runs": len(runs), "correct": all(r["correct"] for r in runs),
           "environment": runs[0]["environment"], "metrics": {},
           "verdict_s": {}, "rss_mb": {}}
    for name, unit in runs[0]["units"].items():
        vals = [r["metrics"][name] for r in runs]
        q1, med, q3 = np.percentile(vals, [25, 50, 75])
        out["metrics"][name] = {"unit": unit, "median": med, "q1": q1,
                                "q3": q3, "values": vals}
    for key in ("verdict_s", "rss_mb"):
        for cmd in runs[0][key]:
            out[key][cmd] = float(np.median([r[key][cmd] for r in runs]))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", required=True,
                   help="workload=count[,workload=count...]")
    p.add_argument("--logs", required=True)
    p.add_argument("--out", nargs=2, required=True,
                   metavar=("PARENT_JSON", "CHANGE_JSON"))
    args = p.parse_args(argv)
    os.makedirs(args.logs, exist_ok=True)
    checkouts = {"parent": args.parent, "change": args.change}
    records = {side: {"command": f"perfbench/run.py --seconds {SECONDS} "
                                 f"--trace 0 --seed {args.seed}",
                      "workloads": {}} for side in SIDES}
    for item in args.pairs.split(","):
        workload, count = item.split("=")
        runs = {side: [] for side in SIDES}
        for i in range(1, int(count) + 1):
            order = SIDES if i % 2 else SIDES[::-1]
            for side in order:
                log = os.path.join(args.logs, f"{workload}-{side}-{i}.txt")
                _run(checkouts[side], workload, args.seed, log)
                run = _parse(log)
                if run is None:
                    print(f"bench_pairs: {log} holds no result line; the "
                          f"run failed", file=sys.stderr)
                    return 1
                runs[side].append(run)
        for side in SIDES:
            records[side]["workloads"][workload] = _summary(runs[side])
        par, chg = (records[s]["workloads"][workload] for s in SIDES)
        for name, m in par["metrics"].items():
            better = (np.greater if name == "passed_frac" else np.less)(
                chg["metrics"][name]["values"], m["values"])
            print(f"{workload:10s} {name:12s} parent {m['median']:.4g} "
                  f"(IQR {m['q3'] - m['q1']:.3g}) change "
                  f"{chg['metrics'][name]['median']:.4g}, change better in "
                  f"{int(better.sum())}/{len(better)} pairs")
    for side, path in zip(SIDES, args.out):
        with open(path, "w") as fh:
            json.dump(records[side], fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
