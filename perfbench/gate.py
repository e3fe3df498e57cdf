"""Correctness gate: re-check each acceptance verdict from its report.json.

An invocation fails on a non-zero exit, on `passed` false, or on a headline
figure outside its criterion's tolerance.  The figures are re-checked here
from the report, not taken from the program's own `passed` flags.  Byte
equality of repeated reports (criterion 10) is checked by the caller, which
holds the repeats.
"""

from __future__ import annotations

import hashlib
import json
import math


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def _stable(constants: dict, floor: float = 0.0) -> bool:
    """Constants over the grid sizes are finite and vary by a factor < 2."""
    vals = [max(float(c), floor) for c in constants.values()]
    return bool(vals) and _finite(*vals) and min(vals) > 0 \
        and max(vals) / min(vals) < 2.0


def _compose(r):  # criterion 1
    return [("worst_relative_error <= 1e-9",
             _finite(r["worst_relative_error"])
             and r["worst_relative_error"] <= 1e-9)]


def _quantize_demo(r):  # criterion 2
    return [("max_extraction_error <= 1e-8",
             _finite(r["max_extraction_error"])
             and r["max_extraction_error"] <= 1e-8)]


def _parametrix(r):  # criterion 3
    slopes = r["slopes"]
    return [(f"slope[{n}] within 20% of -{int(n) + 1}",
             _finite(s) and abs(s + int(n) + 1) <= 0.2 * (int(n) + 1))
            for n, s in sorted(slopes.items())] + \
        [("three residual slopes", len(slopes) == 3)]


def _cz(r):  # criterion 4
    props = r["properties"]
    return [("six properties hold", len(props) == 6 and all(props.values())),
            ("checked >= 90% of draws",
             r["checked"] >= math.ceil(0.9 * r["total_draws"]))]


def _bounds(r):  # criterion 5
    syms = r["symbols"]
    return [(f"{name}: constants stable across N (factor < 2)",
             len(rep["constants"]) == 3 and _stable(rep["constants"]))
            for name, rep in sorted(syms.items())] + \
        [("three symbols", len(syms) == 3)]


def _garding(r):  # criterion 6
    exact = r["exact_constants"]
    return [("stochastic constants finite and stable",
             _stable(r["constants"], floor=1e-12)),
            ("exact |xi|^2 constants <= 1",
             bool(exact) and all(_finite(c) and c <= 1.0 + 1e-9
                                 for c in exact.values()))]


def _carleman(r):  # criterion 7
    return [("pass rate 100%", r["pass_rate"] == 1.0),
            ("2mu-robust >= 95%", r["robust_rate_2mu"] >= 0.95)]


def _uniqueness(r):  # criterion 8, at the default horizon T = 0.5
    T = 0.5
    target = -(T**2 / 4.0 - T**2 / 9.0)
    lb = r["log_bound"]
    return [("slope within 25% of -(T^2/4 - T^2/9)",
             _finite(r["slope"])
             and abs(r["slope"] - target) <= 0.25 * abs(target)),
            ("log bound decreasing in mu",
             all(b < a for a, b in zip(lb, lb[1:])))]


def _integrator(r):  # criterion 9
    iso = r["ito_isometry"]
    err = abs(iso["measured"] - iso["target"]) / iso["target"]
    return [("Ito isometry within 5% at M = 10^4",
             iso["M"] == 10_000 and _finite(err) and err <= 0.05),
            ("unitary drift <= 1e-6 over K = 1000",
             r["unitary"]["K"] == 1000 and _finite(r["unitary"]["norm_drift"])
             and r["unitary"]["norm_drift"] <= 1e-6)]


CHECKS = {
    "compose": _compose,
    "quantize-demo": _quantize_demo,
    "parametrix": _parametrix,
    "cz": _cz,
    "bounds": _bounds,
    "garding": _garding,
    "carleman": _carleman,
    "uniqueness": _uniqueness,
    "integrator": _integrator,
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(command: str, seed: int, exit_code: int, report_bytes) -> list[str]:
    """Reasons the invocation failed; empty when it passed.

    `report_bytes` is the content of report.json, or None when it is missing.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if report_bytes is None:
        return ["no report.json"]
    try:
        payload = json.loads(report_bytes)
    except ValueError as e:
        return [f"report.json is not JSON: {e}"]
    reasons = []
    if payload.get("command") != command or payload.get("seed") != seed:
        reasons.append("report is for another command or seed")
    report = payload.get("report", {})
    if payload.get("passed") is not True or report.get("passed") is not True:
        reasons.append("passed is not true")
    try:
        results = CHECKS[command](report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return reasons + [f"headline figure missing or malformed: {e!r}"]
    reasons += [f"{name}: out of tolerance" for name, ok in results if not ok]
    return reasons
