#!/usr/bin/env python3
"""Compare two sets of benchmark results metric by metric.

    python3 bench/diff.py A B

``A`` (the base) and ``B`` (the change) are each a result file written
by ``bench/run.py`` or a directory of them.  Results are grouped by
workload and trace mode; within a group every metric's median over the
files is compared against its bound in ``BENCHMARK.json``:

* ``worse`` -- B is worse than A by more than the bound (a regression);
* ``better`` -- B is better by more than the bound;
* ``within bound`` -- the change is no larger than the bound;
* ``unresolved`` -- the spread of A or B is wider than the bound, so
  the comparison cannot tell, unless every B value beats every A value.

The spread is the interquartile range over the median when a side has
at least four files, the range over the median with two or three, and
the range across the run's rounds with one.  With one file on either
side a metric is only ever ``within bound`` or ``unresolved``: the
rounds of one run cannot show a slowdown of the host that lasts the
whole run, so ``worse`` and ``better`` need two runs a side or more.
Per-layer metrics have no
bound and are listed as ``info``.  Results for the same seed must carry
the same ``plan_digest``, and B may not fail a larger share of its ops
than A.  The exit code is 1 on any regression, digest mismatch, higher
failure share or incorrect B run, 2 when there is nothing to compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list[dict[str, Any]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = []
    for file in files:
        doc = json.loads(file.read_text(encoding="utf-8"))
        if doc.get("kind") == "repro-bench":
            docs.append(doc)
    return docs


def group(docs: list[dict[str, Any]]) -> dict[tuple, list[dict[str, Any]]]:
    groups: dict[tuple, list[dict[str, Any]]] = {}
    for doc in docs:
        key = (doc["workload"], doc["trace"], doc["smoke"])
        groups.setdefault(key, []).append(doc)
    return groups


def spread(docs: list[dict[str, Any]], name: str) -> float:
    values = [doc["metrics"][name]["value"] for doc in docs]
    median = statistics.median(values)
    if not median:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(median)
    if len(values) >= 2:
        return (max(values) - min(values)) / abs(median)
    metric = docs[0]["metrics"][name]
    if metric["min"] is None or metric["max"] is None:
        return 0.0
    return (metric["max"] - metric["min"]) / abs(median)


def verdict(
    a: list[float], b: list[float], better: str, bound: float | None, noise: float
) -> tuple[str, float]:
    """(verdict, signed change of B's median relative to A's)."""
    base = statistics.median(a)
    change = (statistics.median(b) - base) / abs(base) if base else 0.0
    gain = -change if better == "lower" else change
    if bound is None:
        return "info", change
    if len(a) < 2 or len(b) < 2:
        # A slow phase of the host can cover a whole run, and one run a
        # side cannot tell it from a change: identical code has read 31%
        # slower on its second run.
        within = noise <= bound and abs(gain) <= bound
        return ("within bound" if within else "unresolved"), change
    if better == "lower":
        clear_win = max(b) < min(a)
    else:
        clear_win = min(b) > max(a)
    if noise > bound:
        return ("better" if clear_win else "unresolved"), change
    if gain < -bound:
        return "worse", change
    if gain > bound:
        return "better", change
    return "within bound", change


def compare(base: list[dict], change: list[dict], spec: dict) -> tuple[list[str], int]:
    """Report lines and the count of regressions for one group."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = []
    problems = 0
    names = [n for n in base[0]["metrics"] if n in change[0]["metrics"]]
    for name in names:
        a = [doc["metrics"][name]["value"] for doc in base]
        b = [doc["metrics"][name]["value"] for doc in change]
        if None in a or None in b:
            lines.append(f"  {name:<26} {'n/a':>12} {'n/a':>12}  missing value")
            continue
        noise = max(spread(base, name), spread(change, name))
        declared = metrics.get(name, {})
        result, delta = verdict(
            a, b, declared.get("better", "lower"), declared.get("bound"), noise
        )
        problems += result == "worse"
        bound = declared.get("bound")
        lines.append(
            f"  {name:<26} {statistics.median(a):>12.6g} {statistics.median(b):>12.6g}"
            f" {delta:>+8.2%}  spread {noise:6.2%}"
            f"  bound {'-' if bound is None else format(bound, '.0%'):>4}  {result}"
        )
    a_digests = {doc["seed"]: doc["plan_digest"] for doc in base}
    for doc in change:
        expected = a_digests.get(doc["seed"])
        if expected is not None and expected != doc["plan_digest"]:
            problems += 1
            lines.append(
                f"  plan_digest seed {doc['seed']}: {expected} -> {doc['plan_digest']}"
                "  MISMATCH"
            )
    share_a = sum(d["ops_failed"] for d in base) / max(sum(d["attempted"] for d in base), 1)
    share_b = sum(d["ops_failed"] for d in change) / max(
        sum(d["attempted"] for d in change), 1
    )
    if share_b > share_a:
        problems += 1
        lines.append(f"  failed share {share_a:.2%} -> {share_b:.2%}  HIGHER")
    if not all(doc["correct"] for doc in change):
        problems += 1
        lines.append("  a run of B is not correct")
    return lines, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    base, change = group(load(args.base)), group(load(args.change))
    common = sorted(set(base) & set(change))
    if not common:
        print("no workload present in both result sets", file=sys.stderr)
        return 2
    problems = 0
    for key in common:
        workload, trace, smoke = key
        print(
            f"{workload} trace={trace}{' smoke' if smoke else ''}: "
            f"{len(base[key])} vs {len(change[key])} runs"
        )
        print(f"  {'metric':<26} {'A median':>12} {'B median':>12} {'change':>8}")
        lines, count = compare(base[key], change[key], spec)
        print("\n".join(lines))
        problems += count
    print("REGRESSION" if problems else "no regression")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
