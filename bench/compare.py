"""Compare two sets of benchmark results: a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/compare.py RUNS_DIR

With one directory it prints, as JSON, each (workload, metric)'s median
over the runs and its quartile spread (IQR / median).
``bench/spreads.json`` is a list of two such records, from two sets of
runs with the seeds 1 to 10.

Each directory holds the result files ``bench/run.py --out DIR`` writes
(``<workload>.seed<N>.trace<T>.json``), ideally from runs that alternated
between the two commits with the same seeds.  For every (metric,
workload) it prints one row: each side's median and quartiles, the
change's win fraction over the runs paired by seed, and a verdict.

Verdicts, for end-to-end metrics, against the bound in BENCHMARK.json:

* ``improved``: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  spread;
* ``unresolved``: the parent's own quartile spread, as a share of its
  median, is wider than the bound, and not every run of the change reads
  better than every run of the parent;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``no-worse``: otherwise.

Per-layer metrics have no bound; their rows show ``-``.  The exit status
is 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: (workload, metric) -> {seed: value}
Table = Dict[Tuple[str, str], Dict[Optional[int], float]]


def load(directory: Path) -> Table:
    """Every metric value in a directory of result files."""
    table: Table = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for name, metric in record["result"]["metrics"].items():
            table.setdefault((record["workload"], name), {})[
                record["seed"]] = metric["value"]
    return table


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(spec: Dict, parent: Dict, change: Dict) -> Dict[str, object]:
    """One comparison row for the metric described by ``spec`` (its
    BENCHMARK.json entry; see the module docstring)."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    before, after = list(parent.values()), list(change.values())
    q1, median, q3 = quartiles(before)
    c1, change_median, c3 = quartiles(after)
    pairs = [(parent[seed], change[seed]) for seed in parent
             if seed in change]
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    row = {"parent": (q1, median, q3), "change": (c1, change_median, c3),
           "wins": wins, "pairs": len(pairs), "verdict": "-"}
    bound = spec.get("bound")
    if bound is None:
        return row
    spread = (q3 - q1) / abs(median) if median else 0.0
    worse = sign * (median - change_median) / abs(median) if median else 0.0
    all_better = min(sign * b for b in after) > max(sign * a for a in before)
    if pairs and wins >= 0.9 * len(pairs) \
            and abs(change_median - median) > q3 - q1:
        row["verdict"] = "improved"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worse > bound:
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "no-worse"
    return row


def spreads(table: Table) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per workload and metric: the number of runs, their median and
    their quartile spread (IQR / median)."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for (workload, name), values in sorted(table.items()):
        q1, median, q3 = quartiles(list(values.values()))
        out.setdefault(workload, {})[name] = {
            "runs": len(values), "median": median,
            "spread": (q3 - q1) / abs(median) if median else 0.0}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Compare two directories of benchmark results, or "
                    "summarise one.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args()
    if args.change is None:
        print(json.dumps(spreads(load(args.parent)), indent=1))
        return 0
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {metric["name"]: metric
               for kind in ("end_to_end", "per_layer") for metric in spec[kind]}
    parent, change = load(args.parent), load(args.change)
    status = 0
    print(f"{'workload':14} {'metric':38} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'wins':>7}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        row = verdict(metrics[name], parent[key], change[key])
        cells = ["/".join(f"{v:.4g}" for v in row[side])
                 for side in ("parent", "change")]
        print(f"{workload:14} {name:38} {cells[0]:>30} {cells[1]:>30} "
              f"{row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}")
        if row["verdict"] == "regressed":
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
