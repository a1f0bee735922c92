"""Compare the run records of two result directories (for instance a parent commit and a change).

For each workload and end-to-end metric: each side's median and quartiles, the pairs (runs
with the same seed) the second side wins, and a verdict under the metric's bound from
``BENCHMARK.json``:

* ``invalid`` — B fails a larger share of its operations than A (failed output checks or
  requests), so neither a gain nor parity counts;
* ``improved`` — B wins at least nine tenths of the pairs (ties count for neither) and the
  medians differ, in B's favour, by more than A's interquartile distance;
* ``unresolved`` — a side's interquartile spread exceeds the bound, unless every B run
  reads better than every A run;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``no worse`` — otherwise.

Each side's failed-operation totals are printed per workload.  Then per-layer deltas of
the traced runs, and whether the simulated-results digests of runs with the same seed
match.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from .harness import load_spec


def load_records(directory: str) -> List[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if isinstance(record, dict) and "workload" in record and "end_to_end" in record:
            records.append(record)
    return records


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: Dict[int, float], b: Dict[int, float], better: str, bound: float,
            failed_a: float = 0.0, failed_b: float = 0.0) -> dict:
    """Verdict on metric values keyed by seed; ``better`` is ``"lower"`` or ``"higher"``.
    ``failed_a`` and ``failed_b`` are the shares of attempted operations each side failed."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(x: float, y: float) -> float:  # > 0 when y is better than x
        return sign * (x - y)

    a_vals, b_vals = list(a.values()), list(b.values())
    a_q, b_q = quartiles(a_vals), quartiles(b_vals)
    seeds = sorted(a.keys() & b.keys())
    wins = sum(1 for s in seeds if gain(a[s], b[s]) > 0)
    losses = sum(1 for s in seeds if gain(a[s], b[s]) < 0)
    spread = max((a_q[2] - a_q[0]) / abs(a_q[1]) if a_q[1] else 0.0,
                 (b_q[2] - b_q[0]) / abs(b_q[1]) if b_q[1] else 0.0)
    worse_by = -gain(a_q[1], b_q[1]) / abs(a_q[1]) if a_q[1] else 0.0
    all_better = all(gain(x, y) > 0 for x in a_vals for y in b_vals)
    if failed_b > failed_a:
        outcome = "invalid"
    elif seeds and wins >= 0.9 * len(seeds) and gain(a_q[1], b_q[1]) > a_q[2] - a_q[0]:
        outcome = "improved"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "worse"
    else:
        outcome = "no worse"
    return {"a": a_q, "b": b_q, "pairs": len(seeds), "wins": wins, "losses": losses,
            "spread": spread, "worse_by": worse_by, "verdict": outcome}


def _by_workload(records: List[dict], traced: bool) -> Dict[str, Dict[int, dict]]:
    grouped: Dict[str, Dict[int, dict]] = {}
    for record in records:
        if bool(record.get("trace")) == traced:
            grouped.setdefault(record["workload"], {})[record["seed"]] = record
    return grouped


def _commit(records: List[dict]) -> str:
    commits = {
        f"{r['provenance'].get('commit')}{'+dirty' if r['provenance'].get('dirty') else ''}"
        for r in records
    }
    return ", ".join(sorted(commits)) or "no records"


def compare(dir_a: str, dir_b: str, spec: Optional[dict] = None) -> List[str]:
    spec = spec if spec is not None else load_spec()
    a_records, b_records = load_records(dir_a), load_records(dir_b)
    lines = [f"A: {dir_a} ({_commit(a_records)})", f"B: {dir_b} ({_commit(b_records)})"]
    a_runs, b_runs = _by_workload(a_records, False), _by_workload(b_records, False)
    a_traced, b_traced = _by_workload(a_records, True), _by_workload(b_records, True)
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = a_runs.get(workload, {}), b_runs.get(workload, {})
        a_traced_runs, b_traced_runs = a_traced.get(workload, {}), b_traced.get(workload, {})
        failed_a = _failed([*a.values(), *a_traced_runs.values()])
        failed_b = _failed([*b.values(), *b_traced_runs.values()])
        lines.append(f"workload {workload}: {len(a)} A runs, {len(b)} B runs")
        lines.append(f"  failed operations: A {failed_a[0]} of {failed_a[1]},"
                     f" B {failed_b[0]} of {failed_b[1]}")
        if a and b:
            lines.append(f"  {'metric':<14} {'A median [q1, q3]':<30} {'B median [q1, q3]':<30}"
                         f" {'B wins':<8} verdict (bound)")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                v = verdict({s: r["end_to_end"][name] for s, r in a.items()},
                            {s: r["end_to_end"][name] for s, r in b.items()},
                            metric["better"], metric["bound"],
                            _share(*failed_a), _share(*failed_b))
                lines.append(
                    f"  {name:<14} {_fmt(v['a']):<30} {_fmt(v['b']):<30}"
                    f" {v['wins']}/{v['pairs']:<6} {v['verdict']} ({metric['bound']})"
                )
        lines.extend(_digest_lines({**a_traced_runs, **a}, {**b_traced_runs, **b}))
        lines.extend(_layer_lines(a_traced_runs, b_traced_runs, spec["per_layer"]))
    return lines


def _failed(records: List[dict]) -> Tuple[int, int]:
    """``(failed, attempted)`` operations over some run records."""
    return sum(r["failed"] for r in records), sum(r["attempted"] for r in records)


def _share(failed: int, attempted: int) -> float:
    return failed / attempted if attempted else 0.0


def _fmt(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def _digest_lines(a: Dict[int, dict], b: Dict[int, dict]) -> List[str]:
    seeds = sorted(a.keys() & b.keys())
    if not seeds:
        return []
    differing = [s for s in seeds if a[s]["digest"]["hash"] != b[s]["digest"]["hash"]]
    text = f"  simulated-results digests: {len(seeds) - len(differing)}/{len(seeds)} seeds match"
    return [text + (f" (differ: seeds {differing})" if differing else "")]


def _layer_lines(a: Dict[int, dict], b: Dict[int, dict], per_layer: List[dict]) -> List[str]:
    if not a or not b:
        return []
    lines = [f"  per-layer (traced; median of {len(a)} A and {len(b)} B runs):"]
    for metric in per_layer:
        name = metric["name"]
        a_med = statistics.median(r["layers"][name] for r in a.values())
        b_med = statistics.median(r["layers"][name] for r in b.values())
        if a_med == 0 and b_med == 0:
            continue
        rel = f"{(b_med - a_med) / a_med:+.1%}" if a_med else "n/a"
        lines.append(f"    {name:<32} {a_med:>12.6g} -> {b_med:<12.6g} {rel} {metric['unit']}")
    return lines
