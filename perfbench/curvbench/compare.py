"""Summary and comparison of results files written by `run.py --out`.

With one file: median and quartiles of every metric, per workload.  With a
parent and a change file, also, per workload and end-to-end metric:
- REGRESSION when the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- unresolved when either side's quartile spread, as a share of its median,
  exceeds the bound, unless every change run beats every parent run;
and the per-layer count deltas, verdict changes and report digest changes.
The exit code is 1 when any regression is found.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def _spec(bench_json: Path) -> dict:
    return json.loads(bench_json.read_text())


def metric_names(bench_json: Path, trace: bool) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order, for the run kind."""
    spec = _spec(bench_json)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _group(records: list[dict]) -> dict[tuple, list[dict]]:
    out: dict[tuple, list[dict]] = {}
    for rec in records:
        out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def _fmt(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def _judge(metric: dict, a: list[float], b: list[float]) -> str:
    qa, qb = quartiles(a), quartiles(b)
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    if spread > bound and not b_beats_all:
        return f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
    if worse > bound:
        return f"REGRESSION ({worse:+.1%}, bound {bound:.0%})"
    return f"ok ({-worse:+.1%} better)" if worse < 0 else f"ok ({worse:.1%} worse)"


def _job_changes(ra: list[dict], rb: list[dict]) -> list[str]:
    ja, jb = ra[-1]["jobs"], rb[-1]["jobs"]
    lines = []
    for job_id in sorted(set(ja) | set(jb)):
        a, b = ja.get(job_id), jb.get(job_id)
        if a is None or b is None:
            lines.append(f"    {job_id}: {'added' if a is None else 'removed'}")
        elif a["verdicts"] != b["verdicts"]:
            lines.append(f"    {job_id}: verdicts {a['verdicts']} -> {b['verdicts']}")
        elif a["report_sha256"] != b["report_sha256"]:
            lines.append(f"    {job_id}: report bytes changed, same verdicts")
    return lines


def main(paths: list[str], bench_json: Path) -> int:
    spec = _spec(bench_json)
    sides = [_group(load(p)) for p in paths]
    regressions = 0
    for key in sorted(set().union(*sides)):
        workload, trace = key
        runs = [side.get(key, []) for side in sides]
        counts = ", ".join(f"{len(r)} runs" for r in runs)
        print(f"== {workload} ({'per-layer, traced' if trace else 'end-to-end'}; {counts})")
        if not all(runs):
            print("   missing on one side")
            continue
        for metric in spec["per_layer" if trace else "end_to_end"]:
            name = metric["name"]
            vals = [[r["metrics"][name] for r in side] for side in runs]
            line = f"   {name:26s} {metric['unit']:6s} " + "  ->  ".join(_fmt(quartiles(v)) for v in vals)
            if len(vals) == 2:
                if trace:
                    delta = statistics.median(vals[1]) - statistics.median(vals[0])
                    line += f"  delta {delta:+.6g}" if metric["unit"] == "count" else ""
                else:
                    verdict = _judge(metric, *vals)
                    regressions += verdict.startswith("REGRESSION")
                    line += "  " + verdict
            print(line)
        failed = [sorted(r[-1]["failures"]) for r in runs]
        print("   failed jobs: " + "  ->  ".join(", ".join(f) or "none" for f in failed))
        if len(runs) == 2:
            print("   job changes:")
            print("\n".join(_job_changes(*runs)) or "    none")
    return 1 if regressions else 0
