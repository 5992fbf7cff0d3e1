"""Benchmark of the curvcert CLI.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The lines before it print the same
metrics by name with units, failed_frac, the failed jobs and the
environment.  --out FILE appends the full run record (per-job report
digests and verdicts included) to FILE as one JSON line.

Summarize one results file, or compare a parent's results with a change's:

    python3 perfbench/run.py --compare parent.jsonl [change.jsonl]
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from curvbench import BLAS_VARS  # noqa: E402  (imports no numpy)

for _var in BLAS_VARS:  # one BLAS thread: the benchmark measures one client on one thread
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

from curvbench import compare, harness  # noqa: E402
from curvbench.workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402


def _print_human(rec: dict, units: dict[str, str]) -> None:
    m = rec["metrics"]
    print(f"curvcert benchmark: workload={rec['workload']} seed={rec['seed']} trace={rec['trace']}"
          f" passes={rec['passes']} attempted={rec['attempted']}")
    notes = {
        "wall_s": f"job times of one pass of {len(WORKLOADS[rec['workload']])} jobs, median of {rec['passes']} passes",
        "job_tail_ms": f"p{m.get('job_tail_pct', 0):.1f} of {m.get('job_samples')} job latencies",
        "setup_s": f"median of {m.get('setup_spawns')} spawns importing curvcert.cli",
    }
    measured = rec.get("measured", {})
    if measured:
        print(f"  times at the reference speed; as measured in [brackets]; host kernel median"
              f" {1e3 * statistics.median(rec['kernel_s']):.3g} ms over {len(rec['kernel_s'])} samples")
    for name, unit in units.items():
        raw = f"[{measured[name]:.6g}]" if name in measured and unit in ("s", "ms") else ""
        print(f"  {name:26s} {m[name]:14.6g} {unit:6s} {raw:12s} {notes.get(name, '')}")
    print(f"  {'failed_frac':26s} {rec['failed_frac']:14.6g} {'':6s} {rec['failed']} of {rec['attempted']} attempts")
    for job_id, reasons in rec["failures"].items():
        known = f"  [known defect: {KNOWN_DEFECTS[job_id]}]" if job_id in KNOWN_DEFECTS else ""
        print(f"  FAILED {job_id}: {'; '.join(reasons)}{known}")
    env = rec["env"]
    print(f"  env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} numpy={env['numpy']}"
          f" blas_threads=1 commit={env['commit'][:12]} search_seed={env['search_seed']}"
          f" starts={env['starts']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="curvcert CLI benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="workload seed: permutes the job order")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="repeat passes until this many seconds have elapsed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full run record to this JSON-lines file")
    ap.add_argument("--compare", nargs="+", metavar="RESULTS",
                    help="summarize one results file, or compare parent and change files")
    args = ap.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            ap.error("--compare takes one or two files")
        return compare.main(args.compare, ROOT / "BENCHMARK.json")
    if not args.workload:
        ap.error("--workload is required")
    work = ROOT / ".perfbench_work"
    try:
        record = harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), work)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = compare.metric_names(ROOT / "BENCHMARK.json", bool(args.trace))
    _print_human(record, units)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
