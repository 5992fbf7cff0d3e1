"""Runs one workload as a closed loop with one client and checks every output.

All jobs run in this process and thread, through `curvcert.cli.main(argv)`,
one after another.  A pass runs every job of the workload once, in an order
drawn from the workload seed.  A run makes at least MIN_PASSES passes and
goes on until its seconds have elapsed, ending at a pass boundary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import BLAS_VARS, oracle
from .speed import Meter
from .tracing import LAYERS, Tracer
from .workloads import (
    KNOWN_DEFECTS,
    MIN_PASSES,
    REFUTE_TOL,
    SCAN_S_VALUES,
    SCAN_STARTS,
    SEARCH_SEED,
    SEARCH_STARTS,
    STORED_WITNESSES,
    TOL,
    WORKLOADS,
    Job,
)

SETUP_SPAWNS = 21


class BenchError(RuntimeError):
    """The benchmark cannot run: missing program, failed set-up, bad stored data."""


@dataclass
class Attempt:
    job: Job
    seconds: float
    code: int
    text: str  # stdout, or the written file for export jobs
    err: str = ""
    start: float = 0.0  # perf_counter time the job began

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


@dataclass
class Pass:
    wall_s: float
    attempts: list[Attempt]
    tracer: Tracer | None = None


@dataclass
class Outcome:
    """Checked results of one run: failures per job and digests."""

    failures: dict[str, list[str]] = field(default_factory=dict)
    failed_attempts: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    verdicts: dict[str, list[str]] = field(default_factory=dict)

    @property
    def unexpected(self) -> dict[str, list[str]]:
        """Failures other than the verdict mismatches recorded in KNOWN_DEFECTS."""
        return {
            job_id: reasons for job_id, reasons in self.failures.items()
            if job_id not in KNOWN_DEFECTS or not all(r.startswith("verdict ") for r in reasons)
        }


def import_cli(root: Path):
    """curvcert.cli from the checkout's src/, or BenchError when it is missing."""
    src = root / "src"
    if not (src / "curvcert" / "cli.py").is_file():
        raise BenchError(f"curvcert sources not found under {src}")
    sys.path.insert(0, str(src))
    import curvcert.cli

    return curvcert.cli


def run_job(cli, job: Job, work: str) -> Attempt:
    argv = [a.replace("{work}", work) for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if job.out_file and code == 0:
        text += Path(job.out_file.replace("{work}", work)).read_text()
    return Attempt(job, seconds, code, text, err.getvalue(), start)


def run_pass(cli, order: list[Job], work: str, tracer: Tracer | None = None,
             texts: dict | None = None, between=None) -> Pass:
    """Runs the jobs in order, calling `between()` before each job.  Outputs
    equal to one in `texts` share its string, so repeated passes do not grow
    the process's memory."""
    texts = {} if texts is None else texts
    attempts = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for job in order:
            if between:
                between()
            att = run_job(cli, job, work)
            att.text = texts.setdefault(att.text, att.text)
            attempts.append(att)
    return Pass(sum(a.seconds for a in attempts), attempts, tracer)


def shuffled(jobs: list[Job], rng: random.Random) -> list[Job]:
    """The jobs in random order; jobs that share a unit stay together, in order."""
    units: dict[str, list[Job]] = {}
    for job in jobs:
        units.setdefault(job.unit or job.id, []).append(job)
    groups = list(units.values())
    rng.shuffle(groups)
    return [job for group in groups for job in group]


# --- checking ---------------------------------------------------------------------


def check_stored_witnesses() -> None:
    for job_id, wit in STORED_WITNESSES.items():
        job = next(j for jobs in WORKLOADS.values() for j in jobs if j.id == job_id)
        problems = oracle.witness_problems(oracle.spaces(*job.entry.key), wit, REFUTE_TOL, wit["s"])
        if problems:
            raise BenchError(f"stored witness for {job_id} fails the oracle: {problems}")


def attempt_problems(att: Attempt) -> tuple[list[str], list[str]]:
    """(problems, verdicts) of one attempt, judged by the oracle alone."""
    job = att.job
    if att.code == 3:
        return [f"exit code 3: {att.err.strip()[-200:]}"], []
    try:
        doc = json.loads(att.text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"], []
    sp = oracle.spaces(*job.entry.key)
    if job.kind == "export":
        return oracle.triple_problems(sp, doc) if att.code == 0 else [f"exit code {att.code}"], []
    docs = doc if job.kind == "scan" else [doc]
    if not isinstance(docs, list) or len(docs) != len(job.expect):
        return [f"expected {len(job.expect)} reports"], []
    problems = []
    verdicts = [d.get("verdict", "?") if isinstance(d, dict) else "?" for d in docs]
    for d, expect in zip(docs, job.expect):
        if not isinstance(d, dict):
            return ["report is not an object"], verdicts
        if d.get("triple") != job.entry.label:
            problems.append(f"report names triple {d.get('triple')!r}")
        problems += oracle.report_problems(sp, d, job.method, expect, REFUTE_TOL, TOL)
    want_code = max(oracle.EXIT_BY_VERDICT.get(v, 3) for v in verdicts)
    if att.code != want_code:
        problems.append(f"exit code {att.code} for verdicts {verdicts}")
    return problems, verdicts


def check_passes(passes: list[Pass]) -> Outcome:
    """Oracle check of every distinct output, plus byte determinism across passes."""
    outcome = Outcome()
    by_job: dict[str, list[Attempt]] = {}
    for p in passes:
        for att in p.attempts:
            by_job.setdefault(att.job.id, []).append(att)
    for job_id, atts in by_job.items():
        seen: dict[tuple, tuple] = {}
        for att in atts:
            key = (att.digest, att.code)
            if key not in seen:
                seen[key] = attempt_problems(att)
        reasons = sorted({r for problems, _ in seen.values() for r in problems})
        if len({d for d, _ in seen}) > 1:
            reasons.append("report bytes differ between repeats")
        outcome.digests[job_id] = atts[0].digest
        outcome.verdicts[job_id] = next(iter(seen.values()))[1]
        if reasons:
            outcome.failures[job_id] = reasons
            outcome.failed_attempts += len(atts)
    return outcome


# --- metrics -----------------------------------------------------------------------


def tail_pct(workload: str) -> float:
    """The highest percentile with at least 10 latencies beyond it in a run of MIN_PASSES passes.

    Fixed per workload, so the metric means the same whether or not a run
    fits more passes into its seconds.
    """
    n = MIN_PASSES[workload] * len(WORKLOADS[workload])
    return 100.0 * (n - 10) / n


def measure_setup(root: Path, spawns: int, meter: Meter, warm_up: bool = False
                  ) -> list[tuple[float, float]]:
    """(start, wall time) of fresh interpreters importing curvcert.cli, with a
    kernel sample before each spawn.  With warm_up, one spawn more is made
    first and discarded: it fills the file cache."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-c", "import curvcert.cli"]
    times = []
    for _ in range(spawns + warm_up):
        meter.sample()
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=60)
        times.append((start, time.perf_counter() - start))
        if proc.returncode:
            raise BenchError(f"import curvcert.cli failed: {proc.stderr.decode()[-400:]}")
    return times[warm_up:]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _as_measured(start: float, seconds: float) -> float:
    return seconds


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]], rss_mb: float, pct: float,
               scale=_as_measured) -> dict:
    """End-to-end metrics; scale(start, seconds) turns each job and spawn time
    into the time at the reference speed (see speed.py), or keeps it."""
    lat = [[scale(a.start, a.seconds) for a in p.attempts] for p in passes]
    latencies = sorted(x for p in lat for x in p)
    return {
        "wall_s": statistics.median(sum(p) for p in lat),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_tail_ms": 1e3 * latencies[max(0, math.ceil(pct / 100.0 * len(latencies) - 1e-9) - 1)],
        "job_tail_pct": pct,
        "job_samples": len(latencies),
        "setup_s": statistics.median(scale(start, s) for start, s in setup),
        "setup_spawns": len(setup),
        "peak_rss_mb": rss_mb,
    }


def _layer_snapshot(p: Pass) -> tuple[dict, dict]:
    """(times, counts) of one traced pass."""
    t = p.tracer
    incl, calls = t.incl_s, t.calls
    times = {f"{layer}.self_s": t.self_s[layer] for layer in LAYERS}
    times.update({
        "catalog.build_s": incl["catalog.build_entry"],
        "triple.make_triple_s": incl["triple.make_triple"],
        "triple.serialize_s": incl["triple.triple_to_dict"] + incl["triple.triple_from_dict"],
        "triple.sympair_s": incl["triple.is_symmetric_pair"],
        "triple.project_s": incl["triple.project"],
        "triple.stabilizer_s": incl["triple.stabilizer_subalgebra"],
        "certify.part3_s": incl["certify.certify_part3"],
        "certify.fat_s": incl["certify.check_fatness"],
        "certify.part2_s": incl["certify.certify_part2"],
        "certify.point_s": incl["certify.point_positivity"],
        "trace.span_s": t.root_s,
    })
    refuted = ok = 0
    for att in p.attempts:
        if att.job.kind == "export" or att.code == 3:
            continue
        try:
            doc = json.loads(att.text)
        except json.JSONDecodeError:
            continue
        for d in doc if isinstance(doc, list) else [doc]:
            if isinstance(d, dict) and d.get("verdict") == "REFUTED":
                refuted += 1
                ok += not oracle.report_problems(
                    oracle.spaces(*att.job.entry.key), d, att.job.method, "REFUTED", REFUTE_TOL, TOL)
    counts = {
        "catalog.build_calls": calls["catalog.build_entry"],
        "triple.sympair_calls": calls["triple.is_symmetric_pair"],
        "triple.project_calls": calls["triple.project"],
        "algebra.bracket_calls": calls["algebra.bracket"],
        "algebra.adjoint_calls": calls["algebra.adjoint"],
        "algebra.group_exp_calls": calls["algebra.group_exp"],
        "algebra.from_flat_calls": calls["algebra.from_flat"],
        "flatness.calls": sum(v for k, v in calls.items() if k.startswith("flatness.")),
        "certify.starts_run": t.starts_run,
        "certify.search_reports": t.search_reports,
        "certify.inconclusive_frac": t.inconclusive / t.search_reports if t.search_reports else 0.0,
        "certify.refuted": refuted,
        "certify.witness_ok_frac": ok / refuted if refuted else 1.0,
        "cli.report_bytes": sum(len(a.text.encode()) for a in p.attempts),
    }
    return times, counts


def per_layer(passes: list[Pass]) -> tuple[dict, bool]:
    """Per-layer metrics (median times over traced passes) and whether counts repeat."""
    plain = [p.wall_s for p in passes if p.tracer is None]
    snaps = [_layer_snapshot(p) for p in passes if p.tracer is not None]
    traced = [p.wall_s for p in passes if p.tracer is not None]
    out = {k: statistics.median(s[0][k] for s in snaps) for k in snaps[0][0]}
    out.update(snaps[0][1])
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out, all(s[1] == snaps[0][1] for s in snaps)


# --- environment ----------------------------------------------------------------


def _git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, workload: str, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": _git_commit(root),
        "workload": workload,
        "workload_seed": seed,
        "search_seed": SEARCH_SEED,
        "starts": {"fat": SEARCH_STARTS, "part2": SEARCH_STARTS, "scan": SCAN_STARTS},
        "scan_s_values": list(SCAN_S_VALUES),
    }


# --- one run ---------------------------------------------------------------------


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run; returns the full record (see run.py for the printed form).

    The run makes at least MIN_PASSES passes (with --trace, one plain and one
    traced pass) and goes on until `seconds` have elapsed.  Without --trace,
    the kernel samples (speed.py) run between jobs, outside the job timings."""
    jobs = WORKLOADS[workload]
    cli = import_cli(root)
    check_stored_witnesses()
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    run_job(cli, jobs[0], str(work))  # warm-up: first numpy and argparse calls
    passes: list[Pass] = []
    texts: dict[str, str] = {}
    if trace:
        deadline = time.perf_counter() + seconds
        while len(passes) < 2 or time.perf_counter() < deadline:
            passes.append(run_pass(cli, shuffled(jobs, rng), str(work), texts=texts))
            passes.append(run_pass(cli, shuffled(jobs, rng), str(work), Tracer(), texts))
    else:
        # Half of the set-up spawns come before the passes and half after, so
        # that their median does not rest on one phase of the host's speed.
        meter = Meter()
        setup = measure_setup(root, SETUP_SPAWNS // 2 + 1, meter, warm_up=True)

        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES[workload] or time.perf_counter() < deadline:
            passes.append(run_pass(cli, shuffled(jobs, rng), str(work), texts=texts,
                                   between=meter.maybe_sample))
        setup += measure_setup(root, SETUP_SPAWNS // 2, meter)
        meter.sample()
    rss = peak_rss_mb()
    outcome = check_passes(passes)
    attempted = sum(len(p.attempts) for p in passes)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "pass_walls_s": [p.wall_s for p in passes],
        "latency_ms": {j.id: [1e3 * a.seconds for p in passes for a in p.attempts if a.job is j]
                       for j in jobs},
        "attempted": attempted,
        "failed": outcome.failed_attempts,
        "failed_frac": outcome.failed_attempts / attempted,
        "failures": outcome.failures,
        "jobs": {j: {"report_sha256": outcome.digests[j], "verdicts": outcome.verdicts[j]}
                 for j in outcome.digests},
        "env": environment(root, workload, seed),
    }
    counts_repeat = True
    if trace:
        record["metrics"], counts_repeat = per_layer(passes)
    else:
        record["metrics"] = end_to_end(passes, setup, rss, tail_pct(workload),
                                       lambda start, s: s * meter.factor(start, start + s))
        record["measured"] = end_to_end(passes, setup, rss, tail_pct(workload))
        record["kernel_s"] = meter.kernel_s
    record["correct"] = not outcome.unexpected and counts_repeat
    if not counts_repeat:
        record["failures"]["(trace)"] = ["per-layer counts differ between traced passes"]
    return record
