"""The workloads: fixed job lists, fixed search seed and start budgets, reference verdicts.

Every job is one `curvcert` command line.  The workload seed given to the
benchmark only permutes the job order of each pass; the search seed handed to
curvcert stays SEARCH_SEED, so every job's report, and hence the reference
table below, is the same for every workload seed.

Reference verdicts:
- part3 CERTIFIED everywhere: every entry is a rank-one symmetric pair whose
  m meets the centralizer of A only in 0.  The oracle recomputes sigma_min.
- fat: t1_sphere(2) is fat (so(3) has no commuting orthonormal pair, score
  0.5).  Every other entry has commuting pairs Z orthogonal to k, W in p, so
  REFUTED; the oracle re-checks each returned witness.
- part2 CERTIFIED: the derivative criterion of the source paper holds on
  t1s3_product and the m_kl family with k != 0.
- scan: REFUTED at s = 0, where W in p has no h-part, so a commuting pair
  Z in m, W in p is a flat plane at the identity; CERTIFIED at s > 0, where
  the source paper finds no flat planes along exp(-sA).

KNOWN_DEFECTS names the jobs where curvcert, as this benchmark was written,
reports a false CERTIFIED.  Their reference stays REFUTED, backed by
STORED_WITNESSES, so they count as failed until the program is fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SEARCH_SEED = 0
SEARCH_STARTS = 64  # the CLI default
SCAN_STARTS = 4
SCAN_S_VALUES = (0.0, 0.05, 0.1, 0.2, 0.4, 0.8)
TOL = 1e-6
REFUTE_TOL = 1e-12


@dataclass(frozen=True)
class Entry:
    """A catalog entry with its parameters."""

    id: str
    n: int = 0
    field: str = ""
    k: int = 0
    l: int = 0

    @property
    def argv(self) -> list[str]:
        out = ["--entry", self.id]
        if self.id != "t1s3_product":
            out += ["--n", str(self.n)]
        if self.field:
            out += ["--field", self.field]
        if self.id == "m_kl":
            out += ["--k", str(self.k), "--l", str(self.l)]
        return out

    @property
    def label(self) -> str:
        """The triple label curvcert writes into its reports."""
        if self.id == "t1s3_product":
            return "t1s3_product"
        if self.id == "m_kl":
            return f"m_kl(n={self.n},k={self.k},l={self.l})"
        if self.field:
            return f"{self.id}({self.field},n={self.n})"
        return f"{self.id}(n={self.n})"

    @property
    def key(self) -> tuple:
        """Arguments of oracle.spaces for this entry."""
        return (self.id, self.n, self.field, self.k, self.l)


@dataclass(frozen=True)
class Job:
    """One CLI call.  `{work}` in argv is replaced by the run's work directory.

    kind is "check", "scan" or "export"; expect holds one reference verdict
    per report (none for export).
    """

    id: str
    kind: str
    entry: Entry
    method: str
    argv: tuple[str, ...]
    expect: tuple[str, ...] = ()
    out_file: str = ""
    unit: str = ""  # jobs sharing a unit run back to back, in list order


T1S3 = Entry("t1s3_product")


def _t1_sphere(n):
    return Entry("t1_sphere", n)


def _sp(n):
    return Entry("sp_example", n)


def _mkl(n):
    return Entry("m_kl", n, k=1, l=1)


def _slug(entry: Entry) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in entry.label).strip("_")


def _check(entry: Entry, method: str, expect: str, extra=()) -> Job:
    argv = ("check", *entry.argv, "--method", method, *extra)
    return Job(f"{method}:{entry.label}", "check", entry, method, argv, (expect,))


def _catalog_part3() -> list[Job]:
    entries = [T1S3] + [_t1_sphere(n) for n in range(2, 11)]
    entries += [Entry("t1_projective", n, f) for f in "CH" for n in (2, 3)]
    entries += [Entry("pt_projective", 2, f) for f in "RCH"]
    entries += [_mkl(n) for n in (2, 3)] + [_sp(n) for n in range(2, 9)]
    jobs = []
    for i, entry in enumerate(entries):
        jobs.append(_check(entry, "part3", "CERTIFIED"))
        if i % 2:  # every other entry also goes through export and check --file
            path = f"{{work}}/{_slug(entry)}.json"
            unit = f"file:{entry.label}"
            jobs.append(Job(f"export:{entry.label}", "export", entry, "",
                            ("export", *entry.argv, "--out", path), out_file=path, unit=unit))
            jobs.append(Job(f"part3-file:{entry.label}", "check", entry, "part3",
                            ("check", "--file", path, "--method", "part3"), ("CERTIFIED",),
                            unit=unit))
    return jobs


def _scan(entry: Entry) -> Job:
    s_arg = ",".join(str(s) for s in SCAN_S_VALUES)
    expect = tuple("REFUTED" if s == 0.0 else "CERTIFIED" for s in SCAN_S_VALUES)
    argv = ("scan", *entry.argv, "--s-values", s_arg, "--seed", str(SEARCH_SEED),
            "--starts", str(SCAN_STARTS))
    return Job(f"scan:{entry.label}", "scan", entry, "scan", argv, expect)


def _search() -> list[Job]:
    budget = ("--seed", str(SEARCH_SEED), "--starts", str(SEARCH_STARTS))
    jobs = [_check(T1S3, "fat", "REFUTED", budget)]
    jobs += [_check(_t1_sphere(n), "fat", "CERTIFIED" if n == 2 else "REFUTED", budget)
             for n in range(2, 7)]
    jobs += [_check(_sp(n), "fat", "REFUTED", budget) for n in range(2, 5)]
    jobs += [_check(_mkl(2), "fat", "REFUTED", budget)]
    # part2 runs on t1s3 only: m_kl(2..3) part2 take 5-6 s each, 11 s of a 15-s
    # pass, which left 3 passes per run and a job_p50_ms drawn from 3 samples
    # of each job near the median.
    jobs += [_check(T1S3, "part2", "CERTIFIED", budget)]
    # Two scans keep the per-point path (adjoint, project, point search) and
    # the false CERTIFIED at s = 0 on sp_example(2) in the measured set.
    jobs += [_scan(T1S3), _scan(_sp(2))]
    return jobs


# A run makes at least this many passes, so it has at least 208 and 65 job
# latencies and the tail percentile with 10 beyond it is p95.2 and p84.6.
MIN_PASSES = {"catalog-part3": 4, "search": 5}

# A third workload of scans alone (assembly-bound) was dropped: on a shared
# 2-vCPU host, three workloads leave 25 s per run, and run-to-run spreads of
# catalog-part3 then reached the 0.25 bound.  Two workloads leave 50 s.
WORKLOADS: dict[str, list[Job]] = {
    "catalog-part3": _catalog_part3(),
    "search": _search(),
}

KNOWN_DEFECTS = {
    "fat:sp_example(n=2)": "false CERTIFIED: the alternating search stalls at max_iters near 1.56e-6",
    "scan:sp_example(n=2)": "false CERTIFIED at s = 0: the same stalled search",
}

# Flat planes for the known defects: Z = i at (1, 1) lies in m (so Z is
# orthogonal to k) and W = (E_02 - E_20)/sqrt(2) lies in p.  They act on
# disjoint index sets, so [Z, W] = 0 exactly.
_R = 1.0 / math.sqrt(2.0)
_Z = [0.0] * 36
_Z[(1 * 3 + 1) * 4 + 1] = 1.0
_W = [0.0] * 36
_W[(0 * 3 + 2) * 4 + 0] = _R
_W[(2 * 3 + 0) * 4 + 0] = -_R
STORED_WITNESSES = {
    "fat:sp_example(n=2)": {"field": "quaternion", "n": 3, "Z": _Z, "W": _W, "s": None},
    "scan:sp_example(n=2)": {"field": "quaternion", "n": 3, "Z": _Z, "W": _W, "s": 0.0},
}
