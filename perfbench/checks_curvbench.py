"""Tests of the benchmark itself: oracle, tracing, compare mode, one-job smoke runs.

Run from the root of a checkout:  python3 -m pytest perfbench/checks_curvbench.py -q
(the file name keeps it out of pytest's default discovery, so the repository's
own test run does not collect it).
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from curvbench import compare, harness, oracle, speed  # noqa: E402
from curvbench.tracing import LAYERS, Tracer  # noqa: E402
from curvbench.workloads import REFUTE_TOL, STORED_WITNESSES, WORKLOADS  # noqa: E402

CLI = harness.import_cli(ROOT)
JOBS = {job.id: job for jobs in WORKLOADS.values() for job in jobs}
SMOKE = {
    "catalog-part3": ["part3:t1_sphere(n=2)", "export:t1_sphere(n=2)", "part3-file:t1_sphere(n=2)"],
    "search": ["fat:t1_sphere(n=3)", "scan:t1s3_product"],
}


def _spaces(job_id):
    return oracle.spaces(*JOBS[job_id].entry.key)


def _run(job_ids, tmp_path, tracer=None):
    return harness.run_pass(CLI, [JOBS[j] for j in job_ids], str(tmp_path), tracer)


@pytest.mark.parametrize("job_id", sorted(STORED_WITNESSES))
def test_stored_witness_passes_and_corruptions_fail(job_id):
    sp, wit = _spaces(job_id), STORED_WITNESSES[job_id]
    assert oracle.witness_problems(sp, wit, REFUTE_TOL, wit["s"]) == []

    w = oracle.decode("quaternion", 3, wit["W"])
    w[0, 1, 0], w[1, 0, 0] = 0.1, -0.1  # still in p, no longer commuting with Z
    w /= np.linalg.norm(w)
    bad = oracle.witness_problems(sp, dict(wit, W=list(w.ravel())), REFUTE_TOL, wit["s"])
    assert any("|[Z,W]|^2" in p for p in bad)

    z = np.zeros((3, 3, 4))
    z[0, 0, 1] = 1.0  # i at (0, 0) lies in k
    bad = oracle.witness_problems(sp, dict(wit, Z=list(z.ravel())), REFUTE_TOL, wit["s"])
    assert "Z is not orthogonal to k" in bad


def test_program_witness_passes_and_corrupted_copy_fails(tmp_path):
    att = _run(["fat:t1_sphere(n=3)"], tmp_path).attempts[0]
    doc = json.loads(att.text)
    sp = _spaces("fat:t1_sphere(n=3)")
    assert doc["verdict"] == "REFUTED"
    assert oracle.report_problems(sp, doc, "fat", "REFUTED", REFUTE_TOL, 1e-6) == []
    z = list(doc["witness"]["Z"])
    z[1], z[4] = z[1] + 1e-3, z[4] - 1e-3  # entries (0, 1) and (1, 0): Z stays skew
    doc["witness"]["Z"] = z
    assert oracle.report_problems(sp, doc, "fat", "REFUTED", REFUTE_TOL, 1e-6)


def test_oracle_spaces_match_curvcert_catalog():
    from curvcert.catalog import build_entry

    entries = {job.entry for jobs in WORKLOADS.values() for job in jobs if job.entry.n <= 5}
    for e in entries:
        built = build_entry(e.id, n=e.n or None, k=e.k or None, l=e.l or None, field=e.field or None)
        t, sp = built.triple, oracle.spaces(*e.key)
        for ours, theirs in ((sp.g, t.g_basis.mat), (sp.h, t.h_basis.mat), (sp.k, t.k_basis.mat),
                             (sp.m, t.m_basis.mat), (sp.p, t.p_basis.mat)):
            assert ours.shape == theirs.shape, e
            assert np.allclose(ours.T @ ours, theirs.T @ theirs, atol=1e-10), e
        assert np.allclose(sp.a, built.base_point_A.comp, atol=1e-14), e


def test_oracle_exponential_and_sigma_min_match_curvcert():
    from curvcert.algebra import FieldTag, group_exp, random_skew
    from curvcert.certify import min_ad_singular
    from curvcert.catalog import m_kl

    x = random_skew(FieldTag.QUATERNION, 3, np.random.default_rng(5))
    assert np.allclose(oracle.expm(0.7 * x.comp), group_exp(x, 0.7).comp, atol=1e-12)
    assert math.isclose(oracle.sigma_min_on_m(oracle.spaces("m_kl", 2, "", 1, 1)),
                        min_ad_singular(m_kl(2, 1, 1).triple, m_kl(2, 1, 1).base_point_A),
                        rel_tol=1e-10)


def test_traced_self_times_sum_to_span_time_and_patches_are_removed(tmp_path):
    import curvcert.certify
    import curvcert.triple

    original = curvcert.certify.is_symmetric_pair
    tracer = Tracer()
    p = _run(["scan:t1s3_product", "part3:t1_sphere(n=2)"], tmp_path, tracer)
    assert curvcert.certify.is_symmetric_pair is original
    assert curvcert.triple.is_symmetric_pair is original
    assert tracer.calls["cli.main"] == 2
    assert tracer.calls["triple.is_symmetric_pair"] == 7  # 6 scan points + part3
    assert tracer.starts_run == 6 * 4  # 4 starts at each scan point
    assert curvcert.certify._alternating_min.__module__ == "curvcert.certify"
    assert math.isclose(sum(tracer.self_s.values()), tracer.root_s, rel_tol=1e-9)
    assert tracer.root_s <= p.wall_s
    assert set(tracer.self_s) == set(LAYERS)


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_one_job_smoke_run(workload, tmp_path):
    plain = _run(SMOKE[workload], tmp_path)
    traced = _run(SMOKE[workload], tmp_path, Tracer())
    outcome = harness.check_passes([plain, traced])
    assert outcome.failures == {}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = harness.end_to_end([plain], [(0.0, 0.2)], 40.0, harness.tail_pct(workload))
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    layers, counts_repeat = harness.per_layer([plain, traced])
    assert {m["name"] for m in spec["per_layer"]} == set(layers)
    assert counts_repeat


def test_tail_percentile_has_ten_latencies_beyond_it_at_the_minimum_pass_count():
    for workload, jobs in WORKLOADS.items():
        n = harness.MIN_PASSES[workload] * len(jobs)
        plain = harness.Pass(1.0, [harness.Attempt(jobs[0], float(i), 0, "") for i in range(n)])
        tail_ms = harness.end_to_end([plain], [(0.0, 0.2)], 40.0, harness.tail_pct(workload))["job_tail_ms"]
        assert tail_ms == 1e3 * (n - 11)


def test_times_are_scaled_by_the_kernel_samples_near_them():
    meter = speed.Meter()
    meter.at = [0.0, 1.0, 10.0, 11.0, 12.0]
    k = speed.REF_KERNEL_S
    meter.kernel_s = [k, k, 2 * k, 2 * k, 4 * k]
    assert meter.factor(0.5, 0.6) == 1.0  # samples at 0 and 1 s
    assert meter.factor(10.5, 10.6) == 0.5  # median of 2k, 2k, 4k
    assert meter.factor(30.0, 31.0) == 0.5  # no sample near: median of all
    job = JOBS["part3:t1_sphere(n=2)"]
    plain = harness.Pass(2.0, [harness.Attempt(job, 1.0, 0, "", start=0.0),
                               harness.Attempt(job, 1.0, 0, "", start=10.0)])
    e2e = harness.end_to_end([plain], [(0.5, 0.2)], 40.0, 50.0,
                             lambda start, s: s * meter.factor(start, start + s))
    assert (e2e["wall_s"], e2e["job_p50_ms"], e2e["setup_s"]) == (1.5, 750.0, 0.2)


def test_compare_flags_regression_and_unresolved(tmp_path, capsys):
    def write(name, walls):
        recs = [{"workload": "w", "trace": 0, "failures": {}, "jobs": {},
                 "metrics": {"wall_s": v, "job_p50_ms": 1.0, "job_tail_ms": 2.0, "setup_s": 0.2,
                             "peak_rss_mb": 40.0}} for v in walls]
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        return str(path)

    parent = write("a.jsonl", [1.0, 1.01, 0.99, 1.0])
    assert compare.main([parent, write("b.jsonl", [1.3, 1.31, 1.29, 1.3])], ROOT / "BENCHMARK.json") == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.main([parent, write("c.jsonl", [0.5, 1.5, 1.0, 2.0])], ROOT / "BENCHMARK.json") == 0
    assert "unresolved" in capsys.readouterr().out
