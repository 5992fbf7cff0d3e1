import json
import math

import numpy as np
import pytest

from curvcert.algebra import FieldTag, bracket, group_exp, identity, inner, zero
from curvcert.catalog import m_kl, sp_example, t1_sphere, t1s3_product
from curvcert.certify import (
    CertReport,
    Method,
    StartBudget,
    Verdict,
    certify_part2,
    certify_part3,
    check_fatness,
    derivative_test,
    f_of_s,
    min_ad_singular,
    point_positivity,
    report_to_dict,
    report_to_json,
    scan_along_A,
)
from curvcert.triple import Part, make_triple, project

from helpers import (
    random_admissible_pair,
    sampled_min_ad,
    sp1_pair,
    su3_su2_spans,
    t1s3_commuting_pair,
)

SQ2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def t1s3():
    return t1s3_product()


@pytest.fixture(scope="module")
def mkl():
    return m_kl(2, 1, 1)


class TestMinAdSingular:
    def test_zero_point(self, t1s3):
        assert min_ad_singular(t1s3.triple, zero(FieldTag.QUATERNION, 2)) == 0.0

    def test_t1s3_value_is_sqrt_two(self, t1s3):
        got = min_ad_singular(t1s3.triple, t1s3.base_point_A)
        assert math.isclose(got, SQ2, rel_tol=1e-12)

    def test_matches_sampling_oracle(self, mkl):
        svd = min_ad_singular(mkl.triple, mkl.base_point_A)
        sampled = sampled_min_ad(mkl.triple, mkl.base_point_A, 120_000, seed=0)
        assert abs(svd - sampled) < 1e-3

    def test_scales_linearly_in_a(self, mkl):
        base = min_ad_singular(mkl.triple, mkl.base_point_A)
        scaled = min_ad_singular(mkl.triple, 3.0 * mkl.base_point_A)
        assert math.isclose(scaled, 3.0 * base, rel_tol=1e-12)


class TestPart3:
    def test_sp_example_certified(self):
        entry = sp_example(2)
        report = certify_part3(entry.triple, entry.base_point_A)
        assert report.verdict is Verdict.CERTIFIED
        assert math.isclose(report.score, 1.0 / SQ2, rel_tol=1e-10)
        assert report.method is Method.PART3

    def test_t1_sphere_certified(self):
        entry = t1_sphere(3)
        report = certify_part3(entry.triple, entry.base_point_A)
        assert report.verdict is Verdict.CERTIFIED

    def test_failed_precondition_gates_vacuous_m(self):
        # h = k gives dim m = 0, and su(3) > su(2) is not a symmetric pair:
        # the vacuous commutation condition must not turn into CERTIFIED
        g, h = su3_su2_spans()
        triple = make_triple(g, h, h, label="su3/su2, k = h")
        assert triple.m_basis.dim == 0
        a = triple.p_basis.elements()[0]
        report = certify_part3(triple, a)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert "precondition failed: (g, h) is not a symmetric pair" in report.notes

    def test_point_in_h_is_inconclusive(self, t1s3):
        a_in_h = (1.0 / SQ2) * sp1_pair(np.array([0.0, 1.0, 0.0]), 1.0)
        a_in_h = project(t1s3.triple, a_in_h, Part.H)
        report = certify_part3(t1s3.triple, a_in_h)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert any("p" in n for n in report.notes)

    def test_zero_point_refuted_with_kernel_witness(self, mkl):
        report = certify_part3(mkl.triple, zero(FieldTag.COMPLEX, 3))
        assert report.verdict is Verdict.REFUTED
        assert report.witness is not None
        z = report.witness.Z
        assert bracket(z, zero(FieldTag.COMPLEX, 3)).norm() < 1e-12


class TestFatness:
    def test_t1_sphere2_certified(self):
        report = check_fatness(t1_sphere(2).triple, StartBudget(starts=32, seed=0))
        assert report.verdict is Verdict.CERTIFIED
        assert math.isclose(report.score, 0.5, rel_tol=1e-8)

    def test_t1_sphere3_refuted_with_valid_witness(self):
        triple = t1_sphere(3).triple
        report = check_fatness(triple, StartBudget(starts=32, seed=0))
        assert report.verdict is Verdict.REFUTED
        w = report.witness
        assert w is not None
        assert bracket(w.Z, w.W).norm() < 1e-6
        assert abs(w.Z.norm() - 1.0) < 1e-8
        assert abs(w.W.norm() - 1.0) < 1e-8
        assert abs(inner(w.Z, w.W)) < 1e-8
        assert np.linalg.norm(triple.k_basis.project_flat(w.Z.flat)) < 1e-8
        assert triple.p_basis.contains(w.W, 1e-8)


class TestPart2:
    def test_t1s3_certified(self, t1s3):
        report = certify_part2(t1s3.triple, t1s3.base_point_A, StartBudget(starts=16, seed=0))
        assert report.verdict is Verdict.CERTIFIED
        assert report.score > 1e-6

    def test_zero_point_refuted(self, t1s3):
        report = certify_part2(
            t1s3.triple, zero(FieldTag.QUATERNION, 2), StartBudget(starts=16, seed=0)
        )
        assert report.verdict is Verdict.REFUTED

    def test_vacuous_when_no_commuting_pair(self):
        # on the fat example every admissible pair has |[Z, W]| bounded below
        report = certify_part2(
            t1_sphere(2).triple, t1_sphere(2).base_point_A, StartBudget(starts=16, seed=0)
        )
        assert report.verdict is Verdict.CERTIFIED
        assert any("feasible" in n or "vacuous" in n for n in report.notes)


class TestScanFunction:
    def test_zero_at_s_zero(self, t1s3):
        rng = np.random.default_rng(0)
        z, w = t1s3_commuting_pair(rng)
        assert f_of_s(t1s3.triple, z, w, t1s3.base_point_A, 0.0) < 1e-28

    def test_frozen_value_at_point_two(self, t1s3):
        z = (1.0 / SQ2) * sp1_pair(np.array([0.0, 1.0, 0.0]), 1.0)
        w = (1.0 / SQ2) * sp1_pair(np.array([0.0, 1.0, 0.0]), -1.0)
        got = f_of_s(t1s3.triple, z, w, t1s3.base_point_A, 0.2)
        assert math.isclose(got, 0.1436451014838227, rel_tol=1e-12)

    def test_precondition_errors(self, t1s3):
        z = (1.0 / SQ2) * sp1_pair(np.array([0.0, 1.0, 0.0]), 1.0)
        w = (1.0 / SQ2) * sp1_pair(np.array([0.0, 1.0, 0.0]), -1.0)
        a = t1s3.base_point_A
        with pytest.raises(ValueError):
            f_of_s(t1s3.triple, 2.0 * z, w, a, 0.1)
        zk = (1.0 / SQ2) * sp1_pair(np.array([1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            f_of_s(t1s3.triple, zk, w, a, 0.1)
        with pytest.raises(ValueError):
            f_of_s(t1s3.triple, w, zk, a, 0.1)

    def test_commuting_flag(self, t1s3):
        # orthonormal but not commuting: Z = (j, j)/sq2, W = (k, -k)/sq2
        z = (1.0 / SQ2) * sp1_pair(np.array([0.0, 1.0, 0.0]), 1.0)
        w = (1.0 / SQ2) * sp1_pair(np.array([0.0, 0.0, 1.0]), -1.0)
        a = t1s3.base_point_A
        f_of_s(t1s3.triple, z, w, a, 0.1)  # allowed by default
        with pytest.raises(ValueError):
            f_of_s(t1s3.triple, z, w, a, 0.1, check_commuting=True)


class TestDerivativeTest:
    def test_commuting_pair_matches(self, t1s3):
        rng = np.random.default_rng(1)
        z, w = t1s3_commuting_pair(rng)
        analytic, numeric = derivative_test(t1s3.triple, z, w, t1s3.base_point_A)
        assert abs(analytic - numeric) / max(analytic, 1e-12) < 1e-3

    def test_generic_pair_matches(self, mkl):
        rng = np.random.default_rng(2)
        for _ in range(5):
            z, w = random_admissible_pair(mkl.triple, rng)
            analytic, numeric = derivative_test(mkl.triple, z, w, mkl.base_point_A)
            denom = max(abs(analytic), abs(numeric), 1e-12)
            assert abs(analytic - numeric) / denom < 1e-3

    def test_a_commuting_with_w_gives_zero(self, mkl):
        # choose A := a multiple of W so [A, W] = 0 exactly
        rng = np.random.default_rng(3)
        z, w = random_admissible_pair(mkl.triple, rng)
        analytic, numeric = derivative_test(mkl.triple, z, w, 2.0 * w)
        assert analytic == 0.0
        assert abs(numeric) < 1e-8


class TestPointPositivity:
    def test_identity_refuted_with_witness(self, t1s3):
        report = point_positivity(
            t1s3.triple, identity(FieldTag.QUATERNION, 2), StartBudget(starts=16, seed=0)
        )
        assert report.verdict is Verdict.REFUTED
        w = report.witness
        assert w is not None
        assert w.commutator_residual < 1e-12
        assert w.horizontal_residual < 1e-12

    def test_fat_example_positive_everywhere_sampled(self):
        entry = t1_sphere(2)
        rng = np.random.default_rng(4)
        from curvcert.algebra import random_skew

        for _ in range(3):
            g = group_exp(random_skew(FieldTag.REAL, 3, rng), 1.0)
            report = point_positivity(entry.triple, g, StartBudget(starts=16, seed=0))
            assert report.verdict is Verdict.CERTIFIED

    def test_scan_preserves_order_and_values(self, t1s3):
        s_values = [0.0, 0.1, 0.2]
        reports = scan_along_A(
            t1s3.triple, t1s3.base_point_A, s_values, StartBudget(starts=16, seed=0)
        )
        assert [r.s for r in reports] == s_values
        assert reports[0].verdict is Verdict.REFUTED
        assert reports[1].verdict is Verdict.CERTIFIED
        assert reports[2].verdict is Verdict.CERTIFIED
        assert reports[1].score < reports[2].score


class TestDeterminism:
    def test_identical_seed_identical_json(self, t1s3):
        budget = StartBudget(starts=16, seed=7)
        a = report_to_json(point_positivity(t1s3.triple, group_exp(t1s3.base_point_A, -0.1),
                                            budget, s=0.1))
        b = report_to_json(point_positivity(t1s3.triple, group_exp(t1s3.base_point_A, -0.1),
                                            budget, s=0.1))
        assert a == b

    def test_workers_do_not_change_result(self, t1s3):
        r1 = check_fatness(t1s3.triple, StartBudget(starts=16, seed=3, workers=1))
        r2 = check_fatness(t1s3.triple, StartBudget(starts=16, seed=3, workers=4))
        assert report_to_json(r1) == report_to_json(r2)

    def test_report_dict_schema(self, t1s3):
        report = certify_part3(t1s3.triple, t1s3.base_point_A)
        doc = report_to_dict(report)
        assert doc["schema"] == "curvcert-report/1"
        for key in ("triple", "method", "verdict", "score", "tolerance", "starts", "seed"):
            assert key in doc
        json.dumps(doc)  # serializable
