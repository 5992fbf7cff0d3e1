import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import curvcert.certify as certify
from curvcert.algebra import (
    FieldTag,
    adjoint,
    bracket,
    group_exp,
    inner,
)
from curvcert.catalog import (
    m_kl,
    pt_projective,
    sp_example,
    t1_projective,
    t1_sphere,
    t1s3_product,
)
from curvcert.certify import (
    Method,
    StartBudget,
    Verdict,
    certify_part2,
    certify_part3,
    check_fatness,
    min_ad_singular,
    report_to_dict,
    scan_along_A,
)
from curvcert.cli import main
from curvcert.flatness import horizontal_flat_residual
from curvcert.triple import Part, make_triple, project

from helpers import (
    basis_element,
    bit_equal,
    derivative_test,
    descend_one,
    elements,
    f_of_s,
    full_algebra_basis,
    identity,
    pair_tensor,
    point_positivity,
    random_admissible_pair,
    reference_starts,
    report_to_json,
    sampled_min_ad,
    save_triple,
    sp1_pair,
    su3_su2_spans,
    t1s3_commuting_pair,
    zero,
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
        a = elements(triple.p_basis)[0]
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


def assert_flat_pair(triple, w, refute_tol=1e-12):
    """The C6 witness checks: orthonormal, Z orthogonal to k, W in p, |[Z, W]|^2 <= refute_tol."""
    assert w is not None
    assert bracket(w.Z, w.W).norm() ** 2 <= refute_tol
    assert abs(w.Z.norm() - 1.0) < 1e-8
    assert abs(w.W.norm() - 1.0) < 1e-8
    assert abs(inner(w.Z, w.W)) < 1e-8
    assert np.linalg.norm(triple.k_basis.project_flat(w.Z.flat)) < 1e-8
    assert triple.p_basis.contains(w.W, 1e-8)


class TestStalledSearches:
    """Searches the alternating descent alone left stalled above the refutation tolerance."""

    def test_sp_example2_not_fat(self):
        # The descent used to stop at max_iters near 1.56e-6, a false CERTIFIED
        # above tol 1e-6; Z = i at (1, 1), W = (E_02 - E_20)/sqrt(2) commute.
        triple = sp_example(2).triple
        report = check_fatness(triple)
        assert report.verdict is Verdict.REFUTED
        assert report.score <= 1e-12
        assert_flat_pair(triple, report.witness)

    def test_sp_example2_flat_plane_at_identity(self):
        entry = sp_example(2)
        reports = scan_along_A(entry.triple, entry.base_point_A, [0.0, 0.1],
                               StartBudget(starts=4, seed=0))
        assert [r.verdict for r in reports] == [Verdict.REFUTED, Verdict.CERTIFIED]
        assert_flat_pair(entry.triple, reports[0].witness)

    def test_m_kl_k0_flat_planes_along_the_scan(self):
        # k = 0 lies outside the certified family: flat planes persist at s > 0
        # (the stalled descent reported INCONCLUSIVE at 1e-9..1e-12 there)
        entry = m_kl(2, 0, 1)
        s_values = [0.05, 0.1, 0.2, 0.4, 0.8]
        reports = scan_along_A(entry.triple, entry.base_point_A, s_values,
                               StartBudget(starts=16, seed=0))
        for s, report in zip(s_values, reports):
            assert report.verdict is Verdict.REFUTED
            w = report.witness
            assert_flat_pair(entry.triple, w)
            comm, horiz = horizontal_flat_residual(
                entry.triple, group_exp(entry.base_point_A, -s), w.Z, w.W)
            assert comm <= 1e-12 and horiz <= 1e-12

    def test_no_start_hits_max_iters(self, t1s3):
        fat = check_fatness(sp_example(2).triple, StartBudget(starts=64, seed=0))
        part2 = certify_part2(t1s3.triple, t1s3.base_point_A, StartBudget(starts=64, seed=0))
        # fat refutes from the probe: three of its starts reach a witness value
        # below refute_tol/2 on the same step, which stops the fourth
        assert fat.notes[-1] == ("probe: 4 of 64 starts run; 3 of 4 starts converged"
                                 " (3 below refute_tol/2); 0 hit max_iters")
        assert part2.notes[-1] == "64 of 64 starts converged; 0 hit max_iters"

    def test_every_search_report_counts_its_starts(self, t1s3):
        budget = StartBudget(starts=8, seed=3)
        reports = [check_fatness(t1_sphere(2).triple, budget),
                   certify_part2(t1s3.triple, t1s3.base_point_A, budget)]
        reports += scan_along_A(t1s3.triple, t1s3.base_point_A, [0.0, 0.2], budget)
        for report in reports:
            match = re.fullmatch(r"(?:probe: (\d+) of 8 starts run; )?(\d+) of (\d+) starts converged"
                                 r"(?: \((\d+) below refute_tol/2\))?; (\d+) hit max_iters",
                                 report.notes[-1])
            assert match and int(match[3]) == int(match[1] or 8)
            # a probe ends its starts at its first witness; a full search runs each to its end
            below = report.verdict is Verdict.REFUTED
            assert (match[1] is not None) == below
            assert int(match[2]) + int(match[5]) <= int(match[3])
            assert below or int(match[2]) + int(match[5]) == 8
            # only a search below refute_tol has starts below refute_tol/2; here
            # every refuting one has
            assert (match[4] is not None) == below and int(match[4] or 0) <= int(match[2])


class TestPart2:
    def test_t1s3_certified(self, t1s3):
        # the joint minimum of |[Z, W]|^2 + |[Z^h, [A, W]^h]|^2; the constrained
        # minimum of the second term over commuting pairs is 4
        report = certify_part2(t1s3.triple, t1s3.base_point_A, StartBudget(starts=16, seed=0))
        assert report.verdict is Verdict.CERTIFIED
        assert math.isclose(report.score, 2.0, rel_tol=1e-12)

    def test_zero_point_refuted(self, t1s3):
        report = certify_part2(
            t1s3.triple, zero(FieldTag.QUATERNION, 2), StartBudget(starts=16, seed=0)
        )
        assert report.verdict is Verdict.REFUTED

    def test_point_in_h_is_inconclusive(self, t1s3):
        # A = (i, i)/sqrt(2) lies in h (indeed in k), so the criterion does not apply
        a_in_h = (1.0 / SQ2) * sp1_pair(np.array([1.0, 0.0, 0.0]), 1.0)
        report = certify_part2(t1s3.triple, a_in_h, StartBudget(starts=8, seed=0))
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.witness is None
        assert report.notes == ("precondition failed: A does not lie in p",)

    @pytest.mark.parametrize("make", [
        lambda: t1_sphere(2), lambda: pt_projective(FieldTag.REAL, 2),
        lambda: pt_projective(FieldTag.COMPLEX, 2), lambda: pt_projective(FieldTag.QUATERNION, 2),
    ], ids=["t1_sphere(2)", "pt_projective(R,2)", "pt_projective(C,2)", "pt_projective(H,2)"])
    def test_fat_bundle_scores_its_fatness_gap(self, make):
        # no pair commutes, so the score is the least |[Z, W]|^2, fat's 0.5,
        # not a vacuous 0 from the derivative term alone
        e = make()
        budget = StartBudget(starts=64, seed=0)
        report = certify_part2(e.triple, e.base_point_A, budget)
        assert report.verdict is Verdict.CERTIFIED
        assert math.isclose(report.score, 0.5, rel_tol=1e-9)
        assert math.isclose(check_fatness(e.triple, budget).score, 0.5, rel_tol=1e-9)
        assert report.notes == ("heuristic certificate: all starts stayed above tolerance",
                                "64 of 64 starts converged; 0 hit max_iters")

    @pytest.mark.parametrize("make", [lambda: m_kl(2, 1, 1), lambda: m_kl(2, 2, 1),
                                      lambda: t1_sphere(3)],
                             ids=["m_kl(2,1,1)", "m_kl(2,2,1)", "t1_sphere(3)"])
    def test_score_is_bounded_by_the_scans_second_order_term(self, make):
        # f(s) = min |[Z, W]|^2 + |[(Ad Z)^h, (Ad W)^h]|^2 at exp(-sA) grows like
        # c s^2, c the least |[Z^h, [A, W]^h]|^2 over commuting pairs, and
        # part2's joint minimum cannot exceed c; c is Richardson-extrapolated
        # from an independent search, the scan (truncation error about 4e-6
        # relative, inside the slack)
        e = make()
        f05, f1 = (r.score for r in scan_along_A(e.triple, e.base_point_A, [0.05, 0.1],
                                                  StartBudget(starts=16, seed=0)))
        richardson = (4.0 * f05 / 0.05**2 - f1 / 0.1**2) / 3.0
        report = certify_part2(e.triple, e.base_point_A, StartBudget(starts=64, seed=0))
        assert 0.0 < report.score <= richardson * (1.0 + 1e-4)


def _variants():
    """The catalog variants of the part2 job list, with the verdict part2 gives each."""
    h, c, r = FieldTag.QUATERNION, FieldTag.COMPLEX, FieldTag.REAL
    return {
        "t1s3": t1s3_product, "t1_sphere(2)": lambda: t1_sphere(2),
        "t1_sphere(3)": lambda: t1_sphere(3), "t1_sphere(6)": lambda: t1_sphere(6),
        "t1_projective(C,2)": lambda: t1_projective(c, 2),
        "t1_projective(H,3)": lambda: t1_projective(h, 3),
        "pt_projective(R,2)": lambda: pt_projective(r, 2),
        "pt_projective(C,2)": lambda: pt_projective(c, 2),
        "pt_projective(H,2)": lambda: pt_projective(h, 2),
        "m_kl(2,1,1)": lambda: m_kl(2, 1, 1), "m_kl(3,1,1)": lambda: m_kl(3, 1, 1),
        "m_kl(2,2,1)": lambda: m_kl(2, 2, 1), "m_kl(2,0,1)": lambda: m_kl(2, 0, 1),
        "m_kl(2,1,-1)": lambda: m_kl(2, 1, -1), "sp_example(2)": lambda: sp_example(2),
        "sp_example(3)": lambda: sp_example(3), "sp_example(4)": lambda: sp_example(4),
    }


class TestScoresAgreeWithVerdicts:
    """A CERTIFIED score exceeds tol and a REFUTED one is below the refutation threshold."""

    @pytest.mark.parametrize("name", sorted(_variants()))
    def test_fat_part2_and_scan(self, name):
        e = _variants()[name]()
        budget = StartBudget(starts=16, seed=0)
        reports = [check_fatness(e.triple, budget), certify_part2(e.triple, e.base_point_A, budget)]
        reports += scan_along_A(e.triple, e.base_point_A, [0.0, 0.1], StartBudget(starts=4))
        for report in reports:
            if report.verdict is Verdict.CERTIFIED:
                assert report.score > certify.DEFAULT_TOL, report
            elif report.verdict is Verdict.REFUTED:
                assert report.score < certify.DEFAULT_REFUTE_TOL, report


class TestOneSearch:
    """Fatness, part2 and a scan of any length run `_flat_plane_search` once each."""

    def test_each_method_makes_one_search(self, t1s3, monkeypatch):
        calls = []
        real = certify._flat_plane_search
        monkeypatch.setattr(certify, "_flat_plane_search",
                            lambda *args, **kw: calls.append(args[1]) or real(*args, **kw))
        triple, a, budget = t1s3.triple, t1s3.base_point_A, StartBudget(starts=4, seed=0)
        check_fatness(triple, budget)
        certify_part2(triple, a, budget)
        point_positivity(triple, group_exp(a, -0.1), budget, s=0.1)
        assert calls == [Method.FAT, Method.PART2, Method.POINT_SCAN]
        calls.clear()
        scan_along_A(triple, a, [0.0, 0.1, 0.2], budget)
        assert calls == [Method.POINT_SCAN]


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

    def test_scan_checks_symmetry_once_and_matches_point_calls(self, monkeypatch):
        # all points of a scan descend together; each report must be the one
        # the point search gives alone, byte for byte: with no probe (4
        # starts) and with one (16), where s = 0 refutes from the probe and
        # the points up to 0.3 run every start (m_kl(2,1,1) refutes at 1.5
        # too); with a refute_tol so small that each point's rounding floor
        # stops its starts; and off the symmetric pairs, where the Z-domain
        # meets p
        calls = []
        real = certify.is_symmetric_pair
        monkeypatch.setattr(certify, "is_symmetric_pair",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        s_values = [0.0, 0.1, 0.3, 0.05, 1.5]
        runs = [(StartBudget(starts=4, seed=2), certify.DEFAULT_REFUTE_TOL),
                (StartBudget(starts=16, seed=2), certify.DEFAULT_REFUTE_TOL),
                (StartBudget(starts=4, seed=2), 1e-40)]
        for e in (t1s3_product(), sp_example(2), m_kl(2, 1, 1), su3_su2_entry()):
            for budget, refute_tol in runs:
                calls.clear()
                reports = scan_along_A(e.triple, e.base_point_A, s_values, budget,
                                       refute_tol=refute_tol)
                assert len(calls) == 1
                probed = [r.notes[-1].startswith("probe:") for r in reports]
                assert probed[:4] == [budget.starts > certify._PROBE_STARTS, False, False, False]
                for s, report in zip(s_values, reports):
                    single = point_positivity(e.triple, group_exp(e.base_point_A, -s), budget,
                                              refute_tol=refute_tol, s=s)
                    assert report_to_json(report) == report_to_json(single)

    @pytest.mark.parametrize("starts", [1, 4, 16])
    def test_a_scan_of_any_length_is_one_or_two_descents(self, monkeypatch, starts):
        # one lockstep descent of every point; above 4 starts a probe first
        e = sp_example(2)
        rows = []
        real = certify._descend
        monkeypatch.setattr(certify, "_descend", lambda t, gmat, z0, *a, **kw: rows.append(
            (len(t), len(z0))) or real(t, gmat, z0, *a, **kw))
        for s_values in ([0.0], [0.2], [0.0, 0.05, 0.1, 0.2, 0.4, 0.8]):
            rows.clear()
            reports = scan_along_A(e.triple, e.base_point_A, s_values, StartBudget(starts=starts))
            assert [r.verdict is Verdict.REFUTED for r in reports] == [s == 0 for s in s_values]
            if starts <= certify._PROBE_STARTS:
                assert rows == [(len(s_values), starts)]
            else:  # the probe settles s = 0; the other points run every start
                unsettled = sum(s > 0 for s in s_values)
                assert rows == [(len(s_values), 4)] + [(unsettled, starts)] * (unsettled > 0)

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


def h_equals_g():
    """t1_sphere(3) with h = g: p = 0, so every search over W in p has an empty domain."""
    t = t1_sphere(3).triple
    g = elements(t.g_basis)
    return make_triple(g, g, elements(t.k_basis), label="t1_sphere(3), h = g")


class TestRefutationsHoldOnTheElementPath:
    """Every catalog REFUTED witness re-evaluates below its threshold on the element path.

    The searches and part3 read brackets along g or h; on closed chains that
    is all of each bracket, so the guard that re-checks a refutation through
    `bracket` and `horizontal_flat_residual` never turns a catalog verdict.
    """

    @pytest.mark.parametrize("name,make", [
        ("t1s3_product", t1s3_product), ("t1_sphere(3)", lambda: t1_sphere(3)),
        ("t1_sphere(6)", lambda: t1_sphere(6)), ("sp_example(2)", lambda: sp_example(2)),
        ("sp_example(4)", lambda: sp_example(4)), ("m_kl(2,1,1)", lambda: m_kl(2, 1, 1))])
    def test_fat_and_scan_witnesses(self, name, make):
        e = make()
        fat = check_fatness(e.triple, StartBudget(starts=64))
        scan = scan_along_A(e.triple, e.base_point_A, [0.0], StartBudget(starts=4))[0]
        assert fat.verdict is scan.verdict is Verdict.REFUTED
        assert bracket(fat.witness.Z, fat.witness.W).norm() ** 2 < certify.DEFAULT_REFUTE_TOL
        at_identity = identity(e.triple.field, e.triple.n)
        element = sum(horizontal_flat_residual(e.triple, at_identity, scan.witness.Z,
                                               scan.witness.W))
        assert element < certify.DEFAULT_REFUTE_TOL

    def test_part3_witness(self):
        e = m_kl(2, 0, 1)
        report = certify_part3(e.triple, e.base_point_A)
        assert report.verdict is Verdict.REFUTED
        assert bracket(report.witness.Z, e.base_point_A).norm() < certify.DEFAULT_TOL / 10


class TestEmptyDomains:
    def test_fat_is_vacuously_fat(self):
        triple = h_equals_g()
        assert triple.p_basis.dim == 0
        report = check_fatness(triple, StartBudget(starts=4, seed=0))
        assert report.verdict is Verdict.CERTIFIED
        assert report.score == math.inf and report.witness is None and report.s is None
        assert report.notes == ("degenerate triple (empty search domain): vacuously fat",)

    def test_point_search_and_scan_are_vacuously_positive(self):
        triple, a = h_equals_g(), zero(FieldTag.REAL, 4)  # 0 is the one A in p = 0
        budget = StartBudget(starts=4, seed=0)
        point = point_positivity(triple, group_exp(a, -0.3), budget, s=0.3)
        scan = scan_along_A(triple, a, [0.0, 0.3], budget)
        assert [r.s for r in scan] == [0.0, 0.3]
        for report in (point, *scan):
            assert report.method is Method.POINT_SCAN
            assert report.verdict is Verdict.CERTIFIED
            assert report.score == math.inf and report.witness is None
            assert report.notes == (
                "degenerate triple (empty search domain): vacuously positive",)
        assert report_to_json(point) == report_to_json(scan[1])

    def test_part2_is_vacuous_but_gated_on_a_in_p(self):
        triple, a = h_equals_g(), t1_sphere(3).base_point_A
        budget = StartBudget(starts=4, seed=0)
        report = certify_part2(triple, zero(FieldTag.REAL, 4), budget)
        assert report.verdict is Verdict.CERTIFIED and report.score == math.inf
        assert report.notes == ("degenerate triple (empty search domain): vacuous",)
        report = certify_part2(triple, a, budget)  # p = 0 cannot hold A
        assert report.verdict is Verdict.INCONCLUSIVE and math.isnan(report.score)
        assert report.notes == ("precondition failed: A does not lie in p",)


class TestDeterminism:
    def test_identical_seed_identical_json(self, t1s3):
        budget = StartBudget(starts=16, seed=7)
        a = report_to_json(point_positivity(t1s3.triple, group_exp(t1s3.base_point_A, -0.1),
                                            budget, s=0.1))
        b = report_to_json(point_positivity(t1s3.triple, group_exp(t1s3.base_point_A, -0.1),
                                            budget, s=0.1))
        assert a == b

    def test_report_dict_schema(self, t1s3):
        report = certify_part3(t1s3.triple, t1s3.base_point_A)
        doc = report_to_dict(report)
        assert doc["schema"] == "curvcert-report/2"
        for key in ("triple", "method", "verdict", "score", "tolerance", "starts", "seed"):
            assert key in doc
        json.dumps(doc)  # serializable


# Squared residuals below this are rounding noise of a zero residual (|T| near
# 1e-16 squared, or a stalled descent far below refute_tol); there the start
# values of two summation orders agree only absolutely.
NOISE = 1e-20


def assert_same_search(got, ref):
    """Per-start values agree to 1e-9 relative; the chosen start is optimal for both."""
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=NOISE)
    tied = np.flatnonzero(ref <= ref.min() * (1 + 1e-9) + NOISE)
    assert np.argmin(got) in tied  # same argmin, up to starts tied at rounding level


def su3_su2_entry():
    """su(2) < su(3) with k = 0 and A the first p-basis vector: closed, but not a symmetric pair."""
    g, h = su3_su2_spans()
    triple = make_triple(g, h, [])
    return SimpleNamespace(triple=triple, base_point_A=elements(triple.p_basis)[0])


ENTRIES = {
    "t1s3_product": t1s3_product,
    "t1_sphere(2)": lambda: t1_sphere(2),
    "t1_sphere(3)": lambda: t1_sphere(3),
    "m_kl(2,1,1)": lambda: m_kl(2, 1, 1),
    "sp_example(2)": lambda: sp_example(2),
    "sp_example(3)": lambda: sp_example(3),
    "su(3)>su(2)": su3_su2_entry,
}


def coordinates(triple, tensor):
    """A pair tensor of flat (n, n, 4) values in orthonormal coordinates of the whole algebra."""
    basis = full_algebra_basis(triple.field, triple.n)
    return tensor @ basis.reshape(len(basis), -1).T


class _Recorded(Exception):
    pass


def first_descent(monkeypatch, search, probe=False):
    """The arguments that a search hands to its first `certify._descend`, as the search built them.

    A search of more than `certify._PROBE_STARTS` starts first descends a
    probe; the probe's call is the one recorded when probe is True, and it
    runs as usual otherwise.
    """
    seen = []
    real = certify._descend

    def record(*args, **kw):
        if kw.get("probe", False) != probe:
            return real(*args, **kw)
        seen.append(args)
        raise _Recorded

    with monkeypatch.context() as patch:
        patch.setattr(certify, "_descend", record)
        with pytest.raises(_Recorded):
            search()
    return seen[0]


def objective(triple, tensors):
    """The search's own tensor for the terms: their coordinates, stacked along the last axis."""
    return np.concatenate([coordinates(triple, t) for t in tensors], axis=2)


class TestStarts:
    """The stacked start draw gives the bits of the one-start-at-a-time loop."""

    @pytest.mark.parametrize("name", ["t1s3_product", "t1_sphere(3)", "m_kl(2,1,1)",
                                      "sp_example(3)"])
    def test_matches_the_loop_on_every_search_domain(self, name):
        triple = ENTRIES[name]().triple
        constrained = 0
        for z_dom in (triple.gk_basis(), certify._scan_z_domain(triple)):  # fat and part2, scan
            gmat = certify._ortho_constraint(z_dom, triple.p_basis)
            constrained += gmat is not None
            for g in (gmat, None):
                for budget in (StartBudget(starts=16, seed=0), StartBudget(starts=64, seed=5)):
                    got = certify._starts(z_dom, triple.p_basis, g, budget)
                    want = reference_starts(z_dom, triple.p_basis, g, budget)
                    assert bit_equal(got[0], want[0]) and bit_equal(got[1], want[1])
        assert constrained >= 1  # g minus k meets p: fat and part2 carry the constraint

    @pytest.mark.parametrize("scale", [0.0, 2e-13, 1.0])
    def test_matches_the_loop_on_random_constraints(self, scale):
        # at scale 2e-13, |gmat w| falls on both sides of the 1e-12 cutoff
        class Domain:
            def __init__(self, dim):
                self.dim = dim

        gmat = scale * np.random.default_rng(13).standard_normal((31, 16))
        budget = StartBudget(starts=64, seed=2)
        got = certify._starts(Domain(31), Domain(16), gmat, budget)
        want = reference_starts(Domain(31), Domain(16), gmat, budget)
        assert bit_equal(got[0], want[0]) and bit_equal(got[1], want[1])
        projected = np.linalg.norm(want[1] @ gmat.T, axis=1) > 1e-12
        assert projected.any() == (scale > 0) and projected.all() == (scale == 1.0)


def _lockstep_vs_oracle(tensors, gmat, z0, w0, target, triple=None, max_iters=200):
    """Lockstep values (on the search's own objective tensor when a triple is given) and oracle's."""
    t = tensors[0] if triple is None else objective(triple, tensors)
    [(got, _, _, status)] = certify._descend(t[None], gmat, z0, w0, max_iters, target)
    ref = [descend_one(tensors, gmat, z, w, max_iters, target) for z, w in zip(z0, w0)]
    assert list(status) == [r[3] for r in ref]
    return got, np.array([r[0] for r in ref])


class TestLockstepSearch:
    @pytest.mark.parametrize("name,target", [
        *(pytest.param(name, 0.0, id=name) for name in [
            "t1s3_product", "t1_sphere(2)", "t1_sphere(3)", "m_kl(2,1,1)", "sp_example(2)",
            "sp_example(3)"]),
        ("sp_example(2)", 5e-13), ("sp_example(3)", 5e-13)])
    def test_fat_matches_one_start_oracle(self, name, target):
        triple = ENTRIES[name]().triple
        z_dom, w_dom = triple.gk_basis(), triple.p_basis
        tensor = pair_tensor(elements(z_dom), elements(w_dom), bracket)
        gmat = certify._ortho_constraint(z_dom, w_dom)
        z0, w0 = certify._starts(z_dom, w_dom, gmat, StartBudget(starts=16, seed=0))
        got, ref = _lockstep_vs_oracle([tensor], gmat, z0, w0, target, triple)
        assert_same_search(got, ref)
        if target:  # the sp_example fat searches refute: every start stops at a witness
            assert (ref < target).all()

    @pytest.mark.parametrize("max_iters", [0, 1, 4])
    @pytest.mark.parametrize("name", ["m_kl(2,1,1)", "sp_example(2)"])
    def test_truncated_descent_matches_one_start_oracle(self, name, max_iters):
        # cut short, the values still fall: they pin the sweeps and each step
        triple = ENTRIES[name]().triple
        z_dom, w_dom = triple.gk_basis(), triple.p_basis
        tensor = pair_tensor(elements(z_dom), elements(w_dom), bracket)
        gmat = certify._ortho_constraint(z_dom, w_dom)
        z0, w0 = certify._starts(z_dom, w_dom, gmat, StartBudget(starts=16, seed=0))
        got, ref = _lockstep_vs_oracle([tensor], gmat, z0, w0, 0.0, triple, max_iters)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=NOISE)
        if name == "sp_example(2)":
            assert ref.min() > 1e-12  # still descending: no start at a zero yet

    def test_point_search_matches_one_start_oracle(self):
        entry = sp_example(2)
        triple, g = entry.triple, group_exp(entry.base_point_A, -0.2)
        z_dom, w_dom = triple.m_basis, triple.p_basis

        def horizontal_map(z, w):
            return bracket(project(triple, adjoint(g, z), Part.H),
                           project(triple, adjoint(g, w), Part.H))

        tensors = [pair_tensor(elements(z_dom), elements(w_dom), fn)
                   for fn in (bracket, horizontal_map)]
        gmat = certify._ortho_constraint(z_dom, w_dom)
        assert gmat is None  # m is orthogonal to p: no orthogonality constraint
        z0, w0 = certify._starts(z_dom, w_dom, gmat, StartBudget(starts=16, seed=0))
        assert_same_search(*_lockstep_vs_oracle(tensors, gmat, z0, w0, 0.0, triple))

    def test_a_scan_is_one_probe_and_one_full_search(self, monkeypatch):
        # every start at every point descends in one `_sweeps` call: the
        # probe's 4 starts at all 6 points, then all 16 starts at the 5 points
        # the probe does not refute; each point keeps its search's report
        e = sp_example(4)
        s_values, budget = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8], StartBudget(starts=16, seed=0)
        calls = []
        real = certify._sweeps
        monkeypatch.setattr(certify, "_sweeps", lambda t, gmat, z0, *a: calls.append(
            (len(t), len(z0))) or real(t, gmat, z0, *a))
        reports = scan_along_A(e.triple, e.base_point_A, s_values, budget)
        assert calls == [(6, 6 * 4), (5, 5 * 16)]
        for s, got in zip(s_values, reports):
            single = point_positivity(e.triple, group_exp(e.base_point_A, -s), budget, s=s)
            assert report_to_json(got) == report_to_json(single)

    def test_each_point_product_has_the_bits_of_its_rows_alone(self):
        # a row's bits in a matrix product can depend on how many rows share
        # the product and where the row sits (with OpenBLAS, 36-long rows
        # times 9 columns), so `_by_point` makes one product per point, of
        # exactly its rows, with a stack of matrices or with one
        rng = np.random.default_rng(14)
        x = rng.standard_normal((8, 36))
        stack, one = rng.standard_normal((3, 36, 9)), rng.standard_normal((36, 9))
        runs = certify._runs(np.repeat([0, 2], [3, 5]))
        assert runs == [(0, 0, 3), (2, 3, 8)]
        for mats, pick in ((stack, lambda p: stack[p]), (one, lambda p: one)):
            want = np.concatenate([x[i:j] @ pick(p) for p, i, j in runs])
            assert bit_equal(certify._by_point(x, runs, mats), want)

    def test_mixed_batch_of_constrained_and_free_first_steps(self):
        rng = np.random.default_rng(5)
        tensor = rng.standard_normal((4, 3, 6))
        gmat = np.zeros((4, 3))
        gmat[0, 0] = gmat[1, 1] = 1.0  # gmat w = 0 exactly when w = +-e_2
        w0 = rng.standard_normal((8, 3))
        w0[::2] = [0.0, 0.0, 1.0]
        w0 /= np.linalg.norm(w0, axis=1, keepdims=True)
        z0 = rng.standard_normal((8, 4))
        z0 /= np.linalg.norm(z0, axis=1, keepdims=True)
        u = np.linalg.norm(w0 @ gmat.T, axis=1)
        assert (u[::2] <= 1e-12).all() and (u[1::2] > 1e-12).all()
        assert_same_search(*_lockstep_vs_oracle([tensor], gmat, z0, w0, 0.0))

    @pytest.mark.parametrize("name", ["t1s3_product", "t1_sphere(3)", "m_kl(2,1,1)",
                                      "sp_example(3)", "su(3)>su(2)"])
    def test_broadcast_tensors_match_per_pair_maps(self, name, monkeypatch):
        # each search's tensor holds coordinates along g (commutator), then
        # along h (part2's derivative objective, a scan point's horizontal
        # term), with unit weights; they map back onto the per-pair maps,
        # since g and h are closed; off the symmetric pairs, [A, W] has a
        # part outside h
        e = ENTRIES[name]()
        triple, a = e.triple, e.base_point_A
        g = group_exp(a, -0.3)
        dim_g = triple.g_basis.dim
        budget = StartBudget(starts=1)
        # each search is one point: its tensor is the first of the stack
        fat = first_descent(monkeypatch, lambda: check_fatness(triple, budget))[0][0]
        part2 = first_descent(monkeypatch, lambda: certify_part2(triple, a, budget))[0][0]
        scan = first_descent(monkeypatch, lambda: point_positivity(triple, g, budget))[0][0]

        def part2_map(z, w):
            return bracket(project(triple, z, Part.H), project(triple, bracket(a, w), Part.H))

        def scan_map(z, w):
            return bracket(project(triple, adjoint(g, z), Part.H),
                           project(triple, adjoint(g, w), Part.H))

        w_el = elements(triple.p_basis)
        for z_dom, got, basis, fn in (
            (triple.gk_basis(), fat, triple.g_basis, bracket),
            (triple.gk_basis(), part2[:, :, :dim_g], triple.g_basis, bracket),
            (triple.gk_basis(), part2[:, :, dim_g:], triple.h_basis, part2_map),
            (certify._scan_z_domain(triple), scan[:, :, :dim_g], triple.g_basis, bracket),
            (certify._scan_z_domain(triple), scan[:, :, dim_g:], triple.h_basis, scan_map),
        ):
            want = pair_tensor(elements(z_dom), w_el, fn)
            np.testing.assert_allclose(got @ basis.mat, want, rtol=0, atol=1e-14)


class TestWitnessStop:
    """A start stops once its value is below the search's target, refute_tol/2."""

    @pytest.mark.parametrize("name", ["fat t1_sphere(2)", "part2 m_kl(2,1,1)",
                                      "scan sp_example(2) at s = 0.2"])
    def test_no_start_below_target_gives_the_same_bits(self, name, monkeypatch):
        budget = StartBudget(starts=64, seed=0)
        mkl, sp2 = m_kl(2, 1, 1), sp_example(2)
        search = {
            "fat t1_sphere(2)": lambda: check_fatness(t1_sphere(2).triple, budget),
            "part2 m_kl(2,1,1)": lambda: certify_part2(mkl.triple, mkl.base_point_A, budget),
            "scan sp_example(2) at s = 0.2": lambda: point_positivity(
                sp2.triple, group_exp(sp2.base_point_A, -0.2), StartBudget(starts=16, seed=0),
                s=0.2),
        }[name]
        *args, target = first_descent(monkeypatch, search)
        assert target == certify.DEFAULT_REFUTE_TOL / 2 == 5e-13
        [stopped] = certify._descend(*args, target)
        [plain] = certify._descend(*args, 0.0)
        assert stopped[0].min() >= target
        for got, want in zip(stopped, plain):
            assert bit_equal(got, want)

    def test_sweeps_stop_at_witnesses(self, monkeypatch):
        # every start of sp_example(3)'s fat search is a witness after one
        # sweep: the probe's 4 starts, and all 64 when the full search runs
        # alone, each in one call
        calls = []
        for fn in ("_sweeps", "_min_eig_vectors"):
            real = getattr(certify, fn)
            monkeypatch.setattr(certify, fn,
                                lambda *a, _fn=fn, _real=real: calls.append(_fn) or _real(*a))
        for probe_starts in (certify._PROBE_STARTS, 64):
            calls.clear()
            monkeypatch.setattr(certify, "_PROBE_STARTS", probe_starts)
            report = check_fatness(sp_example(3).triple, StartBudget(starts=64, seed=0))
            assert report.verdict is Verdict.REFUTED
            assert calls == ["_sweeps", "_min_eig_vectors", "_min_eig_vectors"]  # one sweep, not two

    def test_a_probe_witness_ends_its_point_after_the_first_sweep(self, monkeypatch):
        # with probe, a witness after the first sweep (row 1, whose limit is
        # inf) ends every start of its point there; the other point's starts
        # take the second sweep, as they do without probe
        rng = np.random.default_rng(7)
        t = rng.standard_normal((2, 4, 3, 5))
        z0, w0 = (x / np.linalg.norm(x, axis=1, keepdims=True)
                  for x in (rng.standard_normal((6, 4)), rng.standard_normal((6, 3))))
        point, limit = np.repeat([0, 1], 3), np.where(np.arange(6) == 1, np.inf, 0.0)

        def sweeps(probe):
            z, w = z0.copy(), w0.copy()
            certify._sweeps(t, None, z, w, point, limit, probe)
            return np.concatenate([z, w], axis=1)

        probed, plain = sweeps(True), sweeps(False)
        monkeypatch.setattr(certify, "_ALS_SWEEPS", 1)
        once = sweeps(False)
        assert bit_equal(probed[:3], once[:3]) and bit_equal(probed[3:], plain[3:])
        assert bit_equal(plain[1], once[1]) and not (plain[[0, 2]] == once[[0, 2]]).all()

    def test_levenberg_marquardt_stops_at_witnesses(self, monkeypatch):
        triple = sp_example(2).triple
        solves = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(len(a[0])) or real(*a))
        report = check_fatness(triple, StartBudget(starts=64, seed=0))
        assert report.verdict is Verdict.REFUTED
        assert certify.DEFAULT_REFUTE_TOL / 2 > report.score
        # the probe's 4 starts: 9 solves of 4 systems; all 64 starts to their
        # witnesses took 10 solves of up to 64, and to the rounding floor 35
        assert len(solves) <= 9 and max(solves) <= certify._PROBE_STARTS


class TestProbe:
    """A search of more than 4 starts first descends 4; a confirmed refutation from them is the report."""

    @pytest.mark.parametrize("name", ["fat sp_example(2)", "fat sp_example(3)", "fat sp_example(4)",
                                      "scan sp_example(2) at s = 0"])
    def test_refutes_from_four_starts(self, name, monkeypatch):
        rows = []
        real = certify._sweeps
        monkeypatch.setattr(certify, "_sweeps",
                            lambda t, gmat, z0, *a: rows.append(len(z0)) or real(t, gmat, z0, *a))
        method, entry = name.split(" ")[:2]
        e = sp_example(int(entry[-2]))
        if method == "fat":
            report = check_fatness(e.triple, StartBudget(starts=64, seed=0))
        else:
            report = scan_along_A(e.triple, e.base_point_A, [0.0], StartBudget(starts=16, seed=0))[0]
        assert report.verdict is Verdict.REFUTED
        assert sum(rows) == certify._PROBE_STARTS == 4
        assert_flat_pair(e.triple, report.witness)
        assert report.starts == (64 if method == "fat" else 16)
        assert report.notes[-1].startswith(f"probe: 4 of {report.starts} starts run; ")

    @pytest.mark.parametrize("name", sorted(_variants()))
    def test_verdicts_and_other_reports_match_the_full_search(self, name, monkeypatch):
        e = _variants()[name]()
        budget = StartBudget(starts=16, seed=0)

        def searches():
            reports = [check_fatness(e.triple, budget),
                       certify_part2(e.triple, e.base_point_A, budget)]
            return reports + scan_along_A(e.triple, e.base_point_A,
                                          [0.0, 0.05, 0.1, 0.2, 0.4, 0.8], budget)

        probed = searches()
        monkeypatch.setattr(certify, "_PROBE_STARTS", budget.starts)
        full = searches()
        for got, want in zip(probed, full):
            assert got.verdict is want.verdict
            if want.verdict is not Verdict.REFUTED:
                assert report_to_json(got) == report_to_json(want)

    @pytest.mark.parametrize("method", ["fat", "part2"])
    def test_unconfirmed_probe_falls_back_to_the_full_search(self, capsys, tmp_path, monkeypatch,
                                                             method):
        # the open so(3) file of test_cli's TestUnconfirmedRefutation: the probe
        # reads 0 along g, which the element path does not confirm
        e01, e02 = (basis_element(FieldTag.REAL, 3, 0, j, 0) for j in (1, 2))
        path = str(tmp_path / "open.json")
        save_triple(make_triple([e01, e02], [e01], [], base_point=(1 / e02.norm()) * e02), path)
        rows = []
        real = certify._descend
        monkeypatch.setattr(certify, "_descend",
                            lambda t, gmat, z0, *a, **kw: rows.append(len(z0)) or real(
                                t, gmat, z0, *a, **kw))
        code = main(["check", "--file", path, "--method", method])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and report["verdict"] == "INCONCLUSIVE" and report["starts"] == 64
        assert rows == [4, 64]
        assert report["notes"][-1].startswith("64 of 64 starts converged")

    def test_failed_precondition_runs_no_search(self, t1s3, monkeypatch):
        # A in h: part2, part3 and the scan are INCONCLUSIVE before any search
        # or SVD, with a NaN score (null in JSON)
        a_in_h = (1.0 / SQ2) * sp1_pair(np.array([1.0, 0.0, 0.0]), 1.0)

        def refuse(*args, **kwargs):
            raise AssertionError("ran a search or an SVD")

        monkeypatch.setattr(certify, "_descend", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        budget = StartBudget(starts=64, seed=3)
        reports = [certify_part2(t1s3.triple, a_in_h, budget), certify_part3(t1s3.triple, a_in_h),
                   *scan_along_A(t1s3.triple, a_in_h, [0.0, 0.1], budget)]
        assert [r.verdict for r in reports] == [Verdict.INCONCLUSIVE] * 4
        assert all(math.isnan(r.score) and r.witness is None for r in reports)
        assert [r.notes[-1] for r in reports] == ["precondition failed: A does not lie in p"] * 4
        assert reports[1].notes[0].startswith("rank-one property")
        assert [(r.starts, r.seed, r.s) for r in reports] == [
            (64, 3, None), (0, 0, None), (64, 3, 0.0), (64, 3, 0.1)]
        assert all(json.loads(report_to_json(r))["score"] is None for r in reports)

    def test_costs_a_certified_search_at_most_two_solves(self, monkeypatch):
        e = m_kl(2, 1, 1)
        budget = StartBudget(starts=64, seed=0)
        solves = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or real(*a))
        probed = certify_part2(e.triple, e.base_point_A, budget)
        with_probe = len(solves)
        solves.clear()
        monkeypatch.setattr(certify, "_PROBE_STARTS", budget.starts)
        full = certify_part2(e.triple, e.base_point_A, budget)
        assert probed.verdict is Verdict.CERTIFIED
        assert report_to_json(probed) == report_to_json(full)
        assert len(solves) < with_probe <= len(solves) + 2
