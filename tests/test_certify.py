import json
import math
import re

import numpy as np
import pytest

import curvcert.certify as certify
from curvcert.algebra import (
    N_COMPONENTS,
    FieldTag,
    adjoint,
    bracket,
    comp_adjoint,
    comp_bracket,
    group_exp,
    identity,
    inner,
    zero,
)
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
from curvcert.flatness import horizontal_flat_residual
from curvcert.triple import Part, make_triple, project, project_comps

from helpers import (
    descend_one,
    pair_tensor,
    random_admissible_pair,
    sampled_min_ad,
    sp1_pair,
    su3_su2_spans,
    t1s3_commuting_pair,
    term_values,
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
        for report in (fat, part2):
            assert report.notes[-1] == "64 of 64 starts converged; 0 hit max_iters"

    def test_every_search_report_counts_its_starts(self, t1s3):
        budget = StartBudget(starts=8, seed=3)
        reports = [check_fatness(t1_sphere(2).triple, budget),
                   certify_part2(t1s3.triple, t1s3.base_point_A, budget)]
        reports += scan_along_A(t1s3.triple, t1s3.base_point_A, [0.0, 0.2], budget)
        for report in reports:
            match = re.fullmatch(r"(\d+) of 8 starts converged; (\d+) hit max_iters",
                                 report.notes[-1])
            assert match and int(match[1]) + int(match[2]) == 8


class TestPart2:
    def test_t1s3_certified(self, t1s3):
        report = certify_part2(t1s3.triple, t1s3.base_point_A, StartBudget(starts=16, seed=0))
        assert report.verdict is Verdict.CERTIFIED
        assert math.isclose(report.score, 4.0, rel_tol=1e-12)

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

    def test_scan_checks_symmetry_once_and_matches_point_calls(self, t1s3, monkeypatch):
        calls = []
        real = certify.is_symmetric_pair
        monkeypatch.setattr(certify, "is_symmetric_pair",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        a, budget, s_values = t1s3.base_point_A, StartBudget(starts=8, seed=2), [0.0, 0.1, 0.3]
        reports = scan_along_A(t1s3.triple, a, s_values, budget)
        assert len(calls) == 1
        for s, report in zip(s_values, reports):
            single = point_positivity(t1s3.triple, group_exp(a, -s), budget, s=s)
            assert report_to_json(report) == report_to_json(single)

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
    g = t.g_basis.elements()
    return make_triple(g, g, t.k_basis.elements(), label="t1_sphere(3), h = g")


class TestEmptyDomains:
    def test_fat_is_vacuously_fat(self):
        triple = h_equals_g()
        assert triple.p_basis.dim == 0
        report = check_fatness(triple, StartBudget(starts=4, seed=0))
        assert report.verdict is Verdict.CERTIFIED
        assert report.score == math.inf and report.witness is None and report.s is None
        assert report.notes == ("degenerate triple (empty search domain): vacuously fat",)

    def test_point_search_and_scan_are_vacuously_positive(self):
        triple, a = h_equals_g(), t1_sphere(3).base_point_A
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
        assert report.verdict is Verdict.INCONCLUSIVE and report.score == math.inf
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


ENTRIES = {
    "t1s3_product": t1s3_product,
    "t1_sphere(2)": lambda: t1_sphere(2),
    "t1_sphere(3)": lambda: t1_sphere(3),
    "m_kl(2,1,1)": lambda: m_kl(2, 1, 1),
    "sp_example(2)": lambda: sp_example(2),
    "sp_example(3)": lambda: sp_example(3),
}


def coordinates(triple, tensor):
    """A pair tensor of flat (n, n, 4) values in the search's orthonormal coordinates."""
    dz, dw, _ = tensor.shape
    active = tensor.reshape(dz, dw, triple.n, triple.n, 4)[..., :N_COMPONENTS[triple.field]]
    return active.reshape(dz, dw, -1) @ certify._coordinate_matrix(triple.field, triple.n)


def objective(triple, tensors, weights):
    """The search's own tensor for the weighted terms: coordinates, weighted and stacked."""
    return certify._weighted([coordinates(triple, t) for t in tensors], weights)


def _lockstep_vs_oracle(tensors, weights, gmat, z0, w0, triple=None, max_iters=200):
    """Lockstep values (on the search's own objective tensor when a triple is given) and oracle's."""
    t = tensors[0] if triple is None else objective(triple, tensors, weights)
    got, _, _, status = certify._descend(t, gmat, z0, w0, max_iters)
    ref = [descend_one(tensors, weights, gmat, z, w, max_iters) for z, w in zip(z0, w0)]
    assert list(status) == [r[3] for r in ref]
    return got, np.array([r[0] for r in ref])


class TestLockstepSearch:
    @pytest.mark.parametrize("name", ["t1s3_product", "t1_sphere(2)", "t1_sphere(3)",
                                      "m_kl(2,1,1)", "sp_example(2)", "sp_example(3)"])
    def test_fat_matches_one_start_oracle(self, name):
        triple = ENTRIES[name]().triple
        z_dom, w_dom = triple.gk_basis(), triple.p_basis
        tensor = pair_tensor(z_dom.elements(), w_dom.elements(), bracket)
        gmat = certify._ortho_constraint(z_dom, w_dom)
        z0, w0 = certify._starts(z_dom, w_dom, gmat, StartBudget(starts=16, seed=0))
        assert_same_search(*_lockstep_vs_oracle([tensor], [1.0], gmat, z0, w0, triple))

    @pytest.mark.parametrize("max_iters", [0, 1, 4])
    @pytest.mark.parametrize("name", ["m_kl(2,1,1)", "sp_example(2)"])
    def test_truncated_descent_matches_one_start_oracle(self, name, max_iters):
        # cut short, the values still fall: they pin the sweeps and each step
        triple = ENTRIES[name]().triple
        z_dom, w_dom = triple.gk_basis(), triple.p_basis
        tensor = pair_tensor(z_dom.elements(), w_dom.elements(), bracket)
        gmat = certify._ortho_constraint(z_dom, w_dom)
        z0, w0 = certify._starts(z_dom, w_dom, gmat, StartBudget(starts=16, seed=0))
        got, ref = _lockstep_vs_oracle([tensor], [1.0], gmat, z0, w0, triple, max_iters)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=NOISE)
        if name == "sp_example(2)":
            assert ref.min() > 1e-12  # still descending: no start at a zero yet

    def test_part2_stages_match_one_start_oracle(self, t1s3):
        triple, a = t1s3.triple, t1s3.base_point_A
        z_dom, w_dom = triple.gk_basis(), triple.p_basis

        def objective_map(z, w):
            return bracket(project(triple, z, Part.H), project(triple, bracket(a, w), Part.H))

        tensors = [pair_tensor(z_dom.elements(), w_dom.elements(), fn)
                   for fn in (objective_map, bracket)]
        gmat = certify._ortho_constraint(z_dom, w_dom)
        z, w = certify._starts(z_dom, w_dom, gmat, StartBudget(starts=16, seed=0))
        ref = []
        for zr, wr in zip(z, w):
            for mu in certify._PENALTY_SCHEDULE:
                _, zr, wr, _ = descend_one(tensors, [1.0, mu], gmat, zr, wr, 200)
            ref.append(term_values(tensors, zr, wr))
        for mu in certify._PENALTY_SCHEDULE:
            t = objective(triple, tensors, [1.0, mu])
            _, z, w, _ = certify._descend(t, gmat, z, w, 200)
        ref = np.array(ref)
        assert_same_search(certify._pair_values(tensors[0], z, w), ref[:, 0])
        np.testing.assert_allclose(certify._pair_values(tensors[1], z, w), ref[:, 1], atol=NOISE)

    def test_point_search_matches_one_start_oracle(self):
        entry = sp_example(2)
        triple, g = entry.triple, group_exp(entry.base_point_A, -0.2)
        z_dom, w_dom = triple.m_basis, triple.p_basis

        def horizontal_map(z, w):
            return bracket(project(triple, adjoint(g, z), Part.H),
                           project(triple, adjoint(g, w), Part.H))

        tensors = [pair_tensor(z_dom.elements(), w_dom.elements(), fn)
                   for fn in (bracket, horizontal_map)]
        gmat = certify._ortho_constraint(z_dom, w_dom)
        assert gmat is None  # m is orthogonal to p: no orthogonality constraint
        z0, w0 = certify._starts(z_dom, w_dom, gmat, StartBudget(starts=16, seed=0))
        assert_same_search(*_lockstep_vs_oracle(tensors, [1.0, 1.0], gmat, z0, w0, triple))

    def test_blocks_of_starts_match_one_block(self, monkeypatch):
        triple = sp_example(2).triple
        z_dom, w_dom = triple.gk_basis(), triple.p_basis
        t = certify._bracket_coordinates(triple, z_dom.comps(), w_dom.comps())
        gmat = certify._ortho_constraint(z_dom, w_dom)
        z0, w0 = certify._starts(z_dom, w_dom, gmat, StartBudget(starts=16, seed=1))
        whole, _, _, whole_status = certify._descend(t, gmat, z0, w0, 200)
        monkeypatch.setattr(certify, "_BLOCK_FLOATS", 1)  # one start per block
        single, _, _, single_status = certify._descend(t, gmat, z0, w0, 200)
        assert_same_search(single, whole)
        assert np.array_equal(single_status, whole_status)

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
        assert_same_search(*_lockstep_vs_oracle([tensor], [1.0], gmat, z0, w0))

    def test_one_dimensional_z_domain_breaks_on_empty_complement(self):
        rng = np.random.default_rng(6)
        tensor = rng.standard_normal((1, 3, 5))
        gmat = np.array([[1.0, 0.0, 0.0]])
        w0 = rng.standard_normal((6, 3))
        w0[:3, 0] = 0.0  # gmat w = 0: a free first z-step; the others stop at once
        w0 /= np.linalg.norm(w0, axis=1, keepdims=True)
        z0 = np.ones((6, 1))
        got, ref = _lockstep_vs_oracle([tensor], [1.0], gmat, z0, w0)
        assert_same_search(got, ref)
        best, z, w, status = certify._descend(tensor, gmat, z0, w0, 200)
        start = certify._pair_values(tensor, z0, w0)
        assert (status[3:] == certify.NO_COMPLEMENT).all()
        assert np.array_equal(best[3:], start[3:])
        assert np.array_equal(w[3:], w0[3:]) and np.array_equal(z[3:], z0[3:])

    @pytest.mark.parametrize("name", ["t1s3_product", "t1_sphere(3)", "m_kl(2,1,1)",
                                      "sp_example(3)"])
    def test_broadcast_tensors_match_per_pair_maps(self, name):
        e = ENTRIES[name]()
        triple, a = e.triple, e.base_point_A
        g = group_exp(a, -0.3)
        z_dom, w_dom = triple.gk_basis(), triple.p_basis
        z_el, w_el = z_dom.elements(), w_dom.elements()
        zc, wc = z_dom.comps(), w_dom.comps()
        assert np.array_equal(certify._bracket_coordinates(triple, zc, wc),
                              coordinates(triple, pair_tensor(z_el, w_el, bracket)))

        def part2_map(z, w):
            return bracket(project(triple, z, Part.H), project(triple, bracket(a, w), Part.H))

        def scan_map(z, w):
            return bracket(project(triple, adjoint(g, z), Part.H),
                           project(triple, adjoint(g, w), Part.H))

        def h(comps):
            return project_comps(triple, comps, Part.H)

        part2 = certify._bracket_coordinates(triple, h(zc), h(comp_bracket(a.comp, wc)))
        scan = certify._bracket_coordinates(triple, h(comp_adjoint(g.comp, zc)),
                                            h(comp_adjoint(g.comp, wc)))
        for got, fn in ((part2, part2_map), (scan, scan_map)):
            want = coordinates(triple, pair_tensor(z_el, w_el, fn))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
