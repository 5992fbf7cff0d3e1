import math

import numpy as np
import pytest

from curvcert.algebra import FieldTag, bracket
from curvcert.catalog import (
    build_entry,
    list_catalog,
    m_kl,
    pt_projective,
    sp_example,
    t1_projective,
    t1_sphere,
    t1s3_product,
)
from curvcert.certify import min_ad_singular
from curvcert.triple import Part, is_symmetric_pair, project, stabilizer_subalgebra

from helpers import Quaternion, sampled_min_ad

ALL_ENTRIES = [
    t1s3_product(),
    t1_sphere(2),
    t1_sphere(4),
    t1_projective(FieldTag.COMPLEX, 2),
    t1_projective(FieldTag.QUATERNION, 2),
    pt_projective(FieldTag.REAL, 3),
    pt_projective(FieldTag.COMPLEX, 2),
    pt_projective(FieldTag.QUATERNION, 2),
    m_kl(2, 1, 1),
    m_kl(2, 1, -1),
    m_kl(3, 2, 3),
    sp_example(2),
    sp_example(3),
]


@pytest.mark.parametrize("entry", ALL_ENTRIES, ids=lambda e: e.triple.label)
class TestEntryInvariants:
    def test_bases_orthonormal(self, entry):
        for sub in (entry.triple.g_basis, entry.triple.h_basis, entry.triple.k_basis,
                    entry.triple.m_basis, entry.triple.p_basis):
            if sub.dim == 0:
                continue
            gram = sub.mat @ sub.mat.T
            assert np.abs(gram - np.eye(sub.dim)).max() < 1e-10

    def test_dimension_split(self, entry):
        t = entry.triple
        assert t.k_basis.dim + t.m_basis.dim == t.h_basis.dim
        assert t.h_basis.dim + t.p_basis.dim == t.g_basis.dim

    def test_base_point_unit_and_in_p(self, entry):
        a = entry.base_point_A
        assert abs(a.norm() - 1.0) < 1e-12
        assert (a - project(entry.triple, a, Part.P)).norm() < 1e-10

    def test_symmetric_metadata_matches_computation(self, entry):
        assert entry.metadata["symmetric_pair"] == is_symmetric_pair(entry.triple)

    def test_base_point_stored_on_triple(self, entry):
        assert entry.triple.base_point is not None
        assert entry.base_point_A is entry.triple.base_point


class TestStructure:
    def test_t1_entries_have_stabilizer_k(self):
        for entry in (t1_sphere(3), t1_projective(FieldTag.COMPLEX, 2),
                      t1_projective(FieldTag.QUATERNION, 2)):
            t = entry.triple
            stab = stabilizer_subalgebra(t.h_basis, entry.base_point_A, t.g_basis)
            assert stab.dim == t.k_basis.dim
            resid = t.k_basis.mat - (t.k_basis.mat @ stab.mat.T) @ stab.mat
            assert np.abs(resid).max() < 1e-8

    def test_pt_k_strictly_contains_t1_k(self):
        for field, n in ((FieldTag.COMPLEX, 2), (FieldTag.QUATERNION, 2)):
            t1 = t1_projective(field, n).triple
            pt = pt_projective(field, n).triple
            assert pt.k_basis.dim > t1.k_basis.dim
            resid = t1.k_basis.mat - (t1.k_basis.mat @ pt.k_basis.mat.T) @ pt.k_basis.mat
            assert np.abs(resid).max() < 1e-10

    def test_t1s3_dimensions(self):
        t = t1s3_product().triple
        assert (t.g_basis.dim, t.h_basis.dim, t.k_basis.dim) == (6, 3, 1)
        assert (t.m_basis.dim, t.p_basis.dim) == (2, 3)

    def test_sphere_dimensions(self):
        for n in (2, 3, 5):
            t = t1_sphere(n).triple
            assert t.g_basis.dim == (n + 1) * n // 2
            assert t.p_basis.dim == n
            assert t.m_basis.dim == n - 1

    def test_sp_bracket_first_slot_formula(self):
        # [X, A] with A = {W_1} and X carrying Y at slot (0, 0) and Z_i in the
        # first row: the (0, 1) entry of the bracket is Y W_1 in scalar
        # quaternion arithmetic (here only W_1 is nonzero, so the Z_i terms drop).
        entry = sp_example(2)
        a = entry.base_point_A
        w1 = Quaternion(*a.comp[0, 1])
        y = Quaternion(0.3, 0.1, -0.2, 0.4)
        y = y - Quaternion(y.w, 0, 0, 0)  # make purely imaginary
        z1 = Quaternion(0.0, 0.5, -0.3, 0.2)
        comp = np.zeros((3, 3, 4))
        comp[0, 0] = [y.w, y.x, y.y, y.z]
        comp[0, 2] = [z1.w, z1.x, z1.y, z1.z]
        comp[2, 0] = [-z1.w, z1.x, z1.y, z1.z]
        from curvcert.algebra import AlgElement

        x = AlgElement(FieldTag.QUATERNION, 3, comp)
        b = bracket(x, a)
        got = Quaternion(*b.comp[0, 1])
        expect = y * w1
        assert abs(got.w - expect.w) < 1e-12
        assert abs(got.x - expect.x) < 1e-12
        assert abs(got.y - expect.y) < 1e-12
        assert abs(got.z - expect.z) < 1e-12

    def test_m_kl_zero_k_has_kernel(self):
        entry = m_kl(2, 0, 1)
        assert "warning" in entry.metadata
        svd = min_ad_singular(entry.triple, entry.base_point_A)
        sampled = sampled_min_ad(entry.triple, entry.base_point_A, 120_000, seed=1)
        assert abs(svd - sampled) < 1e-2
        assert svd < 1e-8  # the k = 0 direction commutes with A

    def test_m_kl_frozen_sigma(self):
        entry = m_kl(2, 1, 1)
        assert math.isclose(min_ad_singular(entry.triple, entry.base_point_A),
                            0.190983, rel_tol=1e-5)


class TestValidationAndDispatch:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            t1_sphere(1)
        with pytest.raises(ValueError):
            m_kl(1, 1, 1)
        with pytest.raises(ValueError):
            sp_example(1)
        with pytest.raises(ValueError):
            t1_projective(FieldTag.REAL, 2)
        with pytest.raises(ValueError):
            pt_projective(FieldTag.COMPLEX, 0)

    def test_build_entry_dispatch(self):
        assert build_entry("t1s3_product").id == "t1s3_product"
        assert build_entry("t1_sphere", n=3).params == {"n": 3}
        assert build_entry("m_kl", n=2, k=1, l=-1).params == {"n": 2, "k": 1, "l": -1}
        e = build_entry("t1_projective", n=2, field="C")
        assert e.params == {"field": "C", "n": 2}
        with pytest.raises(ValueError, match="^unknown catalog entry: nonsense$"):
            build_entry("nonsense")
        with pytest.raises(ValueError):
            build_entry("m_kl", n=2)

    def test_unknown_field_name_is_a_value_error(self):
        for spelling in ("complex", "C", "c", "COMPLEX", "Complex"):
            assert build_entry("t1_projective", n=2, field=spelling).params["field"] == "C"
        with pytest.raises(ValueError, match=r"real\|complex\|quaternion or R\|C\|H"):
            build_entry("t1_projective", n=2, field="q")

    def test_list_catalog_covers_all_ids(self):
        listed = list_catalog()
        assert [row["id"] for row in listed] == ["t1s3_product", "t1_sphere", "t1_projective",
                                                 "pt_projective", "m_kl", "sp_example"]
        mkl_row = next(row for row in listed if row["id"] == "m_kl")
        assert "k != 0" in mkl_row["parameters"]
        for row in listed:
            assert row["dimensions"]["g"] > row["dimensions"]["h"] > 0


# the metadata of the entries whose extra keys the `list` samples do not show,
# written out before the entries were built through one constructor; key
# order is part of the report bytes
PINNED_METADATA = {
    "m_kl(n=2,k=0,l=1)": (lambda: m_kl(2, 0, 1), {
        "symmetric_pair": True,
        "rank_one": True,
        "known_result": "lens space bundle over CP^2: quasi-positive curvature for k != 0",
        "warning": "k = 0 lies outside the certified family; verdict left to the numerics",
    }),
    "pt_projective(C,n=1)": (lambda: pt_projective(FieldTag.COMPLEX, 1), {
        "symmetric_pair": True,
        "rank_one": True,
        "known_result": "projective tangent bundle over CP^1: quasi-positive curvature",
        "warning": "n < 2 is degenerate (empty G(n-1) block)",
    }),
    "sp_example(n=2)": (lambda: sp_example(2), {
        "symmetric_pair": True,
        "rank_one": True,
        "known_result": "S^7 bundle over HP^2: quasi-positive curvature; free diagonal Sp(1)"
        " subgroup {z * I} gives a quasi-positively curved quotient",
        "free_subgroup": "diagonal Sp(1) = {z * I}",
    }),
    "t1_sphere(n=3)": (lambda: t1_sphere(3), {
        "symmetric_pair": True,
        "rank_one": True,
        "known_result": "T^1 S^n: quasi-positive curvature; for n even the diagonal SO(2)"
        " subgroup acts freely and the quotient inherits it",
    }),
}


@pytest.mark.parametrize("label", sorted(PINNED_METADATA))
def test_pinned_metadata(label):
    build, want = PINNED_METADATA[label]
    entry = build()
    assert entry.triple.label == label
    assert list(entry.metadata.items()) == list(want.items())
