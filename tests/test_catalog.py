import math

import numpy as np
import pytest

import curvcert.triple as triple_module
from curvcert.algebra import FieldTag, block_stack, bracket
from curvcert.catalog import (
    _block_triple,
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
from curvcert.triple import is_symmetric_pair, load_triple, triple_to_json

from helpers import (
    Part,
    Quaternion,
    bit_equal,
    count_loop_rows,
    project,
    reference_block_triple,
    sampled_min_ad,
    stabilizer_subalgebra,
)

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
        # t1_sphere's k, so(n-1) on slots 2..n as generator rows, spans the stabilizer of A
        # in h, the SVD's null space (empty for n = 2)
        for entry in (*map(t1_sphere, range(2, 11)), t1_projective(FieldTag.COMPLEX, 2),
                      t1_projective(FieldTag.QUATERNION, 2)):
            t = entry.triple
            stab = stabilizer_subalgebra(t.h_basis, entry.base_point_A, t.g_basis)
            assert stab.dim == t.k_basis.dim, t.label
            resid = t.k_basis.mat - (t.k_basis.mat @ stab.mat.T) @ stab.mat
            assert np.abs(resid).max(initial=0.0) < 1e-8, t.label

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

    @pytest.mark.parametrize("n", [2, 3])
    def test_m_kl_with_a_zero_weight_row_is_refused(self, n):
        # Gram-Schmidt would drop the zero row: k 1 and m 4 on n = 2, not k 2 and m 3
        with pytest.raises(ValueError, match=r"m_kl requires \(k, l\) != \(0, 0\): with k = 0"
                           " and l = 0"):
            build_entry("m_kl", n=n, k=0, l=0)
        for k, l in ((0, 1), (1, 0), (2, -3)):
            assert build_entry("m_kl", n=n, k=k, l=l).triple.dims["k"] == (n - 1) ** 2 + 1

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


# the catalog families over the sizes, fields and weights whose bits must match their
# span builds (`reference_block_triple`): the builder, its parameters
BLOCK_CASES = (
    [(t1s3_product, {})] + [(t1_sphere, {"n": n}) for n in range(2, 11)]
    + [(t1_projective, {"field": f, "n": n}) for f in (FieldTag.COMPLEX, FieldTag.QUATERNION)
       for n in range(1, 5)]
    + [(pt_projective, {"field": f, "n": n}) for f in FieldTag for n in range(1, 5)]
    + [(m_kl, {"n": n, "k": k, "l": l}) for n in (2, 3)
       for k, l in ((1, 1), (0, 1), (1, 0), (2, -3), (0, -2))]
    + [(sp_example, {"n": n}) for n in range(2, 9)]
)


# the entries of the benchmark's catalog-part3 workload, each with the rows its build sends
# through the Gram-Schmidt loop: h's rows that k does not name, for a k with rows of its own
# (t1_projective's tied blocks, m_kl's weight row), and g's rows for t1s3_product's h of slot
# sums; an empty k (t1_sphere(2) and pt_projective(R, 2): a real 1 x 1 block has no
# generator) names no row and has no own row
PART3_CASES = (
    [(t1s3_product, {}, 6)] + [(t1_sphere, {"n": n}, 0) for n in range(2, 11)]
    + [(t1_projective, {"field": f, "n": n}, rows) for f, n, rows in (
        (FieldTag.COMPLEX, 2, 4), (FieldTag.COMPLEX, 3, 6),
        (FieldTag.QUATERNION, 2, 10), (FieldTag.QUATERNION, 3, 14))]
    + [(pt_projective, {"field": f, "n": 2}, 0) for f in FieldTag]
    + [(m_kl, {"n": n, "k": 1, "l": 1}, 2 * n) for n in (2, 3)]
    + [(sp_example, {"n": n}, 0) for n in range(2, 9)]
)


def named_rows(sub, sup) -> int:
    """The rows of sub that are, bit for bit, rows of sup."""
    return sum(any(np.array_equal(r.view(np.uint64), s.view(np.uint64)) for s in sup.mat)
               for r in sub.mat)


def _case_id(case) -> str:
    builder, params = case[:2]
    return builder.__name__ + "(" + ",".join(
        f"{v.name if isinstance(v, FieldTag) else v}" for v in params.values()) + ")"


class TestIndexPath:
    """Block chains are built by index, with the bits of the projection path."""

    @pytest.mark.parametrize("case", BLOCK_CASES, ids=_case_id)
    def test_bases_label_and_base_point_match_make_triple(self, case):
        builder, params = case
        got, want = builder(**params).triple, reference_block_triple(builder.__name__, **params)
        assert got.label == want.label
        assert bit_equal(got.base_point.comp, want.base_point.comp)
        for name in ("g_basis", "h_basis", "k_basis", "m_basis", "p_basis"):
            assert bit_equal(getattr(got, name).mat, getattr(want, name).mat), name

    @pytest.mark.parametrize("build,by_projection", [
        (lambda: sp_example(3), False),
        (lambda: pt_projective(FieldTag.REAL, 3), False),
        (lambda: pt_projective(FieldTag.QUATERNION, 2), False),
        (lambda: t1_sphere(4), False),
        (lambda: t1_projective(FieldTag.COMPLEX, 2), True),
        (lambda: t1_projective(FieldTag.QUATERNION, 3), True),
        (lambda: m_kl(2, 1, 1), True),
    ])
    def test_only_a_k_of_non_generator_rows_takes_a_projection(self, monkeypatch, build,
                                                               by_projection):
        rows = count_loop_rows(monkeypatch)
        triple = build().triple
        assert len(rows) == by_projection
        if by_projection:  # the (h, k) pair only, less the rows of h that k names
            assert rows == [triple.h_basis.dim - named_rows(triple.k_basis, triple.h_basis)]

    @pytest.mark.parametrize("case", PART3_CASES, ids=_case_id)
    def test_an_export_loads_by_the_projections_of_its_build(self, monkeypatch, tmp_path, case):
        # the file's h and k rows are the bits of the build's, so the same rows nest by index
        builder, params, loop_rows = case
        rows = count_loop_rows(monkeypatch)
        built = builder(**params).triple
        assert sum(rows) == loop_rows
        path = tmp_path / "triple.json"
        path.write_text(triple_to_json(built))
        loaded = load_triple(str(path))
        assert sum(rows) == 2 * loop_rows
        for name in ("g_basis", "h_basis", "k_basis", "m_basis", "p_basis"):
            assert bit_equal(getattr(loaded, name).mat, getattr(built, name).mat), name

    @pytest.mark.parametrize("build,loop_rows", [
        (lambda: t1_projective(FieldTag.QUATERNION, 8), 34),  # h's 139 rows less the 105 k names
        (lambda: m_kl(8, 1, 1), 16),  # h's 65 rows less k's 49 block rows
        (lambda: t1_projective(FieldTag.COMPLEX, 2), 4),  # h's 5 rows less k's 1 block row
        (lambda: m_kl(2, 1, 1), 4),  # the same, with the weight row as k's own row
        (lambda: pt_projective(FieldTag.REAL, 2), 0),  # an empty k: no own rows
        (t1s3_product, 6),  # all of g: none of h's slot sums is a row of g
        (lambda: sp_example(8), 0),  # k's and h's rows are all rows of h and g
    ], ids=["t1_projective(H,8)", "m_kl(8,1,1)", "t1_projective(C,2)", "m_kl(2,1,1)",
            "pt_projective(R,2)", "t1s3_product", "sp_example(8)"])
    def test_the_loop_takes_only_the_rows_that_no_sub_names(self, monkeypatch, build, loop_rows):
        rows = count_loop_rows(monkeypatch)
        build()
        assert sum(rows) == loop_rows

    def test_generator_rows_skip_the_input_checks(self, monkeypatch):
        # sp_example's g, h and k are generator rows: no check_skew before the bases are
        # built and no Gram-Schmidt; each of the five bases is still checked once
        skews, loops = [], []
        check, loop = triple_module.check_skew, triple_module._orthonormalize
        monkeypatch.setattr(triple_module, "check_skew",
                            lambda f, c: skews.append(len(c)) or check(f, c))
        monkeypatch.setattr(triple_module, "_orthonormalize",
                            lambda mat: loops.append(1) or loop(mat))
        triple = sp_example(3).triple
        assert skews == [triple.dims[name] for name in "ghkmp"]
        assert loops == []

    def test_a_sub_basis_naming_a_generator_its_ambient_lacks_raises(self):
        # such a row is no row of its ambient, so it is an own row of the sub, whose residual
        # rejects it
        field, a = FieldTag.COMPLEX, m_kl(2, 1, 1).base_point_A

        def blocks(*index_sets):
            return block_stack(field, 3, *index_sets)

        with pytest.raises(ValueError, match=r"^h-basis vector leaves its ambient span"):
            _block_triple(field, blocks(range(2)), blocks([0], [2]), blocks([0]), "x", a)
        with pytest.raises(ValueError, match=r"^k-basis vector leaves its ambient span"):
            _block_triple(field, blocks(range(3)), blocks(range(1, 3)), blocks([0]), "x", a)
        # sets given in another order than g's still nest by index
        triple = _block_triple(field, blocks(range(3)), blocks(range(1, 3), [0]),
                               blocks([2], [0]), "x", a)
        assert triple.dims == {"g": 9, "h": 5, "k": 2, "m": 3, "p": 4}
