import dataclasses
import json
import math

import numpy as np
import pytest

from curvcert.algebra import (
    DimensionMismatch,
    FieldTag,
    InvalidElement,
    block_stack,
    bracket,
    comp_adjoint,
    from_flat,
    group_exp,
    inner,
    pair_bracket_coords,
    random_skew,
)
import curvcert.triple as triple_module
from curvcert.catalog import (
    m_kl,
    pt_projective,
    sp_example,
    t1_projective,
    t1_sphere,
    t1s3_product,
)
from curvcert.triple import (
    SCHEMA_TRIPLE,
    NotInSpan,
    Part,
    Subspace,
    Triple,
    _orthonormalize,
    is_symmetric_pair,
    make_triple,
    project,
    stabilizer_subalgebra,
    triple_from_dict,
    triple_to_json,
)

from helpers import (
    DeformParam,
    basis_element,
    bit_equal,
    elements,
    phi,
    randomly_rebased,
    reference_orthonormalize,
    sp1_pair,
    su3_su2_spans,
    triple_to_dict,
    zero,
)

# one small entry of every catalog family, over each field the family offers
FAMILIES = [
    t1s3_product,
    lambda: t1_sphere(3),
    lambda: t1_projective(FieldTag.COMPLEX, 2),
    lambda: t1_projective(FieldTag.QUATERNION, 2),
    lambda: pt_projective(FieldTag.REAL, 3),
    lambda: pt_projective(FieldTag.COMPLEX, 2),
    lambda: pt_projective(FieldTag.QUATERNION, 2),
    lambda: m_kl(2, 1, 1),
    lambda: m_kl(2, 0, 1),
    lambda: sp_example(2),
]


@pytest.fixture(scope="module")
def t1s3():
    return t1s3_product().triple


@pytest.fixture(scope="module")
def mkl():
    return m_kl(2, 1, 1).triple


def random_in_span(sub, rng):
    v = rng.standard_normal(sub.dim) @ sub.mat
    return from_flat(sub.field, sub.n, v)


def broken_so3_triple():
    """so(4) > so(3) on slots 0..3, and so(3) on slots 4..6 over h = span(e45, e46)."""
    field, n = FieldTag.REAL, 7
    g = np.concatenate([block_stack(field, n, range(4)), block_stack(field, n, range(4, 7))])
    h = np.concatenate([block_stack(field, n, range(1, 4)), block_stack(field, n, [4, 5, 6])[:2]])
    return make_triple(g, h, [], label="so4/so3 + broken so3", field=field)


def sp2_sp1_triple():
    """sp(2) > sp(1) on the first slot, a pair that is not symmetric."""
    field = FieldTag.QUATERNION
    return make_triple(block_stack(field, 2, range(2)), block_stack(field, 2, [0]), [], field=field)


# chains that are not symmetric pairs, none of them from the catalog
OFF_CATALOG = [broken_so3_triple, sp2_sp1_triple, lambda: make_triple(*su3_su2_spans(), [])]
OFF_CATALOG_IDS = ["broken-so3", "sp2-sp1", "su3-su2"]


def conjugated(triple, rng):
    """The triple with every basis row X replaced by u X u^* for a random unitary u, so the entry supports fill."""
    u = group_exp(random_skew(triple.field, triple.n, rng)).comp

    def conj(sub):
        comp = comp_adjoint(u, sub.mat.reshape(sub.dim, sub.n, sub.n, 4))
        return Subspace(sub.field, sub.n, comp.reshape(sub.mat.shape))

    bases = (triple.g_basis, triple.h_basis, triple.k_basis, triple.m_basis, triple.p_basis)
    return Triple(triple.field, triple.n, *map(conj, bases), label=triple.label)


def _active_stack(active: np.ndarray) -> np.ndarray:
    """The real 3 x 3 component stack (r, 3, 3, 4) whose rows have the given active components (r, 9)."""
    comp = np.zeros((len(active), 3, 3, 4))
    comp[..., 0] = active.reshape(-1, 3, 3)
    return comp


# every way a basis is built, each given the active components of its rows
def built_directly(active):
    return Subspace(FieldTag.REAL, 3, _active_stack(active).reshape(len(active), 36))


def built_from_span(active):
    return Subspace.from_spanning(_active_stack(active), FieldTag.REAL)


def loaded_as_g(active):
    doc = triple_to_dict(t1_sphere(2).triple)
    doc["bases"]["g"] = active.tolist()
    return triple_from_dict(doc).g_basis


def rebased_as_p(active):
    triple = dataclasses.replace(t1_sphere(2).triple, p_basis=_unchecked_subspace(active))
    return randomly_rebased(triple, np.random.default_rng(0)).p_basis


def _skew_unit(i: int, j: int) -> np.ndarray:
    """Active components of the real 3 x 3 unit (E_ij - E_ji) / sqrt(2)."""
    row = np.zeros(9)
    row[3 * i + j], row[3 * j + i] = math.sqrt(0.5), -math.sqrt(0.5)
    return row


_E01, _E02, _E12 = _skew_unit(0, 1), _skew_unit(0, 2), _skew_unit(1, 2)
_NAN01 = _E01.copy()
_NAN01[1] = math.nan
BAD_ROWS = {  # two rows each, by what is wrong: the rows and the error they raise
    "non-skew": (np.array([np.eye(3).ravel() / math.sqrt(3), _E12]), InvalidElement),
    "nan": (np.array([_NAN01, _E12]), InvalidElement),
    "non-orthonormal": (np.array([_E01, (_E01 + _E02) / math.sqrt(2)]), ValueError),
}


class TestConstruction:
    def test_derived_bases_orthonormal_and_orthogonal(self, t1s3):
        for sub in (t1s3.m_basis, t1s3.p_basis):
            gram = sub.mat @ sub.mat.T
            assert np.abs(gram - np.eye(sub.dim)).max() < 1e-10
        assert np.abs(t1s3.m_basis.mat @ t1s3.k_basis.mat.T).max() < 1e-10
        assert np.abs(t1s3.p_basis.mat @ t1s3.h_basis.mat.T).max() < 1e-10

    def test_decomposition_recovers_element(self, mkl):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = random_in_span(mkl.g_basis, rng)
            parts = [project(mkl, x, p) for p in (Part.K, Part.M, Part.P)]
            resid = (x - parts[0] - parts[1] - parts[2]).norm()
            assert resid < 1e-10 * max(1.0, x.norm())

    def test_nesting_violation_raises(self):
        g = block_stack(FieldTag.REAL, 3, range(3))
        h = block_stack(FieldTag.REAL, 3, [1, 2])
        bad_k = [basis_element(FieldTag.REAL, 3, 0, 1, 0)]  # not inside h
        with pytest.raises(NotInSpan):
            make_triple(g, h, bad_k, field=FieldTag.REAL)

    def test_stacks_and_element_lists_give_the_same_bits(self):
        field = FieldTag.COMPLEX
        spans = [block_stack(field, 4, range(4)), block_stack(field, 4, range(1, 4)),
                 block_stack(field, 4, [2, 3])]
        from_stacks = make_triple(*spans, field=field)
        from_lists = make_triple(*[[from_flat(field, 4, c.ravel()) for c in s] for s in spans])
        subspaces = [Subspace.from_spanning(s, field) for s in spans]
        from_subspaces = make_triple(*subspaces)  # each taken as it is
        assert from_subspaces.h_basis is subspaces[1]
        for other in (from_lists, from_subspaces):
            for name in ("g_basis", "h_basis", "k_basis", "m_basis", "p_basis"):
                assert bit_equal(getattr(from_stacks, name).mat, getattr(other, name).mat)

    def test_empty_stack_spans_the_zero_subspace(self):
        # reshaping an empty stack to (0, -1) once failed in numpy
        empty = np.zeros((0, 3, 3, 4))
        sub = Subspace.from_spanning(empty, FieldTag.REAL)
        assert (sub.field, sub.n, sub.mat.shape) == (FieldTag.REAL, 3, (0, 36))
        triple = make_triple(empty, [], [], field=FieldTag.REAL)
        assert triple.dims == {"g": 0, "h": 0, "k": 0, "m": 0, "p": 0}

    def test_stack_needs_its_field(self):
        with pytest.raises(ValueError, match="needs its field"):
            Subspace.from_spanning(block_stack(FieldTag.REAL, 3, range(3)))

    def test_stack_is_validated(self):
        bad = block_stack(FieldTag.REAL, 3, range(3))
        bad[0, 0, 0, 0] = 1.0  # a real diagonal entry is not skew
        with pytest.raises(InvalidElement):
            make_triple(bad, bad[:1], [], field=FieldTag.REAL)

    def test_each_basis_is_checked_once_when_built(self, t1s3, monkeypatch):
        calls = []
        check = triple_module.check_skew
        monkeypatch.setattr(triple_module, "check_skew", lambda f, c: calls.append(len(c)) or check(f, c))
        sub = Subspace(t1s3.field, t1s3.n, np.array(t1s3.p_basis.mat))
        assert calls == [sub.dim]
        assert bit_equal(sub.comps(), sub.comps())  # a view of the rows: no second check
        assert calls == [sub.dim]
        calls.clear()
        loaded = triple_from_dict(triple_to_dict(t1s3))  # g, h and k as stored, then m and p
        assert calls == [t1s3.dims[name] for name in "ghkmp"]
        calls.clear()
        loaded.h_basis.comps()
        assert calls == []
        mat = np.array(t1s3.p_basis.mat)
        mat[0, 0] = 1.0  # a real diagonal entry: no longer skew-Hermitian
        mat[0] /= np.linalg.norm(mat[0])
        with pytest.raises(InvalidElement):
            Subspace(t1s3.field, t1s3.n, mat)

    @pytest.mark.parametrize("rotate", [False, True], ids=["as-built", "conjugated"])
    @pytest.mark.parametrize("build", [lambda build=build: build().triple for build in FAMILIES]
                             + OFF_CATALOG)
    def test_derived_bases_pass_check_skew(self, build, rotate):
        triple = build()
        a = triple.base_point or elements(triple.p_basis)[0]
        if rotate:
            rng = np.random.default_rng(22)
            u = group_exp(random_skew(triple.field, triple.n, rng)).comp
            triple = conjugated(triple, rng)
            a = from_flat(a.field, a.n, comp_adjoint(u, a.comp).ravel())
            triple = make_triple(triple.g_basis, triple.h_basis, triple.k_basis)
        derived = [triple.m_basis, triple.p_basis, triple.gk_basis(),
                   stabilizer_subalgebra(triple.h_basis, a, triple.g_basis)]
        for sub in derived:
            triple_module.check_skew(sub.field, sub.mat.reshape(sub.dim, sub.n, sub.n, 4))

    def test_outside_rows_are_checked_before_a_complement_is_derived(self, t1s3):
        mat = np.array(t1s3.g_basis.mat)
        mat[0, 0] = 1.0  # a real diagonal entry: no longer skew-Hermitian
        mat[0] /= np.linalg.norm(mat[0])
        with pytest.raises(InvalidElement):
            make_triple(Subspace(t1s3.field, t1s3.n, mat), [], [])

    def test_near_dependent_span_is_checked_after_orthonormalizing(self):
        # both rows pass check_skew (defect 8e-10), but Gram-Schmidt keeps
        # their 4e-10 difference and normalizes it to the real diagonal unit
        e, d = np.zeros((2, 2, 4)), np.zeros((2, 2, 4))
        e[0, 1, 0], e[1, 0, 0] = 1.0, -1.0
        d[0, 0, 0] = 1.0
        span = np.array([e, e + 4e-10 * d])
        triple_module.check_skew(FieldTag.REAL, span)
        with pytest.raises(InvalidElement):
            Subspace.from_spanning(span, FieldTag.REAL)
        with pytest.raises(InvalidElement):
            make_triple(span, [], [], field=FieldTag.REAL)

    @pytest.mark.parametrize("build", [built_directly, built_from_span, loaded_as_g, rebased_as_p])
    @pytest.mark.parametrize("rows, error", list(BAD_ROWS.values()), ids=list(BAD_ROWS))
    def test_every_way_of_building_a_basis_rejects_bad_rows(self, build, rows, error):
        if build is built_from_span and error is not InvalidElement:
            # a span need not be orthonormal: from_spanning makes it so
            sub = build(rows)
            assert np.abs(sub.mat @ sub.mat.T - np.eye(sub.dim)).max() < 1e-10
            return
        with pytest.raises(error) as raised:
            build(rows)
        assert raised.type is error  # InvalidElement is a ValueError too

    def test_gk_basis_spans_m_plus_p(self, t1s3):
        gk = t1s3.gk_basis()
        assert gk.dim == t1s3.m_basis.dim + t1s3.p_basis.dim
        assert np.abs(gk.mat @ t1s3.k_basis.mat.T).max() < 1e-10


class TestProjection:
    def test_h_element_has_no_p_part(self, mkl):
        rng = np.random.default_rng(1)
        x = random_in_span(mkl.h_basis, rng)
        assert project(mkl, x, Part.P).norm() < 1e-10

    def test_idempotence(self, mkl):
        rng = np.random.default_rng(2)
        x = random_in_span(mkl.g_basis, rng)
        once = project(mkl, x, Part.M)
        twice = project(mkl, once, Part.M)
        assert (once - twice).norm() < 1e-12

    def test_outside_span_raises(self, t1s3):
        off_diag = basis_element(FieldTag.QUATERNION, 2, 0, 1, 0)  # sp(2), not sp(1)+sp(1)
        with pytest.raises(NotInSpan):
            project(t1s3, off_diag, Part.H)


def deformed_inner(triple, x, y, d):
    """The deformed metric <X^p, Y^p> + t <X^h, Y^h>, from `project`."""
    xp, yp = project(triple, x, Part.P), project(triple, y, Part.P)
    xh, yh = project(triple, x, Part.H), project(triple, y, Part.H)
    return inner(xp, yp) + d.t * inner(xh, yh)


class TestPhiAndMetric:
    def test_phi_fixes_p_and_scales_h(self, mkl):
        rng = np.random.default_rng(3)
        d = DeformParam(0.3)
        xp = random_in_span(mkl.p_basis, rng)
        assert (phi(mkl, xp, d) - xp).norm() < 1e-12
        xh = random_in_span(mkl.h_basis, rng)
        assert (phi(mkl, xh, d) - 0.3 * xh).norm() < 1e-12

    def test_metric_equals_inner_with_phi(self, mkl):
        rng = np.random.default_rng(4)
        d = DeformParam(0.3)
        for _ in range(10):
            x = random_in_span(mkl.g_basis, rng)
            y = random_in_span(mkl.g_basis, rng)
            assert math.isclose(deformed_inner(mkl, x, y, d), inner(x, phi(mkl, y, d)),
                                rel_tol=1e-12, abs_tol=1e-12)

    def test_phi_self_adjoint_and_inverse(self, t1s3):
        rng = np.random.default_rng(5)
        d = DeformParam(0.7)
        for _ in range(10):
            x = random_in_span(t1s3.g_basis, rng)
            y = random_in_span(t1s3.g_basis, rng)
            assert math.isclose(inner(phi(t1s3, x, d), y), inner(x, phi(t1s3, y, d)),
                                rel_tol=1e-12, abs_tol=1e-12)
            y_inv = (1.0 / d.t) * project(t1s3, y, Part.H) + project(t1s3, y, Part.P)
            assert (phi(t1s3, y_inv, d) - y).norm() < 1e-12 * max(1.0, y.norm())

    def test_cross_parts_vanish_and_unit_h_gives_t(self, mkl):
        rng = np.random.default_rng(6)
        d = DeformParam(0.42)
        xp = random_in_span(mkl.p_basis, rng)
        yh = random_in_span(mkl.h_basis, rng)
        assert abs(deformed_inner(mkl, xp, yh, d)) < 1e-12
        unit_h = (1.0 / yh.norm()) * yh
        assert math.isclose(deformed_inner(mkl, unit_h, unit_h, d), 0.42, rel_tol=1e-10)

    def test_deform_param_validation(self):
        with pytest.raises(ValueError):
            DeformParam(0.0)
        with pytest.raises(ValueError):
            DeformParam(1.0)
        assert math.isclose(DeformParam(0.5).lam, 1.0)
        assert math.isclose(DeformParam(0.25).lam, 1.0 / 3.0)


class TestSymmetricPair:
    def test_diagonal_pair_is_symmetric(self, t1s3):
        assert is_symmetric_pair(t1s3)

    def test_u3_with_u1_u2_is_symmetric(self, mkl):
        assert is_symmetric_pair(mkl)

    def test_su3_with_su2_is_not_symmetric(self):
        g, h = su3_su2_spans()
        triple = make_triple(g, h, [], label="su3/su2")
        assert not is_symmetric_pair(triple)

    def test_late_p_h_violation_detected(self):
        # so(4) > so(3) on slots 0..3 is a symmetric pair; on slots 4..6, h
        # holds e45 and e46 but not their bracket, so [e56, e45] has an h-part.
        # e56 is the last p vector, so every earlier pair is clean.
        triple = broken_so3_triple()
        p, hs = elements(triple.p_basis), elements(triple.h_basis)
        e56 = basis_element(FieldTag.REAL, 7, 5, 6, 0)
        assert abs(abs(inner(p[-1], e56)) - e56.norm()) < 1e-12

        def leaks(x, y, wrong):
            v = bracket(x, y).flat
            return np.linalg.norm(wrong.project_flat(v)) > 1e-10

        bad = [(i, "p", j) for i in range(len(p)) for j in range(i + 1, len(p))
               if leaks(p[i], p[j], triple.p_basis)]
        bad += [(i, "h", j) for i in range(len(p)) for j in range(len(hs))
                if leaks(p[i], hs[j], triple.h_basis)]
        assert bad and all(i == len(p) - 1 and kind == "h" for i, kind, _ in bad)
        assert not is_symmetric_pair(triple)

    @pytest.mark.parametrize("build", FAMILIES)
    def test_one_row_blocks_agree_on_catalog(self, build, monkeypatch):
        triple = build().triple
        want = is_symmetric_pair(triple)
        monkeypatch.setattr(triple_module, "_may_reach", lambda a, b, w: True)  # the dense path
        monkeypatch.setattr(triple_module, "_PAIR_BLOCK_FLOATS", 1)
        assert is_symmetric_pair(triple) == want

    @pytest.mark.parametrize("build", OFF_CATALOG, ids=OFF_CATALOG_IDS)
    def test_one_row_blocks_agree_off_the_catalog(self, build, monkeypatch):
        triple = build()
        assert not is_symmetric_pair(triple)
        monkeypatch.setattr(triple_module, "_PAIR_BLOCK_FLOATS", 1)
        assert not is_symmetric_pair(triple)

    @staticmethod
    def recorded_calls(monkeypatch) -> list:
        """The (a, b, w) stacks of each call `is_symmetric_pair` makes to the kernel, from now on."""
        calls = []
        kernel = triple_module.pair_bracket_coords

        def recording(field, a, b, w):
            calls.append((a, b, w))
            return kernel(field, a, b, w)

        monkeypatch.setattr(triple_module, "pair_bracket_coords", recording)
        return calls

    @classmethod
    def recorded_blocks(cls, triple, monkeypatch) -> list:
        """The row count of each block that `is_symmetric_pair` hands the kernel, with one-row blocks."""
        monkeypatch.setattr(triple_module, "_PAIR_BLOCK_FLOATS", 1)
        calls = cls.recorded_calls(monkeypatch)
        assert not is_symmetric_pair(triple)
        return [len(a) for a, _, _ in calls]

    def test_one_row_blocks_reach_a_violation_in_the_last_block(self, monkeypatch):
        triple = broken_so3_triple()  # as in test_late_p_h_violation_detected
        p, h = triple.p_basis.comps(), triple.h_basis.comps()
        # [p, p] cannot reach p from the supports, so only the [p, h] target runs
        assert not triple_module._may_reach(p, p, p) and triple_module._may_reach(p, h, h)
        blocks = self.recorded_blocks(triple, monkeypatch)
        assert set(blocks) == {1}
        assert len(blocks) == triple.p_basis.dim  # every block of that target ran, the last one failed

    def test_one_row_blocks_stop_at_a_violation_in_the_first_block(self, monkeypatch):
        # p of sp(2)/sp(1) starts with the off-diagonal block, whose brackets
        # with each other have a part on the second diagonal slot, in p
        assert self.recorded_blocks(sp2_sp1_triple(), monkeypatch) == [1]

    @pytest.mark.parametrize("build", FAMILIES[1:] + [lambda: sp_example(8)])
    def test_block_chains_are_settled_by_their_supports(self, build, monkeypatch):
        triple = build().triple
        calls = self.recorded_calls(monkeypatch)
        assert is_symmetric_pair(triple)
        assert calls == []

    def test_t1s3_product_is_read_densely(self, t1s3, monkeypatch):
        # its p and h are sums and differences of the two sp(1) slots, so their products meet both
        calls = self.recorded_calls(monkeypatch)
        assert is_symmetric_pair(t1s3)
        assert [len(w) for _, _, w in calls] == [t1s3.p_basis.dim, t1s3.h_basis.dim]

    @pytest.mark.parametrize("rotate", [False, True], ids=["as-built", "conjugated"])
    @pytest.mark.parametrize("build", [lambda build=build: build().triple for build in FAMILIES]
                             + OFF_CATALOG)
    def test_skip_gives_the_dense_verdict(self, build, rotate, monkeypatch):
        triple = build()
        want = is_symmetric_pair(triple)
        if rotate:
            triple = conjugated(triple, np.random.default_rng(21))
            p, h = triple.p_basis.comps(), triple.h_basis.comps()
            assert triple_module._may_reach(p, p, p) and triple_module._may_reach(p, h, h)
        got = is_symmetric_pair(triple)
        monkeypatch.setattr(triple_module, "_may_reach", lambda a, b, w: True)
        assert got == is_symmetric_pair(triple) == want  # a symmetric pair is one in any frame

    def test_support_of_w_is_read_with_its_transpose(self):
        # h holds a row skew only to within check_skew's tolerance: h_02 = h_10 = 1e-12 with
        # h_20 = h_01 = 0.  The products of p = e12 - e21 with h lie on (0, 1) and (2, 0), off
        # the support of h but on its transpose, and the kernel reads w^* - w there.
        triple = t1_sphere(3).triple
        field, n = triple.field, triple.n
        p = block_stack(field, n, [1, 2]) / np.sqrt(2)
        h = block_stack(field, n, [0, 3]) / np.sqrt(2)
        h[0, 0, 2, 0] = h[0, 1, 0, 0] = 1e-12
        assert triple_module._may_reach(p, h, h)
        assert pair_bracket_coords(field, p, h, h).any()
        odd = dataclasses.replace(triple, p_basis=Subspace(field, n, p.reshape(1, -1)),
                                  h_basis=Subspace(field, n, h.reshape(1, -1)))
        assert is_symmetric_pair(odd)  # the coordinate, about 7e-25, is below tol
        assert not is_symmetric_pair(odd, tol=0.0)

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_support_of_an_empty_stack(self, field):
        empty = np.zeros((0, 3, 3, 4))
        assert bit_equal(triple_module._support(empty), np.zeros((3, 3), dtype=np.int64))
        full = block_stack(field, 3, range(3))
        assert not triple_module._may_reach(empty, full, full)
        assert not triple_module._may_reach(full, full, empty)

    def test_rejects_non_skew_basis(self, t1s3):
        mat = np.array(t1s3.p_basis.mat)
        mat[0, 0] = 1.0  # a real diagonal entry: no longer skew-Hermitian
        mat[0] /= np.linalg.norm(mat[0])
        with pytest.raises(InvalidElement):  # when the basis is built, before any bracket
            Subspace(t1s3.field, t1s3.n, mat)


def _reference_gram_schmidt(mat, drop_tol=1e-10):
    """Row-by-row modified Gram-Schmidt with one re-orthogonalization pass."""
    basis = []
    for v in mat:
        v = np.array(v, dtype=np.float64)
        scale = max(1.0, float(np.linalg.norm(v)))
        for _ in range(2):
            for b in basis:
                v = v - np.dot(v, b) * b
        nrm = float(np.linalg.norm(v))
        if nrm > drop_tol * scale:
            basis.append(v / nrm)
    return np.array(basis).reshape(len(basis), mat.shape[1])


class TestOrthonormalize:
    def test_drops_dependent_row(self):
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((3, 12))
        mat = np.vstack([rows, 2.0 * rows[0] - rows[2], rng.standard_normal(12)])
        out = _orthonormalize(mat)
        assert out.shape == (4, 12)
        assert np.abs(out @ out.T - np.eye(4)).max() < 1e-12
        assert np.abs(mat - (mat @ out.T) @ out).max() < 1e-12

    def test_all_zero_rows_give_empty_basis(self):
        assert _orthonormalize(np.zeros((3, 8))).shape == (0, 8)

    @pytest.mark.parametrize("build", [t1s3_product, lambda: t1_sphere(4), lambda: m_kl(3, 1, 1),
                                       lambda: pt_projective(FieldTag.QUATERNION, 2),
                                       lambda: sp_example(3)])
    def test_matches_reference_on_catalog_spans(self, build):
        triple = build().triple
        g = block_stack(triple.field, triple.n, range(triple.n))
        mats = [g.reshape(len(g), -1), np.array(triple.h_basis.mat)]
        for big, small in ((triple.g_basis, triple.h_basis), (triple.h_basis, triple.k_basis)):
            mats.append(big.mat - (big.mat @ small.mat.T) @ small.mat)
        for mat in mats:
            got, want = _orthonormalize(mat), _reference_gram_schmidt(mat)
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12


class TestClosedForm:
    """Rows with disjoint supports are normalized in closed form, bit for bit as the loop."""

    @pytest.mark.parametrize("build", FAMILIES + [lambda: t1_sphere(7), lambda: sp_example(4)])
    def test_every_catalog_span_and_complement(self, monkeypatch, build):
        inputs = []
        orthonormalize = triple_module._orthonormalize

        def record(mat, *args):
            inputs.append(np.array(mat, dtype=np.float64))
            return orthonormalize(mat, *args)

        monkeypatch.setattr(triple_module, "_orthonormalize", record)
        build()
        assert any(triple_module._disjoint_rows(mat) for mat in inputs)
        for mat in inputs:
            assert bit_equal(orthonormalize(mat), reference_orthonormalize(mat))

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_generator_stacks_take_the_closed_form(self, field):
        mat = block_stack(field, 5, range(5)).reshape(-1, 100)
        assert triple_module._disjoint_rows(mat)
        assert bit_equal(_orthonormalize(mat), reference_orthonormalize(mat))

    def test_wide_rows_use_the_loops_norm(self):
        # with 50 nonzeros a row, the order of summation shows in the last bits
        rng = np.random.default_rng(12)
        mat = np.zeros((8, 400))
        for r in range(8):
            mat[r, r::8] = rng.standard_normal(50)
        assert triple_module._disjoint_rows(mat)
        assert bit_equal(_orthonormalize(mat), reference_orthonormalize(mat))

    @pytest.mark.parametrize("layout", ["strided", "F"])
    def test_wide_rows_in_other_layouts_use_the_loops_norm(self, layout):
        # BLAS sums a strided row in another order than a contiguous one
        rng = np.random.default_rng(12)
        wide = np.zeros((8, 800))
        for r in range(8):
            wide[r, 2 * r::16] = rng.standard_normal(50)
        mat = wide[:, ::2] if layout == "strided" else np.asfortranarray(wide[:, ::2])
        assert not mat.flags.c_contiguous and triple_module._disjoint_rows(mat)
        assert bit_equal(_orthonormalize(mat), reference_orthonormalize(mat))

    @pytest.mark.parametrize("row", [0, 2])
    def test_negative_zero(self, row):
        mat = np.zeros((4, 8))
        mat[0, :2] = 3.0, -4.0
        mat[2, 3] = 0.5
        mat[3, 5:] = 1.0, 2.0, 2.0
        mat[row, 7 if row else 4] = -0.0
        got = _orthonormalize(mat)
        assert bit_equal(got, reference_orthonormalize(mat))
        assert got.shape == (3, 8)  # the all-zero row 1 is dropped

    def test_all_zero_and_tiny_rows_are_dropped(self):
        mat = np.zeros((4, 6))
        mat[0, 0], mat[2, 1], mat[3, 2] = 1e-12, 2.0, 1e-300
        got = _orthonormalize(mat)
        assert triple_module._disjoint_rows(mat)
        assert bit_equal(got, reference_orthonormalize(mat))
        assert bit_equal(got, np.eye(6)[1:2])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the loop
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_keeps_the_loop(self, bad):
        mat = np.eye(5)[:4].copy()
        mat[2, 4] = bad
        assert not triple_module._disjoint_rows(mat)
        assert bit_equal(_orthonormalize(mat), reference_orthonormalize(mat))

    def test_overlapping_rows_keep_the_loop(self):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((4, 12))
        mat = np.vstack([rows, rows[0] - 3.0 * rows[1], np.eye(12)[:3]])
        assert not triple_module._disjoint_rows(mat)
        assert bit_equal(_orthonormalize(mat), reference_orthonormalize(mat))
        tied = np.zeros((2, 4))
        tied[0, :2] = tied[1, 1:3] = 1.0
        assert bit_equal(_orthonormalize(tied), reference_orthonormalize(tied))


class TestStabilizer:
    def test_zero_point_gives_whole_h(self, t1s3):

        out = stabilizer_subalgebra(t1s3.h_basis, zero(FieldTag.QUATERNION, 2), t1s3.g_basis)
        assert out.dim == t1s3.h_basis.dim

    def test_base_point_from_another_algebra_is_rejected(self, t1s3):
        # as for `bracket`: the kernel reads only the components of h's field
        with pytest.raises(DimensionMismatch):
            stabilizer_subalgebra(t1s3.h_basis, basis_element(FieldTag.COMPLEX, 2, 0, 0, 1),
                                  t1s3.g_basis)

    def test_so4_stabilizer_dimension(self):
        g = Subspace.from_spanning(block_stack(FieldTag.REAL, 4, range(4)), FieldTag.REAL)
        h = Subspace.from_spanning(block_stack(FieldTag.REAL, 4, [1, 2, 3]), FieldTag.REAL)
        a = basis_element(FieldTag.REAL, 4, 0, 1, 0)
        out = stabilizer_subalgebra(h, a, g)
        assert out.dim == 1  # rotations of the (e2, e3) plane

    def test_t1s3_stabilizer_is_diagonal_i(self, t1s3):
        a = (1.0 / math.sqrt(2.0)) * sp1_pair(np.array([1.0, 0.0, 0.0]), -1.0)
        out = stabilizer_subalgebra(t1s3.h_basis, a, t1s3.g_basis)
        assert out.dim == 1
        expected = (1.0 / math.sqrt(2.0)) * sp1_pair(np.array([1.0, 0.0, 0.0]), 1.0)
        overlap = abs(float(out.mat[0] @ expected.flat))
        assert abs(overlap - 1.0) < 1e-10

    def test_commutation_holds_on_output(self):
        entry = sp_example(2)
        out = stabilizer_subalgebra(entry.triple.h_basis, entry.base_point_A, entry.triple.g_basis)
        for e in elements(out):
            assert bracket(e, entry.base_point_A).norm() < 1e-9


def _unchecked_subspace(active: np.ndarray) -> Subspace:
    """A real 3 x 3 Subspace whose rows are the given active components, built without the checks of `Subspace`."""
    mat = _active_stack(active).reshape(len(active), 36)
    sub = object.__new__(Subspace)
    for name, value in (("field", FieldTag.REAL), ("n", 3), ("mat", mat)):
        object.__setattr__(sub, name, value)
    return sub


class TestSerialization:
    def test_round_trip_bit_faithful(self):
        for entry in (t1s3_product(), t1_sphere(3), m_kl(2, 1, -1)):
            doc = triple_to_dict(entry.triple)
            text = json.dumps(doc)
            again = triple_to_dict(triple_from_dict(json.loads(text)))
            assert json.dumps(again) == text

    @pytest.mark.parametrize("build", FAMILIES)
    def test_writer_matches_json_dumps_on_catalog(self, build):
        triple = build().triple
        assert triple_to_json(triple) == json.dumps(triple_to_dict(triple), indent=2)

    def test_writer_matches_json_dumps_on_edge_documents(self):
        # empty k, no base point, non-ASCII label
        g, h = su3_su2_spans()
        triple = make_triple(g, h, [], label="SU(3)/SU(2) \u2192 S\u2075, \u00fc")
        doc = triple_to_dict(triple)
        assert doc["bases"]["k"] == [] and doc["base_point"] is None
        assert triple_to_json(triple) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("build", FAMILIES + [lambda: sp_example(4)])
    def test_writer_matches_json_dumps_on_dense_rows(self, build):
        # g, h and k rotated by random orthogonal matrices: nearly every entry is a full-precision value
        rng = np.random.default_rng(14)
        triple = build().triple

        def rotated(sub):
            q, _ = np.linalg.qr(rng.standard_normal((sub.dim, sub.dim)))
            return Subspace(sub.field, sub.n, q @ sub.mat)

        dense = dataclasses.replace(triple, g_basis=rotated(triple.g_basis),
                                    h_basis=rotated(triple.h_basis), k_basis=rotated(triple.k_basis))
        assert np.count_nonzero(dense.g_basis.active()) > np.count_nonzero(triple.g_basis.active())
        assert triple_to_json(dense) == json.dumps(triple_to_dict(dense), indent=2)

    def test_writer_matches_json_dumps_on_extreme_values(self):
        # rows no orthonormal basis holds, put past the Subspace check: the writer takes any floats
        g = np.zeros((5, 9))
        g[0] = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2, 1 / 3, 1e-7, 1e16]
        g[2, 3:5] = -0.0, 2.5  # the all-zero row 1 and runs of +0.0 around -0.0
        g[3, 8] = float("nan")
        g[4, 0], g[4, 4] = float("inf"), -float("inf")
        h = g[:1, ::-1].copy()  # a single row, ending in -0.0
        k = np.zeros((0, 9))
        assert repr(float(g[0, 5])) == "0.30000000000000004"
        triple = dataclasses.replace(
            t1_sphere(2).triple, g_basis=_unchecked_subspace(g), h_basis=_unchecked_subspace(h),
            k_basis=_unchecked_subspace(k), base_point=None,
        )
        assert triple_to_json(triple) == json.dumps(triple_to_dict(triple), indent=2)

    def test_round_trip_preserves_projections(self):
        entry = m_kl(2, 1, 1)
        loaded = triple_from_dict(triple_to_dict(entry.triple))
        rng = np.random.default_rng(7)
        x = random_in_span(entry.triple.g_basis, rng)
        for part in Part:
            a = project(entry.triple, x, part)
            b = project(loaded, x, part)
            assert (a - b).norm() < 1e-10

    def test_base_point_survives(self):
        entry = t1_sphere(3)
        loaded = triple_from_dict(triple_to_dict(entry.triple))
        assert loaded.base_point is not None
        assert (loaded.base_point - entry.base_point_A).norm() == 0.0

    def test_unknown_schema_rejected(self, t1s3):
        doc = triple_to_dict(t1s3)
        for schema in ("bogus/9", None):
            doc["schema"] = schema
            with pytest.raises(ValueError, match="schema"):
                triple_from_dict(doc)
        del doc["schema"]
        with pytest.raises(ValueError, match="schema"):
            triple_from_dict(doc)

    def test_swapped_h_and_k_rejected(self, t1s3):
        doc = triple_to_dict(t1s3)
        assert doc["schema"] == SCHEMA_TRIPLE
        bases = doc["bases"]
        bases["h"], bases["k"] = bases["k"], bases["h"]
        with pytest.raises(NotInSpan):
            triple_from_dict(doc)

    def test_h_outside_g_rejected(self, t1s3):
        doc = triple_to_dict(t1s3)
        doc["bases"]["g"] = doc["bases"]["g"][1:]
        with pytest.raises(NotInSpan):
            triple_from_dict(doc)

    def test_malformed_rows_rejected(self, t1s3):
        doc = triple_to_dict(t1s3)
        doc["bases"]["g"][0] = doc["bases"]["g"][0][:-1]
        with pytest.raises(ValueError):
            triple_from_dict(doc)
        doc = triple_to_dict(t1s3)
        doc["bases"]["h"][0][0] = 1.0  # real diagonal component: not skew
        with pytest.raises(InvalidElement):
            triple_from_dict(doc)


class TestRebasing:
    def test_rebased_triple_has_same_subspaces(self, mkl):
        rng = np.random.default_rng(8)
        other = randomly_rebased(mkl, rng)
        for a, b in ((mkl.m_basis, other.m_basis), (mkl.p_basis, other.p_basis)):
            assert a.dim == b.dim
            # mutual projection residual: same span
            resid = a.mat - (a.mat @ b.mat.T) @ b.mat
            assert np.abs(resid).max() < 1e-10

    def test_projection_independent_of_basis(self, mkl):
        rng = np.random.default_rng(9)
        other = randomly_rebased(mkl, rng)
        x = random_in_span(mkl.g_basis, rng)
        for part in (Part.M, Part.P):
            assert (project(mkl, x, part) - project(other, x, part)).norm() < 1e-10
