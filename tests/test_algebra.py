import math

import numpy as np
import pytest

from curvcert.algebra import (
    N_COMPONENTS,
    AlgElement,
    DimensionMismatch,
    FieldTag,
    InvalidElement,
    Quaternion,
    adjoint,
    basis_element,
    block_stack,
    bracket,
    check_skew,
    comp_bracket,
    from_flat,
    group_exp,
    identity,
    inner,
    pair_brackets,
    random_skew,
    zero,
)

from helpers import bit_equal, random_skew_batch, reference_block_stack, sp1_pair


def quat_unit(n, slot, c):
    comp = np.zeros((n, n, 4))
    comp[slot, slot, c] = 1.0
    return AlgElement(FieldTag.QUATERNION, n, comp)


class TestQuaternion:
    def test_defining_identities(self):
        one = Quaternion(1, 0, 0, 0)
        i, j, k = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)
        minus_one = Quaternion(-1, 0, 0, 0)
        assert i * i == minus_one
        assert j * j == minus_one
        assert k * k == minus_one
        assert i * j * k == minus_one
        assert i * j == k and j * i == Quaternion(0, 0, 0, -1)
        assert one * i == i

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = Quaternion(*rng.standard_normal(4))
            q = Quaternion(*rng.standard_normal(4))
            assert abs(abs(p * q) - abs(p) * abs(q)) < 1e-12 * abs(p) * abs(q)

    def test_conjugate_norm(self):
        q = Quaternion(1.0, -2.0, 0.5, 3.0)
        prod = q * q.conjugate()
        assert prod.x == prod.y == prod.z == 0
        assert math.isclose(prod.w, abs(q) ** 2)


class TestBracket:
    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(1)
        for field, n in [(FieldTag.REAL, 4), (FieldTag.COMPLEX, 3), (FieldTag.QUATERNION, 2)]:
            x = random_skew(field, n, rng)
            assert bracket(x, x).norm() == 0.0

    def test_sp1_ji_equals_minus_2k(self):
        # 1x1 quaternion matrices: [j, i] = ji - ij = -2k
        j = quat_unit(1, 0, 2)
        i = quat_unit(1, 0, 1)
        out = bracket(j, i)
        expected = np.zeros((1, 1, 4))
        expected[0, 0, 3] = -2.0
        assert np.allclose(out.comp, expected)

    def test_block_diagonal_componentwise(self):
        # [(j,j), (i,-i)] = ([j,i], [j,-i]) = (-2k, 2k)
        zjj = sp1_pair(np.array([0.0, 1.0, 0.0]), 1.0)
        wii = sp1_pair(np.array([1.0, 0.0, 0.0]), -1.0)
        out = bracket(zjj, wii)
        expected = np.zeros((2, 2, 4))
        expected[0, 0, 3] = -2.0
        expected[1, 1, 3] = 2.0
        assert np.allclose(out.comp, expected)

    def test_mismatch_raises(self):
        x = random_skew(FieldTag.REAL, 3, np.random.default_rng(0))
        y = random_skew(FieldTag.REAL, 4, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch):
            bracket(x, y)
        z = random_skew(FieldTag.COMPLEX, 3, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch):
            inner(x, z)

    def test_laws_on_random_triples(self):
        rng = np.random.default_rng(2)
        for field, n in [(FieldTag.REAL, 5), (FieldTag.COMPLEX, 3), (FieldTag.QUATERNION, 3)]:
            for _ in range(20):
                x, y, z = (random_skew(field, n, rng) for _ in range(3))
                scale = x.norm() * y.norm() * z.norm()
                assert (bracket(x, y) + bracket(y, x)).norm() < 1e-14 * scale
                jac = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
                assert jac.norm() < 1e-10 * scale
                assert abs(inner(bracket(x, y), z) + inner(y, bracket(x, z))) < 1e-10 * scale


class TestPairBrackets:
    @pytest.mark.parametrize("field", list(FieldTag), ids=lambda f: f.value)
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 5), (4, 1), (3, 6)])
    def test_matches_broadcast_bracket(self, field, p, q):
        rng = np.random.default_rng(10 * p + q)
        nc = N_COMPONENTS[field]
        a, b = random_skew_batch(field, 3, p, rng), random_skew_batch(field, 3, q, rng)
        want = comp_bracket(a[:, None], b[None, :])
        got = pair_brackets(field, a, b)
        assert got.shape == (p, q, 3, 3, nc)
        assert np.abs(got - want[..., :nc]).max() < 1e-12
        assert not want[..., nc:].any()


class TestInner:
    def test_diag_i_unit(self):
        for n in (1, 3):
            comp = np.zeros((n, n, 4))
            comp[0, 0, 1] = 1.0
            x = AlgElement(FieldTag.COMPLEX, n, comp)
            assert math.isclose(inner(x, x), 1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = random_skew(FieldTag.QUATERNION, 3, rng)
            y = random_skew(FieldTag.QUATERNION, 3, rng)
            assert math.isclose(inner(x, y), inner(y, x), rel_tol=1e-12, abs_tol=1e-12)

    def test_so3_generator_norm(self):
        l12 = basis_element(FieldTag.REAL, 3, 0, 1, 0)
        assert math.isclose(inner(l12, l12), 2.0)


class TestGroupExp:
    def test_exp_zero_is_identity(self):
        x = random_skew(FieldTag.COMPLEX, 3, np.random.default_rng(4))
        g = group_exp(x, 0.0)
        assert np.allclose(g.comp, identity(FieldTag.COMPLEX, 3).comp)

    def test_so2_closed_form(self):
        l12 = basis_element(FieldTag.REAL, 2, 0, 1, 0)
        for s in (-1.3, 0.2, 2.9):
            g = group_exp(l12, s)
            rot = np.array([[math.cos(s), math.sin(s)], [-math.sin(s), math.cos(s)]])
            assert np.allclose(g.comp[:, :, 0], rot, atol=1e-12)

    def test_one_parameter_property(self):
        rng = np.random.default_rng(5)
        for field, n in [(FieldTag.REAL, 4), (FieldTag.QUATERNION, 2)]:
            x = random_skew(field, n, rng)
            a, b = rng.uniform(-2, 2, size=2)
            lhs = group_exp(x, a) @ group_exp(x, b)
            rhs = group_exp(x, a + b)
            assert np.abs(lhs.comp - rhs.comp).max() < 1e-10

    def test_unitarity_residual(self):
        rng = np.random.default_rng(6)
        for field, n in [(FieldTag.REAL, 5), (FieldTag.COMPLEX, 4), (FieldTag.QUATERNION, 3)]:
            for _ in range(5):
                # GroupElement construction itself enforces the 1e-10 residual
                group_exp(random_skew(field, n, rng), rng.uniform(-3, 3))


class TestAdjoint:
    def test_identity_fixes(self):
        x = random_skew(FieldTag.QUATERNION, 3, np.random.default_rng(7))
        assert np.allclose(adjoint(identity(FieldTag.QUATERNION, 3), x).comp, x.comp)

    def test_isometry_of_inner(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_skew(FieldTag.COMPLEX, 3, rng)
            g = group_exp(a, rng.uniform(-2, 2))
            x = random_skew(FieldTag.COMPLEX, 3, rng)
            y = random_skew(FieldTag.COMPLEX, 3, rng)
            assert math.isclose(inner(adjoint(g, x), adjoint(g, y)), inner(x, y),
                                rel_tol=1e-10, abs_tol=1e-10)

    def test_first_order_expansion_matches_bracket(self):
        rng = np.random.default_rng(9)
        for field, n in [(FieldTag.REAL, 4), (FieldTag.QUATERNION, 2)]:
            a = random_skew(field, n, rng)
            x = random_skew(field, n, rng)
            h = 1e-6
            gp, gm = group_exp(a, h), group_exp(a, -h)
            slope = (1.0 / (2 * h)) * (adjoint(gp, x) - adjoint(gm, x))
            assert (slope - bracket(a, x)).norm() < 1e-6 * max(1.0, bracket(a, x).norm())


class TestValidation:
    def test_rejects_non_skew(self):
        comp = np.zeros((2, 2, 4))
        comp[0, 0, 0] = 1.0  # real diagonal entry is Hermitian, not skew
        with pytest.raises(InvalidElement):
            AlgElement(FieldTag.REAL, 2, comp)

    def test_rejects_out_of_field_components(self):
        comp = np.zeros((2, 2, 4))
        comp[0, 1, 3] = 1.0
        comp[1, 0, 3] = 1.0
        with pytest.raises(InvalidElement):
            AlgElement(FieldTag.COMPLEX, 2, comp)

    def test_flat_round_trip(self):
        x = random_skew(FieldTag.QUATERNION, 3, np.random.default_rng(10))
        assert np.array_equal(from_flat(FieldTag.QUATERNION, 3, x.flat).comp, x.comp)

    def test_basis_sizes(self):
        assert len(block_stack(FieldTag.REAL, 4, range(4))) == 6
        assert len(block_stack(FieldTag.COMPLEX, 3, range(3))) == 9
        assert len(block_stack(FieldTag.QUATERNION, 2, range(2))) == 10
        assert zero(FieldTag.REAL, 3).norm() == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_components(self, bad):
        comp = np.zeros((2, 2, 4))
        comp[0, 1, 0], comp[1, 0, 0] = bad, -bad
        with pytest.raises(InvalidElement, match="non-finite"):
            check_skew(FieldTag.REAL, comp)
        with pytest.raises(InvalidElement, match="non-finite"):
            AlgElement(FieldTag.REAL, 2, comp)


class TestBlockStack:
    @pytest.mark.parametrize("field", list(FieldTag))
    @pytest.mark.parametrize("n, indices", [(4, range(4)), (4, []), (3, [2]), (1, [0]),
                                            (6, range(2, 6)), (7, [1, 3, 4, 6])])
    def test_matches_basis_elements_bit_for_bit(self, field, n, indices):
        got = block_stack(field, n, indices)
        assert bit_equal(got, reference_block_stack(field, n, indices))
        assert got.shape[1:] == (n, n, 4)
