import math
import re

import numpy as np
import pytest

from curvcert.algebra import (
    N_COMPONENTS,
    AlgElement,
    DimensionMismatch,
    FieldTag,
    InvalidElement,
    block_labels,
    block_stack,
    bracket,
    check_skew,
    check_unitary,
    comp_bracket,
    conj_transpose,
    from_flat,
    group_exp,
    group_exps,
    pair_bracket_coords,
    qmul,
    random_skew,
)
from helpers import (
    Quaternion,
    adjoint,
    basis_element,
    bit_equal,
    exp_squarings,
    full_algebra_basis,
    identity,
    inner,
    make_triple,
    random_skew_batch,
    randomly_rebased,
    reference_block_stack,
    reference_group_exp,
    sp1_pair,
    zero,
)


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
        # along an orthonormal basis of the whole algebra, the coordinates hold
        # all of each bracket: they map back onto the broadcast bracket
        rng = np.random.default_rng(10 * p + q)
        a, b = random_skew_batch(field, 3, p, rng), random_skew_batch(field, 3, q, rng)
        basis = full_algebra_basis(field, 3)
        want = comp_bracket(a[:, None], b[None, :]).reshape(p, q, -1)
        coords = pair_bracket_coords(field, a, b, basis)
        assert coords.shape == (p, q, len(basis)) and coords.flags.c_contiguous
        assert np.abs(coords @ basis.reshape(len(basis), -1) - want).max() < 1e-12


class TestPairBracketCoords:
    # g > h = the sum of two diagonal blocks, over each field
    CHAINS = [(FieldTag.REAL, 5, 2), (FieldTag.COMPLEX, 4, 1), (FieldTag.QUATERNION, 3, 1)]

    @staticmethod
    def rebased_chain(field, n, split, seed):
        """p, h and g of a block chain, with p and m randomly rebased, as component stacks."""
        g = block_stack(field, n, range(n))
        h = np.concatenate([block_stack(field, n, range(split)), block_stack(field, n, range(split, n))])
        triple = randomly_rebased(make_triple(g, h, [], field=field), np.random.default_rng(seed))
        return [sub.comps() for sub in (triple.p_basis, triple.h_basis, triple.g_basis)]

    @staticmethod
    def bracket_coords(field, a, b, w):
        """<[a_p, b_q], w_d> from one `bracket` per pair."""
        n = a.shape[1]
        brackets = np.array([[bracket(AlgElement(field, n, x), AlgElement(field, n, y)).flat
                              for y in b] for x in a])
        return brackets @ w.reshape(len(w), -1).T

    @pytest.mark.parametrize("field,n,split", CHAINS, ids=lambda v: getattr(v, "value", str(v)))
    def test_matches_bracket_coordinates(self, field, n, split):
        for seed in range(3):
            p, h, g = self.rebased_chain(field, n, split, seed)
            for a, b in ((p, p), (p, h), (h[:3], g)):
                want = self.bracket_coords(field, a, b, g)
                got = pair_bracket_coords(field, a, b, g)
                assert got.shape == (len(a), len(b), len(g)) and got.flags.c_contiguous
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("field", list(FieldTag), ids=lambda f: f.value)
    def test_empty_stacks(self, field):
        a = random_skew_batch(field, 3, 2, np.random.default_rng(0))
        for shape, args in (((0, 2, 2), (a[:0], a, a)), ((2, 0, 2), (a, a[:0], a)),
                            ((2, 2, 0), (a, a, a[:0]))):
            assert pair_bracket_coords(field, *args).shape == shape

    @pytest.mark.parametrize("field,n,split", CHAINS, ids=lambda v: getattr(v, "value", str(v)))
    def test_reads_the_skew_part_of_the_wrong_basis(self, field, n, split):
        # a Hermitian term of size 1e-10 passes check_skew; the bracket
        # coordinates do not see it, and neither may the kernel
        p, h, g = self.rebased_chain(field, n, split, 7)
        raw = np.random.default_rng(8).standard_normal((n, n, 4))
        raw[..., N_COMPONENTS[field]:] = 0.0
        w = g.copy()
        w[0] += 1e-10 * (raw + conj_transpose(raw))
        check_skew(field, w)
        want = self.bracket_coords(field, p, h, w)
        got = pair_bracket_coords(field, p, h, w)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # 2 <a b, w> with w as given misses by the Hermitian term, far beyond that
        naive = 2 * qmul(p[:, None], h[None]).reshape(len(p), len(h), -1) @ w.reshape(len(w), -1).T
        assert np.abs(naive - want).max() > 1e-12 * np.abs(want).max()


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


    @pytest.mark.parametrize("field", list(FieldTag), ids=lambda f: f.value)
    def test_stack_matches_one_at_a_time_bit_for_bit(self, field):
        # one stack mixes s = 0, negative s and several squaring counts, and
        # every s must keep the bits of its own one-s series
        rng = np.random.default_rng(11)
        x = random_skew(field, 3, rng)
        s_values = [0.0, -0.0, 0.05, -0.4, 1.3, -2.7, 9.0, 0.8, -0.05]
        assert len({exp_squarings(x, s) for s in s_values}) >= 4
        stack = group_exps(x, s_values)
        assert stack.shape == (len(s_values), 3, 3, 4)
        for s, got in zip(s_values, stack):
            want = reference_group_exp(x, s)
            assert bit_equal(got, want) and bit_equal(group_exp(x, s).comp, want)

    @pytest.mark.parametrize("s,message", [
        (1e200, "exp(s X) at s = 1e+200: the norm of s X overflows"),
        (-1e200, "exp(s X) at s = -1e+200: the norm of s X overflows"),
        (1e6, "exp(s X) at s = 1000000.0 is not unitary to 1e-10"),
    ])
    def test_an_s_out_of_reach_is_named(self, s, message):
        # the offending s among good ones; |1e200 X|^2 overflows, and math.ceil takes no inf
        x = basis_element(FieldTag.QUATERNION, 3, 0, 1, 0)
        with pytest.raises(InvalidElement, match=f"^{re.escape(message)}$"):
            group_exps((1.0 / math.sqrt(2.0)) * x, [0.1, s, 0.2])

    def test_one_unitarity_check_covers_the_stack(self):
        x = random_skew(FieldTag.QUATERNION, 2, np.random.default_rng(12))
        assert group_exps(x, []).shape == (0, 2, 2, 4)
        stack = group_exps(x, [0.3, -1.1])
        check_unitary(FieldTag.QUATERNION, stack)
        stack[1] *= 1.0 + 1e-9  # one matrix of the stack off the unitary group
        with pytest.raises(InvalidElement, match="not unitary"):
            check_unitary(FieldTag.QUATERNION, stack)


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
                                            (6, range(2, 6)), (7, [1, 3, 4, 6])]
                             # all of the algebra, the catalog's blocks from 1 and
                             # from 2 on, and each single index, for n = 1..6
                             + [(n, indices) for n in range(1, 7)
                                for indices in (range(n), range(1, n), range(2, n),
                                                *([i] for i in range(n)))])
    def test_matches_basis_elements_bit_for_bit(self, field, n, indices):
        got = block_stack(field, n, indices)
        assert bit_equal(got, reference_block_stack(field, n, indices))
        assert got.shape[1:] == (n, n, 4)

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_each_label_names_its_generator(self, field):
        labels = block_labels(field, [3, 0, 2])
        assert len(set(labels)) == len(labels) == len(block_stack(field, 4, [3, 0, 2]))
        for row, (i, j, c) in zip(block_stack(field, 4, [3, 0, 2]), labels):
            assert bit_equal(row, basis_element(field, 4, i, j, c).comp)
        assert block_labels(field, [3], [0, 2]) == block_labels(field, [3]) + block_labels(
            field, [0, 2])
