import math

import numpy as np
import pytest

from curvcert.algebra import (
    AlgElement,
    FieldTag,
    adjoint,
    bracket,
    group_exp,
)
from curvcert.catalog import m_kl, t1s3_product
from curvcert.flatness import (
    FlatPairWitness,
    PlaneInputError,
    horizontal_flat_residual,
)
from curvcert.triple import Part, project

from helpers import (
    DeformParam,
    Quaternion,
    basis_element,
    eschenburg_residual,
    identity,
    phi,
    sp1_pair,
)

SQ2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def t1s3():
    return t1s3_product().triple


@pytest.fixture(scope="module")
def mkl():
    return m_kl(2, 1, 1).triple


def diag_u(entries):
    n = len(entries)
    comp = np.zeros((n, n, 4))
    for i, v in enumerate(entries):
        comp[i, i, 1] = v
    return AlgElement(FieldTag.COMPLEX, n, comp)


class TestEschenburg:
    def test_commuting_diagonals_give_zero(self, mkl):
        d = DeformParam(0.3)
        x = diag_u([1.0, 0.0, 0.0])
        y = diag_u([0.0, 1.0, 0.0])
        assert eschenburg_residual(mkl, x, y, d) < 1e-28

    def test_p_against_h_scales_with_t(self, mkl):
        # X in p, Y in h: Phi fixes X and multiplies Y by t, and the pure-h
        # term vanishes, so the residual is t^2 |[X, Y]|^2.
        x = basis_element(FieldTag.COMPLEX, 3, 0, 1, 0)
        y = basis_element(FieldTag.COMPLEX, 3, 1, 2, 0)
        base = bracket(x, y).norm() ** 2
        for t in (0.2, 0.5, 0.8):
            got = eschenburg_residual(mkl, x, y, DeformParam(t))
            assert math.isclose(got, t * t * base, rel_tol=1e-12)

    def test_dependent_pair_rejected(self, mkl):
        x = diag_u([1.0, 0.0, 0.0])
        with pytest.raises(PlaneInputError):
            eschenburg_residual(mkl, x, 2.0 * x, DeformParam(0.5))

    def test_general_pair_matches_direct_formula(self, t1s3):
        rng = np.random.default_rng(0)
        d = DeformParam(0.37)
        for _ in range(5):
            x = sp1_pair(rng.standard_normal(3), 1.0) + sp1_pair(rng.standard_normal(3), -1.0)
            y = sp1_pair(rng.standard_normal(3), 1.0) + sp1_pair(rng.standard_normal(3), -1.0)

            expected = (
                bracket(phi(t1s3, x, d), phi(t1s3, y, d)).norm() ** 2
                + bracket(project(t1s3, x, Part.H), project(t1s3, y, Part.H)).norm() ** 2
            )
            assert math.isclose(eschenburg_residual(t1s3, x, y, d), expected, rel_tol=1e-12)


def known_flat_pair():
    """Orthonormal commuting pair Z = (j, j)/sqrt2, W = (j, -j)/sqrt2 and A = (i, -i)/sqrt2."""
    z = (1.0 / SQ2) * sp1_pair(np.array([0.0, 1.0, 0.0]), 1.0)
    w = (1.0 / SQ2) * sp1_pair(np.array([0.0, 1.0, 0.0]), -1.0)
    a = (1.0 / SQ2) * sp1_pair(np.array([1.0, 0.0, 0.0]), -1.0)
    return z, w, a


def quat_conj_oracle(s, z_quats):
    """Conjugate each diagonal quaternion entry by exp(s * a_slot) with scalar arithmetic."""
    i_unit = Quaternion(0.0, 1.0, 0.0, 0.0)
    signs = (1.0, -1.0)
    out = []
    for slot in range(2):
        half = s * signs[slot] / SQ2
        g = Quaternion(math.cos(half), math.sin(half), 0.0, 0.0)
        out.append(g * z_quats[slot] * g.conjugate())
    return out


class TestHorizontalResidual:
    def test_known_flat_pair_flat_at_identity(self, t1s3):
        z, w, _ = known_flat_pair()

        r1, r2 = horizontal_flat_residual(t1s3, identity(FieldTag.QUATERNION, 2), z, w)
        assert r1 < 1e-28
        assert r2 < 1e-28

    def test_known_flat_pair_positive_away_from_identity(self, t1s3):
        z, w, a = known_flat_pair()
        g = group_exp(a, -0.3)
        r1, r2 = horizontal_flat_residual(t1s3, g, z, w)
        assert r1 < 1e-28
        assert r2 > 1e-3

    def test_adjoint_matches_scalar_quaternion_oracle(self, t1s3):
        z, _, a = known_flat_pair()
        s = 0.47
        g = group_exp(a, s)
        moved = adjoint(g, z)
        jq = Quaternion(0.0, 0.0, 1.0 / SQ2, 0.0)
        expect = quat_conj_oracle(s, [jq, jq])
        for slot, q in enumerate(expect):
            got = Quaternion(*moved.comp[slot, slot])
            assert abs(got.w - q.w) < 1e-12
            assert abs(got.x - q.x) < 1e-12
            assert abs(got.y - q.y) < 1e-12
            assert abs(got.z - q.z) < 1e-12

    def test_precondition_violations(self, t1s3, mkl):
        z, w, a = known_flat_pair()

        e = identity(FieldTag.QUATERNION, 2)
        with pytest.raises(PlaneInputError):
            horizontal_flat_residual(t1s3, e, 2.0 * z, w)
        # Z with a k-component
        zk = (1.0 / SQ2) * sp1_pair(np.array([1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(PlaneInputError):
            horizontal_flat_residual(t1s3, e, zk, w)
        # W outside p
        with pytest.raises(PlaneInputError):
            horizontal_flat_residual(t1s3, e, w, zk)

    def test_conjugation_by_isotropy_preserves_residual(self, t1s3):
        z, w, a = known_flat_pair()
        s = 0.3
        g = group_exp(a, s)
        base = horizontal_flat_residual(t1s3, g, z, w)
        # conjugating the pair by exp of a k element is a symmetry of the setup
        k_elt = (1.0 / SQ2) * sp1_pair(np.array([1.0, 0.0, 0.0]), 1.0)
        u = group_exp(k_elt, 0.9)
        z2, w2 = adjoint(u, z), adjoint(u, w)
        moved = horizontal_flat_residual(t1s3, g, z2, w2)
        assert math.isclose(base[0], moved[0], rel_tol=1e-10, abs_tol=1e-14)


def biinvariant_plane_curvature(x, y):
    """Sectional curvature |[X, Y]|^2 / 4 of the bi-invariant metric on an orthonormal pair."""
    return 0.25 * bracket(x, y).norm() ** 2


class TestBiinvariantCurvature:
    def test_so3_plane_value(self):
        x = (1.0 / SQ2) * basis_element(FieldTag.REAL, 3, 0, 1, 0)
        y = (1.0 / SQ2) * basis_element(FieldTag.REAL, 3, 0, 2, 0)
        # [L12, L13] = L23 (up to sign), so |[X, Y]|^2 = (1/4)|L23|^2 = 1/2
        assert math.isclose(biinvariant_plane_curvature(x, y), 0.125, rel_tol=1e-12)

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(2)
        from curvcert.algebra import random_skew

        x = random_skew(FieldTag.REAL, 4, rng)
        y = random_skew(FieldTag.REAL, 4, rng)
        g = group_exp(random_skew(FieldTag.REAL, 4, rng), 0.8)
        before = biinvariant_plane_curvature(x, y)
        after = biinvariant_plane_curvature(adjoint(g, x), adjoint(g, y))
        assert math.isclose(before, after, rel_tol=1e-10)


class TestWitness:
    def test_fields_round_trip(self, t1s3):
        z, w, _ = known_flat_pair()
        wit = FlatPairWitness(Z=z, W=w, commutator_residual=0.0,
                              horizontal_residual=1e-5, point_s=0.3)
        assert wit.point_s == 0.3
        assert wit.horizontal_residual == 1e-5
        assert (wit.Z - z).norm() == 0.0
