"""Shared test utilities: independent oracles and random-input generators."""

from __future__ import annotations

import numpy as np

from curvcert.algebra import (
    AlgElement,
    FieldTag,
    N_COMPONENTS,
    basis_element,
    comp_bracket,
    conj_transpose,
    from_flat,
)
from curvcert.triple import Triple


def random_skew_batch(field: FieldTag, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of random skew-Hermitian component arrays, shape (count, n, n, 4)."""
    raw = rng.standard_normal((count, n, n, 4))
    raw[..., N_COMPONENTS[field]:] = 0.0
    return (raw - conj_transpose(raw)) / 2.0


def random_block_diag_sp1_batch(count: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of random elements of sp(1) + sp(1) in the 2x2 block-diagonal model."""
    comp = np.zeros((count, 2, 2, 4))
    comp[:, 0, 0, 1:] = rng.standard_normal((count, 3))
    comp[:, 1, 1, 1:] = rng.standard_normal((count, 3))
    return comp


def sampled_min_ad(triple: Triple, a: AlgElement, n_samples: int, seed: int = 0) -> float:
    """Brute-force minimum of |[X, A]| over random unit vectors in m.

    Independent of the SVD route: the rows [m_i, A] come from quaternion
    arithmetic on the basis matrices, and by linearity of the bracket each
    batch of unit coefficient vectors maps through them to its samples [X, A].
    """
    basis = triple.m_basis.mat.reshape(-1, triple.n, triple.n, 4)
    dm = len(basis)
    rows = comp_bracket(basis, a.comp).reshape(dm, -1)
    rng = np.random.default_rng(seed)
    best = np.inf
    done = 0
    while done < n_samples:
        batch = min(100_000, n_samples - done)
        coeff = rng.standard_normal((batch, dm))
        coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
        best = min(best, float(np.linalg.norm(coeff @ rows, axis=1).min()))
        done += batch
    return best


def random_admissible_pair(triple: Triple, rng: np.random.Generator, z_domain=None):
    """Random orthonormal (Z, W) with W in p and Z in the given domain, W-orthogonal."""
    z_dom = z_domain if z_domain is not None else triple.gk_basis()
    w_coeff = rng.standard_normal(triple.p_basis.dim)
    w_coeff /= np.linalg.norm(w_coeff)
    w_flat = w_coeff @ triple.p_basis.mat
    z_flat = rng.standard_normal(z_dom.dim) @ z_dom.mat
    z_flat = z_flat - np.dot(z_flat, w_flat) * w_flat
    z_flat /= np.linalg.norm(z_flat)
    return (
        from_flat(triple.field, triple.n, z_flat),
        from_flat(triple.field, triple.n, w_flat),
    )


def su3_su2_spans():
    """Spanning sets of su(3) and of its su(2) block, a pair that is not symmetric."""

    def diag_i(a, b, c):
        comp = np.zeros((3, 3, 4))
        comp[0, 0, 1], comp[1, 1, 1], comp[2, 2, 1] = a, b, c
        return AlgElement(FieldTag.COMPLEX, 3, comp)

    off = [basis_element(FieldTag.COMPLEX, 3, i, j, c)
           for i in range(3) for j in range(i + 1, 3) for c in (0, 1)]
    g = off + [diag_i(1, -1, 0), diag_i(0, 1, -1)]
    h = off[:2] + [diag_i(1, -1, 0)]
    return g, h


def sp1_pair(a_components: np.ndarray, sign: float) -> AlgElement:
    """(a, sign*a) in the block-diagonal sp(1)+sp(1) model, a given by 3 imaginary parts."""
    comp = np.zeros((2, 2, 4))
    comp[0, 0, 1:] = a_components
    comp[1, 1, 1:] = sign * a_components
    return AlgElement(FieldTag.QUATERNION, 2, comp)


def t1s3_commuting_pair(rng: np.random.Generator):
    """Orthonormal commuting (Z, W) for the sp(1)+sp(1) triple: Z=(a,a), W=(a,-a), a orth. to i."""
    v = rng.standard_normal(2)
    v /= np.linalg.norm(v)
    a = np.array([0.0, v[0], v[1]])  # orthogonal to i in sp(1)
    z = (1.0 / np.sqrt(2.0)) * sp1_pair(a, 1.0)
    w = (1.0 / np.sqrt(2.0)) * sp1_pair(a, -1.0)
    return z, w
