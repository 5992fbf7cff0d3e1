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


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and the same float64 bits in every entry (so -0.0 differs from 0.0)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def reference_orthonormalize(mat: np.ndarray, drop_tol: float = 1e-10) -> np.ndarray:
    """The Gram-Schmidt row loop of `curvcert.triple._orthonormalize`, without its closed form.

    Each row is projected off the basis accumulated so far by one matrix
    product, twice; rows whose remaining norm is at most drop_tol times
    max(1, original norm) are dropped.
    """
    mat = np.asarray(mat, dtype=np.float64)
    basis = np.empty_like(mat)
    rank = 0
    for v in mat:
        scale = max(1.0, float(np.linalg.norm(v)))
        for _ in range(2):
            v = v - (basis[:rank] @ v) @ basis[:rank]
        nrm = float(np.linalg.norm(v))
        if nrm > drop_tol * scale:
            basis[rank] = v / nrm
            rank += 1
    return basis[:rank].copy()


def reference_block_stack(field: FieldTag, n: int, indices) -> np.ndarray:
    """One `basis_element` per generator, in the generator order of `block_stack`, stacked."""
    idx = list(indices)
    elems = []
    for a, i in enumerate(idx):
        elems += [basis_element(field, n, i, i, c) for c in range(1, N_COMPONENTS[field])]
        for j in idx[a + 1:]:
            elems += [basis_element(field, n, i, j, c) for c in range(N_COMPONENTS[field])]
    return np.array([e.comp for e in elems]).reshape(len(elems), n, n, 4)


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


def pair_tensor(z_elems, w_elems, fn) -> np.ndarray:
    """T[i, k, :] = flat(fn(z_i, w_k)) of a bilinear map, one call per basis pair."""
    return np.array([[fn(z, w).flat for w in w_elems] for z in z_elems])


def _term_values(tensors, weights, z, w) -> list[float]:
    return [float(mu * np.sum(np.einsum("ikd,i,k->d", t, z, w) ** 2))
            for mu, t in zip(weights, tensors)]


def _min_eig_vector(q, u):
    """Unit minimizer of v^T q v on the sphere, orthogonal to u when given."""
    if u is not None:
        nrm = np.linalg.norm(u)
        if nrm > 1e-12:
            uu = (u / nrm)[None, :]
            _, _, vh = np.linalg.svd(uu, full_matrices=True)
            basis = vh[1:].T  # orthonormal complement of u
            if basis.shape[1] == 0:
                return None
            vals, vecs = np.linalg.eigh(basis.T @ q @ basis)
            return basis @ vecs[:, 0]
    vals, vecs = np.linalg.eigh(q)
    return vecs[:, 0]


def descend_one(tensors, weights, gmat, z0, w0, max_iters):
    """Reference one-start search of `curvcert.certify`; returns (value, z, w, status).

    Two exact block-coordinate sweeps, then Levenberg-Marquardt steps on the
    stacked residual r = (sqrt(mu_j) T_j(z, w))_j with the search's damping
    and stop rules.  The tangent space of {|z| = |w| = 1, z^T gmat w = 0} is
    an explicit null-space basis from an SVD of the constraint rows, where
    the lockstep search projects instead.  The status codes are those of
    `curvcert.certify`: 0 converged, 1 hit max_iters, 2 empty complement.
    """
    z, w = z0, w0
    for _ in range(2):
        qz = np.zeros((len(z), len(z)))
        for mu, t in zip(weights, tensors):
            a = np.einsum("ikd,k->id", t, w)
            qz += mu * (a @ a.T)
        z_new = _min_eig_vector(qz, gmat @ w if gmat is not None else None)
        if z_new is None:
            return sum(_term_values(tensors, weights, z, w)), z, w, 2
        qw = np.zeros((len(w), len(w)))
        for mu, t in zip(weights, tensors):
            a = np.einsum("ikd,i->kd", t, z_new)
            qw += mu * (a @ a.T)
        w_new = _min_eig_vector(qw, gmat.T @ z_new if gmat is not None else None)
        if w_new is None:
            return sum(_term_values(tensors, weights, z, w)), z, w, 2
        z, w = z_new, w_new

    dz, n = len(z), len(z) + len(w)
    floor = (16 * np.finfo(float).eps) ** 2 * sum(mu * np.sum(t * t) for mu, t in zip(weights, tensors))
    val = sum(_term_values(tensors, weights, z, w))
    if val <= floor:
        return val, z, w, 0
    damp = 1e-3
    for _ in range(max_iters):
        jac = np.concatenate([np.hstack([np.sqrt(mu) * np.einsum("ikd,k->di", t, w),
                                         np.sqrt(mu) * np.einsum("ikd,i->dk", t, z)])
                              for mu, t in zip(weights, tensors)])
        r = np.concatenate([np.sqrt(mu) * np.einsum("ikd,i,k->d", t, z, w)
                            for mu, t in zip(weights, tensors)])
        rows = [np.concatenate([z, np.zeros(len(w))]), np.concatenate([np.zeros(dz), w])]
        if gmat is not None:
            rows.append(np.concatenate([gmat @ w, gmat.T @ z]))
        _, sv, vh = np.linalg.svd(np.array(rows))
        tangent = vh[int(np.sum(sv > 1e-12)):].T
        jt = jac @ tangent
        grad, hess = jt.T @ r, jt.T @ jt
        scale = np.trace(hess) / n
        if grad @ grad <= 1e-20 * scale * val:
            return val, z, w, 0
        step = tangent @ np.linalg.solve(hess + damp * scale * np.eye(len(hess)), -grad)
        zc, wc = z + step[:dz], w + step[dz:]
        wc = wc / np.linalg.norm(wc)
        if gmat is not None and np.linalg.norm(gmat @ wc) > 1e-12:
            u = gmat @ wc / np.linalg.norm(gmat @ wc)
            zc = zc - (zc @ u) * u
        zc = zc / np.linalg.norm(zc)
        fc = sum(_term_values(tensors, weights, zc, wc))
        if fc < val:
            small = val - fc <= 1e-12 * val
            z, w, val, damp = zc, wc, fc, max(damp / 3.0, 1e-12)
            if small or fc <= floor:
                return val, z, w, 0
        else:
            damp *= 4.0
            if damp > 1e12:
                return val, z, w, 0
    return val, z, w, 1


def term_values(tensors, z, w) -> list[float]:
    """Unweighted |T_j(z, w)|^2 of each term."""
    return _term_values(tensors, [1.0] * len(tensors), z, w)
