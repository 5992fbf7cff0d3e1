"""Scalar and matrix arithmetic for compact matrix Lie algebras over R, C and H.

Elements are skew-Hermitian square matrices stored with explicit scalar
components: every entry carries four reals (w, x, y, z), of which the real
field uses one and the complex field two.  Keeping quaternion entries native
makes the inner product Re tr(A * conj(B)^T) a literal componentwise dot
product.  Brackets of basis stacks have one kernel, `pair_bracket_coords`:
it gives the coordinates of every pair's bracket along a third stack (an
orthonormal basis of g, h or p) and is the only code that works in a complex
embedding, laid out by `_embedding`.  `bracket` of two single elements stays
on the componentwise product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class FieldTag(Enum):
    REAL = "real"
    COMPLEX = "complex"
    QUATERNION = "quaternion"


#: number of active scalar components per matrix entry
N_COMPONENTS = {FieldTag.REAL: 1, FieldTag.COMPLEX: 2, FieldTag.QUATERNION: 4}

_SKEW_TOL = 1e-9
_UNITARY_TOL = 1e-10
_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


class DimensionMismatch(ValueError):
    """Operands live in different algebras (field or size disagree)."""


class InvalidElement(ValueError):
    """Matrix data violates a structural invariant (skew-Hermitian, unitary, ...)."""


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of quaternion-component matrices, shapes (..., n, m, 4) x (..., m, p, 4).

    Broadcasts over leading axes, so batched products are supported.
    """
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    m = np.matmul
    return np.stack(
        [
            m(aw, bw) - m(ax, bx) - m(ay, by) - m(az, bz),
            m(aw, bx) + m(ax, bw) + m(ay, bz) - m(az, by),
            m(aw, by) - m(ax, bz) + m(ay, bw) + m(az, bx),
            m(aw, bz) + m(ax, by) - m(ay, bx) + m(az, bw),
        ],
        axis=-1,
    )


def conj_transpose(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a quaternion-component matrix (..., n, m, 4)."""
    return np.swapaxes(a, -3, -2) * _CONJ_SIGNS


def comp_bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator a*b - b*a on raw component arrays (batched)."""
    return qmul(a, b) - qmul(b, a)


def _embedding(field: FieldTag, comps: np.ndarray, full: bool = False) -> np.ndarray:
    """The matrices that stand for a stack (r, n, n, 4) in one product, contiguous.

    Real over R, complex over C.  Over H, the entry w + xi + yj + zk is
    written as u + v j with u = w + xi, v = y + zi, and the matrix stands as
    the first block row [u | v] of its 2n x 2n complex embedding, shape
    (r, n, 2n); with `full`, as the whole embedding, shape (r, 2n, 2n).  The
    first block row of a product is the first block row of the left factor
    times the full embedding of the right one.
    """
    if field is FieldTag.REAL:
        return np.ascontiguousarray(comps[..., 0])
    u = comps[..., 0] + 1j * comps[..., 1]
    if field is FieldTag.COMPLEX:
        return u
    v = comps[..., 2] + 1j * comps[..., 3]
    row = np.concatenate([u, v], axis=2)
    if not full:
        return row
    return np.concatenate([row, np.concatenate([-v.conj(), u.conj()], axis=2)], axis=1)


def pair_bracket_coords(field: FieldTag, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<[a_p, b_q], w_d> for skew-Hermitian stacks a (P, n, n, 4), b (Q, n, n, 4) and w (D, n, n, 4) or its flat rows; shape (P, Q, D).

    No bracket is built.  For skew-Hermitian a, b, (b a)^* = a b, so the
    bracket is (b a)^* - b a, and <X^*, W> = <X, W^*>, so
    <[a, b], w> = <b a, w^* - w>, where w - w^* is twice the skew-Hermitian
    part of w: bit for bit 2 w for an exactly skew w, and for any w equal in
    exact arithmetic to the bracket coordinates.  All P*Q products come from
    one batched product of the `_embedding`s, each pair's contiguous, in the
    row order of the result, and are contracted with the first-row
    embeddings of w^* - w as reals (Re(z conj(z')) is the dot of (Re z, Im z)
    with (Re z', Im z')) in one matrix product, so the result is C-contiguous
    as it comes.

    Along an orthonormal basis of a subspace, the coordinates are the
    orthogonal projection of each bracket: never longer than the bracket,
    and all of it when the brackets lie in the subspace.
    """
    p, q, d, n = len(a), len(b), len(w), a.shape[1]
    w = w.reshape(d, n, n, 4)
    x, y = _embedding(field, b), _embedding(field, a, full=True)
    w2 = _embedding(field, conj_transpose(w) - w)
    k, m = y.shape[1], y.shape[2]
    prod = np.matmul(x.reshape(q * n, k), y).reshape(p * q, n * m)  # row p*Q + q: b_q a_p
    w2 = w2.reshape(d, n * m)
    if field is not FieldTag.REAL:
        prod, w2 = prod.view(np.float64), w2.view(np.float64)
    return (prod @ w2.T).reshape(p, q, d)


def comp_adjoint(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Adjoint action g x g^{-1} of a unitary g on raw component arrays (batched over x)."""
    return qmul(qmul(g, x), conj_transpose(g))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with the same row of b, shapes (r, d), bit for bit as np.dot of two contiguous rows.

    The stacked product takes one BLAS dot per row, as np.dot does, and as
    np.linalg.norm does after copying a row to contiguous memory; a
    reduction along an axis, or BLAS on strided rows, sums in another order.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def comp_norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm sqrt(Re tr(A conj(A)^T)) of component arrays (batched)."""
    return np.sqrt(np.sum(a * a, axis=(-3, -2, -1)))


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    out.flags.writeable = False
    return out


def _check_components(field: FieldTag, comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stack (..., n, n, 4) as flat rows, and the scale max(1, largest |component|) of each.

    Raises InvalidElement unless every component is finite and those beyond
    the field's are zero.  A NaN or inf makes its row's maximum non-finite,
    so the one reduction also finds non-finite matrices, which would pass
    every later `> tol` test, since each is False on NaN.
    """
    n = comp.shape[-2]
    flat = comp.reshape(math.prod(comp.shape[:-3]), n * n * 4)
    scale = np.abs(flat).max(axis=1, initial=1.0)
    if not np.isfinite(scale).all():
        raise InvalidElement("matrix has non-finite components")
    nc = N_COMPONENTS[field]
    if nc < 4 and flat.reshape(len(flat), n * n, 4)[:, :, nc:].any():
        raise InvalidElement(f"{field.value} matrix has nonzero components beyond index {nc - 1}")
    return flat, scale


@functools.cache
def _upper_pairs(field: FieldTag, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat offsets of each active component (i, j, c) with i <= j, of its mirror (j, i, c), and the sign of conj at c."""
    nc = N_COMPONENTS[field]
    i, j = np.triu_indices(n)
    ij = ((i * n + j)[:, None] * 4 + np.arange(nc)).ravel()
    ji = ((j * n + i)[:, None] * 4 + np.arange(nc)).ravel()
    pairs = ij, ji, np.tile(_CONJ_SIGNS[:nc], len(i))
    for arr in pairs:
        arr.flags.writeable = False  # one copy serves every call
    return pairs


def check_skew(field: FieldTag, comp: np.ndarray) -> None:
    """Raise InvalidElement unless every matrix of the stack (..., n, n, 4) lies in the algebra.

    Each matrix is tested on its own scale, max(1, largest component), as
    one flat row (`_check_components`).  The components beyond the field's
    are zero by then, so the residual |X_ij + conj(X_ji)| is read on the
    active ones only, and for i <= j only: IEEE addition commutes and
    a - b = -(b - a) exactly, so the (j, i) residual is the same number.
    """
    flat, scale = _check_components(field, comp)
    ij, ji, signs = _upper_pairs(field, comp.shape[-2])
    resid = flat[:, ji] * signs
    resid += flat[:, ij]
    if (np.abs(resid, out=resid).max(axis=1, initial=0.0) > _SKEW_TOL * scale).any():
        raise InvalidElement("matrix is not skew-Hermitian")


@dataclass(frozen=True)
class AlgElement:
    """A skew-Hermitian n x n matrix over the given field: a tangent vector at e.

    comp has shape (n, n, 4) holding scalar components per entry.
    """

    field: FieldTag
    n: int
    comp: np.ndarray

    def __post_init__(self):
        comp = _freeze(self.comp)
        if comp.shape != (self.n, self.n, 4):
            raise InvalidElement(f"expected shape {(self.n, self.n, 4)}, got {comp.shape}")
        check_skew(self.field, comp)
        object.__setattr__(self, "comp", comp)

    @property
    def flat(self) -> np.ndarray:
        """Row-major component vector; Euclidean dot of flats equals `inner`."""
        return self.comp.ravel()

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))

    def __add__(self, other: "AlgElement") -> "AlgElement":
        require_same(self, other)
        return AlgElement(self.field, self.n, self.comp + other.comp)

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        require_same(self, other)
        return AlgElement(self.field, self.n, self.comp - other.comp)

    def __rmul__(self, c: float) -> "AlgElement":
        return AlgElement(self.field, self.n, float(c) * self.comp)


@dataclass(frozen=True)
class GroupElement:
    """A unitary n x n matrix over the given field (orthogonal / unitary / symplectic)."""

    field: FieldTag
    n: int
    comp: np.ndarray

    def __post_init__(self):
        comp = _freeze(self.comp)
        if comp.shape != (self.n, self.n, 4):
            raise InvalidElement(f"expected shape {(self.n, self.n, 4)}, got {comp.shape}")
        check_unitary(self.field, comp)
        object.__setattr__(self, "comp", comp)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        require_same(self, other)
        return GroupElement(self.field, self.n, qmul(self.comp, other.comp))


def check_unitary(field: FieldTag, comp: np.ndarray) -> None:
    """Raise InvalidElement unless every matrix of the stack (..., n, n, 4) is unitary to 1e-10."""
    _check_components(field, comp)
    resid = qmul(comp, conj_transpose(comp)) - _identity_comp(comp.shape[-2])
    if np.abs(resid).max(initial=0.0) > _UNITARY_TOL:
        raise InvalidElement("matrix is not unitary to 1e-10")


def require_same(a, b) -> None:
    """Raise DimensionMismatch unless a and b share field and size (anything with .field, .n)."""
    if a.field is not b.field or a.n != b.n:
        raise DimensionMismatch(
            f"mismatched operands: {a.field.value}({a.n}) vs {b.field.value}({b.n})"
        )


def _identity_comp(n: int) -> np.ndarray:
    comp = np.zeros((n, n, 4))
    comp[..., 0] = np.eye(n)
    return comp


def from_flat(field: FieldTag, n: int, v: np.ndarray) -> AlgElement:
    return AlgElement(field, n, np.asarray(v, dtype=np.float64).reshape(n, n, 4))


def bracket(x: AlgElement, y: AlgElement) -> AlgElement:
    """Commutator [X, Y] = XY - YX."""
    require_same(x, y)
    return AlgElement(x.field, x.n, comp_bracket(x.comp, y.comp))


def inner(x: AlgElement, y: AlgElement) -> float:
    """Bi-invariant inner product Re tr(X * conj(Y)^T)."""
    require_same(x, y)
    return float(np.dot(x.flat, y.flat))


def group_exp(x: AlgElement, s: float = 1.0) -> GroupElement:
    """exp(s*X); see `group_exps`."""
    return GroupElement(x.field, x.n, group_exps(x, [s])[0])


def group_exps(x: AlgElement, s_values) -> np.ndarray:
    """exp(s*X) for each s, a stack (P, n, n, 4), by scaling-and-squaring with a truncated Taylor series.

    Each s takes its own number of squarings and adds terms until its own
    term's norm falls below 1e-16, well past the 1e-12 accuracy target for
    the matrix sizes used here.  The series of all s run as one stack, and
    every product acts on each matrix alone, so each has the bits of a stack
    of one.  Raises InvalidElement unless every matrix is unitary.
    """
    m = np.asarray(s_values, dtype=np.float64)[:, None, None, None] * x.comp
    squarings = np.array([math.ceil(math.log2(nrm / 0.25)) if nrm > 0.25 else 0
                          for nrm in comp_norm(m)], dtype=int)
    m = m / (2.0**squarings)[:, None, None, None]
    result = np.broadcast_to(_identity_comp(x.n), m.shape).copy()
    term, act = result.copy(), np.arange(len(m))
    for j in range(1, 40):
        if not act.size:
            break
        term = qmul(term, m[act]) / j
        result[act] += term
        going = comp_norm(term) >= 1e-16
        act, term = act[going], term[going]
    for k in range(squarings.max(initial=0)):
        sq = np.flatnonzero(squarings > k)
        result[sq] = qmul(result[sq], result[sq])
    check_unitary(x.field, result)
    return result


def adjoint(g: GroupElement, x: AlgElement) -> AlgElement:
    """Adjoint action Ad_g X = g X g^{-1} (inverse = conjugate transpose)."""
    require_same(g, x)
    return AlgElement(x.field, x.n, comp_adjoint(g.comp, x.comp))


def block_stack(field: FieldTag, n: int, indices) -> np.ndarray:
    """The generators of the subalgebra on an index set (all of so(n), u(n), sp(n) for range(n)).

    A stack (r, n, n, 4), skew-Hermitian by construction; it is validated
    where it enters a subspace (`Subspace.from_spanning`).  Order: for each
    index i in turn, the imaginary units at (i, i), then for each later index
    j the units at (i, j), component by component; each equals the matching
    `basis_element` of tests/helpers.py.  One Python loop lists the
    generator units in that order as flat offsets into the stack, split by
    sign (the mirrored real unit at (j, i) is -1), and two assignments write
    them: small stacks, as most of the catalog's are, cost a few
    microseconds instead of a fixed series of numpy index passes.
    """
    idx, nc, size = list(indices), N_COMPONENTS[field], n * n * 4
    plus, minus = [], []  # flat offsets of the +1 and -1 entries
    r = 0  # the generator being listed
    for a, i in enumerate(idx):
        for c in range(1, nc):
            plus.append(r * size + (i * n + i) * 4 + c)
            r += 1
        for j in idx[a + 1:]:
            for c in range(nc):
                plus.append(r * size + (i * n + j) * 4 + c)
                (plus if c else minus).append(r * size + (j * n + i) * 4 + c)
                r += 1
    comp = np.zeros(r * size)
    comp[plus] = 1.0
    comp[minus] = -1.0
    return comp.reshape(r, n, n, 4)


def random_skew(field: FieldTag, n: int, rng: np.random.Generator) -> AlgElement:
    """Random skew-Hermitian matrix with standard-normal components."""
    raw = rng.standard_normal((n, n, 4))
    raw[..., N_COMPONENTS[field] :] = 0.0
    return AlgElement(field, n, (raw - conj_transpose(raw)) / 2.0)
