"""Scalar and matrix arithmetic for compact matrix Lie algebras over R, C and H.

Elements are skew-Hermitian square matrices stored with explicit scalar
components: every entry carries four reals (w, x, y, z), of which the real
field uses one and the complex field two.  Keeping quaternion entries native
makes the inner product Re tr(A * conj(B)^T) a literal componentwise dot
product; only the all-pairs bracket kernel `pair_brackets` works in a
complex embedding.
"""

from __future__ import annotations

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


def pair_brackets(field: FieldTag, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a_p, b_q] for every pair of skew-Hermitian stacks a (P, n, n, 4) and b (Q, n, n, 4).

    The library's kernel for brackets of basis stacks; returns the field's
    active components, shape (P, Q, n, n, nc).  For skew-Hermitian operands
    b a = (a b)^* (other operands get wrong brackets), so each bracket is
    a b - (a b)^* and all P*Q products come from one matrix product: real
    over R, complex over C, and over H the complex one of the first block row
    of the 2n x 2n embedding, with the entry w + xi + yj + zk written as
    u + v j, u = w + xi, v = y + zi.
    """
    p, q, n = len(a), len(b), a.shape[1]
    if field is FieldTag.REAL:
        x, y = a[..., 0], b[..., 0]
    elif field is FieldTag.COMPLEX:
        x, y = a[..., 0] + 1j * a[..., 1], b[..., 0] + 1j * b[..., 1]
    else:
        u1, v1 = a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]
        u2, v2 = b[..., 0] + 1j * b[..., 1], b[..., 2] + 1j * b[..., 3]
        x = np.concatenate([u1, v1], axis=2)
        y = np.concatenate([np.concatenate([u2, v2], axis=2),
                            np.concatenate([-v2.conj(), u2.conj()], axis=2)], axis=1)
    k, m = y.shape[1], y.shape[2]
    prod = x.reshape(p * n, k) @ y.transpose(1, 0, 2).reshape(k, q * m)
    prod = prod.reshape(p, n, q, m).transpose(0, 2, 1, 3)
    quaternion = field is FieldTag.QUATERNION
    # written in place: the strided transposes are the costly part
    out = np.empty((p, q, n, n, 2 if quaternion else 1), prod.dtype)
    u, mu = out[..., 0], prod[..., :n]
    np.conjugate(np.swapaxes(mu, -1, -2), out=u)
    np.subtract(mu, u, out=u)
    if quaternion:  # (U + V j)^* = U^H - V^T j
        v, mv = out[..., 1], prod[..., n:]
        np.add(mv, np.swapaxes(mv, -1, -2), out=v)
    return out if field is FieldTag.REAL else out.view(np.float64)


def comp_adjoint(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Adjoint action g x g^{-1} of a unitary g on raw component arrays (batched over x)."""
    return qmul(qmul(g, x), conj_transpose(g))


def comp_norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm sqrt(Re tr(A conj(A)^T)) of component arrays (batched)."""
    return np.sqrt(np.sum(a * a, axis=(-3, -2, -1)))


@dataclass(frozen=True)
class Quaternion:
    """A quaternion w + xi + yj + zk with real components."""

    w: float
    x: float
    y: float
    z: float

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __abs__(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    out.flags.writeable = False
    return out


def _check_components(field: FieldTag, comp: np.ndarray) -> None:
    # every later `> tol` test is False on NaN, so a non-finite matrix would pass them all
    if not np.isfinite(comp).all():
        raise InvalidElement("matrix has non-finite components")
    nc = N_COMPONENTS[field]
    if nc < 4 and np.any(comp[..., nc:] != 0.0):
        raise InvalidElement(f"{field.value} matrix has nonzero components beyond index {nc - 1}")


def check_skew(field: FieldTag, comp: np.ndarray) -> None:
    """Raise InvalidElement unless every matrix of the stack (..., n, n, 4) lies in the algebra.

    Each matrix is tested on its own scale, max(1, largest component).
    """
    _check_components(field, comp)
    axes = (-3, -2, -1)
    scale = np.abs(comp).max(axis=axes, initial=1.0)
    if (np.abs(comp + conj_transpose(comp)).max(axis=axes, initial=0.0) > _SKEW_TOL * scale).any():
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

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.field, self.n, -self.comp)

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
        _check_components(self.field, comp)
        resid = qmul(comp, conj_transpose(comp)) - _identity_comp(self.n)
        if np.abs(resid).max() > _UNITARY_TOL:
            raise InvalidElement("matrix is not unitary to 1e-10")
        object.__setattr__(self, "comp", comp)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.field, self.n, conj_transpose(self.comp))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        require_same(self, other)
        return GroupElement(self.field, self.n, qmul(self.comp, other.comp))


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


def identity(field: FieldTag, n: int) -> GroupElement:
    return GroupElement(field, n, _identity_comp(n))


def zero(field: FieldTag, n: int) -> AlgElement:
    return AlgElement(field, n, np.zeros((n, n, 4)))


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
    """exp(s*X) by scaling-and-squaring with a truncated Taylor series.

    Terms are added until their norm falls below 1e-16, well past the 1e-12
    accuracy target for the matrix sizes used here.
    """
    m = float(s) * x.comp
    nrm = comp_norm(m)
    squarings = max(0, int(math.ceil(math.log2(nrm / 0.25))) if nrm > 0.25 else 0)
    m = m / (2.0**squarings)
    result = _identity_comp(x.n)
    term = _identity_comp(x.n)
    for j in range(1, 40):
        term = qmul(term, m) / j
        result = result + term
        if comp_norm(term) < 1e-16:
            break
    for _ in range(squarings):
        result = qmul(result, result)
    return GroupElement(x.field, x.n, result)


def adjoint(g: GroupElement, x: AlgElement) -> AlgElement:
    """Adjoint action Ad_g X = g X g^{-1} (inverse = conjugate transpose)."""
    require_same(g, x)
    return AlgElement(x.field, x.n, comp_adjoint(g.comp, x.comp))


def basis_element(field: FieldTag, n: int, i: int, j: int, c: int) -> AlgElement:
    """Standard skew-Hermitian generator: scalar unit c at entry (i, j).

    For i != j the entry (j, i) receives -conj(unit); for i == j the component
    must be imaginary (c >= 1).  Not normalized: off-diagonal generators have
    norm sqrt(2), diagonal ones norm 1.
    """
    if c >= N_COMPONENTS[field]:
        raise InvalidElement(f"component {c} not available over {field.value}")
    comp = np.zeros((n, n, 4))
    if i == j:
        if c == 0:
            raise InvalidElement("diagonal entries must be imaginary")
        comp[i, i, c] = 1.0
    else:
        comp[i, j, c] = 1.0
        comp[j, i, c] = -1.0 if c == 0 else 1.0
    return AlgElement(field, n, comp)


def block_stack(field: FieldTag, n: int, indices) -> np.ndarray:
    """The generators of the subalgebra on an index set (all of so(n), u(n), sp(n) for range(n)).

    A validated stack (r, n, n, 4).  Order: for each index i in turn, the
    imaginary units at (i, i), then for each later index j the units at
    (i, j), component by component; each equals the matching `basis_element`.
    """
    idx = np.asarray(list(indices), dtype=np.intp)
    nc = N_COMPONENTS[field]
    a, b = np.triu_indices(len(idx))  # (i, i) first, then (i, j) for later j
    diag = a == b
    counts = np.where(diag, nc - 1, nc)
    pair = np.repeat(np.arange(len(a)), counts)
    first = np.cumsum(counts) - counts
    c = np.arange(len(pair)) - first[pair] + diag[pair]  # from 1 (imaginary) on the diagonal
    i, j = idx[a[pair]], idx[b[pair]]
    r = np.arange(len(pair))
    comp = np.zeros((len(pair), n, n, 4))
    comp[r, i, j, c] = 1.0
    off = i != j
    comp[r[off], j[off], i[off], c[off]] = np.where(c[off] == 0, -1.0, 1.0)
    check_skew(field, comp)
    return comp


def random_skew(field: FieldTag, n: int, rng: np.random.Generator) -> AlgElement:
    """Random skew-Hermitian matrix with standard-normal components."""
    raw = rng.standard_normal((n, n, 4))
    raw[..., N_COMPONENTS[field] :] = 0.0
    return AlgElement(field, n, (raw - conj_transpose(raw)) / 2.0)
