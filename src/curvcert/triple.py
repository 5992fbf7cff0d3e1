"""Chains k < h < g with orthogonal decompositions m = h - k and p = g - h.

A Triple stores orthonormal bases (under the bi-invariant inner product) for
the three nested algebras plus the derived complements, and provides the
one-parameter deformed metric, its Phi operator, symmetric-pair verification
and stabilizer computations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .algebra import (
    AlgElement,
    FieldTag,
    N_COMPONENTS,
    check_skew,
    from_flat,
    pair_brackets,
    require_same,
)

#: a spanning set: AlgElements, or a stack (r, n, n, 4) of component matrices
Span = Union[np.ndarray, Sequence[AlgElement]]

_ORTHO_TOL = 1e-10
_PAIR_BLOCK_FLOATS = 1 << 18  # bracket components held at once by is_symmetric_pair


class NotInSpan(ValueError):
    """Vector falls outside the subspace it was claimed to live in."""


class DegenerateSpectrum(RuntimeError):
    """Singular-value gap too small to decide a null-space dimension."""


class Part(Enum):
    K = "K"
    M = "M"
    P = "P"
    H = "H"


def _orthonormalize(mat: np.ndarray, drop_tol: float = 1e-10) -> np.ndarray:
    """Gram-Schmidt with one re-orthogonalization pass.

    Each row is projected off the basis accumulated so far by one matrix
    product, twice.  Rows spanning the same subspace come out orthonormal;
    near-dependent rows are dropped.  Rows with disjoint supports take the
    closed form of `_disjoint_rows`, which gives the same bits.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if _disjoint_rows(mat):
        return _normalized_rows(mat, drop_tol)
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


def _disjoint_rows(mat: np.ndarray) -> bool:
    """True when each column has at most one nonzero, every entry is finite and no zero is -0.0.

    Then every projection coefficient of the Gram-Schmidt loop is an exact
    zero and subtracting its products leaves each row's bits as they are.
    A -0.0 could turn into +0.0 there, depending on the sign of a zero sum,
    and inf * 0 is NaN, so such inputs keep the loop.
    """
    nonzero = mat != 0.0
    return bool(
        (nonzero.sum(axis=0) <= 1).all()
        and np.isfinite(mat).all()
        and not (np.signbit(mat) & ~nonzero).any()
    )


def _normalized_rows(mat: np.ndarray, drop_tol: float) -> np.ndarray:
    """The Gram-Schmidt loop on rows with disjoint supports: keep each row above the drop rule, unit length."""
    norms = np.zeros(len(mat))
    for r in np.flatnonzero(mat.any(axis=1)):  # an all-zero row has norm +0.0 either way
        norms[r] = np.linalg.norm(mat[r])  # the loop's norm, of one 1-D row
    keep = norms > drop_tol * np.maximum(1.0, norms)
    return mat[keep] / norms[keep, None]


@dataclass(frozen=True)
class Subspace:
    """An ordered orthonormal basis of a subspace of the flattened algebra."""

    field: FieldTag
    n: int
    mat: np.ndarray  # (dim, n*n*4), orthonormal rows

    def __post_init__(self):
        mat = np.ascontiguousarray(np.asarray(self.mat, dtype=np.float64))
        if mat.ndim != 2 or mat.shape[1] != self.n * self.n * 4:
            raise ValueError(f"basis matrix has wrong shape {mat.shape}")
        if mat.shape[0]:
            gram = mat @ mat.T
            if np.abs(gram - np.eye(mat.shape[0])).max() > _ORTHO_TOL:
                raise ValueError("basis is not orthonormal to 1e-10")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    @classmethod
    def from_spanning(cls, span: Span, field: Optional[FieldTag] = None) -> "Subspace":
        """Orthonormal basis of the span of AlgElements, or of a stack (r, n, n, 4) over `field`.

        An element list is stacked, taking its field from the elements; a
        stack is validated by one `check_skew`.
        """
        if not isinstance(span, np.ndarray):
            if not span:
                raise ValueError("cannot infer field/size from an empty spanning set")
            field, span = span[0].field, np.array([e.comp for e in span])
        if field is None:
            raise ValueError("a stack of component matrices needs its field")
        if span.ndim != 4 or span.shape[1] != span.shape[2] or span.shape[3] != 4:
            raise ValueError(f"expected a stack of shape (r, n, n, 4), got {span.shape}")
        check_skew(field, span)
        return cls(field, span.shape[1], _orthonormalize(span.reshape(len(span), -1)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def elements(self) -> list[AlgElement]:
        return [from_flat(self.field, self.n, row) for row in self.mat]

    def comps(self) -> np.ndarray:
        """The basis as a validated stack of component matrices, shape (dim, n, n, 4)."""
        comp = self.mat.reshape(self.dim, self.n, self.n, 4)
        check_skew(self.field, comp)
        return comp

    def brackets_with(self, a: AlgElement) -> np.ndarray:
        """Row i: the active components of [b_i, A] for basis vector b_i, shape (dim, n*n*nc)."""
        require_same(self, a)
        return pair_brackets(self.field, self.comps(), a.comp[None]).reshape(self.dim, -1)

    def active(self) -> np.ndarray:
        """The basis rows restricted to the field's active components, shape (dim, n*n*nc)."""
        nc, n = N_COMPONENTS[self.field], self.n
        return self.mat.reshape(self.dim, n, n, 4)[..., :nc].reshape(self.dim, n * n * nc)

    def project_flat(self, v: np.ndarray) -> np.ndarray:
        if self.dim == 0:
            return np.zeros_like(v)
        return (v @ self.mat.T) @ self.mat

    def contains(self, x: AlgElement, tol: float = 1e-8) -> bool:
        v = x.flat
        return float(np.linalg.norm(v - self.project_flat(v))) <= tol * max(1.0, x.norm())


def _empty_subspace(field: FieldTag, n: int) -> Subspace:
    return Subspace(field, n, np.zeros((0, n * n * 4)))


def _complement(big: Subspace, small: Subspace) -> Subspace:
    """Orthonormal basis of big minus the span of small."""
    reduced = big.mat - (big.mat @ small.mat.T) @ small.mat if small.dim else big.mat
    return Subspace(big.field, big.n, _orthonormalize(reduced))


@dataclass(frozen=True)
class DeformParam:
    """Shrinking factor t in (0,1) for the h-directions of the metric."""

    t: float

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise ValueError(f"t must lie in (0,1), got {self.t}")

    @property
    def lam(self) -> float:
        """Equivalent submersion scaling t/(1-t)."""
        return self.t / (1.0 - self.t)


@dataclass(frozen=True)
class Triple:
    field: FieldTag
    n: int
    g_basis: Subspace
    h_basis: Subspace
    k_basis: Subspace
    m_basis: Subspace
    p_basis: Subspace
    label: str = ""
    base_point: Optional[AlgElement] = None

    @property
    def dims(self) -> dict:
        return {
            "g": self.g_basis.dim,
            "h": self.h_basis.dim,
            "k": self.k_basis.dim,
            "m": self.m_basis.dim,
            "p": self.p_basis.dim,
        }

    def part(self, which: Part) -> Subspace:
        return {
            Part.K: self.k_basis,
            Part.M: self.m_basis,
            Part.P: self.p_basis,
            Part.H: self.h_basis,
        }[which]

    def gk_basis(self) -> Subspace:
        """Orthonormal basis of g minus k (= m + p)."""
        return Subspace(self.field, self.n, np.vstack([self.m_basis.mat, self.p_basis.mat]))


def make_triple(
    g_span: Span,
    h_span: Span,
    k_span: Span,
    label: str = "",
    base_point: Optional[AlgElement] = None,
    field: Optional[FieldTag] = None,
) -> Triple:
    """Build a Triple from spanning sets, orthonormalizing and validating nesting.

    Each span is a list of AlgElements or a stack (r, n, n, 4) of component
    matrices; stacks need `field`.
    """
    g = Subspace.from_spanning(g_span, field)

    def sub(span: Span) -> Subspace:
        return Subspace.from_spanning(span, g.field) if len(span) else _empty_subspace(g.field, g.n)

    return _nested_triple(g, sub(h_span), sub(k_span), label, base_point)


def _nested_triple(
    g: Subspace, h: Subspace, k: Subspace, label: str, base_point: Optional[AlgElement]
) -> Triple:
    """Check k < h < g on orthonormal bases and derive the complements m and p."""
    for name, sub, sup in (("h", h, g), ("k", k, h)):
        resid = np.linalg.norm(sub.mat - sup.project_flat(sub.mat), axis=1)
        if resid.size and resid.max() > _ORTHO_TOL:
            raise NotInSpan(
                f"{name}-basis vector leaves its ambient span (residual {resid.max():.2e})"
            )
    m = _complement(h, k)
    p = _complement(g, h)
    if m.dim != h.dim - k.dim or p.dim != g.dim - h.dim:
        raise ValueError("derived complement dimensions are inconsistent")
    return Triple(g.field, g.n, g, h, k, m, p, label=label, base_point=base_point)


def project(triple: Triple, x: AlgElement, part: Part) -> AlgElement:
    """Orthogonal projection of x onto the named subspace; x must lie in span(g)."""
    v = x.flat
    _check_in_g(triple, v)
    return from_flat(triple.field, triple.n, triple.part(part).project_flat(v))


def project_comps(triple: Triple, comps: np.ndarray, part: Part) -> np.ndarray:
    """`project` for a stack (r, n, n, 4) of component matrices, in the same layout."""
    v = comps.reshape(len(comps), -1)
    _check_in_g(triple, v)
    return triple.part(part).project_flat(v).reshape(comps.shape)


def phi(triple: Triple, x: AlgElement, d: DeformParam) -> AlgElement:
    """The self-adjoint operator t*X^h + X^p relating g0 to the deformed metric."""
    v = x.flat
    _check_in_g(triple, v)
    out = d.t * triple.h_basis.project_flat(v) + triple.p_basis.project_flat(v)
    return from_flat(triple.field, triple.n, out)


def phi_inv(triple: Triple, x: AlgElement, d: DeformParam) -> AlgElement:
    """Inverse of phi: scales the h-part by 1/t."""
    v = x.flat
    _check_in_g(triple, v)
    out = triple.h_basis.project_flat(v) / d.t + triple.p_basis.project_flat(v)
    return from_flat(triple.field, triple.n, out)


def deformed_inner(triple: Triple, x: AlgElement, y: AlgElement, d: DeformParam) -> float:
    """Deformed metric <X^p, Y^p> + t * <X^h, Y^h>."""
    _check_in_g(triple, x.flat)
    _check_in_g(triple, y.flat)
    xh = triple.h_basis.project_flat(x.flat)
    yh = triple.h_basis.project_flat(y.flat)
    xp = triple.p_basis.project_flat(x.flat)
    yp = triple.p_basis.project_flat(y.flat)
    return float(np.dot(xp, yp) + d.t * np.dot(xh, yh))


def _check_in_g(triple: Triple, v: np.ndarray) -> None:
    """Raise NotInSpan unless the flat vector v, or each row of a stack of them, lies in span(g)."""
    resid = np.linalg.norm(v - triple.g_basis.project_flat(v), axis=-1)
    if (resid > 1e-8 * np.maximum(1.0, np.linalg.norm(v, axis=-1))).any():
        raise NotInSpan(f"element leaves span(g) with residual {resid.max():.2e}")


def is_symmetric_pair(triple: Triple, tol: float = 1e-10) -> bool:
    """Check [p,p] < h and [p,h] < p over all basis pairs.

    The p-basis is taken in blocks of rows.  Each block is bracketed with the
    p vectors from its first row on and with all of h, one all-pairs product
    each, sized so that a block's brackets hold about 2^18 floats (at least
    one row), so memory stays bounded whatever the dimensions.  A bracket
    whose coordinates in the wrong subspace have norm above tol ends the
    check at the end of its block.
    """
    p, h = triple.p_basis, triple.h_basis
    p_comp, h_comp = p.comps(), h.comps()
    p_wrong, h_wrong = p.active(), h.active()
    rows = max(1, _PAIR_BLOCK_FLOATS // (max(1, p.dim, h.dim) * p_wrong.shape[1]))
    for lo in range(0, p.dim, rows):
        block = p_comp[lo:lo + rows]
        for others, wrong in ((p_comp[lo:], p_wrong), (h_comp, h_wrong)):
            if len(others):
                v = pair_brackets(triple.field, block, others).reshape(-1, wrong.shape[1])
                if np.linalg.norm(v @ wrong.T, axis=1).max() > tol:
                    return False
    return True


def stabilizer_subalgebra(
    h_basis: Subspace,
    a: AlgElement,
    null_tol: float = 1e-9,
    gap: float = 1e3,
) -> Subspace:
    """Orthonormal basis of {Y in span(h): [Y, A] = 0}.

    Computed as the null space of Y -> [Y, A] in the h-basis.  Singular values
    below null_tol count as zero; a spectral gap of at least `gap` between the
    smallest retained and largest discarded value is required, otherwise the
    kernel dimension is ambiguous and we refuse to guess.
    """
    if h_basis.dim == 0:
        return h_basis
    # u is square: dim h <= n*n*nc
    u, s, _ = np.linalg.svd(h_basis.brackets_with(a), full_matrices=False)
    null_mask = s < null_tol
    rank = int(np.count_nonzero(~null_mask))
    if 0 < rank < len(s):
        smallest_kept = s[rank - 1]
        largest_dropped = s[rank]
        if largest_dropped > 0 and smallest_kept / max(largest_dropped, null_tol * 1e-6) < gap:
            raise DegenerateSpectrum(
                f"ambiguous kernel: singular values {smallest_kept:.3e} vs {largest_dropped:.3e}"
            )
    kernel_dim = h_basis.dim - rank
    if kernel_dim == 0:
        return _empty_subspace(h_basis.field, h_basis.n)
    coeffs = u[:, rank:].T  # rows: kernel coordinates in the h-basis
    return Subspace(h_basis.field, h_basis.n, _orthonormalize(coeffs @ h_basis.mat))


def randomly_rebased(triple: Triple, rng: np.random.Generator) -> Triple:
    """Copy of the triple with m and p bases replaced by random orthonormal mixes.

    Downstream verdicts must not depend on the choice of basis inside each
    subspace; this produces equivalent triples for that property.
    """

    def _rotate(sub: Subspace) -> Subspace:
        if sub.dim <= 1:
            return sub
        q, _ = np.linalg.qr(rng.standard_normal((sub.dim, sub.dim)))
        return Subspace(sub.field, sub.n, q @ sub.mat)

    return Triple(
        triple.field,
        triple.n,
        triple.g_basis,
        triple.h_basis,
        triple.k_basis,
        _rotate(triple.m_basis),
        _rotate(triple.p_basis),
        label=triple.label,
        base_point=triple.base_point,
    )


# --- JSON serialization -----------------------------------------------------
#
# Schema (curvcert-triple/1):
#   {"schema": "curvcert-triple/1", "field": "real|complex|quaternion",
#    "n": int, "label": str,
#    "bases": {"g": [matrix, ...], "h": [...], "k": [...]},
#    "base_point": matrix | null}
# where each matrix is a row-major flat list of n*n*c floats, c scalar
# components per entry (1, 2 or 4 by field).  Round trips are bit-faithful.
# Loading rejects any other schema, re-checks k < h < g and recomputes m, p.

SCHEMA_TRIPLE = "curvcert-triple/1"


def matrix_to_components(x: AlgElement) -> list[float]:
    nc = N_COMPONENTS[x.field]
    return [float(v) for v in x.comp[:, :, :nc].ravel()]


def _size(n) -> int:
    """A matrix size read from a document; ValueError unless it is a positive integer."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, not {n!r}")
    return n


def _numbers(values, what: str) -> np.ndarray:
    """A list of numbers from a document as float64; ValueError on anything else, strings too."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must hold numbers only, not {arr.dtype}")
    return arr.astype(np.float64)


def matrix_from_components(field: FieldTag, n: int, values: Sequence[float]) -> AlgElement:
    n, nc = _size(n), N_COMPONENTS[field]
    arr = _numbers(values, "a matrix")
    if arr.size != n * n * nc:
        raise ValueError(f"expected {n * n * nc} scalars, got {arr.size}")
    comp = np.zeros((n, n, 4))
    comp[:, :, :nc] = arr.reshape(n, n, nc)
    return AlgElement(field, n, comp)


def triple_to_dict(triple: Triple) -> dict:
    return {
        "schema": SCHEMA_TRIPLE,
        "field": triple.field.value,
        "n": triple.n,
        "label": triple.label,
        "bases": {
            "g": triple.g_basis.active().tolist(),
            "h": triple.h_basis.active().tolist(),
            "k": triple.k_basis.active().tolist(),
        },
        "base_point": matrix_to_components(triple.base_point) if triple.base_point else None,
    }


def triple_from_dict(doc: dict) -> Triple:
    if not isinstance(doc, dict):
        raise ValueError(f"a triple document is a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != SCHEMA_TRIPLE:
        raise ValueError(f"unknown triple schema {doc.get('schema')!r}, expected {SCHEMA_TRIPLE!r}")
    field = FieldTag(doc["field"])
    n, nc = _size(doc["n"]), N_COMPONENTS[field]

    def decode(rows) -> Subspace:
        if not rows:
            return _empty_subspace(field, n)
        arr = _numbers(rows, "a basis")
        if arr.ndim != 2 or arr.shape[1] != n * n * nc:
            raise ValueError(f"expected rows of {n * n * nc} scalars, got shape {arr.shape}")
        comp = np.zeros((len(arr), n, n, 4))
        comp[..., :nc] = arr.reshape(len(arr), n, n, nc)
        check_skew(field, comp)
        # stored bases are already orthonormal; build directly to stay bit-faithful
        return Subspace(field, n, comp.reshape(len(arr), -1))

    bases = doc["bases"]
    if not isinstance(bases, dict):
        raise ValueError(f"\"bases\" is a JSON object, not {type(bases).__name__}")
    base = doc.get("base_point")
    base_point = matrix_from_components(field, n, base) if base else None
    return _nested_triple(
        decode(bases["g"]), decode(bases["h"]), decode(bases["k"]),
        doc.get("label", ""), base_point,
    )


_NUMBERS = frozenset({int, float})


def _indented_json(obj, depth: int = 0) -> str:
    """json.dumps(obj, indent=2) byte for byte, for dicts with string keys, lists and scalars.

    The pure-Python encoder that indent selects is slow on the long rows of
    numbers in a triple, so each such row goes through the C encoder, with
    the line break and indentation as its item separator.
    """
    pad = "\n" + "  " * (depth + 1)
    if isinstance(obj, list) and obj and set(map(type, obj)) <= _NUMBERS:
        body = json.dumps(obj, separators=("," + pad, ": "))[1:-1]
    elif isinstance(obj, list) and obj:
        body = ("," + pad).join(_indented_json(v, depth + 1) for v in obj)
    elif isinstance(obj, dict) and obj:
        body = ("," + pad).join(
            f"{json.dumps(k)}: {_indented_json(v, depth + 1)}" for k, v in obj.items()
        )
    else:
        return json.dumps(obj)
    opening, closing = ("[", "]") if isinstance(obj, list) else ("{", "}")
    return opening + pad + body + pad[:-2] + closing


def triple_to_json(triple: Triple) -> str:
    """The triple's document as text, laid out as json.dumps(..., indent=2) lays it out."""
    return _indented_json(triple_to_dict(triple))


def save_triple(triple: Triple, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(triple_to_json(triple) + "\n")


def load_triple(path: str) -> Triple:
    with open(path) as fh:
        return triple_from_dict(json.load(fh))
