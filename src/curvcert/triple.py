"""Chains k < h < g with orthogonal decompositions m = h - k and p = g - h.

A Triple stores orthonormal bases (under the bi-invariant inner product) for
the three nested algebras plus the derived complements; this module also
verifies symmetric pairs, computes stabilizers and reads and writes the
curvcert-triple/1 document.  The Phi operator of the one-parameter deformed
metric, which no certifier reads, lives with its tests in tests/helpers.py.
"""

from __future__ import annotations

import itertools
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
    pair_bracket_coords,
    require_same,
    row_dots,
)

#: a spanning set: AlgElements, a stack (r, n, n, 4) of component matrices, or a Subspace
Span = Union[np.ndarray, Sequence[AlgElement], "Subspace"]

_ORTHO_TOL = 1e-10
# Gram-Schmidt drops a row whose norm left is at most this times max(1, its norm).
_DROP_TOL = 1e-10
# stabilizer_subalgebra: singular values below _NULL_TOL count as zero, and the
# smallest kept one must be _KERNEL_GAP times the largest dropped one.
_NULL_TOL = 1e-9
_KERNEL_GAP = 1e3
# Product floats held at once by the dense path of is_symmetric_pair: without this
# bound, the check on sp_example(8) conjugated by a random unitary peaks at 57.1 MB
# of RSS instead of 43.4 MB (numpy 2.4, 1 thread).
_PAIR_BLOCK_FLOATS = 1 << 18


class NotInSpan(ValueError):
    """Vector falls outside the subspace it was claimed to live in."""


class DegenerateSpectrum(RuntimeError):
    """Singular-value gap too small to decide a null-space dimension."""


class Part(Enum):
    K = "K"
    M = "M"
    P = "P"
    H = "H"


def _orthonormalize(mat: np.ndarray) -> np.ndarray:
    """Gram-Schmidt with one re-orthogonalization pass.

    Each row is projected off the basis accumulated so far by one matrix
    product, twice.  Rows spanning the same subspace come out orthonormal;
    near-dependent rows, whose norm left is at most _DROP_TOL = 1e-10 times
    max(1, their norm), are dropped.  Rows with disjoint supports take the
    closed form of `_disjoint_rows`, which gives the same bits.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if _disjoint_rows(mat):
        return _normalized_rows(mat)
    basis = np.empty_like(mat)
    rank = 0
    for v in mat:
        scale = max(1.0, float(np.linalg.norm(v)))
        for _ in range(2):
            v = v - (basis[:rank] @ v) @ basis[:rank]
        nrm = float(np.linalg.norm(v))
        if nrm > _DROP_TOL * scale:
            basis[rank] = v / nrm
            rank += 1
    return basis[:rank].copy()


def _disjoint_rows(mat: np.ndarray) -> bool:
    """True when each column has at most one nonzero, every entry is finite and no zero is -0.0.

    Then every projection coefficient of the Gram-Schmidt loop is an exact
    zero and subtracting its products leaves each row's bits as they are.
    A -0.0 could turn into +0.0 there, depending on the sign of a zero sum,
    and inf * 0 is NaN, so such inputs keep the loop.  A column holds at
    most one nonzero exactly when the nonzeros are as many as the columns
    that hold one.
    """
    nonzero = mat != 0.0
    return bool(
        np.count_nonzero(nonzero) == np.count_nonzero(nonzero.any(axis=0))
        and np.isfinite(mat).all()
        and not (np.signbit(mat) & ~nonzero).any()
    )


def _normalized_rows(mat: np.ndarray) -> np.ndarray:
    """The Gram-Schmidt loop on rows with disjoint supports: keep each row above the drop rule, unit length."""
    norms = np.sqrt(row_dots(mat, mat))  # the loop's norm of each 1-D row
    keep = norms > _DROP_TOL * np.maximum(1.0, norms)
    if keep.all():  # no masked copy: the same quotients
        return mat / norms[:, None]
    return mat[keep] / norms[keep, None]


@dataclass(frozen=True)
class Subspace:
    """An ordered orthonormal basis of a subspace of the flattened algebra.

    Every basis is checked once, when it is built, however it was made: each
    row must be a finite skew-Hermitian matrix of the field (`check_skew`,
    InvalidElement), and the rows must be orthonormal to 1e-10 (ValueError).
    """

    field: FieldTag
    n: int
    mat: np.ndarray  # (dim, n*n*4), orthonormal rows

    def __post_init__(self):
        mat = np.ascontiguousarray(np.asarray(self.mat, dtype=np.float64))
        if mat.ndim != 2 or mat.shape[1] != self.n * self.n * 4:
            raise ValueError(f"basis matrix has wrong shape {mat.shape}")
        if mat.shape[0]:
            # first, so that NaN, which passes the gram test below, is rejected
            check_skew(self.field, mat.reshape(len(mat), self.n, self.n, 4))
            gram = mat @ mat.T
            gram.flat[::mat.shape[0] + 1] -= 1.0  # gram - I
            if np.abs(gram).max() > _ORTHO_TOL:
                raise ValueError("basis is not orthonormal to 1e-10")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    @classmethod
    def from_spanning(cls, span: Span, field: Optional[FieldTag] = None) -> "Subspace":
        """Orthonormal basis of the span of AlgElements, or of a stack (r, n, n, 4) over `field`.

        An element list is stacked, taking its field from the elements; a
        stack is validated by one `check_skew`.  The orthonormal rows are
        checked again when the Subspace is built: Gram-Schmidt can magnify a
        non-skew part that the tolerance let through in nearly dependent
        rows.  A Subspace is its own basis.
        """
        if isinstance(span, Subspace):
            return span
        if not isinstance(span, np.ndarray):
            if not span:
                raise ValueError("cannot infer field/size from an empty spanning set")
            field, span = span[0].field, np.array([e.comp for e in span])
        if field is None:
            raise ValueError("a stack of component matrices needs its field")
        if span.ndim != 4 or span.shape[1] != span.shape[2] or span.shape[3] != 4:
            raise ValueError(f"expected a stack of shape (r, n, n, 4), got {span.shape}")
        check_skew(field, span)
        n = span.shape[1]
        return cls(field, n, _orthonormalize(span.reshape(len(span), n * n * 4)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def comps(self) -> np.ndarray:
        """The basis as a stack of component matrices, shape (dim, n, n, 4): a read-only view of `mat`."""
        return self.mat.reshape(self.dim, self.n, self.n, 4)

    def brackets_with(self, a: AlgElement, along: "Subspace") -> np.ndarray:
        """Row i: the coordinates of [b_i, A] along the basis of `along`, shape (dim, along.dim)."""
        require_same(self, a)
        return pair_bracket_coords(self.field, self.comps(), a.comp[None], along.mat)[:, 0]

    def active(self) -> np.ndarray:
        """The basis rows restricted to the field's active components, shape (dim, n*n*nc)."""
        nc, n = N_COMPONENTS[self.field], self.n
        return self.comps()[..., :nc].reshape(self.dim, n * n * nc)

    def project_flat(self, v: np.ndarray) -> np.ndarray:
        if self.dim == 0:
            return np.zeros_like(v)
        return (v @ self.mat.T) @ self.mat

    def contains(self, x: AlgElement, tol: float = 1e-8) -> bool:
        v = x.flat
        return float(np.linalg.norm(v - self.project_flat(v))) <= tol * max(1.0, x.norm())


def _empty_subspace(field: FieldTag, n: int) -> Subspace:
    return Subspace(field, n, np.zeros((0, n * n * 4)))


def _complement(big: Subspace, small: Subspace, cross: np.ndarray) -> Subspace:
    """Orthonormal basis of big minus the span of small, given cross = big.mat @ small.mat.T."""
    reduced = big.mat - cross @ small.mat if small.dim else big.mat
    return Subspace(big.field, big.n, _orthonormalize(reduced))


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

    Each span is a list of AlgElements, a stack (r, n, n, 4) of component
    matrices (stacks need `field`), or a Subspace, taken as it is.
    """
    g = Subspace.from_spanning(g_span, field)

    def sub(span: Span) -> Subspace:
        if isinstance(span, Subspace) or len(span):
            return Subspace.from_spanning(span, g.field)
        return _empty_subspace(g.field, g.n)

    return _nested_triple(g, sub(h_span), sub(k_span), label, base_point)


def _nested_triple(
    g: Subspace, h: Subspace, k: Subspace, label: str, base_point: Optional[AlgElement]
) -> Triple:
    """Check k < h < g on orthonormal bases and derive the complements m and p.

    Each pair takes one product sup.mat @ sub.mat.T: the nesting residual
    reads its transpose and the complement the product itself.
    """
    gh, hk = g.mat @ h.mat.T, h.mat @ k.mat.T
    for name, sub, sup, cross in (("h", h, g, gh), ("k", k, h, hk)):
        resid = np.linalg.norm(sub.mat - cross.T @ sup.mat, axis=1)
        if resid.size and resid.max() > _ORTHO_TOL:
            raise NotInSpan(
                f"{name}-basis vector leaves its ambient span (residual {resid.max():.2e})"
            )
    m = _complement(h, k, hk)
    p = _complement(g, h, gh)
    if m.dim != h.dim - k.dim or p.dim != g.dim - h.dim:
        raise ValueError("derived complement dimensions are inconsistent")
    return Triple(g.field, g.n, g, h, k, m, p, label=label, base_point=base_point)


def project(triple: Triple, x: AlgElement, part: Part) -> AlgElement:
    """Orthogonal projection of x onto the named subspace; x must lie in span(g)."""
    v = x.flat
    _check_in_g(triple, v)
    return from_flat(triple.field, triple.n, triple.part(part).project_flat(v))


def project_stack(triple: Triple, comps: np.ndarray, part: Part) -> np.ndarray:
    """`project` for a stack (..., r, n, n, 4) of component matrices, in the same layout.

    Each stack of r matrices is projected by its own products, so it has the
    bits of a call on it alone.
    """
    v = comps.reshape(*comps.shape[:-3], -1)
    _check_in_g(triple, v)
    return triple.part(part).project_flat(v).reshape(comps.shape)


def _check_in_g(triple: Triple, v: np.ndarray) -> None:
    """Raise NotInSpan unless the flat vector v, or each row of a stack of them, lies in span(g)."""
    resid = np.linalg.norm(v - triple.g_basis.project_flat(v), axis=-1)
    if (resid > 1e-8 * np.maximum(1.0, np.linalg.norm(v, axis=-1))).any():
        raise NotInSpan(f"element leaves span(g) with residual {resid.max():.2e}")


def _support(comp: np.ndarray) -> np.ndarray:
    """The (n, n) 0/1 pattern of the entries that are nonzero in some matrix of the stack (r, n, n, 4).

    Read from the flat rows, contiguous in a basis's `comps()`: any over the
    rows, then over the 4 components of each entry.
    """
    n = comp.shape[1]
    entries = (comp.reshape(len(comp), n * n * 4) != 0).any(axis=0)
    return entries.reshape(n, n, 4).any(axis=2).astype(np.int64)


def _may_reach(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> bool:
    """False when no product of an a- and a b-matrix, in either order, has an entry where w or w^T has one.

    Then, for finite stacks, every coordinate `pair_bracket_coords(field, a,
    b, w)` returns is a sum of products with an exact zero factor, so it is
    a zero.  Both orders are the bracket's two products, so the test does
    not depend on which one the kernel forms; w^T is there because the
    kernel reads w^* - w.
    """
    sa, sb, sw = _support(a), _support(b), _support(w)
    return bool(((sb @ sa + sa @ sb) * (sw + sw.T)).any())


def is_symmetric_pair(triple: Triple, tol: float = 1e-10) -> bool:
    """Check [p,p] < h and [p,h] < p over all basis pairs.

    Only the coordinates of each bracket in the wrong subspace are read, and
    for skew-Hermitian a, b, w they are a trilinear form of the products:
    <[a, b], w> = 2 <a b, w>, so no bracket is built
    (`algebra.pair_bracket_coords`).  First the entry supports decide: a
    target ([p,p] along p, [p,h] along h) whose products cannot reach an
    entry of the wrong subspace (`_may_reach`) would give exact zeros, and
    is skipped.  On block chains, as every catalog chain but t1s3_product,
    that settles both targets.  Any other target is read densely, with the
    p-basis taken in blocks of rows.  Each block is paired with the p
    vectors from its first row on and with all of h, one batched product
    each, sized so that a block's products hold about 2^18 floats (at least
    one row), so memory stays bounded whatever the dimensions.  A bracket
    whose coordinates in the wrong subspace have norm above tol ends the
    check at the end of its block.
    """
    p, h = triple.p_basis, triple.h_basis
    p_comp, h_comp = p.comps(), h.comps()
    wrongs = [w for w in (p_comp, h_comp) if len(w) and _may_reach(p_comp, w, w)]
    pair_floats = triple.n * triple.n * N_COMPONENTS[triple.field]
    rows = max(1, _PAIR_BLOCK_FLOATS // (max(1, p.dim, h.dim) * pair_floats))
    for lo in range(0, p.dim, rows):
        block = p_comp[lo:lo + rows]
        for wrong in wrongs:
            others = p_comp[lo:] if wrong is p_comp else h_comp
            coords = pair_bracket_coords(triple.field, block, others, wrong)
            if np.linalg.norm(coords, axis=2).max() > tol:
                return False
    return True


def stabilizer_subalgebra(h_basis: Subspace, a: AlgElement, g_basis: Subspace) -> Subspace:
    """Orthonormal basis of {Y in span(h): [Y, A] = 0}, for h < g and A in a closed g.

    Computed as the null space of Y -> [Y, A] in the h-basis, read as
    coordinates along g, which hold all of each bracket.  Singular values
    below _NULL_TOL = 1e-9 count as zero; a spectral gap of at least
    _KERNEL_GAP = 1e3 between the smallest retained and largest discarded
    value is required, otherwise the kernel dimension is ambiguous and we
    refuse to guess.
    """
    if h_basis.dim == 0:
        return h_basis
    # u is square: dim h <= dim g
    u, s, _ = np.linalg.svd(h_basis.brackets_with(a, g_basis), full_matrices=False)
    null_mask = s < _NULL_TOL
    rank = int(np.count_nonzero(~null_mask))
    if 0 < rank < len(s):
        smallest_kept = s[rank - 1]
        largest_dropped = s[rank]
        gap = smallest_kept / max(largest_dropped, _NULL_TOL * 1e-6)
        if largest_dropped > 0 and gap < _KERNEL_GAP:
            raise DegenerateSpectrum(
                f"ambiguous kernel: singular values {smallest_kept:.3e} vs {largest_dropped:.3e}"
            )
    kernel_dim = h_basis.dim - rank
    if kernel_dim == 0:
        return _empty_subspace(h_basis.field, h_basis.n)
    coeffs = u[:, rank:].T  # rows: kernel coordinates in the h-basis
    return Subspace(h_basis.field, h_basis.n, _orthonormalize(coeffs @ h_basis.mat))


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


def _json_type(value) -> str:
    """The JSON type of a decoded value: null, boolean, number, string, array or object."""
    if value is None:
        return "null"
    for kind, name in ((bool, "boolean"), ((int, float), "number"), (str, "string"),
                       (list, "array"), (dict, "object")):  # bool first: it is an int
        if isinstance(value, kind):
            return name
    return type(value).__name__


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


def _document(triple: Triple) -> dict:
    """The triple's document, with the basis rows of g, h and k as 2-D arrays."""
    return {
        "schema": SCHEMA_TRIPLE,
        "field": triple.field.value,
        "n": triple.n,
        "label": triple.label,
        "bases": {
            "g": triple.g_basis.active(),
            "h": triple.h_basis.active(),
            "k": triple.k_basis.active(),
        },
        "base_point": matrix_to_components(triple.base_point) if triple.base_point else None,
    }


def triple_from_dict(doc: dict) -> Triple:
    if not isinstance(doc, dict):
        raise ValueError(f"a triple document is a JSON object, not {_json_type(doc)}")
    if doc.get("schema") != SCHEMA_TRIPLE:
        raise ValueError(f"unknown triple schema {doc.get('schema')!r}, expected {SCHEMA_TRIPLE!r}")
    if missing := [key for key in ("field", "n", "bases") if key not in doc]:
        raise ValueError(f'a triple document has no "{missing[0]}"')
    field = FieldTag(doc["field"])
    n, nc = _size(doc["n"]), N_COMPONENTS[field]
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f'"label" is a JSON string, not {_json_type(label)}')

    def decode(name: str) -> Subspace:
        rows = bases[name]
        if not isinstance(rows, list):  # not read as empty when falsy: [] is the empty basis
            raise ValueError(f'basis "{name}" is a JSON list, not {_json_type(rows)}')
        if not rows:
            return _empty_subspace(field, n)
        arr = _numbers(rows, "a basis")
        if arr.ndim != 2 or arr.shape[1] != n * n * nc:
            raise ValueError(f"expected rows of {n * n * nc} scalars, got shape {arr.shape}")
        comp = np.zeros((len(arr), n, n, 4))
        comp[..., :nc] = arr.reshape(len(arr), n, n, nc)
        # stored bases are already orthonormal; build directly to stay bit-faithful
        return Subspace(field, n, comp.reshape(len(arr), -1))

    bases = doc["bases"]
    if not isinstance(bases, dict):
        raise ValueError(f'"bases" is a JSON object, not {_json_type(bases)}')
    if missing := [key for key in "ghk" if key not in bases]:
        raise ValueError(f'"bases" has no "{missing[0]}"')
    base = doc.get("base_point")
    base_point = matrix_from_components(field, n, base) if base is not None else None
    return _nested_triple(decode("g"), decode("h"), decode("k"), label, base_point)


def _write_rows(rows: np.ndarray, pad: str, out: list) -> None:
    """Append json.dumps(rows.tolist(), indent=2) to out; pad is the line break and indentation of the closing "]".

    All values (the entries that are not +0.0, told by their bits, so -0.0
    is a value) go through the C encoder in one call.  Each row is split
    into runs of values and runs of +0.0 entries: a run of values is joined
    from the encoder's output, a run of zeros is one repeated string, joined
    once per run length in each call, so a row costs about one string
    operation per run, not one per number.
    """
    if not rows.size:
        out.append("[]")
        return
    row_pad = pad + "  "
    value_pad = row_pad + "  "
    sep = "," + value_pad
    row_break = f"{row_pad}],{row_pad}[{value_pad}"
    zero = rows.view(np.uint64) == 0
    values = iter(json.dumps(rows[~zero].tolist())[1:-1].split(", "))
    starts = np.ones(rows.shape, dtype=bool)  # where a run of zeros or of values begins
    np.not_equal(zero[:, 1:], zero[:, :-1], out=starts[:, 1:])
    first = np.flatnonzero(starts)
    kinds = zero.ravel()[first].tolist()
    first = first.tolist()
    width = rows.shape[1]
    zero_runs = {}  # the text of a run of k zeros, by k
    out.append(f"[{row_pad}[{value_pad}")
    for begin, end, is_zero in zip(first, first[1:] + [rows.size], kinds):
        if begin % width:
            out.append(sep)
        elif begin:  # a new row
            out.append(row_break)
        k = end - begin
        if is_zero:
            if k not in zero_runs:
                zero_runs[k] = sep.join(["0.0"] * k)
            out.append(zero_runs[k])
        else:
            out.append(sep.join(itertools.islice(values, k)))
    out += (row_pad, "]", pad, "]")


def triple_to_json(triple: Triple) -> str:
    """The triple's document as text, laid out as json.dumps(..., indent=2) lays it out.

    json.dumps lays out the scalars.  Its pure-Python indenting encoder is
    slow on long lists of numbers, so `_write_rows` writes the bases, and the
    base point goes through the C encoder with the line break and
    indentation as its item separator.  The pieces are joined once, since
    each concatenation of a megabyte-long string copies it.
    """
    doc = _document(triple)
    bases, base = doc.pop("bases"), doc.pop("base_point")
    out = [json.dumps(doc, indent=2)[:-2], ',\n  "bases": {']
    for i, (name, rows) in enumerate(bases.items()):
        out.append(f'{"," if i else ""}\n    "{name}": ')
        _write_rows(rows, "\n    ", out)
    out.append('\n  },\n  "base_point": ')
    if base is None:
        out.append("null")
    else:
        out += ("[\n    ", json.dumps(base, separators=(",\n    ", ": "))[1:-1], "\n  ]")
    out.append("\n}")
    return "".join(out)


def load_triple(path: str) -> Triple:
    with open(path) as fh:
        return triple_from_dict(json.load(fh))
