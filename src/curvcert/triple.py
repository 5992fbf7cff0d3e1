"""Chains k < h < g with orthogonal decompositions m = h - k and p = g - h.

A Triple stores orthonormal bases (under the bi-invariant inner product) for
the three nested algebras plus the derived complements, each pair nested by
one rule (`_nested_complement`: rows the sub names by index, its own rows by
projection).  A chain enters as generator rows (`Subspace.from_generators`,
the catalog) or as the rows of a curvcert-triple/1 document, which this
module reads and writes; it also verifies symmetric pairs.  The constructors
from arbitrary spans (`make_triple`), the stabilizer of A in h and the Phi
operator of the one-parameter deformed metric, which no certifier reads,
live with their tests in tests/helpers.py.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    AlgElement,
    FieldTag,
    N_COMPONENTS,
    check_skew,
    pair_bracket_coords,
    require_same,
    row_dots,
)

_ORTHO_TOL = 1e-10
# A vector lies in a span when its residual off it is at most this times max(1, its norm).
_IN_SPAN_TOL = 1e-8
# Coordinates of [p, p] along p or of [p, h] along h above this break a symmetric pair.
SYMMETRIC_PAIR_TOL = 1e-8
# Gram-Schmidt drops a row whose norm left is at most this times max(1, its norm).
_DROP_TOL = 1e-10
# Product floats held at once by the dense path of is_symmetric_pair: without this
# bound, the check on sp_example(8) conjugated by a random unitary peaks at 57.1 MB
# of RSS instead of 43.4 MB (numpy 2.4, 1 thread).
_PAIR_BLOCK_FLOATS = 1 << 18


class NotInSpan(ValueError):
    """Vector falls outside the subspace it was claimed to live in."""


def _orthonormalize(mat: np.ndarray) -> np.ndarray:
    """Gram-Schmidt with one re-orthogonalization pass.

    Each row is projected off the basis accumulated so far by one matrix
    product, twice.  Rows spanning the same subspace come out orthonormal;
    near-dependent rows, whose norm left is at most _DROP_TOL = 1e-10 times
    max(1, their norm), are dropped.
    """
    mat = np.asarray(mat, dtype=np.float64)
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


def _normalized_rows(mat: np.ndarray) -> np.ndarray:
    """The Gram-Schmidt loop on rows with disjoint supports: the rows above its drop rule, each divided by its norm."""
    norms = np.sqrt(row_dots(mat, mat))  # the loop's norm of each 1-D row
    keep = norms > _DROP_TOL * np.maximum(1.0, norms)
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
        # first, so that NaN, which passes the gram test below, is rejected
        check_skew(self.field, mat.reshape(len(mat), self.n, self.n, 4))
        gram = mat @ mat.T
        gram.flat[::mat.shape[0] + 1] -= 1.0  # gram - I
        if np.abs(gram).max(initial=0.0) > _ORTHO_TOL:
            raise ValueError("basis is not orthonormal to 1e-10")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    @classmethod
    def from_generators(cls, stack: np.ndarray, field: FieldTag) -> "Subspace":
        """Orthonormal basis of generator rows (`algebra.generator_stack`), a stack (r, n, n, 4).

        Generator rows are skew, have disjoint supports and norm at least 1
        by construction (the caller's contract), so each is scaled to unit
        length in closed form (`_normalized_rows`, the bits of
        `_orthonormalize`), with no input check; the Subspace checks the
        result.
        """
        n = stack.shape[1]
        return cls(field, n, _normalized_rows(stack.reshape(len(stack), n * n * 4)))

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
        """Orthogonal projection of a flat vector, or of each row of a stack of them; +0.0 on an empty basis."""
        return (v @ self.mat.T) @ self.mat

    def contains(self, x: AlgElement) -> bool:
        v = x.flat
        return float(np.linalg.norm(v - self.project_flat(v))) <= _IN_SPAN_TOL * max(1.0, x.norm())


def _empty_subspace(field: FieldTag, n: int) -> Subspace:
    return Subspace(field, n, np.zeros((0, n * n * 4)))


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

    def gk_basis(self) -> Subspace:
        """Orthonormal basis of g minus k (= m + p)."""
        return Subspace(self.field, self.n, np.vstack([self.m_basis.mat, self.p_basis.mat]))


def _nested_triple(
    g: Subspace, h: Subspace, k: Subspace, label: str, base_point: Optional[AlgElement],
) -> Triple:
    """Check k < h, then h < g, on orthonormal bases, and derive m and p, each by the one rule of `_nested_complement`."""
    m, p = (_nested_complement(name, sub, sup) for name, sub, sup in (("k", k, h), ("h", h, g)))
    if m.dim != h.dim - k.dim or p.dim != g.dim - h.dim:
        raise ValueError("derived complement dimensions are inconsistent")
    return Triple(g.field, g.n, g, h, k, m, p, label=label, base_point=base_point)


def _nested_complement(name: str, sub: Subspace, sup: Subspace) -> Subspace:
    """sup minus sub: the sup rows the sub names drop out by index, the sub's own rows by projection.

    The sub names a sup row when one of its rows equals that row bit for bit,
    found by one lookup of each sub row's bytes among sup's rows.  The sub's
    other rows, its own rows, must lie in span(sup) (else NotInSpan) and are
    projected off the sup rows left by one product.  The rows left, in sup's
    order, are the complement: Gram-Schmidt when there are own rows, else
    the loop's closed form for disjoint rows.
    """
    sup_row = {row.tobytes(): i for i, row in enumerate(sup.mat)}
    rows = np.array([sup_row.get(row.tobytes(), -1) for row in sub.mat], dtype=np.intp)
    named = rows >= 0
    own, rest = sub.mat[~named], np.delete(sup.mat, rows[named], axis=0)
    if not len(own):
        return Subspace(sup.field, sup.n, _normalized_rows(rest))
    resid = np.linalg.norm(own - (own @ sup.mat.T) @ sup.mat, axis=1)
    if resid.max() > _ORTHO_TOL:
        raise NotInSpan(f"{name}-basis vector leaves its ambient span (residual {resid.max():.2e})")
    return Subspace(sup.field, sup.n, _orthonormalize(rest - (rest @ own.T) @ own))


def project(triple: Triple, comps: np.ndarray) -> np.ndarray:
    """The h-part of one component matrix (n, n, 4) or of a stack (..., r, n, n, 4), in the same layout.

    Each matrix must lie in span(g).  Each stack of r matrices is projected
    by its own products, so it has the bits of a call on it alone.
    """
    v = comps.reshape(*comps.shape[:-3], -1)
    _check_in_g(triple, v)
    return triple.h_basis.project_flat(v).reshape(comps.shape)


def _check_in_g(triple: Triple, v: np.ndarray) -> None:
    """Raise NotInSpan unless the flat vector v, or each row of a stack of them, lies in span(g)."""
    resid = np.linalg.norm(v - triple.g_basis.project_flat(v), axis=-1)
    if (resid > _IN_SPAN_TOL * np.maximum(1.0, np.linalg.norm(v, axis=-1))).any():
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


def is_symmetric_pair(triple: Triple, tol: float = SYMMETRIC_PAIR_TOL) -> bool:
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
    wrongs = [w for w in (p_comp, h_comp) if _may_reach(p_comp, w, w)]
    pair_floats = triple.n * triple.n * N_COMPONENTS[triple.field]
    rows = max(1, _PAIR_BLOCK_FLOATS // (max(1, p.dim, h.dim) * pair_floats))
    for lo in range(0, p.dim, rows):
        block = p_comp[lo:lo + rows]
        for wrong in wrongs:
            others = p_comp[lo:] if wrong is p_comp else h_comp
            coords = pair_bracket_coords(triple.field, block, others, wrong)
            if np.linalg.norm(coords, axis=2).max(initial=0.0) > tol:
                return False
    return True


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
