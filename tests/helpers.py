"""Shared test utilities: independent oracles, random-input generators, and
the constructors, readers and writers that only tests call.

The library (src/) holds only what the CLI and the benchmark reach
(tests/test_src_reach.py); the helpers below that tests alone call build
on it.
"""

from __future__ import annotations

import ctypes
import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

import curvcert.triple as triple_module
from curvcert.algebra import (
    AlgElement,
    FieldTag,
    GroupElement,
    N_COMPONENTS,
    InvalidElement,
    block_stack,
    bracket,
    check_skew,
    comp_adjoint,
    comp_bracket,
    comp_norm,
    conj_transpose,
    from_flat,
    group_exp,
    qmul,
    require_same,
    row_dots,
)
from curvcert.certify import (
    DEFAULT_REFUTE_TOL,
    DEFAULT_TOL,
    CertReport,
    StartBudget,
    _scan_points,
    report_to_dict,
)
from curvcert.triple import (
    Subspace,
    Triple,
    _check_in_g,
    _document,
    _empty_subspace,
    _nested_triple,
    _orthonormalize,
    triple_to_json,
)


# --- algebra ------------------------------------------------------------------


def identity(field: FieldTag, n: int) -> GroupElement:
    comp = np.zeros((n, n, 4))
    comp[..., 0] = np.eye(n)
    return GroupElement(field, n, comp)


def inner(x: AlgElement, y: AlgElement) -> float:
    """Bi-invariant inner product Re tr(X * conj(Y)^T)."""
    require_same(x, y)
    return float(np.dot(x.flat, y.flat))


def adjoint(g: GroupElement, x: AlgElement) -> AlgElement:
    """Adjoint action Ad_g X = g X g^{-1} (inverse = conjugate transpose)."""
    require_same(g, x)
    return AlgElement(x.field, x.n, comp_adjoint(g.comp, x.comp))


def zero(field: FieldTag, n: int) -> AlgElement:
    return AlgElement(field, n, np.zeros((n, n, 4)))


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


# --- triples --------------------------------------------------------------------


def elements(sub: Subspace) -> list[AlgElement]:
    """The basis rows of a Subspace as AlgElements."""
    return [from_flat(sub.field, sub.n, row) for row in sub.mat]


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


def triple_to_dict(triple: Triple) -> dict:
    """The triple's document with the bases as lists: the `json.dumps` oracle of `triple_to_json`."""
    doc = _document(triple)
    doc["bases"] = {name: rows.tolist() for name, rows in doc["bases"].items()}
    return doc


def save_triple(triple: Triple, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(triple_to_json(triple) + "\n")


# --- spans and stabilizers -----------------------------------------------------
#
# The library builds chains from generator rows and from triple files only;
# these build them from arbitrary spans, and the stabilizer is the oracle of
# the catalog's k.

#: a spanning set: AlgElements, a stack (r, n, n, 4) of component matrices, or a Subspace
Span = Union[np.ndarray, Sequence[AlgElement], "Subspace"]

# stabilizer_subalgebra: singular values below _NULL_TOL count as zero, and the
# smallest kept one must be _KERNEL_GAP times the largest dropped one.
_NULL_TOL = 1e-9
_KERNEL_GAP = 1e3


class DegenerateSpectrum(RuntimeError):
    """Singular-value gap too small to decide a null-space dimension."""


def from_spanning(span: Span, field: Optional[FieldTag] = None) -> Subspace:
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
    return Subspace(field, n, _orthonormalize(span.reshape(len(span), n * n * 4)))


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
    g = from_spanning(g_span, field)

    def sub(span: Span) -> Subspace:
        if isinstance(span, Subspace) or len(span):
            return from_spanning(span, g.field)
        return _empty_subspace(g.field, g.n)

    return _nested_triple(g, sub(h_span), sub(k_span), label, base_point)


def stabilizer_subalgebra(h_basis: Subspace, a: AlgElement, g_basis: Subspace) -> Subspace:
    """Orthonormal basis of {Y in span(h): [Y, A] = 0}, for h < g and A in a closed g.

    Computed as the null space of Y -> [Y, A] in the h-basis, read as
    coordinates along g, which hold all of each bracket.  Singular values
    below _NULL_TOL = 1e-9 count as zero; a spectral gap of at least
    _KERNEL_GAP = 1e3 between the smallest retained and largest discarded
    value is required, otherwise the kernel dimension is ambiguous and we
    refuse to guess.
    """
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
    coeffs = u[:, rank:].T  # rows: kernel coordinates in the h-basis
    return Subspace(h_basis.field, h_basis.n, _orthonormalize(coeffs @ h_basis.mat))


# --- projections -------------------------------------------------------------


class Part(Enum):
    """A subspace of the chain k < h < g: k, m = h - k, p = g - h or h."""

    K = "K"
    M = "M"
    P = "P"
    H = "H"


def project(triple: Triple, x: AlgElement, part: Part) -> AlgElement:
    """Orthogonal projection of x onto the named subspace; x must lie in span(g).

    The library projects onto h only (`curvcert.triple.project`).
    """
    v = x.flat
    _check_in_g(triple, v)
    sub = {Part.K: triple.k_basis, Part.M: triple.m_basis, Part.P: triple.p_basis,
           Part.H: triple.h_basis}[part]
    return from_flat(triple.field, triple.n, sub.project_flat(v))


# --- flat-plane residuals -------------------------------------------------------


class PlaneInputError(ValueError):
    """Arguments violate a flat-plane precondition (dependence, wrong subspace)."""


def horizontal_flat_residual(
    triple: Triple, g: GroupElement, z: AlgElement, w: AlgElement
) -> tuple[float, float]:
    """Residual pair (|[Z,W]|^2, |[(Ad_g Z)^h, (Ad_g W)^h]|^2).

    Both vanishing certifies an (approximate) horizontal zero-curvature plane
    at the point reached by g.  Preconditions: Z orthogonal to k, W in p,
    (Z, W) orthonormal.
    """
    _check_pair(triple, z, w)
    azh, awh = (AlgElement(triple.field, triple.n,
                           triple_module.project(triple, adjoint(g, x).comp)) for x in (z, w))
    return bracket(z, w).norm() ** 2, bracket(azh, awh).norm() ** 2


def _check_pair(triple: Triple, z: AlgElement, w: AlgElement) -> None:
    tol = 1e-8
    if abs(z.norm() - 1.0) > tol or abs(w.norm() - 1.0) > tol or abs(inner(z, w)) > tol:
        raise PlaneInputError("pair (Z, W) is not orthonormal")
    if not triple.p_basis.contains(w):
        raise PlaneInputError("W does not lie in p")
    if np.linalg.norm(triple.k_basis.project_flat(z.flat)) > tol:
        raise PlaneInputError("Z is not orthogonal to k")


def derivative_objective(triple: Triple, a: AlgElement, z: AlgElement, w: AlgElement) -> float:
    """|[Z^h, [A, W]^h]|^2 on single elements, for Z in g; [A, W] may leave g."""
    awh = from_flat(triple.field, triple.n, triple.h_basis.project_flat(bracket(a, w).flat))
    zh = AlgElement(triple.field, triple.n, triple_module.project(triple, z.comp))
    return bracket(zh, awh).norm() ** 2


# --- the deformed metric ------------------------------------------------------


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


def phi(triple: Triple, x: AlgElement, d: DeformParam) -> AlgElement:
    """The self-adjoint operator t*X^h + X^p relating g0 to the deformed metric."""
    v = x.flat
    _check_in_g(triple, v)
    out = d.t * triple.h_basis.project_flat(v) + triple.p_basis.project_flat(v)
    return from_flat(triple.field, triple.n, out)


def _check_independent(x: AlgElement, y: AlgElement) -> None:
    gram = np.array([[inner(x, x), inner(x, y)], [inner(x, y), inner(y, y)]])
    if np.linalg.det(gram) < 1e-12 * max(1.0, gram[0, 0] * gram[1, 1]):
        raise PlaneInputError("vectors are linearly dependent")


def eschenburg_residual(triple: Triple, x: AlgElement, y: AlgElement, d: DeformParam) -> float:
    """|[Phi(X), Phi(Y)]|^2 + |[X^h, Y^h]|^2.

    Vanishes exactly on the zero-curvature planes of the deformed metric.
    """
    _check_independent(x, y)
    px, py = phi(triple, x, d), phi(triple, y, d)
    xh, yh = project(triple, x, Part.H), project(triple, y, Part.H)
    return bracket(px, py).norm() ** 2 + bracket(xh, yh).norm() ** 2


# --- certificates -----------------------------------------------------------------


def report_to_json(report: CertReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, allow_nan=False)


def f_of_s(
    triple: Triple, z: AlgElement, w: AlgElement, a: AlgElement, s: float,
    check_commuting: bool = False,
) -> float:
    """|[(Ad_{exp(sA)} Z)^h, (Ad_{exp(sA)} W)^h]|^2.

    Vanishes at s = 0 because W in p has no h-part.  The commuting requirement
    [Z, W] = 0 matters for the flat-plane interpretation, not for evaluating
    the function, so it is checked only on request.
    """
    comm, horiz = horizontal_flat_residual(triple, group_exp(a, s), z, w)
    if check_commuting and comm > 1e-20:
        raise ValueError("[Z, W] != 0 beyond tolerance 1e-10")
    return horiz


def derivative_test(
    triple: Triple, z: AlgElement, w: AlgElement, a: AlgElement, step: float = 1e-3
) -> tuple[float, float]:
    """Compare the closed form of f''(0)/2 against finite differences.

    Returns (analytic, numeric): analytic = |[Z^h, [A, W]^h]|^2, the
    second term of `curvcert.certify`'s part2, numeric is a
    Richardson-extrapolated second central difference of f at 0, halved.
    Disagreement beyond 1e-3 relative triggers a warning.
    """
    analytic = derivative_objective(triple, a, z, w)
    f0 = f_of_s(triple, z, w, a, 0.0)

    def second_diff(h: float) -> float:
        return (f_of_s(triple, z, w, a, h) + f_of_s(triple, z, w, a, -h) - 2.0 * f0) / h**2

    richardson = (4.0 * second_diff(step / 2.0) - second_diff(step)) / 3.0
    numeric = richardson / 2.0
    denom = max(abs(analytic), abs(numeric), 1e-300)
    if analytic > 1e-9 and abs(analytic - numeric) / denom > 1e-3:
        warnings.warn(
            f"derivative test disagreement: analytic={analytic:.6e} numeric={numeric:.6e}"
        )
    return analytic, numeric


def point_positivity(
    triple: Triple, g: GroupElement, budget: StartBudget = StartBudget(),
    tol: float = DEFAULT_TOL, refute_tol: float = DEFAULT_REFUTE_TOL,
    s: Optional[float] = None,
) -> CertReport:
    """Search for horizontal zero-curvature planes at the point reached by g: a scan of one point.

    Minimizes |[Z, W]|^2 + |[(Ad_g Z)^h, (Ad_g W)^h]|^2 over admissible
    orthonormal pairs; for symmetric pairs the Z-domain shrinks to m.
    """
    require_same(triple, g)
    return _scan_points(triple, g.comp[None], (s,), budget, tol, refute_tol)[0]


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and the same float64 bits in every entry (so -0.0 differs from 0.0)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def reference_check_components(field: FieldTag, comp: np.ndarray) -> None:
    """The component tests that open `curvcert.algebra.check_skew` and `check_unitary`, as whole-stack passes.

    Non-finite components first, then nonzero components beyond the field's.
    """
    if not np.isfinite(comp).all():
        raise InvalidElement("matrix has non-finite components")
    nc = N_COMPONENTS[field]
    if nc < 4 and np.any(comp[..., nc:] != 0.0):
        raise InvalidElement(f"{field.value} matrix has nonzero components beyond index {nc - 1}")


def reference_check_skew(field: FieldTag, comp: np.ndarray) -> None:
    """`curvcert.algebra.check_skew` as whole-stack reductions over (n, n, 4), with the same tests, order and messages.

    After `reference_check_components`, |X + X^*| over every entry and
    component against 1e-9 max(1, largest component) per matrix.
    """
    reference_check_components(field, comp)
    axes = (-3, -2, -1)
    scale = np.abs(comp).max(axis=axes, initial=1.0)
    if (np.abs(comp + conj_transpose(comp)).max(axis=axes, initial=0.0) > 1e-9 * scale).any():
        raise InvalidElement("matrix is not skew-Hermitian")


def disjoint_rows(mat: np.ndarray) -> bool:
    """True when each column has at most one nonzero, every entry is finite and no zero is -0.0.

    On such rows every projection coefficient of the Gram-Schmidt loop
    (`curvcert.triple._orthonormalize`) is an exact zero and subtracting its
    products leaves each row's bits as they are, so the loop gives the bits
    of `_normalized_rows`.  A -0.0 could turn into +0.0 there, depending on
    the sign of a zero sum, and inf * 0 is NaN.
    """
    nonzero = mat != 0.0
    return bool(
        (nonzero.sum(axis=0) <= 1).all()
        and np.isfinite(mat).all()
        and not (np.signbit(mat) & ~nonzero).any()
    )


def reference_normalized_rows(mat: np.ndarray) -> np.ndarray:
    """`curvcert.triple._normalized_rows` with the kept rows always taken by a boolean mask."""
    norms = np.sqrt(row_dots(mat, mat))
    keep = norms > 1e-10 * np.maximum(1.0, norms)
    return mat[keep] / norms[keep, None]


def exp_squarings(x: AlgElement, s: float) -> int:
    """The squarings of exp(s X) by scaling and squaring: halvings until |s X| <= 0.25."""
    nrm = comp_norm(float(s) * x.comp)
    return max(0, int(math.ceil(math.log2(nrm / 0.25))) if nrm > 0.25 else 0)


def reference_group_exp(x: AlgElement, s: float) -> np.ndarray:
    """exp(s X) one s at a time: scale by 2^-squarings, sum the Taylor series until a term's norm is below 1e-16, square back."""
    squarings = exp_squarings(x, s)
    m = float(s) * x.comp / (2.0**squarings)
    result = np.zeros((x.n, x.n, 4))
    result[..., 0] = np.eye(x.n)
    term = result.copy()
    for j in range(1, 40):
        term = qmul(term, m) / j
        result = result + term
        if comp_norm(term) < 1e-16:
            break
    for _ in range(squarings):
        result = qmul(result, result)
    return result


def ortho_constraint(z_dom, w_dom):
    """The constraint z^T gmat w = 0 of a search over Z in z_dom, W in w_dom, as `curvcert.certify._flat_plane_search` builds it.

    gmat is z_dom.mat @ w_dom.mat.T, or None where no entry exceeds 1e-12:
    the domains are orthogonal and a search carries no constraint.
    """
    gmat = z_dom.mat @ w_dom.mat.T
    return gmat if np.abs(gmat).max() > 1e-12 else None


def reference_starts(z_dom, w_dom, gmat, budget):
    """The start loop of `curvcert.certify._starts`: one start at a time, w drawn before z.

    Each w is a normalized standard-normal draw; each z is drawn next, loses
    its part along the unit vector gmat w (when gmat is given and |gmat w| >
    1e-12) and is normalized.
    """
    rng = np.random.default_rng(budget.seed)
    z0, w0 = np.empty((budget.starts, z_dom.dim)), np.empty((budget.starts, w_dom.dim))
    for z, w in zip(z0, w0):
        w[:] = rng.standard_normal(w_dom.dim)
        w /= np.linalg.norm(w)
        z[:] = rng.standard_normal(z_dom.dim)
        if gmat is not None:
            u = gmat @ w
            nrm = np.linalg.norm(u)
            if nrm > 1e-12:
                u = u / nrm
                z -= np.dot(z, u) * u
        z /= np.linalg.norm(z)
    return z0, w0


def reference_block_stack(field: FieldTag, n: int, indices) -> np.ndarray:
    """One `basis_element` per generator, in the generator order of `block_stack`, stacked."""
    idx = list(indices)
    elems = []
    for a, i in enumerate(idx):
        elems += [basis_element(field, n, i, i, c) for c in range(1, N_COMPONENTS[field])]
        for j in idx[a + 1:]:
            elems += [basis_element(field, n, i, j, c) for c in range(N_COMPONENTS[field])]
    return np.array([e.comp for e in elems]).reshape(len(elems), n, n, 4)


def full_algebra_basis(field: FieldTag, n: int) -> np.ndarray:
    """An orthonormal basis of all of so(n), u(n) or sp(n), as a stack (dim, n, n, 4).

    The standard generators of `reference_block_stack` have disjoint
    supports, so each one scaled to unit length gives an orthonormal basis.
    """
    stack = reference_block_stack(field, n, range(n))
    return stack / np.sqrt(np.sum(stack * stack, axis=(1, 2, 3)))[:, None, None, None]


def reference_block_triple(entry_id: str, **params) -> Triple:
    """The triple of a catalog entry built as arbitrary spans.

    For the block families, the same generator stacks, base point and label
    as the catalog's builder, taken as spans: each is checked and
    orthonormalized (`from_spanning`), and m and p are the complements from
    the cross products (`projection_complement`), whatever rows the bases
    share, so the catalog's nesting by index is compared with projection
    alone.  entry_id is t1_sphere, t1_projective, pt_projective, m_kl or
    sp_example, with the builder's parameters (field a FieldTag), or
    t1s3_product, whose triple is its build through `make_triple` from
    before the catalog took its slot sums as generator rows.
    """
    if entry_id == "t1s3_product":
        field = FieldTag.QUATERNION
        g_span = block_stack(field, 2, [0], [1])
        h_span = g_span[:3] + g_span[3:]
        a = AlgElement(field, 2, (1.0 / math.sqrt(2.0)) * (g_span[0] - g_span[3]))
        return make_triple(g_span, h_span, h_span[:1], label="t1s3_product", base_point=a,
                           field=field)
    n, size = params["n"], params["n"] + 1
    field = {"t1_sphere": FieldTag.REAL, "m_kl": FieldTag.COMPLEX,
             "sp_example": FieldTag.QUATERNION}.get(entry_id) or params["field"]

    def blocks(*index_sets):
        return np.concatenate([block_stack(field, size, idx) for idx in index_sets])

    a_cols = [1, 2] if entry_id == "m_kl" else [1]
    comp = np.zeros((size, size, 4))
    for j in a_cols:
        comp[0, j, 0], comp[j, 0, 0] = 1.0, -1.0
    a = AlgElement(field, size, comp / math.sqrt(2.0 * len(a_cols)))
    g_span, h_span = blocks(range(size)), blocks([0], range(1, size))
    if entry_id == "t1_sphere":
        h_span, k_span, label = blocks(range(1, size)), blocks(range(2, size)), f"t1_sphere(n={n})"
    elif entry_id == "sp_example":
        k_span, label = blocks([0], range(2, size)), f"sp_example(n={n})"
    elif entry_id == "m_kl":
        kl = np.zeros((1, size, size, 4))
        kl[0, 0, 0, 1], kl[0, 1, 1, 1] = float(params["k"]), float(params["l"])
        k_span = np.concatenate([kl, blocks(range(2, size))])
        label = f"m_kl(n={n},k={params['k']},l={params['l']})"
    else:
        letter = {FieldTag.REAL: "R", FieldTag.COMPLEX: "C", FieldTag.QUATERNION: "H"}[field]
        label = f"{entry_id}({letter},n={n})"
        if entry_id == "pt_projective":
            k_span = blocks(range(2, size), [0], [1])
        else:
            tied = block_stack(field, size, [0]) + block_stack(field, size, [1])
            k_span = np.concatenate([blocks(range(2, size)), tied])
    g, h, k = (from_spanning(span, field) for span in (g_span, h_span, k_span))
    return _by_projection(g, h, k, label, a)


def projection_complement(sup: Subspace, sub: Subspace) -> Subspace:
    """sup minus sub by projection alone: Gram-Schmidt of every sup row less its projection on sub.

    The rows that sub shares with sup project to residuals the loop drops,
    so on block chains this gives the bits of `triple._nested_complement`,
    which drops them by index and projects only the sub's other rows.
    """
    cross = sup.mat @ sub.mat.T
    return Subspace(sup.field, sup.n, _orthonormalize(sup.mat - cross @ sub.mat))


def count_loop_rows(monkeypatch) -> list:
    """The row count of each Gram-Schmidt loop (`triple._orthonormalize`) run from here on, in order."""
    rows = []
    loop = triple_module._orthonormalize
    monkeypatch.setattr(triple_module, "_orthonormalize",
                        lambda mat: rows.append(len(mat)) or loop(mat))
    return rows


def _by_projection(g: Subspace, h: Subspace, k: Subspace, label: str, a: AlgElement) -> Triple:
    """The chain with m and p from the cross products of its pairs (`projection_complement`)."""
    m, p = (projection_complement(sup, sub) for sub, sup in ((k, h), (h, g)))
    return Triple(g.field, g.n, g, h, k, m, p, label=label, base_point=a)


@dataclass(frozen=True)
class Quaternion:
    """A quaternion w + xi + yj + zk with real components: the scalar reference for quaternion entries."""

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


def _value(tensors, z, w) -> float:
    """sum_j |T_j(z, w)|^2."""
    return sum(float(np.sum(np.einsum("ikd,i,k->d", t, z, w) ** 2)) for t in tensors)


def _min_eig_vector(q, u):
    """Unit minimizer of v^T q v on the sphere, orthogonal to u when given, and its value.

    Returns (v, the smallest eigenvalue of q on the complement), or None
    when the complement is empty.
    """
    if u is not None:
        nrm = np.linalg.norm(u)
        if nrm > 1e-12:
            uu = (u / nrm)[None, :]
            _, _, vh = np.linalg.svd(uu, full_matrices=True)
            basis = vh[1:].T  # orthonormal complement of u
            if basis.shape[1] == 0:
                return None
            vals, vecs = np.linalg.eigh(basis.T @ q @ basis)
            return basis @ vecs[:, 0], vals[0]
    vals, vecs = np.linalg.eigh(q)
    return vecs[:, 0], vals[0]


def descend_one(tensors, gmat, z0, w0, max_iters, target):
    """Reference one-start search of `curvcert.certify`; returns (value, z, w, status).

    Two exact block-coordinate sweeps, then Levenberg-Marquardt steps on the
    stacked residual r = (T_j(z, w))_j with the search's damping
    and stop rules.  The start stops, between the sweeps or in the
    Levenberg-Marquardt phase, once its value is at the rounding floor
    (16 eps)^2 sum_j |T_j|^2 or below target; between the sweeps that value
    is the w-step's smallest eigenvalue.  The tangent space of
    {|z| = |w| = 1, z^T gmat w = 0} is an explicit null-space basis from an
    SVD of the constraint rows, where the lockstep search projects instead.
    The status codes 0 (converged) and 1 (hit max_iters) are those of
    `curvcert.certify`; 2 marks an empty orthogonal complement, which the
    search never meets: it answers a domain with no admissible pair before
    any start descends.
    """
    floor = (16 * np.finfo(float).eps) ** 2 * sum(np.sum(t * t) for t in tensors)

    def witness(val):
        return val <= floor or val < target

    z, w = z0, w0
    for sweep in range(2):
        qz = np.zeros((len(z), len(z)))
        for t in tensors:
            a = np.einsum("ikd,k->id", t, w)
            qz += a @ a.T
        found = _min_eig_vector(qz, gmat @ w if gmat is not None else None)
        if found is None:
            return _value(tensors, z, w), z, w, 2
        z_new = found[0]
        qw = np.zeros((len(w), len(w)))
        for t in tensors:
            a = np.einsum("ikd,i->kd", t, z_new)
            qw += a @ a.T
        found = _min_eig_vector(qw, gmat.T @ z_new if gmat is not None else None)
        if found is None:
            return _value(tensors, z, w), z, w, 2
        z, (w, lam) = z_new, found
        val = _value(tensors, z, w)
        if witness(lam if sweep == 0 else val):  # after the last sweep: the LM phase's entry test
            return val, z, w, 0

    dz, n = len(z), len(z) + len(w)
    damp = 1e-3
    for _ in range(max_iters):
        jac = np.concatenate([np.hstack([np.einsum("ikd,k->di", t, w),
                                         np.einsum("ikd,i->dk", t, z)])
                              for t in tensors])
        r = np.concatenate([np.einsum("ikd,i,k->d", t, z, w) for t in tensors])
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
        fc = _value(tensors, zc, wc)
        if fc < val:
            small = val - fc <= 1e-12 * val
            z, w, val, damp = zc, wc, fc, max(damp / 3.0, 1e-12)
            if small or witness(fc):
                return val, z, w, 0
        else:
            damp *= 4.0
            if damp > 1e12:
                return val, z, w, 0
    return val, z, w, 1


# --- the BLAS kernel --------------------------------------------------------------


def openblas_corename() -> Optional[str]:
    """The core type of the OpenBLAS library that numpy loaded, as OpenBLAS names it, or None where it cannot be read.

    The library is found among the process's mapped files (Linux only); with
    DYNAMIC_ARCH it picks its kernel for the CPU at start-up, and
    OPENBLAS_CORETYPE picks another one for the process.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None
