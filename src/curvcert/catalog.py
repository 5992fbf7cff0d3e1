"""Builders for the catalog of homogeneous-bundle examples.

Every builder returns a fully populated Triple (with the chain k < h < g),
the designated vector A in p, and metadata recording known structural facts
(symmetric pair, rank one).  The metadata is descriptive: part3 and scan
recompute the symmetric pair with `is_symmetric_pair`.  Each span is built
as one stack (r, n, n, 4) of generators and handed to `make_triple`.

Conventions: H and K occupy lower-right diagonal blocks, p is the first
row/column band, so the explicit matrices of the worked examples transcribe
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .algebra import AlgElement, FieldTag, block_stack
from .triple import Subspace, Triple, make_triple, stabilizer_subalgebra


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    params: dict
    triple: Triple
    base_point_A: AlgElement
    metadata: dict = dc_field(default_factory=dict)


def _blocks(field: FieldTag, n: int, *index_sets) -> np.ndarray:
    """Generators of the block subalgebras on the given index sets, stacked in order."""
    return np.concatenate([block_stack(field, n, idx) for idx in index_sets])


def _first_row_vector(field: FieldTag, n_total: int, entries: dict[int, float]) -> AlgElement:
    """Element of p with real entries W_j at (0, j): the {W_1, ..., W_n} shorthand."""
    comp = np.zeros((n_total, n_total, 4))
    for j, w in entries.items():
        comp[0, j, 0] = w
        comp[j, 0, 0] = -w
    nrm = math.sqrt(2.0 * sum(w * w for w in entries.values()))
    return AlgElement(field, n_total, comp / nrm)


def t1s3_product() -> CatalogEntry:
    """Unit tangent bundle of S^3 via the product sp(1) + sp(1), diagonal h.

    k = span{(i, i)}, base point A = (i, -i)/sqrt(2).
    """
    field = FieldTag.QUATERNION
    g_span = _blocks(field, 2, [0], [1])  # i, j, k at slot 0, then at slot 1
    h_span = g_span[:3] + g_span[3:]  # (z, z)
    k_span = h_span[:1]
    a = AlgElement(field, 2, (1.0 / math.sqrt(2.0)) * (g_span[0] - g_span[3]))
    triple = make_triple(g_span, h_span, k_span, label="t1s3_product", base_point=a,
                         field=field)
    return CatalogEntry(
        id="t1s3_product",
        params={},
        triple=triple,
        base_point_A=a,
        metadata={
            "symmetric_pair": True,
            "rank_one": True,
            "known_result": "S^2 x S^3 (unit tangent bundle of S^3): quasi-positive curvature",
        },
    )


def t1_sphere(n: int) -> CatalogEntry:
    """T^1 S^n from so(n-1) < so(n) < so(n+1); k is the stabilizer of A."""
    if n < 2:
        raise ValueError("t1_sphere requires n >= 2")
    size = n + 1
    field = FieldTag.REAL
    g_span = block_stack(field, size, range(size))
    h_span = block_stack(field, size, range(1, size))
    a = _first_row_vector(field, size, {1: 1.0})
    k_sub = stabilizer_subalgebra(Subspace.from_spanning(h_span, field), a)
    triple = make_triple(g_span, h_span, k_sub.comps(), label=f"t1_sphere(n={n})",
                         base_point=a, field=field)
    return CatalogEntry(
        id="t1_sphere",
        params={"n": n},
        triple=triple,
        base_point_A=a,
        metadata={
            "symmetric_pair": True,
            "rank_one": True,
            "known_result": "T^1 S^n: quasi-positive curvature; for n even the"
            " diagonal SO(2) subgroup acts freely and the quotient inherits it",
        },
    )


_PROJ_FIELDS = {
    FieldTag.REAL: "R",
    FieldTag.COMPLEX: "C",
    FieldTag.QUATERNION: "H",
}


def _projective_entry(field: FieldTag, n: int, projective: bool) -> CatalogEntry:
    size = n + 1
    g_span = block_stack(field, size, range(size))
    h_span = _blocks(field, size, [0], range(1, size))
    if projective:
        # {diag(z1, z2, B)}: independent scalar blocks at slots 0 and 1
        k_span = _blocks(field, size, range(2, size), [0], [1])
    else:
        # {diag(z, z, B)}: tied scalar blocks
        tied = block_stack(field, size, [0]) + block_stack(field, size, [1])
        k_span = np.concatenate([block_stack(field, size, range(2, size)), tied])
    a = _first_row_vector(field, size, {1: 1.0})
    kind = "pt" if projective else "t1"
    label = f"{kind}_projective({_PROJ_FIELDS[field]},n={n})"
    triple = make_triple(g_span, h_span, k_span, label=label, base_point=a, field=field)
    meta = {
        "symmetric_pair": True,
        "rank_one": True,
        "known_result": (
            f"projective tangent bundle over {_PROJ_FIELDS[field]}P^{n}"
            if projective
            else f"unit tangent bundle of {_PROJ_FIELDS[field]}P^{n}"
        )
        + ": quasi-positive curvature",
    }
    if n < 2:
        meta["warning"] = "n < 2 is degenerate (empty G(n-1) block)"
    return CatalogEntry(
        id="pt_projective" if projective else "t1_projective",
        params={"field": _PROJ_FIELDS[field], "n": n},
        triple=triple,
        base_point_A=a,
        metadata=meta,
    )


def t1_projective(field: FieldTag, n: int) -> CatalogEntry:
    """Unit tangent bundle of CP^n or HP^n: k = {diag(z, z, B)}."""
    if field not in (FieldTag.COMPLEX, FieldTag.QUATERNION):
        raise ValueError("t1_projective is defined over C or H")
    if n < 1:
        raise ValueError("t1_projective requires n >= 1")
    return _projective_entry(field, n, projective=False)


def pt_projective(field: FieldTag, n: int) -> CatalogEntry:
    """Projective tangent bundle of KP^n: k = {diag(z1, z2, B)}."""
    if n < 1:
        raise ValueError("pt_projective requires n >= 1")
    return _projective_entry(field, n, projective=True)


def m_kl(n: int, k: int, l: int) -> CatalogEntry:
    """Lens-space bundle over CP^n: u(n+1) with k spanned by diag(ki, li, 0) + u(n-1).

    Base point A = {W_1 = 1, W_2 = 1, 0, ...} normalized.  k = 0 falls outside
    the certified family and is flagged in metadata.
    """
    if n < 2:
        raise ValueError("m_kl requires n >= 2")
    size = n + 1
    field = FieldTag.COMPLEX
    g_span = block_stack(field, size, range(size))
    h_span = _blocks(field, size, [0], range(1, size))
    kl = np.zeros((1, size, size, 4))
    kl[0, 0, 0, 1] = float(k)
    kl[0, 1, 1, 1] = float(l)
    k_span = np.concatenate([kl, block_stack(field, size, range(2, size))])
    a = _first_row_vector(field, size, {1: 1.0, 2: 1.0})
    triple = make_triple(g_span, h_span, k_span, label=f"m_kl(n={n},k={k},l={l})",
                         base_point=a, field=field)
    meta = {
        "symmetric_pair": True,
        "rank_one": True,
        "known_result": f"lens space bundle over CP^{n}: quasi-positive curvature for k != 0",
    }
    if k == 0:
        meta["warning"] = "k = 0 lies outside the certified family; verdict left to the numerics"
    return CatalogEntry(
        id="m_kl",
        params={"n": n, "k": k, "l": l},
        triple=triple,
        base_point_A=a,
        metadata=meta,
    )


def sp_example(n: int) -> CatalogEntry:
    """Sp(n+1) modulo {diag(z, 1, A)}: a sphere bundle over HP^n.

    Base point A = {W_1 = 1, 0, ...} normalized.  The diagonal Sp(1) subgroup
    {z * I} acts freely; the quotient is recorded in metadata only.
    """
    if n < 2:
        raise ValueError("sp_example requires n >= 2")
    size = n + 1
    field = FieldTag.QUATERNION
    g_span = block_stack(field, size, range(size))
    h_span = _blocks(field, size, [0], range(1, size))
    k_span = _blocks(field, size, [0], range(2, size))
    a = _first_row_vector(field, size, {1: 1.0})
    triple = make_triple(g_span, h_span, k_span, label=f"sp_example(n={n})", base_point=a,
                         field=field)
    return CatalogEntry(
        id="sp_example",
        params={"n": n},
        triple=triple,
        base_point_A=a,
        metadata={
            "symmetric_pair": True,
            "rank_one": True,
            "known_result": f"S^{4 * n - 1} bundle over HP^{n}: quasi-positive curvature;"
            " free diagonal Sp(1) subgroup {z * I} gives a quasi-positively curved quotient",
            "free_subgroup": "diagonal Sp(1) = {z * I}",
        },
    )


_FIELD_BY_NAME = {
    "real": FieldTag.REAL,
    "r": FieldTag.REAL,
    "complex": FieldTag.COMPLEX,
    "c": FieldTag.COMPLEX,
    "quaternion": FieldTag.QUATERNION,
    "h": FieldTag.QUATERNION,
}


def build_entry(entry_id: str, n: Optional[int] = None, k: Optional[int] = None,
                l: Optional[int] = None, field: Optional[str] = None) -> CatalogEntry:
    """Resolve a catalog id plus parameters into a concrete entry."""
    if entry_id == "t1s3_product":
        return t1s3_product()
    if entry_id == "t1_sphere":
        _require(n is not None, "t1_sphere requires --n")
        return t1_sphere(n)
    if entry_id == "t1_projective":
        _require(n is not None and field is not None, "t1_projective requires --n and --field")
        return t1_projective(_FIELD_BY_NAME[field.lower()], n)
    if entry_id == "pt_projective":
        _require(n is not None and field is not None, "pt_projective requires --n and --field")
        return pt_projective(_FIELD_BY_NAME[field.lower()], n)
    if entry_id == "m_kl":
        _require(n is not None and k is not None and l is not None,
                 "m_kl requires --n, --k and --l")
        return m_kl(n, k, l)
    if entry_id == "sp_example":
        _require(n is not None, "sp_example requires --n")
        return sp_example(n)
    raise KeyError(f"unknown catalog entry: {entry_id}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


CATALOG_IDS: dict[str, str] = {
    "t1s3_product": "unit tangent bundle of S^3 as sp(1)+sp(1) / diagonal; no parameters",
    "t1_sphere": "T^1 S^n from so(n+1); parameter n >= 2",
    "t1_projective": "T^1 of CP^n / HP^n; parameters field in {C, H}, n >= 1",
    "pt_projective": "projective tangent bundles; parameters field in {R, C, H}, n >= 1",
    "m_kl": "lens space bundles over CP^n; parameters n >= 2 and integers (k, l), k != 0 in the certified family",
    "sp_example": "sphere bundle over HP^n from sp(n+1); parameter n >= 2",
}


def list_catalog() -> list[dict]:
    """One summary record per catalog id, with a small instantiated example."""
    samples: list[tuple[str, Callable[[], CatalogEntry]]] = [
        ("t1s3_product", t1s3_product),
        ("t1_sphere", lambda: t1_sphere(3)),
        ("t1_projective", lambda: t1_projective(FieldTag.COMPLEX, 2)),
        ("pt_projective", lambda: pt_projective(FieldTag.COMPLEX, 2)),
        ("m_kl", lambda: m_kl(2, 1, 1)),
        ("sp_example", lambda: sp_example(2)),
    ]
    out = []
    for entry_id, builder in samples:
        entry = builder()
        out.append(
            {
                "id": entry_id,
                "parameters": CATALOG_IDS[entry_id],
                "sample": entry.triple.label,
                "dimensions": entry.triple.dims,
                "metadata": entry.metadata,
            }
        )
    return out
