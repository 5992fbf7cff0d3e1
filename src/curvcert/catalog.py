"""Builders for the catalog of homogeneous-bundle examples.

Every builder returns a fully populated Triple (with the chain k < h < g)
that carries the designated vector A in p as its base point, and metadata
recording known structural facts.  Each span is built as one stack
(r, n, n, 4) of generators and handed to `make_triple`.  All entries go
through one constructor, `_entry`, which declares once that every catalog
chain is a rank-one symmetric pair.  The metadata is descriptive: part3 and
scan recompute the symmetric pair with `is_symmetric_pair`.

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
    metadata: dict = dc_field(default_factory=dict)

    @property
    def base_point_A(self) -> AlgElement:
        """The designated vector A in p: the triple's base point."""
        return self.triple.base_point


def _entry(entry_id: str, params: dict, label: str, spans: tuple, a: AlgElement,
           field: FieldTag, known_result: str, **extra: Optional[str]) -> CatalogEntry:
    """The entry with triple (g, h, k) and base point A; an extra of None is left out."""
    triple = make_triple(*spans, label=label, base_point=a, field=field)
    metadata = {"symmetric_pair": True, "rank_one": True, "known_result": known_result}
    metadata.update((key, value) for key, value in extra.items() if value is not None)
    return CatalogEntry(entry_id, params, triple, metadata)


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
    a = AlgElement(field, 2, (1.0 / math.sqrt(2.0)) * (g_span[0] - g_span[3]))
    return _entry("t1s3_product", {}, "t1s3_product", (g_span, h_span, h_span[:1]), a, field,
                  "S^2 x S^3 (unit tangent bundle of S^3): quasi-positive curvature")


def t1_sphere(n: int) -> CatalogEntry:
    """T^1 S^n from so(n-1) < so(n) < so(n+1); k is the stabilizer of A."""
    if n < 2:
        raise ValueError("t1_sphere requires n >= 2")
    size = n + 1
    field = FieldTag.REAL
    g = Subspace.from_spanning(block_stack(field, size, range(size)), field)
    h = Subspace.from_spanning(block_stack(field, size, range(1, size)), field)
    a = _first_row_vector(field, size, {1: 1.0})
    return _entry("t1_sphere", {"n": n}, f"t1_sphere(n={n})",
                  (g, h, stabilizer_subalgebra(h, a, g)), a, field,
                  "T^1 S^n: quasi-positive curvature; for n even the"
                  " diagonal SO(2) subgroup acts freely and the quotient inherits it")


_PROJ_FIELDS = {
    FieldTag.REAL: "R",
    FieldTag.COMPLEX: "C",
    FieldTag.QUATERNION: "H",
}
#: a field by its value or its letter, lower-cased: "complex" or "c"
_FIELD_BY_NAME = {name: tag for tag, letter in _PROJ_FIELDS.items()
                  for name in (tag.value, letter.lower())}


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
    kind, letter = ("pt" if projective else "t1"), _PROJ_FIELDS[field]
    bundle = "projective tangent bundle over" if projective else "unit tangent bundle of"
    return _entry(f"{kind}_projective", {"field": letter, "n": n},
                  f"{kind}_projective({letter},n={n})", (g_span, h_span, k_span), a, field,
                  f"{bundle} {letter}P^{n}: quasi-positive curvature",
                  warning="n < 2 is degenerate (empty G(n-1) block)" if n < 2 else None)


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
    return _entry("m_kl", {"n": n, "k": k, "l": l}, f"m_kl(n={n},k={k},l={l})",
                  (g_span, h_span, k_span), a, field,
                  f"lens space bundle over CP^{n}: quasi-positive curvature for k != 0",
                  warning="k = 0 lies outside the certified family; verdict left to the"
                  " numerics" if k == 0 else None)


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
    return _entry("sp_example", {"n": n}, f"sp_example(n={n})", (g_span, h_span, k_span), a,
                  field, f"S^{4 * n - 1} bundle over HP^{n}: quasi-positive curvature;"
                  " free diagonal Sp(1) subgroup {z * I} gives a quasi-positively curved quotient",
                  free_subgroup="diagonal Sp(1) = {z * I}")


#: one row per catalog id: its builder, the parameters it reads with their values
#: in the `list` sample, and its description
_CATALOG: dict[str, tuple[Callable[..., CatalogEntry], dict, str]] = {
    "t1s3_product": (t1s3_product, {},
                     "unit tangent bundle of S^3 as sp(1)+sp(1) / diagonal; no parameters"),
    "t1_sphere": (t1_sphere, {"n": 3}, "T^1 S^n from so(n+1); parameter n >= 2"),
    "t1_projective": (t1_projective, {"n": 2, "field": "C"},
                      "T^1 of CP^n / HP^n; parameters field in {C, H}, n >= 1"),
    "pt_projective": (pt_projective, {"n": 2, "field": "C"},
                      "projective tangent bundles; parameters field in {R, C, H}, n >= 1"),
    "m_kl": (m_kl, {"n": 2, "k": 1, "l": 1}, "lens space bundles over CP^n; parameters"
             " n >= 2 and integers (k, l), k != 0 in the certified family"),
    "sp_example": (sp_example, {"n": 2}, "sphere bundle over HP^n from sp(n+1); parameter n >= 2"),
}


def build_entry(entry_id: str, n: Optional[int] = None, k: Optional[int] = None,
                l: Optional[int] = None, field: Optional[str] = None) -> CatalogEntry:
    """Resolve a catalog id plus parameters into a concrete entry.

    An id reads the parameters of its sample in _CATALOG.  An unknown id, a
    parameter missing ("m_kl requires --n, --k and --l") or given but not
    read, or a field not spelled real|complex|quaternion or R|C|H is a ValueError.
    """
    if entry_id not in _CATALOG:
        raise ValueError(f"unknown catalog entry: {entry_id}")
    builder, reads, _ = _CATALOG[entry_id]
    given = {name: v for name, v in (("n", n), ("k", k), ("l", l), ("field", field))
             if v is not None}
    if extra := [name for name in given if name not in reads]:
        raise ValueError(f"--{extra[0]} does not apply to --entry {entry_id}")
    if any(name not in given for name in reads):
        flags = [f"--{name}" for name in reads]
        listed = flags[0] if len(flags) == 1 else f"{', '.join(flags[:-1])} and {flags[-1]}"
        raise ValueError(f"{entry_id} requires {listed}")
    if field is not None:
        if field.lower() not in _FIELD_BY_NAME:
            raise ValueError(f"unknown field {field!r}: expected real|complex|quaternion"
                             " or R|C|H, in any case")
        given["field"] = _FIELD_BY_NAME[field.lower()]
    return builder(**given)


def list_catalog() -> list[dict]:
    """One summary record per catalog id, with a small instantiated example."""
    out = []
    for entry_id, (_, sample, description) in _CATALOG.items():
        entry = build_entry(entry_id, **sample)
        out.append(
            {
                "id": entry_id,
                "parameters": description,
                "sample": entry.triple.label,
                "dimensions": entry.triple.dims,
                "metadata": entry.metadata,
            }
        )
    return out
