"""Output oracle for the curvcert benchmark, in plain numpy.

Nothing here imports curvcert.  The subspaces k < h < g of every catalog
entry are rebuilt from their block descriptions, matrix products use a local
quaternion multiplication table over (n, n, 4) component arrays, and the
group exponential goes through the complex 2n x 2n embedding.

The checks:
- every REFUTED witness: skew-Hermitian, (Z, W) orthonormal, Z in g and
  orthogonal to k, W in p, and its residuals below the refutation limit
  (at scan points also the horizontal residual at exp(-sA));
- every part3 CERTIFIED: sigma_min of X -> [X, A] on m, recomputed;
- every exported triple: the same g, h, k and base point as the entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NC = {"real": 1, "complex": 2, "quaternion": 4}
FIELD_BY_LETTER = {"R": "real", "C": "complex", "H": "quaternion"}
EXIT_BY_VERDICT = {"CERTIFIED": 0, "REFUTED": 1, "INCONCLUSIVE": 2}

_SPAN_TOL = 1e-8
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _mult_table() -> np.ndarray:
    """T[a, b, c]: coefficient of e_c in e_a * e_b for e = (1, i, j, k)."""
    t = np.zeros((4, 4, 4))
    for a in range(4):
        t[0, a, a] = 1.0
        t[a, 0, a] = 1.0
    for a in (1, 2, 3):
        t[a, a, 0] = -1.0
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        t[a, b, c] = 1.0
        t[b, a, c] = -1.0
    return t


_TABLE = _mult_table()


def qprod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix product of quaternion component arrays (..., n, m, 4) x (..., m, p, 4)."""
    return np.einsum("...ija,...jkb,abc->...ikc", x, y, _TABLE)


def qbracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return qprod(x, y) - qprod(y, x)


def ctrans(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -3, -2) * _CONJ


def expm(x: np.ndarray) -> np.ndarray:
    """exp(X) of a skew-Hermitian component array via the complex embedding.

    X = A + B j with complex blocks A, B maps to [[A, B], [-conj(B), conj(A)]];
    i times that is Hermitian, so one eigh gives the exponential.
    """
    n = x.shape[0]
    a = x[..., 0] + 1j * x[..., 1]
    b = x[..., 2] + 1j * x[..., 3]
    emb = np.block([[a, b], [-b.conj(), a.conj()]])
    lam, vec = np.linalg.eigh(1j * emb)
    e = (vec * np.exp(-1j * lam)) @ vec.conj().T
    out = np.zeros_like(x)
    out[..., 0], out[..., 1] = e[:n, :n].real, e[:n, :n].imag
    out[..., 2], out[..., 3] = e[:n, n:].real, e[:n, n:].imag
    return out


# --- the catalog entries, rebuilt from block descriptions ---------------------


def _unit(size: int, i: int, j: int, c: int) -> np.ndarray:
    """Skew-Hermitian generator with scalar unit e_c at (i, j)."""
    m = np.zeros((size, size, 4))
    m[i, j, c] = 1.0
    if i != j:
        m[j, i, c] = -1.0 if c == 0 else 1.0
    return m


def _block(nc: int, size: int, idx) -> list[np.ndarray]:
    """Generators of the compact algebra on the index block idx."""
    idx = list(idx)
    out = [_unit(size, i, i, c) for i in idx for c in range(1, nc)]
    out += [_unit(size, i, j, c) for a, i in enumerate(idx) for j in idx[a + 1:] for c in range(nc)]
    return out


def _span(gens, dim: int) -> np.ndarray:
    """Orthonormal rows spanning the flattened generators."""
    if not gens:
        return np.zeros((0, dim))
    _, s, vt = np.linalg.svd(np.array([g.ravel() for g in gens]), full_matrices=False)
    return vt[: int(np.count_nonzero(s > 1e-10 * s[0]))]


def _minus(big: np.ndarray, small: np.ndarray) -> np.ndarray:
    """Orthonormal rows of span(big) minus span(small)."""
    reduced = big - (big @ small.T) @ small if len(small) else big
    return _span(list(reduced), big.shape[1])


def _first_row(size: int, cols) -> np.ndarray:
    """Unit element of p with equal real entries at (0, j) for j in cols."""
    m = np.zeros((size, size, 4))
    for j in cols:
        m[0, j, 0], m[j, 0, 0] = 1.0, -1.0
    return m / np.linalg.norm(m)


@dataclass(frozen=True)
class Spaces:
    """Orthonormal row bases of g, h, k, m = h - k, p = g - h, and the base point A."""

    field: str
    size: int
    g: np.ndarray
    h: np.ndarray
    k: np.ndarray
    m: np.ndarray
    p: np.ndarray
    a: np.ndarray


@lru_cache(maxsize=None)
def spaces(entry_id: str, n: int = 0, field: str = "", k: int = 0, l: int = 0) -> Spaces:
    """Subspaces of one catalog entry, built without curvcert."""
    size = n + 1
    if entry_id == "t1s3_product":
        fld, size = "quaternion", 2
        gens_g = _block(4, 2, [0]) + _block(4, 2, [1])
        gens_h = [_unit(2, 0, 0, c) + _unit(2, 1, 1, c) for c in (1, 2, 3)]
        gens_k = gens_h[:1]
        a = _unit(2, 0, 0, 1) - _unit(2, 1, 1, 1)
        a = a / np.linalg.norm(a)
    elif entry_id == "t1_sphere":
        fld = "real"
        gens_g = _block(1, size, range(size))
        gens_h = _block(1, size, range(1, size))
        gens_k = _block(1, size, range(2, size))  # stabilizer of A in h
        a = _first_row(size, [1])
    elif entry_id in ("t1_projective", "pt_projective"):
        fld = FIELD_BY_LETTER[field]
        nc = NC[fld]
        gens_g = _block(nc, size, range(size))
        gens_h = _block(nc, size, [0]) + _block(nc, size, range(1, size))
        gens_k = _block(nc, size, range(2, size))
        if entry_id == "pt_projective":
            gens_k += _block(nc, size, [0]) + _block(nc, size, [1])
        else:
            gens_k += [_unit(size, 0, 0, c) + _unit(size, 1, 1, c) for c in range(1, nc)]
        a = _first_row(size, [1])
    elif entry_id == "m_kl":
        fld = "complex"
        gens_g = _block(2, size, range(size))
        gens_h = _block(2, size, [0]) + _block(2, size, range(1, size))
        gens_k = [k * _unit(size, 0, 0, 1) + l * _unit(size, 1, 1, 1)]
        gens_k += _block(2, size, range(2, size))
        a = _first_row(size, [1, 2])
    elif entry_id == "sp_example":
        fld = "quaternion"
        gens_g = _block(4, size, range(size))
        gens_h = _block(4, size, [0]) + _block(4, size, range(1, size))
        gens_k = _block(4, size, [0]) + _block(4, size, range(2, size))
        a = _first_row(size, [1])
    else:
        raise KeyError(f"no oracle description for {entry_id}")
    dim = size * size * 4
    g, h, kk = _span(gens_g, dim), _span(gens_h, dim), _span(gens_k, dim)
    return Spaces(fld, size, g, h, kk, _minus(h, kk), _minus(g, h), a)


# --- checks ---------------------------------------------------------------------


def decode(field: str, n: int, values) -> np.ndarray:
    """Row-major component list (1, 2 or 4 scalars per entry) to an (n, n, 4) array."""
    nc = NC[field]
    arr = np.asarray(values, dtype=np.float64)
    if arr.size != n * n * nc:
        raise ValueError(f"expected {n * n * nc} scalars, got {arr.size}")
    out = np.zeros((n, n, 4))
    out[..., :nc] = arr.reshape(n, n, nc)
    return out


def _dist(v: np.ndarray, basis: np.ndarray) -> float:
    return float(np.linalg.norm(v - (v @ basis.T) @ basis)) if len(basis) else float(np.linalg.norm(v))


def _proj(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return ((x.ravel() @ basis.T) @ basis).reshape(x.shape)


def witness_problems(sp: Spaces, wit: dict, limit: float, s=None) -> list[str]:
    """Reasons the witness (Z, W) fails to exhibit a flat plane; empty when it passes.

    limit bounds |[Z, W]|^2 and, at scan point s, also
    |[(Ad_g Z)^h, (Ad_g W)^h]|^2 with g = exp(-sA).
    """
    if wit is None:
        return ["REFUTED without a witness"]
    try:
        if wit["field"] != sp.field or int(wit["n"]) != sp.size:
            return [f"witness lives in {wit['field']}({wit['n']})"]
        z = decode(sp.field, sp.size, wit["Z"])
        w = decode(sp.field, sp.size, wit["W"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed witness: {exc}"]
    bad = []
    for name, x in (("Z", z), ("W", w)):
        if np.abs(x + ctrans(x)).max() > 1e-9:
            bad.append(f"{name} is not skew-Hermitian")
    zf, wf = z.ravel(), w.ravel()
    if abs(np.linalg.norm(zf) - 1) > _SPAN_TOL or abs(np.linalg.norm(wf) - 1) > _SPAN_TOL:
        bad.append("Z or W is not a unit vector")
    if abs(float(zf @ wf)) > _SPAN_TOL:
        bad.append("Z is not orthogonal to W")
    if _dist(zf, sp.g) > _SPAN_TOL:
        bad.append("Z leaves g")
    if len(sp.k) and np.linalg.norm(sp.k @ zf) > _SPAN_TOL:
        bad.append("Z is not orthogonal to k")
    if _dist(wf, sp.p) > _SPAN_TOL:
        bad.append("W does not lie in p")
    comm = float(np.sum(qbracket(z, w) ** 2))
    if not comm <= limit:
        bad.append(f"|[Z,W]|^2 = {comm:.3e} exceeds {limit:.1e}")
    if s is not None:
        g = expm(-float(s) * sp.a)
        zh = _proj(qprod(qprod(g, z), ctrans(g)), sp.h)
        wh = _proj(qprod(qprod(g, w), ctrans(g)), sp.h)
        horiz = float(np.sum(qbracket(zh, wh) ** 2))
        if not horiz <= limit:
            bad.append(f"horizontal residual {horiz:.3e} at s={s} exceeds {limit:.1e}")
    return bad


def _derivative_problems(sp: Spaces, wit: dict, limit: float) -> list[str]:
    """The part2 objective |[Z^h, [A, W]^h]|^2 must vanish on a refuting pair."""
    z = decode(sp.field, sp.size, wit["Z"])
    w = decode(sp.field, sp.size, wit["W"])
    obj = float(np.sum(qbracket(_proj(z, sp.h), _proj(qbracket(sp.a, w), sp.h)) ** 2))
    return [] if obj <= limit else [f"derivative objective {obj:.3e} exceeds {limit:.1e}"]


def sigma_min_on_m(sp: Spaces) -> float:
    """Smallest singular value of X -> [X, A] on m."""
    m = sp.m.reshape(-1, sp.size, sp.size, 4)
    rows = qbracket(m, sp.a[None]).reshape(len(sp.m), -1)
    return float(np.linalg.svd(rows, compute_uv=False)[-1])


def triple_problems(sp: Spaces, doc: dict) -> list[str]:
    """Reasons an exported triple differs from the entry's g, h, k and base point."""
    try:
        if not str(doc["schema"]).startswith("curvcert-triple/"):
            return [f"unknown triple schema {doc['schema']!r}"]
        if doc["field"] != sp.field or int(doc["n"]) != sp.size:
            return [f"exported triple lives in {doc['field']}({doc['n']})"]
        bases = {
            key: np.array([decode(sp.field, sp.size, r).ravel() for r in doc["bases"][key]])
            for key in ("g", "h", "k")
        }
        base = decode(sp.field, sp.size, doc["base_point"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed triple: {exc}"]
    bad = []
    for key, want in (("g", sp.g), ("h", sp.h), ("k", sp.k)):
        got = bases[key].reshape(-1, want.shape[1]) if bases[key].size else np.zeros((0, want.shape[1]))
        if got.shape != want.shape or np.abs(got.T @ got - want.T @ want).max() > _SPAN_TOL:
            bad.append(f"exported {key} differs from the entry")
    if np.abs(base - sp.a).max() > 1e-12:
        bad.append("exported base point differs from A")
    return bad


def report_problems(sp: Spaces, doc: dict, method: str, expect: str, refute_tol: float,
                    tol: float) -> list[str]:
    """Reasons one report dict is wrong: verdict against the reference, witness, score."""
    try:
        verdict = doc["verdict"]
        score = float(doc["score"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc}"]
    if verdict != expect:
        where = f" at s={doc.get('s')}" if "s" in doc else ""
        return [f"verdict {verdict}{where}, reference {expect}"]
    if verdict == "REFUTED":
        if method == "part3":
            limit = (tol / 10.0) ** 2
        elif method == "part2":
            limit = 1e-10
        else:
            limit = refute_tol
        bad = witness_problems(sp, doc.get("witness"), limit, doc.get("s"))
        if method == "part2" and not bad:
            bad = _derivative_problems(sp, doc["witness"], tol * 1e-2)
        return bad
    if verdict == "CERTIFIED" and method == "part3":
        sigma = sigma_min_on_m(sp)
        if not sigma > tol:
            return [f"oracle sigma_min {sigma:.3e} does not exceed tol {tol:.1e}"]
        if not math.isclose(score, sigma, rel_tol=1e-8, abs_tol=1e-12):
            return [f"score {score!r} differs from oracle sigma_min {sigma!r}"]
    return []
