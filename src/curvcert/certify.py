"""Decision procedures for the curvature conditions.

The symmetric-pair certificate is deterministic linear algebra (smallest
singular value of X -> [X, A] on m).  The fatness check, the general
derivative criterion and the per-point positivity scans are nonconvex
bilinear problems; their CERTIFIED verdicts are heuristic and every report
records the start count and seed that produced it.

The bilinear searches exploit that each residual term is linear in Z for
fixed W and vice versa: block updates are exact smallest-eigenvector steps
on the unit sphere, which keeps the whole procedure deterministic.  All
starts of a search descend in lockstep, with batched eigensolves.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    AlgElement,
    GroupElement,
    adjoint,
    bracket,
    comp_adjoint,
    comp_bracket,
    from_flat,
    full_basis,
    group_exp,
    require_same,
)
from .flatness import FlatPairWitness
from .triple import (
    Part,
    Subspace,
    Triple,
    is_symmetric_pair,
    matrix_to_components,
    project,
    project_comps,
)

DEFAULT_TOL = 1e-6
DEFAULT_REFUTE_TOL = 1e-12
_FEASIBLE_TOL = 1e-10
_PENALTY_SCHEDULE = (1e1, 1e3, 1e5)
# Starts descend together in blocks whose stacked per-start arrays (the
# contracted tensors and the quadratic forms) hold about this many floats
# each, so memory stays bounded as the algebra grows.
_BLOCK_FLOATS = 1 << 15


class Verdict(Enum):
    CERTIFIED = "CERTIFIED"
    REFUTED = "REFUTED"
    INCONCLUSIVE = "INCONCLUSIVE"


class Method(Enum):
    FAT = "FAT"
    PART2 = "PART2"
    PART3 = "PART3"
    POINT_SCAN = "POINT_SCAN"


@dataclass(frozen=True)
class StartBudget:
    """Multi-start budget for the nonconvex searches."""

    starts: int = 64
    seed: int = 0
    max_iters: int = 200

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")


@dataclass(frozen=True)
class CertReport:
    triple_label: str
    method: Method
    verdict: Verdict
    score: float
    tolerance: float
    witness: Optional[FlatPairWitness] = None
    starts: int = 0
    seed: int = 0
    s: Optional[float] = None
    notes: tuple[str, ...] = field(default_factory=tuple)


def report_to_dict(report: CertReport) -> dict:
    doc = {
        "schema": "curvcert-report/1",
        "triple": report.triple_label,
        "method": report.method.value,
        "verdict": report.verdict.value,
        "score": report.score,
        "tolerance": report.tolerance,
        "witness": _witness_to_dict(report.witness),
        "starts": report.starts,
        "seed": report.seed,
        "notes": list(report.notes),
    }
    if report.s is not None:
        doc["s"] = report.s
    return doc


def _witness_to_dict(w: Optional[FlatPairWitness]) -> Optional[dict]:
    if w is None:
        return None
    return {
        "field": w.Z.field.value,
        "n": w.Z.n,
        "Z": matrix_to_components(w.Z),
        "W": matrix_to_components(w.W),
        "commutator_residual": w.commutator_residual,
        "horizontal_residual": w.horizontal_residual,
        "point_s": w.point_s,
    }


def report_to_json(report: CertReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


# --- deterministic part-3 certificate ----------------------------------------


def _ad_matrix_on_m(triple: Triple, a: AlgElement) -> np.ndarray:
    """Rows: [m_i, A] flattened; coefficients of unit m-vectors map through it."""
    require_same(triple, a)
    m = triple.m_basis
    return comp_bracket(m.comps(), a.comp).reshape(m.dim, -1)


def min_ad_singular(triple: Triple, a: AlgElement) -> float:
    """Smallest singular value of X -> [X, A] restricted to m.

    A strictly positive value deterministically certifies that no non-zero
    vector of m commutes with A.  Returns +inf (with a warning) when m is
    trivial.
    """
    if triple.m_basis.dim == 0:
        warnings.warn("dim m = 0: vacuous commutation condition, returning +inf")
        return float("inf")
    s = np.linalg.svd(_ad_matrix_on_m(triple, a), compute_uv=False)
    return float(s[-1])


def certify_part3(triple: Triple, a: AlgElement, tol: float = DEFAULT_TOL) -> CertReport:
    """Certificate for the symmetric-pair commutation criterion.

    CERTIFIED requires a symmetric pair, A in p, and sigma_min > tol.  A near
    kernel vector (sigma_min < tol/10) refutes the hypothesis with a witness.
    The rank-one property of (G, H) comes from catalog metadata, not from a
    computation; reports carry a note saying so.
    """
    notes = ["rank-one property taken from catalog metadata, not verified"]
    symmetric = is_symmetric_pair(triple, tol=1e-8)
    a_in_p = triple.p_basis.contains(a, tol=max(tol, 1e-8))
    if not symmetric:
        notes.append("precondition failed: (g, h) is not a symmetric pair")
    if not a_in_p:
        notes.append("precondition failed: A does not lie in p")
    if triple.m_basis.dim == 0:
        notes.append("dim m = 0: condition holds vacuously")
        sigma_min = float("inf")
    else:
        u, s, _ = np.linalg.svd(_ad_matrix_on_m(triple, a))
        sigma_min = float(s[-1])
    if not (symmetric and a_in_p):
        verdict = Verdict.INCONCLUSIVE
        witness = None
    elif sigma_min > tol:
        verdict = Verdict.CERTIFIED
        witness = None
    elif sigma_min < tol / 10.0:
        x = from_flat(triple.field, triple.n, u[:, -1] @ triple.m_basis.mat)
        witness = FlatPairWitness(
            Z=x,
            W=(1.0 / max(a.norm(), 1e-300)) * a,
            commutator_residual=sigma_min**2,
        )
        verdict = Verdict.REFUTED
        notes.append("near-kernel vector of X -> [X, A] attached as witness")
    else:
        verdict = Verdict.INCONCLUSIVE
        witness = None
    return CertReport(
        triple.label, Method.PART3, verdict, sigma_min, tol, witness=witness, notes=tuple(notes)
    )


# --- bilinear multi-start searches --------------------------------------------


def _bracket_tensor(z_comps: np.ndarray, w_comps: np.ndarray) -> np.ndarray:
    """T[i, k, :] = flat [z_i, w_k] for component stacks (dz, n, n, 4) and (dw, n, n, 4)."""
    return comp_bracket(z_comps[:, None], w_comps[None, :]).reshape(len(z_comps), len(w_comps), -1)


def _objective(triple: Triple, tensors, weights) -> np.ndarray:
    """One pair tensor whose |T(z, w)|^2 is the weighted sum of the terms' |T_j(z, w)|^2.

    The terms' values are skew-Hermitian, so the result holds their
    orthonormal coordinates: dim so(n), u(n) or sp(n) numbers per pair
    instead of n*n*4 components.
    """
    rows = np.array([e.flat for e in full_basis(triple.field, triple.n)])
    coords = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).T
    return np.concatenate([np.sqrt(mu) * (t @ coords) for mu, t in zip(weights, tensors)], axis=2)


def _pair_values(t: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|T(z_s, w_s)|^2 for each row pair of z (S, dz) and w (S, dw)."""
    dz, dw, d = t.shape
    a = (z @ t.reshape(dz, dw * d)).reshape(len(z), dw, d)
    v = np.einsum("sk,skd->sd", w, a)
    return np.sum(v * v, axis=1)


def _min_eig_vectors(q: np.ndarray, u: Optional[np.ndarray]):
    """Unit minimizers of v^T q_s v on the sphere, orthogonal to u_s when u_s != 0.

    q is an (S, d, d) stack of quadratic forms, u an (S, d) stack or None.
    Returns the minimizers (S, d) and a mask (S,) that is False where the
    complement of u_s is empty (those rows of the minimizers are unset).
    """
    vecs = np.empty(q.shape[:2])
    ok = np.ones(len(q), dtype=bool)
    nrm = np.zeros(len(q)) if u is None else np.linalg.norm(u, axis=1)
    free = nrm <= 1e-12
    if free.any():
        f = _rows(free)
        vecs[f] = np.linalg.eigh(q[f])[1][:, :, 0]
    if not free.all():
        c = _rows(~free)
        _, _, vh = np.linalg.svd((u[c] / nrm[c, None])[:, None, :], full_matrices=True)
        basis = vh[:, 1:].swapaxes(1, 2)  # orthonormal complements of the u_s
        if basis.shape[2] == 0:
            ok[c] = False
        else:
            sub = np.linalg.eigh(basis.swapaxes(1, 2) @ q[c] @ basis)[1][:, :, :1]
            vecs[c] = (basis @ sub)[:, :, 0]
    return vecs, ok


def _rows(mask: np.ndarray):
    """Index of the rows where mask holds: a slice when it holds for all, which copies nothing."""
    return slice(None) if mask.all() else mask


def _gram(a: np.ndarray) -> np.ndarray:
    """The quadratic forms a_s a_s^T of an (S, d, D) stack."""
    return a @ a.swapaxes(1, 2)


def _descend(t: np.ndarray, gmat, z0: np.ndarray, w0: np.ndarray, max_iters: int):
    """Exact block-coordinate descent on |T(z, w)|^2 from every start.

    z0 (S, dz) and w0 (S, dw) hold one start per row.  Each start takes the
    iteration a lone descent would: an exact smallest-eigenvector step in z
    (orthogonal to gmat w), then one in w (orthogonal to gmat^T z), keeping
    the best value seen, until its value settles to 1e-16 relative or an
    orthogonal complement is empty.  The starts run in lockstep, in blocks
    sized by _BLOCK_FLOATS.  Returns the best values (S,) and the rows of z
    and w that reached them.
    """
    dz, dw, d = t.shape
    size = max(1, _BLOCK_FLOATS // (max(dz, dw) * max(dz, dw, d)))
    blocks = [_lockstep(t, gmat, z0[i:i + size], w0[i:i + size], max_iters)
              for i in range(0, len(z0), size)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _lockstep(t: np.ndarray, gmat, z0: np.ndarray, w0: np.ndarray, max_iters: int):
    """`_descend` for one block of starts, all iterated together; a start leaves when it stops."""
    dz, dw, d = t.shape
    t_z = t.transpose(1, 0, 2).reshape(dw, dz * d)  # contracts with w
    t_w = t.reshape(dz, dw * d)  # contracts with z
    w = w0.copy()
    best, best_z, best_w = _pair_values(t, z0, w0), z0.copy(), w0.copy()
    prev = best.copy()
    act = np.arange(len(z0))
    for _ in range(max_iters):
        if not act.size:
            break
        wa = w[act]
        z, ok = _min_eig_vectors(_gram((wa @ t_z).reshape(len(act), dz, d)),
                                 None if gmat is None else wa @ gmat.T)
        k = _rows(ok)
        act, z = act[k], z[k]
        a = (z @ t_w).reshape(len(act), dw, d)
        w_new, ok = _min_eig_vectors(_gram(a), None if gmat is None else z @ gmat)
        k = _rows(ok)
        act, z, a, w_new = act[k], z[k], a[k], w_new[k]
        w[act] = w_new
        v = np.einsum("sk,skd->sd", w_new, a)
        val = np.sum(v * v, axis=1)
        better = val < best[act]
        won = act[better]
        best[won], best_z[won], best_w[won] = val[better], z[better], w_new[better]
        settled = np.abs(prev[act] - val) < 1e-16 * np.maximum(1.0, val)
        prev[act] = val
        act = act[~settled]
    return best, best_z, best_w


def _draw_starts(dz: int, dw: int, gmat, budget: StartBudget):
    rng = np.random.default_rng(budget.seed)
    starts = []
    for _ in range(budget.starts):
        w = rng.standard_normal(dw)
        w /= np.linalg.norm(w)
        z = rng.standard_normal(dz)
        if gmat is not None:
            u = gmat @ w
            nrm = np.linalg.norm(u)
            if nrm > 1e-12:
                u = u / nrm
                z = z - np.dot(z, u) * u
        z /= np.linalg.norm(z)
        starts.append((z, w))
    return starts


def _starts(z_dom: Subspace, w_dom: Subspace, gmat, budget: StartBudget):
    """The drawn starts as row stacks z0 (S, dz) and w0 (S, dw)."""
    starts = _draw_starts(z_dom.dim, w_dom.dim, gmat, budget)
    return np.array([z for z, _ in starts]), np.array([w for _, w in starts])


def _best_start(t: np.ndarray, z_dom: Subspace, w_dom: Subspace, budget: StartBudget):
    """Descend from every drawn start; returns the best (value, z, w) over all starts."""
    gmat = _ortho_constraint(z_dom, w_dom)
    vals, zs, ws = _descend(t, gmat, *_starts(z_dom, w_dom, gmat, budget), budget.max_iters)
    i = int(np.argmin(vals))  # ties resolve to the lowest start index
    return float(vals[i]), zs[i], ws[i]


def _ortho_constraint(z_dom: Subspace, w_dom: Subspace) -> Optional[np.ndarray]:
    gmat = z_dom.mat @ w_dom.mat.T
    return gmat if np.abs(gmat).max() > 1e-12 else None


def check_fatness(
    triple: Triple, budget: StartBudget = StartBudget(), tol: float = DEFAULT_TOL,
    refute_tol: float = DEFAULT_REFUTE_TOL,
) -> CertReport:
    """Search for commuting orthonormal pairs Z orthogonal to k, W in p.

    A pair with |[Z, W]|^2 below the refutation tolerance refutes fatness;
    all starts bottoming out above tol yields a heuristic CERTIFIED.
    """
    z_dom, w_dom = triple.gk_basis(), triple.p_basis
    if z_dom.dim == 0 or w_dom.dim == 0:
        return CertReport(
            triple.label, Method.FAT, Verdict.CERTIFIED, float("inf"), tol,
            starts=budget.starts, seed=budget.seed,
            notes=("degenerate triple (empty search domain): vacuously fat",),
        )
    t = _objective(triple, [_bracket_tensor(z_dom.comps(), w_dom.comps())], [1.0])
    val, z, w = _best_start(t, z_dom, w_dom, budget)
    witness = None
    if val < refute_tol:
        witness = FlatPairWitness(
            Z=from_flat(triple.field, triple.n, z @ z_dom.mat),
            W=from_flat(triple.field, triple.n, w @ w_dom.mat),
            commutator_residual=val,
        )
        verdict = Verdict.REFUTED
        notes = ("commuting pair found: bundle is not fat",)
    elif val > tol:
        verdict = Verdict.CERTIFIED
        notes = ("heuristic certificate: all starts stayed above tolerance",)
    else:
        verdict = Verdict.INCONCLUSIVE
        notes = ()
    return CertReport(
        triple.label, Method.FAT, verdict, val, tol,
        witness=witness, starts=budget.starts, seed=budget.seed, notes=notes,
    )


def certify_part2(
    triple: Triple, a: AlgElement, budget: StartBudget = StartBudget(),
    tol: float = DEFAULT_TOL,
) -> CertReport:
    """Penalty-continuation search for the derivative criterion.

    Minimizes |[Z^h, [A, W]^h]|^2 subject to [Z, W] = 0 via mu-continuation
    over the penalized objective, multi-start.  Feasible minima below
    tol * 1e-2 refute; all feasible minima above tol certify (heuristically);
    absence of feasible pairs certifies vacuously.  Like part3, any verdict
    is INCONCLUSIVE unless A lies in p.
    """
    verdict, score, witness, notes = _part2_search(triple, a, budget, tol)
    if not triple.p_basis.contains(a, tol=max(tol, 1e-8)):
        verdict, witness = Verdict.INCONCLUSIVE, None
        notes = ("precondition failed: A does not lie in p",)
    return CertReport(
        triple.label, Method.PART2, verdict, score, tol,
        witness=witness, starts=budget.starts, seed=budget.seed, notes=notes,
    )


def _part2_search(triple: Triple, a: AlgElement, budget: StartBudget, tol: float):
    """(verdict, score, witness, notes) of the derivative criterion's search."""
    z_dom, w_dom = triple.gk_basis(), triple.p_basis
    if z_dom.dim == 0 or w_dom.dim == 0:
        notes = ("degenerate triple (empty search domain): vacuous",)
        return Verdict.CERTIFIED, float("inf"), None, notes
    require_same(triple, a)
    z_comps, w_comps = z_dom.comps(), w_dom.comps()
    objective = _bracket_tensor(
        project_comps(triple, z_comps, Part.H),
        project_comps(triple, comp_bracket(a.comp, w_comps), Part.H),
    )
    commutator = _bracket_tensor(z_comps, w_comps)
    gmat = _ortho_constraint(z_dom, w_dom)
    z, w = _starts(z_dom, w_dom, gmat, budget)
    for mu in _PENALTY_SCHEDULE:
        t = _objective(triple, [objective, commutator], [1.0, mu])
        _, z, w = _descend(t, gmat, z, w, budget.max_iters)
    obj, feas = _pair_values(objective, z, w), _pair_values(commutator, z, w)

    feasible = np.flatnonzero(feas < _FEASIBLE_TOL)
    if not feasible.size:
        notes = ("no commuting pairs found: condition holds vacuously (heuristic)",)
        return Verdict.CERTIFIED, float(obj.min()), None, notes
    i = feasible[np.argmin(obj[feasible])]  # ties resolve to the lowest start index
    score = float(obj[i])
    if score < tol * 1e-2:
        witness = FlatPairWitness(
            Z=from_flat(triple.field, triple.n, z[i] @ z_dom.mat),
            W=from_flat(triple.field, triple.n, w[i] @ w_dom.mat),
            commutator_residual=float(feas[i]),
            horizontal_residual=score,
        )
        notes = ("feasible commuting pair with vanishing derivative objective",)
        return Verdict.REFUTED, score, witness, notes
    if score > tol:
        notes = ("heuristic certificate: all feasible minima above tolerance",)
        return Verdict.CERTIFIED, score, None, notes
    return Verdict.INCONCLUSIVE, score, None, ()


# --- derivative test along exp(-sA) -------------------------------------------


def _check_scan_pair(triple: Triple, z: AlgElement, w: AlgElement) -> None:
    tol = 1e-8
    from .algebra import inner as _inner

    if abs(z.norm() - 1.0) > tol or abs(w.norm() - 1.0) > tol or abs(_inner(z, w)) > tol:
        raise ValueError("pair (Z, W) is not orthonormal")
    if np.linalg.norm(triple.k_basis.project_flat(z.flat)) > tol:
        raise ValueError("Z is not orthogonal to k")
    if not triple.p_basis.contains(w, tol):
        raise ValueError("W does not lie in p")


def f_of_s(
    triple: Triple, z: AlgElement, w: AlgElement, a: AlgElement, s: float,
    check_commuting: bool = False,
) -> float:
    """|[(Ad_{exp(sA)} Z)^h, (Ad_{exp(sA)} W)^h]|^2.

    Vanishes at s = 0 because W in p has no h-part.  The commuting requirement
    [Z, W] = 0 matters for the flat-plane interpretation, not for evaluating
    the function, so it is checked only on request.
    """
    _check_scan_pair(triple, z, w)
    if check_commuting and bracket(z, w).norm() > 1e-10:
        raise ValueError("[Z, W] != 0 beyond tolerance 1e-10")
    g = group_exp(a, s)
    azh = project(triple, adjoint(g, z), Part.H)
    awh = project(triple, adjoint(g, w), Part.H)
    return bracket(azh, awh).norm() ** 2


def derivative_test(
    triple: Triple, z: AlgElement, w: AlgElement, a: AlgElement, step: float = 1e-3
) -> tuple[float, float]:
    """Compare the closed form of f''(0)/2 against finite differences.

    Returns (analytic, numeric): analytic = |[Z^h, [A, W]^h]|^2, numeric is a
    Richardson-extrapolated second central difference of f at 0, halved.
    Disagreement beyond 1e-3 relative triggers a warning.
    """
    zh = project(triple, z, Part.H)
    awh = project(triple, bracket(a, w), Part.H)
    analytic = bracket(zh, awh).norm() ** 2
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


# --- per-point positivity ------------------------------------------------------


def point_positivity(
    triple: Triple, g: GroupElement, budget: StartBudget = StartBudget(),
    tol: float = DEFAULT_TOL, refute_tol: float = DEFAULT_REFUTE_TOL,
    s: Optional[float] = None,
) -> CertReport:
    """Search for horizontal zero-curvature planes at the point reached by g.

    Minimizes |[Z, W]|^2 + |[(Ad_g Z)^h, (Ad_g W)^h]|^2 over admissible
    orthonormal pairs; for symmetric pairs the Z-domain shrinks to m.
    """
    return _point_search(triple, _scan_z_domain(triple), g, budget, tol, refute_tol, s)


def _scan_z_domain(triple: Triple) -> Subspace:
    """Z-domain of the point searches: m for symmetric pairs, g minus k otherwise."""
    return triple.m_basis if is_symmetric_pair(triple, tol=1e-8) else triple.gk_basis()


def _point_search(
    triple: Triple, z_dom: Subspace, g: GroupElement, budget: StartBudget,
    tol: float, refute_tol: float, s: Optional[float],
) -> CertReport:
    w_dom = triple.p_basis
    notes: tuple[str, ...]
    if z_dom.dim == 0 or w_dom.dim == 0:
        return CertReport(
            triple.label, Method.POINT_SCAN, Verdict.CERTIFIED, float("inf"), tol,
            starts=budget.starts, seed=budget.seed, s=s,
            notes=("degenerate triple (empty search domain): vacuously positive",),
        )
    require_same(triple, g)
    z_comps, w_comps = z_dom.comps(), w_dom.comps()
    commutator = _bracket_tensor(z_comps, w_comps)
    horizontal = _bracket_tensor(
        project_comps(triple, comp_adjoint(g.comp, z_comps), Part.H),
        project_comps(triple, comp_adjoint(g.comp, w_comps), Part.H),
    )
    t = _objective(triple, [commutator, horizontal], [1.0, 1.0])
    val, z, w = _best_start(t, z_dom, w_dom, budget)
    if val < refute_tol:
        zel = from_flat(triple.field, triple.n, z @ z_dom.mat)
        wel = from_flat(triple.field, triple.n, w @ w_dom.mat)
        comm, horiz = (float(_pair_values(t, z[None], w[None])[0])
                       for t in (commutator, horizontal))
        witness = FlatPairWitness(
            Z=zel, W=wel, commutator_residual=comm, horizontal_residual=horiz, point_s=s
        )
        return CertReport(
            triple.label, Method.POINT_SCAN, Verdict.REFUTED, val, tol,
            witness=witness, starts=budget.starts, seed=budget.seed, s=s,
            notes=("horizontal zero-curvature plane found at this point",),
        )
    if val > tol:
        verdict = Verdict.CERTIFIED
        notes = ("heuristic certificate: all starts stayed above tolerance",)
    else:
        verdict = Verdict.INCONCLUSIVE
        notes = ()
    return CertReport(
        triple.label, Method.POINT_SCAN, verdict, val, tol,
        starts=budget.starts, seed=budget.seed, s=s, notes=notes,
    )


def scan_along_A(
    triple: Triple, a: AlgElement, s_values: Sequence[float],
    budget: StartBudget = StartBudget(), tol: float = DEFAULT_TOL,
    refute_tol: float = DEFAULT_REFUTE_TOL,
) -> list[CertReport]:
    """Run the point search at exp(-s*A) for each s, preserving order.

    The reports equal point_positivity's at each point; the Z-domain is
    chosen once for the whole scan.
    """
    z_dom = _scan_z_domain(triple)
    return [
        _point_search(triple, z_dom, group_exp(a, -float(s)), budget, tol, refute_tol, float(s))
        for s in s_values
    ]
