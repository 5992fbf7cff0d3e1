"""Decision procedures for the curvature conditions.

The symmetric-pair certificate is deterministic linear algebra (smallest
singular value of X -> [X, A] on m).  The fatness check, the general
derivative criterion and the per-point positivity scans are nonconvex
bilinear problems; their CERTIFIED verdicts are heuristic and every report
records the start count and seed that produced it.

The bilinear searches exploit that each residual term is linear in Z for
fixed W and vice versa: block updates are exact smallest-eigenvector steps
on the unit sphere, which keeps the whole procedure deterministic.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .algebra import AlgElement, GroupElement, adjoint, bracket, comp_bracket, from_flat, group_exp
from .flatness import FlatPairWitness
from .triple import (
    Part,
    Subspace,
    Triple,
    is_symmetric_pair,
    matrix_to_components,
    project,
)

DEFAULT_TOL = 1e-6
DEFAULT_REFUTE_TOL = 1e-12
_FEASIBLE_TOL = 1e-10
_PENALTY_SCHEDULE = (1e1, 1e3, 1e5)


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
    workers: int = 1

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


def _pair_tensor(z_elems: Sequence[AlgElement], w_elems: Sequence[AlgElement], fn) -> np.ndarray:
    """3-tensor T[i, k, :] = flat(fn(z_i, w_k)) of a bilinear vector-valued map."""
    if not z_elems or not w_elems:
        return np.zeros((len(z_elems), len(w_elems), 0))
    return np.array([[fn(z, w).flat for w in w_elems] for z in z_elems])


def _term_values(tensors, weights, z, w) -> list[float]:
    return [float(mu * np.sum(np.einsum("ikd,i,k->d", t, z, w) ** 2)) for mu, t in zip(weights, tensors)]


def _min_eig_vector(q: np.ndarray, u: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Unit minimizer of v^T q v on the sphere, orthogonal to u when given."""
    if u is not None:
        nrm = np.linalg.norm(u)
        if nrm > 1e-12:
            uu = (u / nrm)[None, :]
            _, _, vh = np.linalg.svd(uu, full_matrices=True)
            basis = vh[1:].T  # orthonormal complement of u
            if basis.shape[1] == 0:
                return None
            vals, vecs = np.linalg.eigh(basis.T @ q @ basis)
            return basis @ vecs[:, 0]
    vals, vecs = np.linalg.eigh(q)
    return vecs[:, 0]


def _alternating_min(tensors, weights, gmat, z0, w0, max_iters):
    """Exact block-coordinate descent; returns the best (value, z, w) seen."""
    z, w = z0, w0
    best_val = sum(_term_values(tensors, weights, z, w))
    best = (best_val, z, w)
    prev = best_val
    for _ in range(max_iters):
        qz = np.zeros((len(z), len(z)))
        for mu, t in zip(weights, tensors):
            a = np.einsum("ikd,k->id", t, w)
            qz += mu * (a @ a.T)
        z_new = _min_eig_vector(qz, gmat @ w if gmat is not None else None)
        if z_new is None:
            break
        z = z_new
        qw = np.zeros((len(w), len(w)))
        for mu, t in zip(weights, tensors):
            a = np.einsum("ikd,i->kd", t, z)
            qw += mu * (a @ a.T)
        w_new = _min_eig_vector(qw, gmat.T @ z if gmat is not None else None)
        if w_new is None:
            break
        w = w_new
        val = sum(_term_values(tensors, weights, z, w))
        if val < best[0]:
            best = (val, z, w)
        if abs(prev - val) < 1e-16 * max(1.0, val):
            break
        prev = val
    return best


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


def _multistart(tensors, weights, gmat, dz, dw, budget: StartBudget):
    """Run all starts; returns (sorted-best (value, index, z, w), list of final values)."""
    starts = _draw_starts(dz, dw, gmat, budget)

    def run(idx_pair):
        idx, (z0, w0) = idx_pair
        val, z, w = _alternating_min(tensors, weights, gmat, z0, w0, budget.max_iters)
        return val, idx, z, w

    if budget.workers > 1:
        with ThreadPoolExecutor(max_workers=budget.workers) as pool:
            results = list(pool.map(run, enumerate(starts)))
    else:
        results = [run(p) for p in enumerate(starts)]
    best = min(results, key=lambda r: (r[0], r[1]))
    return best, [r[0] for r in results]


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
    z_elems, w_elems = z_dom.elements(), w_dom.elements()
    tensors = [_pair_tensor(z_elems, w_elems, bracket)]
    gmat = _ortho_constraint(z_dom, w_dom)
    (val, _, z, w), finals = _multistart(tensors, [1.0], gmat, z_dom.dim, w_dom.dim, budget)
    witness = None
    if val < refute_tol:
        witness = FlatPairWitness(
            Z=from_flat(triple.field, triple.n, z @ z_dom.mat),
            W=from_flat(triple.field, triple.n, w @ w_dom.mat),
            commutator_residual=val,
        )
        verdict = Verdict.REFUTED
        notes = ("commuting pair found: bundle is not fat",)
    elif min(finals) > tol:
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
    absence of feasible pairs certifies vacuously.
    """
    z_dom, w_dom = triple.gk_basis(), triple.p_basis
    if z_dom.dim == 0 or w_dom.dim == 0:
        return CertReport(
            triple.label, Method.PART2, Verdict.CERTIFIED, float("inf"), tol,
            starts=budget.starts, seed=budget.seed,
            notes=("degenerate triple (empty search domain): vacuous",),
        )
    z_elems, w_elems = z_dom.elements(), w_dom.elements()

    def objective_map(z, w):
        return bracket(project(triple, z, Part.H), project(triple, bracket(a, w), Part.H))

    tensors = [
        _pair_tensor(z_elems, w_elems, objective_map),
        _pair_tensor(z_elems, w_elems, bracket),
    ]
    gmat = _ortho_constraint(z_dom, w_dom)
    starts = _draw_starts(z_dom.dim, w_dom.dim, gmat, budget)

    def run(idx_pair):
        idx, (z, w) = idx_pair
        for mu in _PENALTY_SCHEDULE:
            _, z, w = _alternating_min(tensors, [1.0, mu], gmat, z, w, budget.max_iters)
        obj, feas = _term_values(tensors, [1.0, 1.0], z, w)
        return obj, feas, idx, z, w

    if budget.workers > 1:
        with ThreadPoolExecutor(max_workers=budget.workers) as pool:
            results = list(pool.map(run, enumerate(starts)))
    else:
        results = [run(p) for p in enumerate(starts)]

    feasible = [r for r in results if r[1] < _FEASIBLE_TOL]
    if feasible:
        obj, feas, _, z, w = min(feasible, key=lambda r: (r[0], r[2]))
        score = obj
        if obj < tol * 1e-2:
            witness = FlatPairWitness(
                Z=from_flat(triple.field, triple.n, z @ z_dom.mat),
                W=from_flat(triple.field, triple.n, w @ w_dom.mat),
                commutator_residual=feas,
                horizontal_residual=obj,
            )
            return CertReport(
                triple.label, Method.PART2, Verdict.REFUTED, score, tol,
                witness=witness, starts=budget.starts, seed=budget.seed,
                notes=("feasible commuting pair with vanishing derivative objective",),
            )
        if all(r[0] > tol for r in feasible):
            verdict = Verdict.CERTIFIED
            notes = ("heuristic certificate: all feasible minima above tolerance",)
        else:
            verdict = Verdict.INCONCLUSIVE
            notes = ()
        return CertReport(
            triple.label, Method.PART2, verdict, score, tol,
            starts=budget.starts, seed=budget.seed, notes=notes,
        )
    score = min(r[0] for r in results)
    return CertReport(
        triple.label, Method.PART2, Verdict.CERTIFIED, score, tol,
        starts=budget.starts, seed=budget.seed,
        notes=("no commuting pairs found: condition holds vacuously (heuristic)",),
    )


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
    symmetric = is_symmetric_pair(triple, tol=1e-8)
    z_dom = triple.m_basis if symmetric else triple.gk_basis()
    w_dom = triple.p_basis
    notes: tuple[str, ...]
    if z_dom.dim == 0 or w_dom.dim == 0:
        return CertReport(
            triple.label, Method.POINT_SCAN, Verdict.CERTIFIED, float("inf"), tol,
            starts=budget.starts, seed=budget.seed, s=s,
            notes=("degenerate triple (empty search domain): vacuously positive",),
        )
    z_elems, w_elems = z_dom.elements(), w_dom.elements()

    def horizontal_map(z, w):
        azh = project(triple, adjoint(g, z), Part.H)
        awh = project(triple, adjoint(g, w), Part.H)
        return bracket(azh, awh)

    tensors = [
        _pair_tensor(z_elems, w_elems, bracket),
        _pair_tensor(z_elems, w_elems, horizontal_map),
    ]
    gmat = _ortho_constraint(z_dom, w_dom)
    (val, _, z, w), finals = _multistart(tensors, [1.0, 1.0], gmat, z_dom.dim, w_dom.dim, budget)
    if val < refute_tol:
        zel = from_flat(triple.field, triple.n, z @ z_dom.mat)
        wel = from_flat(triple.field, triple.n, w @ w_dom.mat)
        comm, horiz = _term_values(tensors, [1.0, 1.0], z, w)
        witness = FlatPairWitness(
            Z=zel, W=wel, commutator_residual=comm, horizontal_residual=horiz, point_s=s
        )
        return CertReport(
            triple.label, Method.POINT_SCAN, Verdict.REFUTED, val, tol,
            witness=witness, starts=budget.starts, seed=budget.seed, s=s,
            notes=("horizontal zero-curvature plane found at this point",),
        )
    if min(finals) > tol:
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
    """Run point_positivity at exp(-s*A) for each s, preserving order."""
    reports = []
    for s in s_values:
        g = group_exp(a, -float(s))
        reports.append(
            point_positivity(triple, g, budget=budget, tol=tol, refute_tol=refute_tol, s=float(s))
        )
    return reports
