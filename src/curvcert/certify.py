"""Decision procedures for the curvature conditions.

The symmetric-pair certificate is deterministic linear algebra (smallest
singular value of X -> [X, A] on m).  The fatness check, the general
derivative criterion and the per-point positivity scans are nonconvex
bilinear problems; their CERTIFIED verdicts are heuristic and every report
records the start count and seed that produced it.

The bilinear searches exploit that each residual term is linear in Z for
fixed W and vice versa.  Every start takes two exact smallest-eigenvector
sweeps (one in Z, then one in W), then Levenberg-Marquardt steps on the
joint residual, which converge where the sweeps alone stall in the
non-isolated minima.  All starts of a search descend in lockstep, with
batched eigensolves and linear solves; the procedure is deterministic.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    N_COMPONENTS,
    AlgElement,
    GroupElement,
    block_stack,
    bracket,
    comp_adjoint,
    from_flat,
    group_exp,
    pair_brackets,
    require_same,
)
from .flatness import FlatPairWitness, horizontal_flat_residual
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
# Starts descend together in blocks whose stacked Jacobians hold about this
# many floats each, so memory stays bounded as the algebra grows.
_BLOCK_FLOATS = 1 << 15
# Exact alternating sweeps that warm-start the Levenberg-Marquardt phase, and
# that phase's first damping relative to tr H / n.
_ALS_SWEEPS = 2
_DAMP_START = 1e-3
# Status of a start at the end of `_descend`.
CONVERGED, CAPPED, NO_COMPLEMENT = 0, 1, 2


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
    max_iters: int = 200  # Levenberg-Marquardt steps tried per start

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
    """The report as a JSON document; a score that is not finite is written as null."""
    doc = {
        "schema": "curvcert-report/2",
        "triple": report.triple_label,
        "method": report.method.value,
        "verdict": report.verdict.value,
        "score": report.score if math.isfinite(report.score) else None,
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
    return json.dumps(report_to_dict(report), indent=2, allow_nan=False)


# --- deterministic part-3 certificate ----------------------------------------


def _a_not_in_p(triple: Triple, a: AlgElement, tol: float) -> tuple[str, ...]:
    """The note of part2, part3 and the scans when their precondition, A in p, fails; else ()."""
    if triple.p_basis.contains(a, tol=max(tol, 1e-8)):
        return ()
    return ("precondition failed: A does not lie in p",)


def min_ad_singular(triple: Triple, a: AlgElement) -> float:
    """Smallest singular value of X -> [X, A] restricted to m.

    A strictly positive value deterministically certifies that no non-zero
    vector of m commutes with A.  Returns +inf (with a warning) when m is
    trivial.
    """
    if triple.m_basis.dim == 0:
        warnings.warn("dim m = 0: vacuous commutation condition, returning +inf")
        return float("inf")
    s = np.linalg.svd(triple.m_basis.brackets_with(a), compute_uv=False)
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
    a_not_in_p = _a_not_in_p(triple, a, tol)
    if not symmetric:
        notes.append("precondition failed: (g, h) is not a symmetric pair")
    notes.extend(a_not_in_p)
    if triple.m_basis.dim == 0:
        notes.append("dim m = 0: condition holds vacuously")
        sigma_min = float("inf")
    else:
        u, s, _ = np.linalg.svd(triple.m_basis.brackets_with(a), full_matrices=False)
        sigma_min = float(s[-1])
    if not symmetric or a_not_in_p:
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


@functools.lru_cache(maxsize=None)  # one entry per algebra a process searches in
def _coordinate_matrix(field, n: int) -> np.ndarray:
    """(n*n*nc, dim) map from active components to orthonormal coordinates of so(n), u(n), sp(n).

    Read-only, since every caller shares the cached array.
    """
    coords = Subspace.from_spanning(block_stack(field, n, range(n)), field).active().T
    coords.flags.writeable = False
    return coords


def _bracket_coordinates(triple: Triple, z_comps: np.ndarray, w_comps: np.ndarray) -> np.ndarray:
    """T[i, k, :] = [z_i, w_k] in orthonormal coordinates, for skew-Hermitian stacks z and w.

    Same |T(z, w)|^2 as the components, dim so(n), u(n) or sp(n) numbers per pair.
    """
    t = pair_brackets(triple.field, z_comps, w_comps).reshape(len(z_comps), len(w_comps), -1)
    return t @ _coordinate_matrix(triple.field, triple.n)


def _weighted(terms, weights) -> np.ndarray:
    """One pair tensor whose |T(z, w)|^2 is the weighted sum of the terms' |T_j(z, w)|^2."""
    return np.concatenate([np.sqrt(mu) * t for mu, t in zip(weights, terms)], axis=2)


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
    """Minimize |T(z, w)|^2 over unit z, w with z^T gmat w = 0, from every start.

    z0 (S, dz) and w0 (S, dw) hold one start per row.  Each start takes
    _ALS_SWEEPS exact smallest-eigenvector sweeps (z orthogonal to gmat w,
    then w orthogonal to gmat^T z) and then Levenberg-Marquardt steps until
    one of the stop rules of `_levenberg_marquardt` holds or max_iters steps
    were tried.  The starts run in lockstep, in blocks sized by
    _BLOCK_FLOATS.  Returns the final values (S,), the rows of z and w that
    reached them, and each start's status (S,): CONVERGED, CAPPED (hit
    max_iters) or NO_COMPLEMENT (a sweep found an empty orthogonal
    complement; the start is returned as the last full sweep left it).
    """
    dz, dw, d = t.shape
    n = dz + dw
    size = max(1, _BLOCK_FLOATS // (d * n))  # floats of one start's Jacobian
    blocks = []
    for i in range(0, len(z0), size):
        z, w, alive = _sweeps(t, gmat, z0[i:i + size], w0[i:i + size])
        blocks.append(_levenberg_marquardt(t, gmat, z, w, alive, max_iters))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _sweeps(t: np.ndarray, gmat, z0: np.ndarray, w0: np.ndarray):
    """_ALS_SWEEPS exact block steps from each start of a block, in lockstep.

    Returns z, w and a mask of the starts whose orthogonal complements never
    ran empty; a start leaves at its first empty complement.
    """
    dz, dw, d = t.shape
    t_z = t.transpose(1, 0, 2).reshape(dw, dz * d)  # contracts with w
    t_w = t.reshape(dz, dw * d)  # contracts with z
    z, w = z0.copy(), w0.copy()
    act = np.arange(len(z0))
    for _ in range(_ALS_SWEEPS):
        wa = w[act]
        zn, ok = _min_eig_vectors(_gram((wa @ t_z).reshape(len(act), dz, d)),
                                  None if gmat is None else wa @ gmat.T)
        k = _rows(ok)
        act, zn = act[k], zn[k]
        wn, ok = _min_eig_vectors(_gram((zn @ t_w).reshape(len(act), dw, d)),
                                  None if gmat is None else zn @ gmat)
        k = _rows(ok)
        act = act[k]
        z[act], w[act] = zn[k], wn[k]
    alive = np.zeros(len(z0), dtype=bool)
    alive[act] = True
    return z, w, alive


def _levenberg_marquardt(t: np.ndarray, gmat, z: np.ndarray, w: np.ndarray,
                         alive: np.ndarray, max_iters: int):
    """Damped Gauss-Newton steps on r(z, w) = sum_ik z_i w_k T[i, k, :] for the live starts.

    Steps lie in the tangent space of {|z| = |w| = 1, z^T gmat w = 0}; after
    a step w is normalized, z is made orthogonal to gmat w and normalized.
    Only decreasing steps are accepted; the damping, relative to tr H / n
    (H the Gram matrix of the tangent Jacobian, n = dz + dw), goes x1/3 on
    an accepted step (down to 1e-12) and x4 on a rejected one.  A start stops
    at the rounding floor (16 eps)^2 |T|^2 of the residual, when stationary
    (|P J^T r|^2 <= 1e-20 (tr H / n) f), after an accepted step that lowered
    f by at most 1e-12 relative, or when the damping exceeds 1e12.  Updates
    z and w in place; returns the values, z, w and the status of each start.
    """
    dz, dw, d = t.shape
    n = dz + dw
    t_z = t.transpose(1, 0, 2).reshape(dw, dz * d)
    t_w = t.reshape(dz, dw * d)
    val = _pair_values(t, z, w)
    floor = (16 * np.finfo(float).eps) ** 2 * np.sum(t * t)
    done = alive & (val <= floor)
    status = np.where(alive, CAPPED, NO_COMPLEMENT)
    status[done] = CONVERGED
    damp = np.full(len(z), _DAMP_START)
    act = np.flatnonzero(alive & ~done)
    diag = np.arange(n)
    for _ in range(max_iters):
        if not act.size:
            break
        za, wa, f = z[act], w[act], val[act]
        jw = (za @ t_w).reshape(len(act), dw, d)
        jac = np.concatenate([(wa @ t_z).reshape(len(act), dz, d), jw], axis=1)
        r = np.einsum("sk,skd->sd", wa, jw)
        normals = _normals(za, wa, gmat)
        jac -= normals.swapaxes(1, 2) @ (normals @ jac)  # the tangent Jacobian, rows P dr/dx
        grad = (jac @ r[..., None])[..., 0]
        scale = np.einsum("sid,sid->s", jac, jac) / n  # tr H / n
        stationary = np.sum(grad * grad, axis=1) <= 1e-20 * scale * f
        # The normal directions get eigenvalue `scale`, so the system stays
        # well conditioned and its solution stays tangent.
        lhs = normals.swapaxes(1, 2) @ normals
        lhs *= scale[:, None, None]
        lhs += _gram(jac)
        lhs[:, diag, diag] += damp[act, None] * scale[:, None]
        lhs[stationary] = np.eye(n)  # these stop below; keeps the batched solve regular
        step = np.linalg.solve(lhs, -grad[..., None])[..., 0]
        zc, wc = _retract(za + step[:, :dz], wa + step[:, dz:], gmat)
        fc = _pair_values(t, zc, wc)
        acc = (fc < f) & ~stationary
        won = act[acc]
        z[won], w[won], val[won] = zc[acc], wc[acc], fc[acc]
        damp[won] = np.maximum(damp[won] / 3.0, 1e-12)
        damp[act[~acc]] *= 4.0
        stop = (stationary | (acc & ((f - fc <= 1e-12 * f) | (fc <= floor)))
                | (damp[act] > 1e12))
        status[act[stop]] = CONVERGED
        act = act[~stop]
    return val, z, w, status


def _normals(z: np.ndarray, w: np.ndarray, gmat) -> np.ndarray:
    """Unit normals (S, 3, dz + dw) of the constraint set {|z| = |w| = 1, z^T gmat w = 0}.

    They are (z, 0), (0, w) and (gmat w, gmat^T z) normalized, orthogonal
    where z^T gmat w = 0; the last is zero where it vanishes or gmat is None.
    """
    dz = z.shape[1]
    normals = np.zeros((len(z), 3, dz + w.shape[1]))
    normals[:, 0, :dz], normals[:, 1, dz:] = z, w
    if gmat is not None:
        normals[:, 2] = _unit_rows(np.concatenate([w @ gmat.T, z @ gmat], axis=1))
    return normals


def _retract(z: np.ndarray, w: np.ndarray, gmat):
    """Back onto the constraint set: normalize w, remove from z its part along gmat w, normalize z."""
    w = w / np.linalg.norm(w, axis=1, keepdims=True)
    if gmat is not None:
        u = _unit_rows(w @ gmat.T)
        z = z - np.sum(z * u, axis=1, keepdims=True) * u
    return z / np.linalg.norm(z, axis=1, keepdims=True), w


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """The rows of x scaled to unit length; rows of length at most 1e-12 become zero."""
    nrm = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(x, nrm, out=np.zeros_like(x), where=nrm > 1e-12)


def _starts(z_dom: Subspace, w_dom: Subspace, gmat, budget: StartBudget):
    """Unit starts as row stacks z0 (S, dz) and w0 (S, dw), each z orthogonal to gmat w.

    Drawn one start at a time, w before z, from the budget's seed.
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


def _convergence_note(status: np.ndarray) -> str:
    """How many starts of a search converged and how many stopped at max_iters."""
    converged, capped = int(np.sum(status == CONVERGED)), int(np.sum(status == CAPPED))
    return f"{converged} of {len(status)} starts converged; {capped} hit max_iters"


def _ortho_constraint(z_dom: Subspace, w_dom: Subspace) -> Optional[np.ndarray]:
    gmat = z_dom.mat @ w_dom.mat.T
    return gmat if np.abs(gmat).max() > 1e-12 else None


def _search_terms(triple: Triple, z_dom: Subspace, budget: StartBudget):
    """The parts of a search over Z in z_dom, W in p that do not depend on the objective.

    Returns the component stacks of the Z- and W-domains, the commutator
    tensor [z_i, w_k] in coordinates, the orthogonality constraint and the
    starts; None when a domain is empty.
    """
    w_dom = triple.p_basis
    if z_dom.dim == 0 or w_dom.dim == 0:
        return None
    z_comps, w_comps = z_dom.comps(), w_dom.comps()
    gmat = _ortho_constraint(z_dom, w_dom)
    commutator = _bracket_coordinates(triple, z_comps, w_comps)
    return z_comps, w_comps, commutator, gmat, _starts(z_dom, w_dom, gmat, budget)


# What a flat-plane search reports on an empty domain and when it refutes.
_SEARCH_NOTES = {
    Method.FAT: ("degenerate triple (empty search domain): vacuously fat",
                 "commuting pair found: bundle is not fat"),
    Method.POINT_SCAN: ("degenerate triple (empty search domain): vacuously positive",
                        "horizontal zero-curvature plane found at this point"),
}


def _flat_plane_search(
    triple: Triple, method: Method, z_dom: Subspace, terms, g: Optional[GroupElement],
    budget: StartBudget, tol: float, refute_tol: float, s: Optional[float] = None,
) -> CertReport:
    """The search of fatness (g None) and of the point scans (g the point reached).

    Minimizes |[Z, W]|^2, plus |[(Ad_g Z)^h, (Ad_g W)^h]|^2 when g is given,
    from the starts in terms (see `_search_terms`).  A minimum below
    refute_tol refutes with the pair as witness; all starts
    bottoming out above tol give a heuristic CERTIFIED; an empty domain
    (terms None) is vacuously CERTIFIED.
    """
    vacuous, refuted = _SEARCH_NOTES[method]
    if terms is None:
        return CertReport(triple.label, method, Verdict.CERTIFIED, float("inf"), tol,
                          starts=budget.starts, seed=budget.seed, s=s, notes=(vacuous,))
    z_comps, w_comps, commutator, gmat, starts = terms
    t = commutator
    if g is not None:
        require_same(triple, g)
        horizontal = _bracket_coordinates(triple, *(
            project_comps(triple, comp_adjoint(g.comp, c), Part.H) for c in (z_comps, w_comps)))
        t = _weighted([commutator, horizontal], [1.0, 1.0])
    vals, zs, ws, status = _descend(t, gmat, *starts, budget.max_iters)
    i = int(np.argmin(vals))  # ties resolve to the lowest start index
    val, z, w = float(vals[i]), zs[i], ws[i]
    witness = None
    if val < refute_tol:
        comm, horiz = val, None
        if g is not None:
            comm, horiz = (float(_pair_values(x, z[None], w[None])[0])
                           for x in (commutator, horizontal))
        witness = FlatPairWitness(
            Z=from_flat(triple.field, triple.n, z @ z_dom.mat),
            W=from_flat(triple.field, triple.n, w @ triple.p_basis.mat),
            commutator_residual=comm, horizontal_residual=horiz, point_s=s,
        )
        verdict, notes = Verdict.REFUTED, (refuted,)
    elif val > tol:
        verdict = Verdict.CERTIFIED
        notes = ("heuristic certificate: all starts stayed above tolerance",)
    else:
        verdict, notes = Verdict.INCONCLUSIVE, ()
    return CertReport(
        triple.label, method, verdict, val, tol, witness=witness,
        starts=budget.starts, seed=budget.seed, s=s, notes=notes + (_convergence_note(status),),
    )


def check_fatness(
    triple: Triple, budget: StartBudget = StartBudget(), tol: float = DEFAULT_TOL,
    refute_tol: float = DEFAULT_REFUTE_TOL,
) -> CertReport:
    """Search for commuting orthonormal pairs Z orthogonal to k, W in p.

    A pair with |[Z, W]|^2 below the refutation tolerance refutes fatness;
    all starts bottoming out above tol yields a heuristic CERTIFIED.
    """
    z_dom = triple.gk_basis()
    return _flat_plane_search(triple, Method.FAT, z_dom, _search_terms(triple, z_dom, budget),
                              None, budget, tol, refute_tol)


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
    if failed := _a_not_in_p(triple, a, tol):
        verdict, witness, notes = Verdict.INCONCLUSIVE, None, failed
    return CertReport(
        triple.label, Method.PART2, verdict, score, tol,
        witness=witness, starts=budget.starts, seed=budget.seed, notes=notes,
    )


def _part2_search(triple: Triple, a: AlgElement, budget: StartBudget, tol: float):
    """(verdict, score, witness, notes) of the derivative criterion's search."""
    z_dom = triple.gk_basis()
    terms = _search_terms(triple, z_dom, budget)
    if terms is None:
        notes = ("degenerate triple (empty search domain): vacuous",)
        return Verdict.CERTIFIED, float("inf"), None, notes
    require_same(triple, a)
    z_comps, w_comps, commutator, gmat, (z, w) = terms
    aw = np.zeros_like(w_comps)  # [A, w_k], padded back to 4 components
    aw[..., :N_COMPONENTS[triple.field]] = pair_brackets(triple.field, a.comp[None], w_comps)[0]
    objective = _bracket_coordinates(
        triple, project_comps(triple, z_comps, Part.H), project_comps(triple, aw, Part.H))
    status = np.full(len(z), CONVERGED)
    for mu in _PENALTY_SCHEDULE:
        t = _weighted([objective, commutator], [1.0, mu])
        _, z, w, stage = _descend(t, gmat, z, w, budget.max_iters)
        status = np.maximum(status, stage)  # a start's worst stage counts
    obj, feas = _pair_values(objective, z, w), _pair_values(commutator, z, w)
    note = _convergence_note(status)

    feasible = np.flatnonzero(feas < _FEASIBLE_TOL)
    if not feasible.size:
        notes = ("no commuting pairs found: condition holds vacuously (heuristic)", note)
        return Verdict.CERTIFIED, float(obj.min()), None, notes
    i = feasible[np.argmin(obj[feasible])]  # ties resolve to the lowest start index
    score = float(obj[i])
    if score < tol * 1e-2:
        witness = FlatPairWitness(
            Z=from_flat(triple.field, triple.n, z[i] @ z_dom.mat),
            W=from_flat(triple.field, triple.n, w[i] @ triple.p_basis.mat),
            commutator_residual=float(feas[i]),
            horizontal_residual=score,
        )
        notes = ("feasible commuting pair with vanishing derivative objective", note)
        return Verdict.REFUTED, score, witness, notes
    if score > tol:
        notes = ("heuristic certificate: all feasible minima above tolerance", note)
        return Verdict.CERTIFIED, score, None, notes
    return Verdict.INCONCLUSIVE, score, None, (note,)


# --- derivative test along exp(-sA) -------------------------------------------


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
    z_dom = _scan_z_domain(triple)
    return _flat_plane_search(triple, Method.POINT_SCAN, z_dom,
                              _search_terms(triple, z_dom, budget), g, budget, tol, refute_tol, s)


def _scan_z_domain(triple: Triple) -> Subspace:
    """Z-domain of the point searches: m for symmetric pairs, g minus k otherwise."""
    return triple.m_basis if is_symmetric_pair(triple, tol=1e-8) else triple.gk_basis()


def scan_along_A(
    triple: Triple, a: AlgElement, s_values: Sequence[float],
    budget: StartBudget = StartBudget(), tol: float = DEFAULT_TOL,
    refute_tol: float = DEFAULT_REFUTE_TOL,
) -> list[CertReport]:
    """Run the point search at exp(-s*A) for each s, preserving order.

    The reports equal point_positivity's at each point; the Z-domain and
    the parts of the search that do not depend on s are built once.  Like
    part2 and part3, every point is INCONCLUSIVE unless A lies in p, except
    on an empty search domain, which has no plane at any point.
    """
    z_dom = _scan_z_domain(triple)
    terms = _search_terms(triple, z_dom, budget)
    reports = [
        _flat_plane_search(triple, Method.POINT_SCAN, z_dom, terms, group_exp(a, -float(s)),
                           budget, tol, refute_tol, float(s))
        for s in s_values
    ]
    failed = _a_not_in_p(triple, a, tol)
    if terms is None or not failed:
        return reports
    return [replace(rep, verdict=Verdict.INCONCLUSIVE, witness=None, notes=failed)
            for rep in reports]
