"""Decision procedures for the curvature conditions.

The symmetric-pair certificate is deterministic linear algebra (smallest
singular value of X -> [X, A] on m).  The fatness check, the general
derivative criterion (part2) and the per-point positivity scans are one
nonconvex search for flat planes: each minimizes |[Z, W]|^2, plus one more
bilinear term for part2 and the scans, and all three share one verdict
rule.  Their CERTIFIED verdicts are heuristic and every report records the
start count and seed that produced it.

The search exploits that each residual term is linear in Z for fixed W
and vice versa.  Every start takes up to two exact smallest-eigenvector
sweeps (one in Z, then one in W), then Levenberg-Marquardt steps on the
joint residual, which converge where the sweeps alone stall in the
non-isolated minima.  A start stops as soon as it is a witness: its value
is at the rounding floor or below the search's target, half the refutation
threshold, so a REFUTED score is the first such value, not a polished
minimum.  All starts of a search descend in lockstep, as one stack of rows
with batched eigensolves and linear solves; so do all points of a scan,
which is one search whose rows each know their point: only the products
with a point's own pair tensor run per point, on exactly that point's rows,
so every scan report is byte for byte the one its point search gives alone.
The stack holds about S P (dz + dw) d floats for S starts at P points, S
(dz + dw) / (dz dw) times their dz x dw x d pair tensors: 3 times on
sp_example(8) at 64 starts.  The procedure is deterministic.

Flat planes exist at the identity of the quasi-positive examples, so
fatness and the scan points at s = 0 refute, and one confirmed witness is
enough: a search of more than _PROBE_STARTS starts first descends that many
at every point as a probe, and every start only at the points where the
probe does not refute (see `_flat_plane_search`).

part3 and the searches read brackets as coordinates along g or h
(`algebra.pair_bracket_coords`).  These never exceed the bracket, so
CERTIFIED stays sound; a REFUTED verdict stands only once its witness meets
the threshold on the element path too (see `_unconfirmed`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import (
    AlgElement,
    GroupElement,
    bracket,
    comp_adjoint,
    from_flat,
    group_exps,
    pair_bracket_coords,
    require_same,
    row_dots,
)
from .flatness import FlatPairWitness, horizontal_flat_residual
from .triple import (
    Part,
    Subspace,
    Triple,
    is_symmetric_pair,
    matrix_to_components,
    project,
    project_stack,
)

DEFAULT_TOL = 1e-6
DEFAULT_REFUTE_TOL = 1e-12
_RANK_ONE_NOTE = "rank-one property taken from catalog metadata, not verified"
# Exact alternating sweeps that warm-start the Levenberg-Marquardt phase, and
# that phase's first damping relative to tr H / n.
_ALS_SWEEPS = 2
_DAMP_START = 1e-3
# A search of more starts first descends this many as a probe (see
# `_flat_plane_search`).
_PROBE_STARTS = 4
# Levenberg-Marquardt steps that a start of a search tries.
_MAX_ITERS = 200
# Status of a start at the end of `_descend`.
CONVERGED, CAPPED, STOPPED = 0, 1, 2


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
    """Multi-start budget for the nonconvex searches; each start tries _MAX_ITERS = 200 steps."""

    starts: int = 64
    seed: int = 0

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


# --- deterministic part-3 certificate ----------------------------------------


def _unmet_preconditions(triple: Triple, method: Method, a: AlgElement, tol: float,
                         budget: Optional[StartBudget] = None,
                         points: Sequence[Optional[float]] = (None,)) -> list[CertReport]:
    """The reports of a run whose preconditions fail, one per scan point; [] when they hold.

    part2, part3 and the scans need A in p (`require_same` raises first if A
    is not of the triple's algebra), part3 a symmetric pair too.  A report is
    INCONCLUSIVE with score NaN (null in JSON), no witness and the failed
    preconditions as notes (after part3's rank-one note), built before any
    tensor, SVD or search.
    """
    require_same(triple, a)
    failed = []
    if method is Method.PART3 and not is_symmetric_pair(triple, tol=1e-8):
        failed.append("precondition failed: (g, h) is not a symmetric pair")
    if not triple.p_basis.contains(a, tol=max(tol, 1e-8)):
        failed.append("precondition failed: A does not lie in p")
    if not failed:
        return []
    notes = ((_RANK_ONE_NOTE,) if method is Method.PART3 else ()) + tuple(failed)
    starts, seed = (budget.starts, budget.seed) if budget else (0, 0)
    return [CertReport(triple.label, method, Verdict.INCONCLUSIVE, math.nan, tol, starts=starts,
                       seed=seed, s=s, notes=notes) for s in points]


def min_ad_singular(triple: Triple, a: AlgElement) -> float:
    """Smallest singular value of X -> [X, A] restricted to m, read along g.

    A strictly positive value deterministically certifies that no non-zero
    vector of m commutes with A: coordinates along g never exceed the
    bracket.  Returns +inf (with a warning) when m is trivial.
    """
    if triple.m_basis.dim == 0:
        warnings.warn("dim m = 0: vacuous commutation condition, returning +inf")
        return float("inf")
    s = np.linalg.svd(triple.m_basis.brackets_with(a, triple.g_basis), compute_uv=False)
    return float(s[-1])


def _unconfirmed(search: float, element: float, threshold: float) -> tuple[str, ...]:
    """The note of a refuting value whose witness misses the threshold on the element path; () when it meets it.

    The searches and part3 read brackets as coordinates along g or h, which
    hold all of each bracket only when g and h are closed; otherwise they can
    only be smaller.  So a refutation stands only once its witness is
    re-evaluated by `bracket`, `project` and
    `flatness.horizontal_flat_residual`, which share no kernel with them.
    """
    if element < threshold:
        return ()
    return (f"unconfirmed refutation: {search!r}, read along g or h, is below {threshold!r}, but "
            f"the element path gives {element!r} for the witness (brackets leave g or h)",)


def certify_part3(triple: Triple, a: AlgElement, tol: float = DEFAULT_TOL) -> CertReport:
    """Certificate for the symmetric-pair commutation criterion.

    On a pair that is not symmetric, or with A not in p, it is INCONCLUSIVE
    with no SVD (`_unmet_preconditions`).  sigma_min > tol certifies; a near
    kernel vector (sigma_min < tol/10) refutes with a witness, once |[X, A]|
    of the witness is below tol/10 on the element path too.  The rank-one
    property of (G, H) comes from catalog metadata; reports say so.
    """
    if unmet := _unmet_preconditions(triple, Method.PART3, a, tol):
        return unmet[0]
    notes = [_RANK_ONE_NOTE]
    if triple.m_basis.dim == 0:
        notes.append("dim m = 0: condition holds vacuously")
        sigma_min = float("inf")
    else:
        u, s, _ = np.linalg.svd(triple.m_basis.brackets_with(a, triple.g_basis),
                                full_matrices=False)
        sigma_min = float(s[-1])
    verdict, witness = Verdict.INCONCLUSIVE, None
    if sigma_min > tol:
        verdict = Verdict.CERTIFIED
    elif sigma_min < tol / 10.0:
        x = from_flat(triple.field, triple.n, u[:, -1] @ triple.m_basis.mat)
        if unconfirmed := _unconfirmed(sigma_min, bracket(x, a).norm(), tol / 10.0):
            notes.extend(unconfirmed)
        else:
            witness = FlatPairWitness(
                Z=x,
                W=(1.0 / max(a.norm(), 1e-300)) * a,
                commutator_residual=sigma_min**2,
            )
            verdict = Verdict.REFUTED
            notes.append("near-kernel vector of X -> [X, A] attached as witness")
    return CertReport(
        triple.label, Method.PART3, verdict, sigma_min, tol, witness=witness, notes=tuple(notes)
    )


# --- bilinear multi-start searches --------------------------------------------


def _pair_values(t: np.ndarray, z: np.ndarray, w: np.ndarray, runs) -> np.ndarray:
    """|T_p(z_s, w_s)|^2 for each row pair of z (S, dz) and w (S, dw), T_p = t[p] of a stack (P, dz, dw, d) for the rows of p in runs."""
    p, dz, dw, d = t.shape
    a = _by_point(z, runs, t.reshape(p, dz, dw * d)).reshape(len(z), dw, d)
    v = np.einsum("sk,skd->sd", w, a)
    return np.sum(v * v, axis=1)


def _runs(point: np.ndarray) -> list[tuple[int, int, int]]:
    """(p, i, j) for each point p of a non-decreasing array of the rows' points, with rows i:j."""
    if len(point) and point[0] == point[-1]:  # one point, as in every fat and part2 search
        return [(int(point[0]), 0, len(point))]
    cuts = [0, *(np.flatnonzero(point[1:] != point[:-1]) + 1).tolist(), len(point)]
    return [(int(point[i]), i, j) for i, j in zip(cuts, cuts[1:]) if j > i]


def _by_point(x: np.ndarray, runs, mats: np.ndarray) -> np.ndarray:
    """x_s @ mats[p] for each row s of x (S, k) in the rows of point p, or x_s @ mats for one matrix (k, m).

    Each point's rows make one product of exactly those rows: the bits of a
    row of a matrix product depend on how many rows share the product and
    where the row sits, so each point's rows keep the bits of a search at
    that point alone.
    """
    if len(runs) == 1:
        return x @ (mats if mats.ndim == 2 else mats[runs[0][0]])
    out = np.empty((len(x), mats.shape[-1]))
    for p, i, j in runs:
        np.matmul(x[i:j], mats if mats.ndim == 2 else mats[p], out=out[i:j])
    return out


def _min_eig_vectors(q: np.ndarray, u: Optional[np.ndarray]):
    """Unit minimizers of v^T q_s v on the sphere, orthogonal to u_s when u_s != 0.

    q is an (S, d, d) stack of quadratic forms, u an (S, d) stack or None,
    with d >= 2 where u is given.  Returns the minimizers (S, d) and their
    values v^T q_s v (S,), which are the smallest eigenvalues.
    """
    vecs, vals = np.empty(q.shape[:2]), np.empty(len(q))
    nrm = np.zeros(len(q)) if u is None else np.linalg.norm(u, axis=1)
    free = nrm <= 1e-12
    if free.any():
        f = _rows(free)
        lam, vec = np.linalg.eigh(q[f])
        vecs[f], vals[f] = vec[:, :, 0], lam[:, 0]
    if not free.all():
        c = _rows(~free)
        _, _, vh = np.linalg.svd((u[c] / nrm[c, None])[:, None, :], full_matrices=True)
        basis = vh[:, 1:].swapaxes(1, 2)  # orthonormal complements of the u_s
        lam, sub = np.linalg.eigh(basis.swapaxes(1, 2) @ q[c] @ basis)
        vecs[c], vals[c] = (basis @ sub[:, :, :1])[:, :, 0], lam[:, 0]
    return vecs, vals


def _rows(mask: np.ndarray):
    """Index of the rows where mask holds: a slice when it holds for all, which copies nothing."""
    return slice(None) if mask.all() else mask


def _gram(a: np.ndarray) -> np.ndarray:
    """The quadratic forms a_s a_s^T of an (S, d, D) stack."""
    return a @ a.swapaxes(1, 2)


def _descend(t: np.ndarray, gmat, z0: np.ndarray, w0: np.ndarray, max_iters: int,
             target: float, probe: bool = False) -> list[tuple]:
    """Minimize |T_p(z, w)|^2 over unit z, w with z^T gmat w = 0, at each point p, from every start, until a witness.

    t (P, dz, dw, d) holds one pair tensor per point, and z0 (S, dz) and w0
    (S, dw) one start per row; every start descends at every point.  Every
    z-step must have a unit z: dz >= 2 where gmat is given (`_search_terms`
    answers the one domain where it is not).  Each start takes _ALS_SWEEPS
    exact smallest-eigenvector sweeps (z orthogonal to gmat w, then w
    orthogonal to gmat^T z) and then Levenberg-Marquardt steps until one of
    the stop rules of `_levenberg_marquardt` holds or max_iters steps were
    tried.  A start stops early, in either phase, once it is a witness: its
    value is at the rounding floor (16 eps)^2 |T_p|^2 of its point's
    residual, or below target.  Steps only lower a value, so a verdict read
    as min < 2 target cannot change by going on.

    All starts at all points descend as one stack of S P rows, point by
    point, in one `_sweeps` and one `_levenberg_marquardt` call, with no
    blocks: about S P (dz + dw) d floats at once.  Only the products with
    T_p (and with gmat) run per point, on exactly that point's rows, so
    each point gets the bits of a search at that point alone.
    Returns, for each point, the final values (S,), the rows of z and w
    that reached them, and each start's status (S,): CONVERGED, CAPPED (hit
    max_iters) or STOPPED (cut short by a probe, see `_levenberg_marquardt`).
    """
    points, starts = len(t), len(z0)
    floor = (16 * np.finfo(float).eps) ** 2 * np.sum(t * t, axis=(1, 2, 3))
    point = np.repeat(np.arange(points), starts)  # each row's point
    # a value is a witness when at the floor or below target: below one limit
    limit = np.maximum(np.nextafter(floor, np.inf), target)[point]
    z, w = np.tile(z0, (points, 1)), np.tile(w0, (points, 1))
    _sweeps(t, gmat, z, w, point, limit, probe)
    out = _levenberg_marquardt(t, gmat, z, w, point, limit, max_iters, probe)
    return [tuple(x[p * starts:(p + 1) * starts] for x in out) for p in range(points)]


def _sweeps(t: np.ndarray, gmat, z: np.ndarray, w: np.ndarray, point: np.ndarray,
            limit: np.ndarray, probe=False):
    """Up to _ALS_SWEEPS exact block-coordinate steps from each start, in lockstep.

    t (P, dz, dw, d) holds the tensors of the points, point the point of
    each row of z and w (each point owns an equal run of consecutive rows),
    and limit each row's witness limit.  After each full sweep but the last
    (which `_levenberg_marquardt` checks on entry), a start whose value, the
    w-step's smallest eigenvalue, is a witness (below its limit) leaves;
    with probe, every start of its point leaves then.  Updates z and w in
    place.
    """
    points, dz, dw, d = t.shape
    t_z = t.transpose(0, 2, 1, 3).reshape(points, dw, dz * d)  # contracts with w
    t_w = t.reshape(points, dz, dw * d)  # contracts with z
    act = np.arange(len(z))
    for sweep in range(_ALS_SWEEPS):
        if not act.size:
            break
        wa, runs = w[act], _runs(point[act])
        zn, _ = _min_eig_vectors(_gram(_by_point(wa, runs, t_z).reshape(len(act), dz, d)),
                                 None if gmat is None else _by_point(wa, runs, gmat.T))
        wn, val = _min_eig_vectors(_gram(_by_point(zn, runs, t_w).reshape(len(act), dw, d)),
                                   None if gmat is None else _by_point(zn, runs, gmat))
        z[act], w[act] = zn, wn
        if sweep + 1 < _ALS_SWEEPS:
            found = val < limit[act]
            if probe:  # every start of a point with a witness leaves
                found = np.isin(point[act], point[act[found]])
            act = act[_rows(~found)]


def _levenberg_marquardt(t: np.ndarray, gmat, z: np.ndarray, w: np.ndarray, point: np.ndarray,
                         limit: np.ndarray, max_iters: int, probe=False):
    """Damped Gauss-Newton steps on r(z, w) = sum_ik z_i w_k T_p[i, k, :] for each start.

    The rows, tensors and limits are laid out as for `_sweeps`.  Steps lie
    in the tangent space of {|z| = |w| = 1, z^T gmat w = 0}; after a step w
    is normalized, z is made orthogonal to gmat w and normalized.  Only
    decreasing steps are accepted; the damping, relative to tr H / n (H the
    Gram matrix of the tangent Jacobian, n = dz + dw), goes x1/3 on an
    accepted step (down to 1e-12) and x4 on a rejected one.  A start stops
    when its value is a witness (on entry or after an accepted step), when
    stationary (|P J^T r|^2 <= 1e-20 (tr H / n) f), after an accepted step
    that lowered f by at most 1e-12 relative, or when the damping exceeds
    1e12.  With probe, every start of a point still running is STOPPED once
    any value of the point is a witness or a step leaves the point's least
    value above half the one before.  Updates z and w in place; returns the
    values, z, w and the status of each start.
    """
    points, dz, dw, d = t.shape
    n = dz + dw
    t_z = t.transpose(0, 2, 1, 3).reshape(points, dw, dz * d)
    t_w = t.reshape(points, dz, dw * d)
    val = _pair_values(t, z, w, _runs(point))
    done = val < limit
    status = np.where(done, CONVERGED, CAPPED)
    damp = np.full(len(z), _DAMP_START)
    act = np.flatnonzero(~done)
    if probe:
        act = _stop(status, act, done.reshape(points, -1).any(axis=1)[point[act]])
    best = val.reshape(points, -1).min(axis=1)
    diag = np.arange(n)
    for _ in range(max_iters):
        if not act.size:
            break
        za, wa, f, pa = z[act], w[act], val[act], point[act]
        runs = _runs(pa)
        jw = _by_point(za, runs, t_w).reshape(len(act), dw, d)
        jac = np.concatenate([_by_point(wa, runs, t_z).reshape(len(act), dz, d), jw], axis=1)
        r = np.einsum("sk,skd->sd", wa, jw)
        normals = _normals(za, wa, gmat, runs)
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
        zc, wc = _retract(za + step[:, :dz], wa + step[:, dz:], gmat, runs)
        fc = _pair_values(t, zc, wc, runs)
        acc = (fc < f) & ~stationary
        won = act[acc]
        z[won], w[won], val[won] = zc[acc], wc[acc], fc[acc]
        damp[won] = np.maximum(damp[won] / 3.0, 1e-12)
        damp[act[~acc]] *= 4.0
        found = acc & (fc < limit[act])
        stop = stationary | (acc & (f - fc <= 1e-12 * f)) | found | (damp[act] > 1e12)
        status[act[stop]] = CONVERGED
        act = act[~stop]
        if probe:
            least = val.reshape(points, -1).min(axis=1)
            ended = least > best / 2
            ended[pa[found]] = True
            act = _stop(status, act, ended[point[act]])
            best = least
    return val, z, w, status


def _stop(status: np.ndarray, act: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Mark the running starts act[cut] STOPPED; returns the starts that go on."""
    status[act[cut]] = STOPPED
    return act[~cut]


def _normals(z: np.ndarray, w: np.ndarray, gmat, runs) -> np.ndarray:
    """Unit normals (S, 3, dz + dw) of the constraint set {|z| = |w| = 1, z^T gmat w = 0}.

    They are (z, 0), (0, w) and (gmat w, gmat^T z) normalized, orthogonal
    where z^T gmat w = 0; the last is zero where it vanishes or gmat is None.
    The products with gmat run per point (`_by_point`).
    """
    dz = z.shape[1]
    normals = np.zeros((len(z), 3, dz + w.shape[1]))
    normals[:, 0, :dz], normals[:, 1, dz:] = z, w
    if gmat is not None:
        normals[:, 2] = _unit_rows(np.concatenate([_by_point(w, runs, gmat.T),
                                                   _by_point(z, runs, gmat)], axis=1))
    return normals


def _retract(z: np.ndarray, w: np.ndarray, gmat, runs):
    """Back onto the constraint set: normalize w, remove from z its part along gmat w, normalize z."""
    w = w / np.linalg.norm(w, axis=1, keepdims=True)
    if gmat is not None:
        u = _unit_rows(_by_point(w, runs, gmat.T))
        z = z - np.sum(z * u, axis=1, keepdims=True) * u
    return z / np.linalg.norm(z, axis=1, keepdims=True), w


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """The rows of x scaled to unit length; rows of length at most 1e-12 become zero."""
    nrm = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(x, nrm, out=np.zeros_like(x), where=nrm > 1e-12)


def _starts(z_dom: Subspace, w_dom: Subspace, gmat, budget: StartBudget):
    """Unit starts as row stacks z0 (S, dz) and w0 (S, dw), each z orthogonal to gmat w.

    One draw from the budget's seed, each row split into w, then z: the
    stream of drawing one start at a time.  The norms, dots and gmat w are
    stacked products, one BLAS call per row as for a single start, so every
    start has the bits of the one-at-a-time loop.
    """
    rng = np.random.default_rng(budget.seed)
    draws = rng.standard_normal((budget.starts, w_dom.dim + z_dom.dim))
    w0, z0 = draws[:, :w_dom.dim], draws[:, w_dom.dim:]
    w0 = w0 / np.sqrt(row_dots(w0, w0))[:, None]
    if gmat is not None:
        u = (gmat @ w0[:, :, None])[:, :, 0]
        nrm = np.sqrt(row_dots(u, u))
        keep = nrm > 1e-12
        u = u[keep] / nrm[keep, None]
        z0[keep] -= row_dots(z0[keep], u)[:, None] * u
    return z0 / np.sqrt(row_dots(z0, z0))[:, None], w0


def _convergence_note(status: np.ndarray, below: np.ndarray, budget: int) -> str:
    """How many starts of a search converged and how many stopped at max_iters.

    below masks the starts whose values are below refute_tol/2; how many of
    them converged is said only when some did, so no other note changes.  A
    search that ran fewer starts than its budget, a probe, says so first
    (`probe: 4 of 64 starts run; 1 of 4 starts converged (1 below
    refute_tol/2); 0 hit max_iters`); its other starts were STOPPED.
    """
    converged, capped = int(np.sum(status == CONVERGED)), int(np.sum(status == CAPPED))
    witnesses = int(np.sum(below & (status == CONVERGED)))
    clause = f" ({witnesses} below refute_tol/2)" if witnesses else ""
    run = f"probe: {len(status)} of {budget} starts run; " if len(status) < budget else ""
    return f"{run}{converged} of {len(status)} starts converged{clause}; {capped} hit max_iters"


def _ortho_constraint(z_dom: Subspace, w_dom: Subspace) -> Optional[np.ndarray]:
    gmat = z_dom.mat @ w_dom.mat.T
    return gmat if np.abs(gmat).max() > 1e-12 else None


def _search_terms(triple: Triple, z_dom: Subspace, budget: StartBudget):
    """The parts of a search over Z in z_dom, W in p that do not depend on the objective.

    Returns the component stacks of the Z- and W-domains, the commutator
    tensor [z_i, w_k] in coordinates along g, the orthogonality constraint
    and the starts; None when there is no orthonormal pair: a domain is
    empty, or the Z-domain is p of dimension 1 (g minus k when m = 0), the
    only one-dimensional Z-domain that is not orthogonal to p.
    """
    w_dom = triple.p_basis
    if z_dom.dim == 0 or w_dom.dim == 0:
        return None
    gmat = _ortho_constraint(z_dom, w_dom)
    if z_dom.dim == 1 and gmat is not None:
        return None
    z_stack, w_stack = z_dom.comps(), w_dom.comps()
    commutator = pair_bracket_coords(triple.field, z_stack, w_stack, triple.g_basis.mat)
    return z_stack, w_stack, commutator, gmat, _starts(z_dom, w_dom, gmat, budget)


# What a flat-plane search reports with no orthonormal pair and when it refutes.
_SEARCH_NOTES = {
    Method.FAT: ("vacuously fat", "commuting pair found: bundle is not fat"),
    Method.PART2: ("vacuous", "commuting pair with vanishing derivative objective found"),
    Method.POINT_SCAN: ("vacuously positive", "horizontal zero-curvature plane found at this point"),
}


def _flat_plane_search(
    triple: Triple, method: Method, z_dom: Subspace, terms, second: Optional[np.ndarray],
    elements: Sequence[Callable[[AlgElement, AlgElement], float]], budget: StartBudget,
    tol: float, refute_tol: float, points: Sequence[Optional[float]] = (None,),
) -> list[CertReport]:
    """The one search of fatness, part2 and the point scans, one report per point.

    Minimizes |[Z, W]|^2 (along g), plus |second_p(Z, W)|^2 when a stack
    (P, dz, dw, dh) of second pair tensors is given (part2's derivative
    objective, the horizontal term at each scan point, both along h), from
    the starts in terms (see `_search_terms`) at each point s of points at
    once; a start stops at its first value below refute_tol/2.  A point's
    minimum below refute_tol refutes with the pair as witness, once
    elements[p](Z, W), the same sum on the element path, is below
    refute_tol too (else INCONCLUSIVE); all starts bottoming out above tol
    give a heuristic CERTIFIED; no orthonormal pair (terms None) is vacuously
    CERTIFIED, with a note that tells an empty domain from a Z-domain that
    holds no Z orthogonal to a W in p.

    A budget of more than _PROBE_STARTS starts first descends its first
    _PROBE_STARTS at every point as a probe, which ends, per point, at its
    first witness or at the first Levenberg-Marquardt step that does not
    halve its best value (see `_descend`).  A probe's REFUTED verdict,
    witness confirmed, is that point's report, and its convergence note says
    how many of the budget's starts ran (its starts field stays the
    budget).  At the points with any other probe verdict, including an
    unconfirmed refutation, the probe is discarded and all starts descend,
    in one more `_descend`, so every CERTIFIED and INCONCLUSIVE report is
    the one the full search gives.  Callers check their preconditions
    before they build terms (`_unmet_preconditions`); a search always reads
    its own verdict.
    """
    vacuous, refuted = _SEARCH_NOTES[method]
    if terms is None:
        empty = 0 in (z_dom.dim, triple.p_basis.dim)
        why = "empty search domain" if empty else "no Z orthogonal to a W in p"
        return [CertReport(triple.label, method, Verdict.CERTIFIED, float("inf"), tol, starts=budget.starts,
                           seed=budget.seed, s=s, notes=(f"degenerate triple ({why}): {vacuous}",))
                for s in points]
    commutator, gmat, (z0, w0) = terms[2:]
    t = commutator[None] if second is None else np.concatenate(
        [np.broadcast_to(commutator, (len(second), *commutator.shape)), second], axis=3)
    target = refute_tol / 2

    def read(p: int, vals, zs, ws, status) -> CertReport:
        i = int(np.argmin(vals))  # ties resolve to the lowest start index
        val, z, w, s = float(vals[i]), zs[i], ws[i], points[p]
        witness = None
        if val < refute_tol:
            comm, other = val, None
            if second is not None:
                comm, other = (float(_pair_values(x[None], z[None], w[None], [(0, 0, 1)])[0])
                               for x in (commutator, second[p]))
            witness = FlatPairWitness(
                Z=from_flat(triple.field, triple.n, z @ z_dom.mat),
                W=from_flat(triple.field, triple.n, w @ triple.p_basis.mat),
                commutator_residual=comm, horizontal_residual=other, point_s=s,
            )
            verdict, notes = Verdict.REFUTED, (refuted,)
            if unconfirmed := _unconfirmed(val, elements[p](witness.Z, witness.W), refute_tol):
                verdict, witness, notes = Verdict.INCONCLUSIVE, None, unconfirmed
        elif val > tol:
            verdict = Verdict.CERTIFIED
            notes = ("heuristic certificate: all starts stayed above tolerance",)
        else:
            verdict, notes = Verdict.INCONCLUSIVE, ()
        return CertReport(
            triple.label, method, verdict, val, tol, witness=witness,
            starts=budget.starts, seed=budget.seed, s=s,
            notes=notes + (_convergence_note(status, vals < target, budget.starts),),
        )

    reports: list[Optional[CertReport]] = [None] * len(points)
    if budget.starts > _PROBE_STARTS:
        k = _PROBE_STARTS
        for p, found in enumerate(_descend(t, gmat, z0[:k], w0[:k], _MAX_ITERS, target,
                                           probe=True)):
            if (report := read(p, *found)).verdict is Verdict.REFUTED:
                reports[p] = report
    if rest := [p for p, report in enumerate(reports) if report is None]:
        tr = t if len(rest) == len(t) else t[rest]
        for p, found in zip(rest, _descend(tr, gmat, z0, w0, _MAX_ITERS, target)):
            reports[p] = read(p, *found)
    return reports


def _commutator_residual(z: AlgElement, w: AlgElement) -> float:
    """|[Z, W]|^2 on the element path."""
    return bracket(z, w).norm() ** 2


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
                              None, (_commutator_residual,), budget, tol, refute_tol)[0]


def certify_part2(
    triple: Triple, a: AlgElement, budget: StartBudget = StartBudget(),
    tol: float = DEFAULT_TOL,
) -> CertReport:
    """Search for a commuting pair that violates the derivative criterion.

    Minimizes |[Z, W]|^2 + |[Z^h, [A, W]^h]|^2 over orthonormal Z orthogonal
    to k, W in p: a common zero is a commuting pair on which the criterion
    fails.  The verdict rule is fatness's with the fixed refutation
    threshold DEFAULT_REFUTE_TOL, so the score is the joint minimum, above
    tol for a heuristic CERTIFIED.  Like part3, a run with A not in p is
    INCONCLUSIVE, with a NaN score and no search (`_unmet_preconditions`).
    """
    if unmet := _unmet_preconditions(triple, Method.PART2, a, tol, budget):
        return unmet[0]
    z_dom = triple.gk_basis()
    terms = _search_terms(triple, z_dom, budget)

    def element(z: AlgElement, w: AlgElement) -> float:
        return _commutator_residual(z, w) + _derivative_objective(triple, a, z, w)

    second = None if terms is None else _derivative_tensor(triple, a, terms)[None]
    return _flat_plane_search(triple, Method.PART2, z_dom, terms, second, (element,), budget, tol,
                              DEFAULT_REFUTE_TOL)[0]


def _derivative_tensor(triple: Triple, a: AlgElement, terms) -> np.ndarray:
    """The pair tensor [z_i^h, [A, w_k]^h] along h for the domains of terms."""
    z_stack, w_stack = terms[:2]
    h = triple.h_basis
    aw_h = pair_bracket_coords(triple.field, a.comp[None], w_stack, h.mat)[0] @ h.mat
    return pair_bracket_coords(triple.field, project_stack(triple, z_stack, Part.H),
                               aw_h.reshape(w_stack.shape), h.mat)


def _derivative_objective(triple: Triple, a: AlgElement, z: AlgElement, w: AlgElement) -> float:
    """|[Z^h, [A, W]^h]|^2 on the element path, for Z in g; [A, W] may leave g."""
    awh = from_flat(triple.field, triple.n, triple.h_basis.project_flat(bracket(a, w).flat))
    return bracket(project(triple, z, Part.H), awh).norm() ** 2


# --- per-point positivity ------------------------------------------------------


def _scan_points(triple: Triple, gs: np.ndarray, points: Sequence[Optional[float]],
                 budget: StartBudget, tol: float, refute_tol: float) -> list[CertReport]:
    """The flat-plane search at the points reached by the unitary stack gs (P, n, n, 4), as one search.

    Only the horizontal tensor depends on the point: one stacked adjoint of
    the Z- and W-domains, their projections to h, and their brackets along
    h at each point.
    """
    z_dom = _scan_z_domain(triple)
    terms = _search_terms(triple, z_dom, budget)
    horizontal = None
    if terms is not None:
        dz = len(terms[0])
        moved = comp_adjoint(gs[:, None], np.concatenate(terms[:2]))
        zh, wh = (project_stack(triple, part, Part.H) for part in (moved[:, :dz], moved[:, dz:]))
        horizontal = np.stack([pair_bracket_coords(triple.field, z, w, triple.h_basis.mat)
                               for z, w in zip(zh, wh)])

    def element(g: np.ndarray):
        return lambda z, w: sum(horizontal_flat_residual(
            triple, GroupElement(triple.field, triple.n, g), z, w))

    return _flat_plane_search(triple, Method.POINT_SCAN, z_dom, terms, horizontal,
                              [element(g) for g in gs], budget, tol, refute_tol, points)


def _scan_z_domain(triple: Triple) -> Subspace:
    """Z-domain of the point searches: m for symmetric pairs, g minus k otherwise."""
    return triple.m_basis if is_symmetric_pair(triple, tol=1e-8) else triple.gk_basis()


def scan_along_A(
    triple: Triple, a: AlgElement, s_values: Sequence[float],
    budget: StartBudget = StartBudget(), tol: float = DEFAULT_TOL,
    refute_tol: float = DEFAULT_REFUTE_TOL,
) -> list[CertReport]:
    """The point search at exp(-s*A) for every s at once, in the order given.

    Each point's report is byte for byte the one a scan of that point alone
    gives: the points share the Z-domain, the starts and the commutator
    tensor, their group elements come from one `group_exps`, and every start
    at every point descends in one lockstep search (see `_descend`), with a
    probe first when the budget has more than _PROBE_STARTS starts.  Like
    part2 and part3, a scan with A not in p, an empty search domain
    included, gives every point INCONCLUSIVE with a NaN score and runs no
    search (`_unmet_preconditions`).
    """
    points = [float(s) for s in s_values]
    if unmet := _unmet_preconditions(triple, Method.POINT_SCAN, a, tol, budget, points):
        return unmet
    if not points:
        return []
    return _scan_points(triple, group_exps(a, [-s for s in points]), points, budget, tol,
                        refute_tol)
