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
sp_example(8) at 64 starts.  Besides, a search holds its pair tensors twice,
laid out once for the products with z and with w.  It is deterministic.

Flat planes exist at the identity of the quasi-positive examples, so
fatness and the scan points at s = 0 refute, and one confirmed witness is
enough: a search of more than _PROBE_STARTS starts first descends that many
at every point as a probe, and every start only at the points where the
probe does not refute (see `_flat_plane_search`).

part3 and the searches read brackets as coordinates along g or h
(`algebra.pair_bracket_coords`).  These never exceed the bracket, so
CERTIFIED stays sound; a REFUTED verdict stands only once its witness meets
the threshold on the element path too (see `_unconfirmed`): the search
re-checks |[Z, W]|^2 + |[X^h, Y^h]|^2 itself, from the h-parts of the two
images that part2 and the scans hand it.
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
    bracket,
    comp_adjoint,
    from_flat,
    group_exps,
    pair_bracket_coords,
    require_same,
    row_dots,
)
from .flatness import FlatPairWitness
from .triple import _IN_SPAN_TOL, Subspace, Triple, is_symmetric_pair, matrix_to_components, project

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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

    part2, part3 and the scans need A a unit vector in p, both to
    `Subspace.contains`'s fixed 1e-8 whatever the curvature tolerance tol
    (`require_same` raises first if A is not of the triple's algebra), part3
    a symmetric pair too: the criteria scale with |A|, so a short A reads as
    flat and A = 0 refutes everywhere.  A report is
    INCONCLUSIVE with score NaN (null in JSON), no witness and the failed
    preconditions as notes (after part3's rank-one note), built before any
    tensor, SVD or search.
    """
    require_same(triple, a)
    failed = []
    if method is Method.PART3 and not is_symmetric_pair(triple):
        failed.append("precondition failed: (g, h) is not a symmetric pair")
    if not triple.p_basis.contains(a):
        failed.append("precondition failed: A does not lie in p")
    if abs(a.norm() - 1.0) > _IN_SPAN_TOL:
        failed.append(f"precondition failed: A is not a unit vector (|A| = {a.norm()!r})")
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
    re-evaluated on single elements by `bracket`.  Both paths take h-parts
    by `Subspace.project_flat`; the element path does not share their bracket:
    it forms `comp_bracket`, not `pair_bracket_coords`.
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
            witness = FlatPairWitness(Z=x, W=(1.0 / a.norm()) * a, commutator_residual=sigma_min**2)
            verdict = Verdict.REFUTED
            notes.append("near-kernel vector of X -> [X, A] attached as witness")
    return CertReport(
        triple.label, Method.PART3, verdict, sigma_min, tol, witness=witness, notes=tuple(notes)
    )


# --- bilinear multi-start searches --------------------------------------------


def _pair_residuals(with_z: np.ndarray, z: np.ndarray, w: np.ndarray, runs) -> np.ndarray:
    """T_p(z_s, w_s) (S, d) for each row pair of z (S, dz) and w (S, dw), T_p laid out as with_z[p] (dz, dw d) for the rows of p in runs."""
    a = _by_point(z, runs, with_z).reshape(len(z), w.shape[1], -1)
    return np.einsum("sk,skd->sd", w, a)


def _pair_values(with_z: np.ndarray, z: np.ndarray, w: np.ndarray, runs) -> np.ndarray:
    """|T_p(z_s, w_s)|^2 for each row pair, laid out as for `_pair_residuals`."""
    return np.sum(_pair_residuals(with_z, z, w, runs) ** 2, axis=1)


class _PairTensor:
    """The pair tensors t (P, dz, dw, d) of a search's points, laid out once for its products.

    z_s @ with_z[p] (dz, dw d) contracts T_p = t[p] with z_s, w_s @
    with_w[p] (dw, dz d) with w_s, and floor[p] is the rounding floor
    (16 eps)^2 |T_p|^2 of T_p's residual.  No other code lays out T.
    """

    def __init__(self, t: np.ndarray):
        points, dz, dw, d = t.shape
        self.with_z = t.reshape(points, dz, dw * d)
        self.with_w = t.transpose(0, 2, 1, 3).reshape(points, dw, dz * d)
        self.floor = (16 * np.finfo(float).eps) ** 2 * np.sum(t * t, axis=(1, 2, 3))


def _runs(point: np.ndarray) -> list[tuple[int, int, int]]:
    """(p, i, j) for each point p of a non-decreasing array of the rows' points, with rows i:j."""
    cuts = [0, *(np.flatnonzero(point[1:] != point[:-1]) + 1).tolist(), len(point)]
    return [(int(point[i]), i, j) for i, j in zip(cuts, cuts[1:]) if j > i]


def _by_point(x: np.ndarray, runs, mats: np.ndarray) -> np.ndarray:
    """x_s @ mats[p] for each row s of x (S, k) in the rows of point p, or x_s @ mats for one matrix (k, m).

    Each point's rows make one product of exactly those rows: the bits of a
    row of a matrix product depend on how many rows share the product and
    where the row sits, so each point's rows keep the bits of a search at
    that point alone.
    """
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
        lam, vec = np.linalg.eigh(q[free])
        vecs[free], vals[free] = vec[:, :, 0], lam[:, 0]
    if not free.all():
        c = ~free
        _, _, vh = np.linalg.svd((u[c] / nrm[c, None])[:, None, :], full_matrices=True)
        basis = vh[:, 1:].swapaxes(1, 2)  # orthonormal complements of the u_s
        lam, sub = np.linalg.eigh(basis.swapaxes(1, 2) @ q[c] @ basis)
        vecs[c], vals[c] = (basis @ sub[:, :, :1])[:, :, 0], lam[:, 0]
    return vecs, vals


def _gram(a: np.ndarray) -> np.ndarray:
    """The quadratic forms a_s a_s^T of an (S, d, D) stack."""
    return a @ a.swapaxes(1, 2)


def _descend(tensor: _PairTensor, ids: Sequence[int], gmat, z0: np.ndarray, w0: np.ndarray,
             max_iters: int, target: float, probe: bool = False) -> list[tuple]:
    """Minimize |T_p(z, w)|^2 over unit z, w with z^T gmat w = 0, at each point p of ids, from every start, until a witness.

    tensor holds the search's pair tensors (`_PairTensor`), ids the points to
    descend at, z0 (S, dz) and w0 (S, dw) one start per row; every start
    descends at every point of ids.  Every z-step must have a unit z: dz >=
    2 where gmat is given (`_flat_plane_search` answers the one domain
    where it is not).  Each start takes _ALS_SWEEPS exact smallest-eigenvector
    sweeps (z orthogonal to gmat w, then w orthogonal to gmat^T z) and then
    Levenberg-Marquardt steps until one of the stop rules of
    `_levenberg_marquardt` holds or max_iters steps were tried.  A start
    stops early, in either phase, once it is a witness: its value is at its
    point's rounding floor, or below target.  Steps only lower a value, so a
    verdict read as min < 2 target cannot change by going on.

    All starts at all points descend as one stack of S P rows, point by
    point, in one `_sweeps` and one `_levenberg_marquardt` call, with no
    blocks: about S P (dz + dw) d floats at once.  Only the products with
    T_p (and with gmat) run per point, on exactly that point's rows, so
    each point gets the bits of a search at that point alone.
    Returns, for each point of ids, the final values (S,), the rows of z and
    w that reached them, and each start's status (S,): CONVERGED, CAPPED
    (hit max_iters) or STOPPED (cut short by a probe, see `_levenberg_marquardt`).
    """
    starts = len(z0)
    point = np.repeat(ids, starts)  # each row's point
    # a value is a witness when at the floor or below target: below one limit
    limit = np.maximum(np.nextafter(tensor.floor, np.inf), target)[point]
    z, w = np.tile(z0, (len(ids), 1)), np.tile(w0, (len(ids), 1))
    _sweeps(tensor, gmat, z, w, point, limit, probe)
    out = _levenberg_marquardt(tensor, gmat, z, w, point, limit, max_iters, probe)
    return [tuple(x[i * starts:(i + 1) * starts] for x in out) for i in range(len(ids))]


def _sweeps(tensor: _PairTensor, gmat, z: np.ndarray, w: np.ndarray, point: np.ndarray,
            limit: np.ndarray, probe=False):
    """Up to _ALS_SWEEPS exact block-coordinate steps from each start, in lockstep.

    point holds the point of each row of z and w, an index into tensor
    (each point owns an equal run of consecutive rows), and limit each
    row's witness limit.  After each full sweep but the last (which
    `_levenberg_marquardt` checks on entry), a start whose value, the
    w-step's smallest eigenvalue, is a witness (below its limit) leaves;
    with probe, every start of its point leaves then.  Updates z and w in
    place.
    """
    dz, dw = z.shape[1], w.shape[1]
    act = np.arange(len(z))
    for sweep in range(_ALS_SWEEPS):
        if not act.size:
            break
        wa, runs = w[act], _runs(point[act])
        qz = _gram(_by_point(wa, runs, tensor.with_w).reshape(len(act), dz, -1))
        zn, _ = _min_eig_vectors(qz, None if gmat is None else _by_point(wa, runs, gmat.T))
        qw = _gram(_by_point(zn, runs, tensor.with_z).reshape(len(act), dw, -1))
        wn, val = _min_eig_vectors(qw, None if gmat is None else _by_point(zn, runs, gmat))
        z[act], w[act] = zn, wn
        if sweep + 1 < _ALS_SWEEPS:
            found = val < limit[act]
            if probe:  # every start of a point with a witness leaves
                found = np.isin(point[act], point[act[found]])
            act = act[~found]


def _levenberg_marquardt(tensor: _PairTensor, gmat, z: np.ndarray, w: np.ndarray,
                         point: np.ndarray, limit: np.ndarray, max_iters: int, probe=False):
    """Damped Gauss-Newton steps on r(z, w) = sum_ik z_i w_k T_p[i, k, :] for each start.

    The rows, points and limits are laid out as for `_sweeps`.  Steps lie
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
    dz, dw = z.shape[1], w.shape[1]
    n = dz + dw
    val = _pair_values(tensor.with_z, z, w, _runs(point))
    done = val < limit
    status = np.where(done, CONVERGED, CAPPED)
    damp = np.full(len(z), _DAMP_START)
    act = np.flatnonzero(~done)
    if probe:  # a probe keeps its books by each row's place among the points descended
        ids, slot = np.unique(point, return_inverse=True)
        act = _stop(status, act, done.reshape(len(ids), -1).any(axis=1)[slot[act]])
        best = val.reshape(len(ids), -1).min(axis=1)
    diag = np.arange(n)
    for _ in range(max_iters):
        if not act.size:
            break
        za, wa, f = z[act], w[act], val[act]
        runs = _runs(point[act])
        jw = _by_point(za, runs, tensor.with_z).reshape(len(act), dw, -1)
        jz = _by_point(wa, runs, tensor.with_w).reshape(len(act), dz, -1)
        jac = np.concatenate([jz, jw], axis=1)
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
        fc = _pair_values(tensor.with_z, zc, wc, runs)
        acc = (fc < f) & ~stationary
        won = act[acc]
        z[won], w[won], val[won] = zc[acc], wc[acc], fc[acc]
        damp[won] = np.maximum(damp[won] / 3.0, 1e-12)
        damp[act[~acc]] *= 4.0
        found = acc & (fc < limit[act])
        stop = stationary | (acc & (f - fc <= 1e-12 * f)) | found | (damp[act] > 1e12)
        status[act[stop]] = CONVERGED
        hit, act = act[found], act[~stop]
        if probe:
            least = val.reshape(len(ids), -1).min(axis=1)
            ended = least > best / 2
            ended[slot[hit]] = True
            act = _stop(status, act, ended[slot[act]])
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


# What a flat-plane search reports with no orthonormal pair and when it refutes.
_SEARCH_NOTES = {
    Method.FAT: ("vacuously fat", "commuting pair found: bundle is not fat"),
    Method.PART2: ("vacuous", "commuting pair with vanishing derivative objective found"),
    Method.POINT_SCAN: ("vacuously positive", "horizontal zero-curvature plane found at this point"),
}


def _flat_plane_search(
    triple: Triple, method: Method, z_dom: Subspace,
    second: Optional[tuple[Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
                           Callable[[int, AlgElement, AlgElement], tuple[AlgElement, AlgElement]]]],
    budget: StartBudget, tol: float, refute_tol: float,
    points: Sequence[Optional[float]] = (None,),
) -> list[CertReport]:
    """The one search of fatness, part2 and the point scans, one report per point, set up here only.

    Minimizes |[Z, W]|^2 (along g) over orthonormal Z in z_dom, W in p, plus
    a second term |[X^h, Y^h]|^2 (along h) for images X of Z and Y of W
    (part2's Z and [A, W], a scan point's Ad_g Z and Ad_g W) when second
    gives the h-parts of the images in two forms: a map from the component
    stacks of the two domains to the stacks (P, dz, n, n, 4) and
    (P, dw, n, n, 4) of their images' h-parts at each point, and a map from
    point p and elements Z, W to the elements X^h, Y^h.  The search brackets
    both forms itself.  The constraint z^T gmat w = 0, the starts and the
    pair tensors, laid out once (`_PairTensor`), serve every descent; a
    start stops at its first value below refute_tol/2.  A point's minimum
    below refute_tol refutes with the pair as witness, holding the search's
    term values, once |[Z, W]|^2 + |[X^h, Y^h]|^2 by `bracket` is below
    refute_tol too (else INCONCLUSIVE); all starts bottoming out above tol
    give a heuristic CERTIFIED; no orthonormal pair (a domain is empty, or
    the Z-domain is one vector not orthogonal to p) is vacuously CERTIFIED,
    with a note that says which.

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
    first (`_unmet_preconditions`); a search always reads its own verdict.
    """
    vacuous, refuted = _SEARCH_NOTES[method]
    w_dom = triple.p_basis
    gmat = z_dom.mat @ w_dom.mat.T
    constrained = np.abs(gmat).max(initial=0.0) > 1e-12
    why = ("empty search domain" if gmat.size == 0 else
           "no Z orthogonal to a W in p" if z_dom.dim == 1 and constrained else None)
    if why:
        return [CertReport(triple.label, method, Verdict.CERTIFIED, float("inf"), tol, starts=budget.starts,
                           seed=budget.seed, s=s, notes=(f"degenerate triple ({why}): {vacuous}",))
                for s in points]
    gmat = gmat if constrained else None
    z_stack, w_stack = z_dom.comps(), w_dom.comps()
    commutator = pair_bracket_coords(triple.field, z_stack, w_stack, triple.g_basis.mat)
    images, element_images = second or (None, None)
    other = None if images is None else np.stack([
        pair_bracket_coords(triple.field, x, y, triple.h_basis.mat)
        for x, y in zip(*images(z_stack, w_stack))])
    tensor = _PairTensor(commutator[None] if other is None else np.concatenate(
        [np.broadcast_to(commutator, (len(other), *commutator.shape)), other], axis=3))
    z0, w0 = _starts(z_dom, w_dom, gmat, budget)
    target = refute_tol / 2

    def read(p: int, vals, zs, ws, status) -> CertReport:
        i = int(np.argmin(vals))  # ties resolve to the lowest start index
        val, z, w, s = float(vals[i]), zs[i], ws[i], points[p]
        witness = None
        if val < refute_tol:
            comm, extra = val, None
            if other is not None:  # the witness's value, term by term
                r = _pair_residuals(tensor.with_z, z[None], w[None], [(p, 0, 1)])[0]
                comm, extra = (float(np.sum(x * x)) for x in np.split(r, [commutator.shape[2]]))
            witness = FlatPairWitness(
                Z=from_flat(triple.field, triple.n, z @ z_dom.mat),
                W=from_flat(triple.field, triple.n, w @ w_dom.mat),
                commutator_residual=comm, horizontal_residual=extra, point_s=s,
            )
            element = bracket(witness.Z, witness.W).norm() ** 2
            if element_images is not None:
                element += bracket(*element_images(p, witness.Z, witness.W)).norm() ** 2
            verdict, notes = Verdict.REFUTED, (refuted,)
            if unconfirmed := _unconfirmed(val, element, refute_tol):
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
        for p, found in enumerate(_descend(tensor, range(len(points)), gmat, z0[:k], w0[:k],
                                           _MAX_ITERS, target, probe=True)):
            if (report := read(p, *found)).verdict is Verdict.REFUTED:
                reports[p] = report
    if rest := [p for p, report in enumerate(reports) if report is None]:
        for p, found in zip(rest, _descend(tensor, rest, gmat, z0, w0, _MAX_ITERS, target)):
            reports[p] = read(p, *found)
    return reports


def check_fatness(
    triple: Triple, budget: StartBudget = StartBudget(), tol: float = DEFAULT_TOL,
    refute_tol: float = DEFAULT_REFUTE_TOL,
) -> CertReport:
    """Search for commuting orthonormal pairs Z orthogonal to k, W in p.

    A pair with |[Z, W]|^2 below the refutation tolerance refutes fatness;
    all starts bottoming out above tol yields a heuristic CERTIFIED.
    """
    return _flat_plane_search(triple, Method.FAT, triple.gk_basis(), None, budget, tol,
                              refute_tol)[0]


def certify_part2(
    triple: Triple, a: AlgElement, budget: StartBudget = StartBudget(),
    tol: float = DEFAULT_TOL,
) -> CertReport:
    """Search for a commuting pair that violates the derivative criterion.

    Minimizes |[Z, W]|^2 + |[Z^h, [A, W]^h]|^2 over orthonormal Z orthogonal
    to k, W in p: a common zero is a commuting pair on which the criterion
    fails.  The verdict rule is fatness's with the fixed refutation
    threshold DEFAULT_REFUTE_TOL, so the score is the joint minimum, above
    tol for a heuristic CERTIFIED.  The search gets the h-parts of Z and
    [A, W]; on elements [A, W] comes from `bracket` and may leave g.  Like
    part3, a run with A not in p is INCONCLUSIVE, with a NaN score and no
    search (`_unmet_preconditions`).
    """
    if unmet := _unmet_preconditions(triple, Method.PART2, a, tol, budget):
        return unmet[0]
    h = triple.h_basis

    def images(z_stack: np.ndarray, w_stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        aw_h = pair_bracket_coords(triple.field, a.comp[None], w_stack, h.mat)[0] @ h.mat
        return project(triple, z_stack)[None], aw_h.reshape(w_stack.shape)[None]

    def element_images(p: int, z: AlgElement, w: AlgElement) -> tuple[AlgElement, AlgElement]:
        return tuple(from_flat(triple.field, triple.n, h.project_flat(v))
                     for v in (z.flat, bracket(a, w).flat))

    return _flat_plane_search(triple, Method.PART2, triple.gk_basis(), (images, element_images),
                              budget, tol, DEFAULT_REFUTE_TOL)[0]


# --- per-point positivity ------------------------------------------------------


def _scan_points(triple: Triple, gs: np.ndarray, points: Sequence[Optional[float]],
                 budget: StartBudget, tol: float, refute_tol: float) -> list[CertReport]:
    """The flat-plane search at the points reached by the unitary stack gs (P, n, n, 4), as one search.

    Only the images of Z and W depend on the point: as stacks, one stacked
    adjoint of the Z- and W-domains and their projections to h at each
    point; on elements, `comp_adjoint` at gs[p] and the projection to h.
    """
    def images(z_stack: np.ndarray, w_stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dz = len(z_stack)
        moved = comp_adjoint(gs[:, None], np.concatenate([z_stack, w_stack]))
        return project(triple, moved[:, :dz]), project(triple, moved[:, dz:])

    def element_images(p: int, z: AlgElement, w: AlgElement) -> tuple[AlgElement, AlgElement]:
        return tuple(from_flat(triple.field, triple.n,
                               triple.h_basis.project_flat(comp_adjoint(gs[p], x.comp).ravel()))
                     for x in (z, w))

    return _flat_plane_search(triple, Method.POINT_SCAN, _scan_z_domain(triple),
                              (images, element_images), budget, tol, refute_tol, points)


def _scan_z_domain(triple: Triple) -> Subspace:
    """Z-domain of the point searches: m for symmetric pairs, g minus k otherwise."""
    return triple.m_basis if is_symmetric_pair(triple) else triple.gk_basis()


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
    # exp(-sA) as exp(s (-A)): the same bits, and an error names the s given
    return _scan_points(triple, group_exps(-1.0 * a, points), points, budget, tol, refute_tol)
