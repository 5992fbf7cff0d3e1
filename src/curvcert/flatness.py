"""Zero-curvature-plane residuals for the deformed left-invariant metric.

All residuals are returned as raw squared norms; verdict-making against
tolerances lives in `certify`, which re-evaluates every refuting witness
here, on single elements.  None of the horizontal residuals depend on the
deformation parameter t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import AlgElement, GroupElement, adjoint, bracket, inner
from .triple import DeformParam, Part, Triple, phi, project


class PlaneInputError(ValueError):
    """Arguments violate a flat-plane precondition (dependence, wrong subspace)."""


@dataclass(frozen=True)
class FlatPairWitness:
    """A pair (Z, W) whose small residuals exhibit an approximate flat plane.

    point_s records the position along an exp(-s*A) scan when applicable.
    """

    Z: AlgElement
    W: AlgElement
    commutator_residual: float
    horizontal_residual: Optional[float] = None
    point_s: Optional[float] = None


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


def horizontal_flat_residual(
    triple: Triple, g: GroupElement, z: AlgElement, w: AlgElement
) -> tuple[float, float]:
    """Residual pair (|[Z,W]|^2, |[(Ad_g Z)^h, (Ad_g W)^h]|^2).

    Both vanishing certifies an (approximate) horizontal zero-curvature plane
    at the point reached by g.  Preconditions: Z orthogonal to k, W in p,
    (Z, W) orthonormal.
    """
    _check_pair(triple, z, w)
    azh = project(triple, adjoint(g, z), Part.H)
    awh = project(triple, adjoint(g, w), Part.H)
    return bracket(z, w).norm() ** 2, bracket(azh, awh).norm() ** 2


def _check_pair(triple: Triple, z: AlgElement, w: AlgElement) -> None:
    tol = 1e-8
    if abs(z.norm() - 1.0) > tol or abs(w.norm() - 1.0) > tol or abs(inner(z, w)) > tol:
        raise PlaneInputError("pair (Z, W) is not orthonormal")
    if not triple.p_basis.contains(w, tol):
        raise PlaneInputError("W does not lie in p")
    if np.linalg.norm(triple.k_basis.project_flat(z.flat)) > tol:
        raise PlaneInputError("Z is not orthogonal to k")
