"""The horizontal zero-curvature-plane residual of the deformed left-invariant metric.

The residual is returned as raw squared norms; verdict-making against
tolerances lives in `certify`, which re-evaluates every refuting witness
here, on single elements.  It does not depend on the deformation
parameter t.  The deformed-metric residual |[Phi(X), Phi(Y)]|^2 +
|[X^h, Y^h]|^2, which no certifier reads, lives with its tests in
tests/helpers.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import AlgElement, GroupElement, adjoint, bracket, inner
from .triple import Part, Triple, project


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
