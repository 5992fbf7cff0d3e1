"""The witness of an approximate flat plane.

A flat-plane search (`certify._flat_plane_search`) attaches it to a REFUTED
report with the search's own term values; the search re-checks each witness
on single elements itself.  The residuals that tests hold the searches to,
the horizontal one and that of the deformed metric,
|[Phi(X), Phi(Y)]|^2 + |[X^h, Y^h]|^2, live in tests/helpers.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import AlgElement


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
