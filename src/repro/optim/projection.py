"""Projection operators for constrained SGD (equation (7) of the paper).

The paper's sensitivity argument carries over to constrained optimization
because projection onto a convex set is *non-expansive*:
``||Pi(u) - Pi(v)|| <= ||u - v||``. Every projector here is exercised by a
property test asserting exactly that inequality.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, Sequence

import numpy as np

from repro.utils.validation import check_positive


class Projection(abc.ABC):
    """Projection onto a closed convex set C in R^d."""

    @abc.abstractmethod
    def __call__(self, w: np.ndarray) -> np.ndarray:
        """Return ``argmin_{v in C} ||v - w||``."""

    @abc.abstractmethod
    def contains(self, w: np.ndarray, atol: float = 1e-9) -> bool:
        """True when ``w`` already lies in C (up to ``atol``)."""

    @property
    @abc.abstractmethod
    def radius(self) -> float:
        """Radius of the smallest origin-centred ball containing C.

        The convergence theorems (Theorems 10 and 12) are stated in terms
        of this value ``R``.
        """


class IdentityProjection(Projection):
    """No constraint: W = R^d (unconstrained optimization)."""

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return w

    def contains(self, w: np.ndarray, atol: float = 1e-9) -> bool:
        return True

    @property
    def radius(self) -> float:
        return float("inf")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "IdentityProjection()"


class L2BallProjection(Projection):
    """Projection onto ``{w : ||w|| <= R}``.

    This is the constraint the paper uses for strongly convex experiments
    (``R = 1/lambda``, Section 4.3).
    """

    def __init__(self, radius: float):
        self._radius = check_positive(radius, "radius")

    def __call__(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        norm = np.linalg.norm(w)
        if norm <= self._radius:
            return w
        return w * (self._radius / norm)

    def contains(self, w: np.ndarray, atol: float = 1e-9) -> bool:
        return float(np.linalg.norm(w)) <= self._radius + atol

    @property
    def radius(self) -> float:
        return self._radius

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"L2BallProjection(radius={self._radius!r})"


class BoxProjection(Projection):
    """Projection onto the axis-aligned box ``[low, high]^d``.

    Not used by the paper's experiments but a common constraint in
    practice; included to demonstrate that the bolt-on algorithm works with
    any convex constraint (the analysis only needs non-expansiveness).
    """

    def __init__(self, low: float, high: float):
        if not (np.isfinite(low) and np.isfinite(high)) or low >= high:
            raise ValueError(f"box bounds must satisfy low < high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(w, dtype=np.float64), self.low, self.high)

    def contains(self, w: np.ndarray, atol: float = 1e-9) -> bool:
        w = np.asarray(w, dtype=np.float64)
        return bool(np.all(w >= self.low - atol) and np.all(w <= self.high + atol))

    @property
    def radius(self) -> float:
        # Largest norm in the box is attained at a corner; per-dimension the
        # farthest coordinate from 0 is max(|low|, |high|). The dimension is
        # unknown here, so report the per-coordinate bound; callers needing
        # the exact d-dependent radius scale by sqrt(d).
        return max(abs(self.low), abs(self.high))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoxProjection(low={self.low!r}, high={self.high!r})"


def rows_projector(
    projections: Sequence[Projection],
) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """Compile per-model projections into one row-wise matrix projector.

    The fused multi-model engines step a ``(K, d)`` weight matrix and must
    then project each row onto its own constraint set. Returns ``None``
    when every projection is the identity (the common unconstrained case —
    callers skip the call entirely); a vectorized norm-and-rescale when
    every constraint is an L2 ball (or identity, radius = inf); and a
    plain row loop otherwise. The rescale computes ``w * (radius/norm)``
    exactly as :class:`L2BallProjection` does, so fused and sequential
    runs project to identical floats. The projector mutates its argument
    in place and returns it.
    """
    projections = list(projections)
    if all(isinstance(p, IdentityProjection) for p in projections):
        return None
    if all(isinstance(p, (IdentityProjection, L2BallProjection)) for p in projections):
        radii = np.array([p.radius for p in projections], dtype=np.float64)

        def project_l2(W: np.ndarray) -> np.ndarray:
            norms = np.linalg.norm(W, axis=1)
            violating = norms > radii
            if np.any(violating):
                W[violating] *= (radii[violating] / norms[violating])[:, None]
            return W

        return project_l2

    def project_rows(W: np.ndarray) -> np.ndarray:
        for i, projection in enumerate(projections):
            W[i] = projection(W[i])
        return W

    return project_rows


def exact_rows_projector(
    projections: Sequence[Projection],
) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """Compile per-model projections into a row projector whose row ``k``
    is bitwise ``projections[k](W[k])``.

    Only an :class:`L2BallProjection` / :class:`IdentityProjection` mix
    compiles (exact types: a subclass may override ``__call__``); anything
    else returns ``None`` and the caller keeps its per-model loop. Each
    ball row's norm is ``sqrt(row.dot(row))`` — the BLAS dot
    ``np.linalg.norm`` computes for a 1-D vector, where the
    ``norm(W, axis=1)`` reduction of :func:`rows_projector` sums in a
    different order — and every row outside its ball is rescaled by one
    masked ``w * (radius / norm)``. A NaN norm rescales, exactly as
    ``L2BallProjection``'s ``norm <= radius`` test does. The projector
    mutates its argument in place and returns it.
    """
    projections = list(projections)
    kinds = {type(p) for p in projections}
    if not kinds <= {L2BallProjection, IdentityProjection}:
        return None
    balls = np.flatnonzero([type(p) is L2BallProjection for p in projections])
    radii = np.array([projections[k].radius for k in balls], dtype=np.float64)

    def project_exact(W: np.ndarray) -> np.ndarray:
        if balls.size == 0:
            return W
        norms = np.sqrt(np.array([W[k].dot(W[k]) for k in balls], dtype=np.float64))
        outside = ~(norms <= radii)
        if outside.any():
            rows = balls[outside]
            W[rows] = W[rows] * (radii[outside] / norms[outside])[:, None]
        return W

    return project_exact
