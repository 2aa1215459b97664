"""Explicit probability vectors over an enumerated configuration space."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MASS_TOL = 1e-12


class ProposalError(ValueError):
    pass


@dataclass(frozen=True)
class ProposalDistribution:
    """Probability vector aligned with the canonical space enumeration."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ProposalError("probability vector must be 1-d and non-empty")
        total = float(arr.sum())
        # any NaN or infinite entry makes the sum non-finite; NaN would
        # otherwise pass both checks below
        if not math.isfinite(total):
            raise ProposalError("probabilities must be finite")
        if np.any(arr < 0):
            raise ProposalError("probabilities must be >= 0")
        if abs(total - 1.0) > MASS_TOL:
            raise ProposalError(f"probabilities must sum to 1 (got {total!r})")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def mass(self, indices) -> float:
        """Total probability of a subset of configuration indices."""
        return float(self.probs[np.asarray(list(indices), dtype=int)].sum())


def uniform(size: int) -> ProposalDistribution:
    if size < 1:
        raise ProposalError("support size must be >= 1")
    return ProposalDistribution(np.full(size, 1.0 / size))


def point_mass(size: int, index: int) -> ProposalDistribution:
    probs = np.zeros(size)
    probs[index] = 1.0
    return ProposalDistribution(probs)


def _check_aligned(a: ProposalDistribution, b: ProposalDistribution) -> None:
    if a.size != b.size:
        raise ProposalError(f"misaligned supports: {a.size} vs {b.size}")


def update(q: ProposalDistribution, q_hat: ProposalDistribution,
           alpha: float) -> ProposalDistribution:
    """Convex combination (1 - alpha) * q + alpha * q_hat, componentwise."""
    if not (0.0 <= alpha <= 1.0):
        raise ProposalError(f"alpha must lie in [0, 1], got {alpha}")
    _check_aligned(q, q_hat)
    return ProposalDistribution((1.0 - alpha) * q.probs + alpha * q_hat.probs)


def correction_operator(q: ProposalDistribution, q_star: ProposalDistribution,
                        gamma: float) -> ProposalDistribution:
    """(q + gamma * q_star) / (1 + gamma); equals update with alpha = gamma/(1+gamma)."""
    if gamma < 0:
        raise ProposalError(f"gamma must be >= 0, got {gamma}")
    _check_aligned(q, q_star)
    return ProposalDistribution((q.probs + gamma * q_star.probs) / (1.0 + gamma))
