"""The finite-budget search loop with feedback-refined proposals.

Each round samples a batch from the current proposal (restricted to
configurations not yet evaluated), evaluates it with the scout-confirm
protocol, converts the outcomes into deterministic feedback signals,
builds the feedback-induced proposal from each configuration's newest
evaluation, and mixes it into the current proposal. The loop stops once
exactly min(budget, |space|) distinct configurations have been evaluated.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .configspace import AttackConfig, ConfigSpace
from .evaluation import (DEFAULT_WEIGHTS, CleanBaseline, UtilityReport,
                         UtilityWeights, scout_confirm)
from .proposal import ProposalDistribution, ProposalError, update
from .rngutil import Stream

logger = logging.getLogger(__name__)

TAG_WEAK_DROP = "weak-drop"
TAG_HIGH_COST = "high-cost"
TAG_UNSTABLE = "unstable-returns"
TAG_LOW_FLIP = "low-flip"
ALPHA_SCHEDULES = ("constant", "harmonic")


@dataclass(frozen=True)
class FeedbackSignal:
    """Failure tags plus grid-step direction recommendations."""

    tags: tuple[str, ...] = ()
    epsilon_step: int = 0        # -1 | 0 | +1 grid positions
    steps_step: int = 0
    toggle_allocation: bool = False


def feedback(report: UtilityReport,
             weights: UtilityWeights = DEFAULT_WEIGHTS) -> FeedbackSignal:
    """Deterministic rule set converting one evaluation into directions."""
    tags: list[str] = []
    eps_step = 0
    steps_step = 0
    toggle = False
    if report.drop < 0.1:
        tags.append(TAG_WEAK_DROP)
        eps_step = 1
    if weights.runtime * math.log1p(report.runtime) > report.drop + weights.flip * report.flip:
        tags.append(TAG_HIGH_COST)
        steps_step = -1
    if report.variability > 0.5 * max(report.drop, 0.1):
        tags.append(TAG_UNSTABLE)
    if report.flip < 0.2:
        tags.append(TAG_LOW_FLIP)
        toggle = True
    return FeedbackSignal(tuple(tags), eps_step, steps_step, toggle)


@dataclass(frozen=True)
class SearchParams:
    budget: int
    batch_size: int
    alpha: float = 0.5
    alpha_schedule: str = ALPHA_SCHEDULES[0]
    beta: float = 50.0                   # exploitation temperature for q-hat
    spread: float = 2.0                  # neighborhood deposit weight
    scout_episodes: int = 2
    confirm_episodes: int = 5
    confirm_top_k: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.budget >= self.batch_size >= 1):
            raise ValueError("need budget >= batch_size >= 1")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.alpha_schedule not in ALPHA_SCHEDULES:
            raise ValueError(f"unknown alpha schedule: {self.alpha_schedule!r}")
        if self.beta < 0 or self.spread < 0:
            raise ValueError("beta and spread must be >= 0")
        if self.scout_episodes < 1 or self.confirm_episodes < 1 or self.confirm_top_k < 1:
            raise ValueError("episode counts and confirm_top_k must be >= 1")

    def alpha_at(self, round_number: int) -> float:
        """Update rate for the given 1-based round."""
        if self.alpha_schedule == "harmonic":
            return 1.0 / (1.0 + round_number)
        return self.alpha


@dataclass
class EvalEntry:
    round_index: int
    config_index: int
    report: UtilityReport
    signal: FeedbackSignal
    seed: int


@dataclass
class SearchHistory:
    """Every evaluation in order (`entries`), and the newest entry of each
    evaluated config index (`latest`): a confirm replaces its scout there,
    and the induced proposal and the search's best read it. Each round's
    proposal array, read-only, is kept by reference in `proposal_snapshots`."""

    entries: list[EvalEntry] = field(default_factory=list)
    latest: dict[int, EvalEntry] = field(default_factory=dict)
    best_per_round: list[tuple[int, float]] = field(default_factory=list)
    proposal_snapshots: list[np.ndarray] = field(default_factory=list)

    def record(self, entry: EvalEntry) -> None:
        self.entries.append(entry)
        self.latest[entry.config_index] = entry

    @property
    def evaluated(self):
        """The indices of every configuration evaluated so far."""
        return self.latest.keys()

    @property
    def episodes_used(self) -> int:
        return sum(entry.report.episodes for entry in self.entries)

    @property
    def virtual_seconds(self) -> float:
        total = 0.0   # charged in order: `sum` compensates rounding from Python 3.12 on
        for entry in self.entries:
            total += entry.report.runtime * entry.report.episodes
        return total

    def best(self) -> EvalEntry:
        """The newest entry of highest utility; ties go to the lowest index,
        which is the lowest `sort_key`."""
        return min(self.latest.values(), key=lambda e: (-e.report.utility, e.config_index))

    def close_round(self) -> None:
        best = self.best()
        idx, value = best.config_index, best.report.utility
        if self.best_per_round and value < self.best_per_round[-1][1]:
            idx, value = self.best_per_round[-1]
        self.best_per_round.append((idx, value))

    @property
    def rounds(self) -> int:
        return len(self.best_per_round)


def propose_batch(q: ProposalDistribution, b: int, evaluated,
                  rng: np.random.Generator) -> list[int]:
    """Sample b distinct unevaluated configuration indices proportional to q.

    Returns every remaining index when fewer than b are unevaluated, and an
    empty list when the space is exhausted. If the proposal places no mass
    on the unevaluated set, sampling falls back to uniform over it.

    The remaining set is read off one boolean mask over the space, built
    from the `evaluated` indices on every call; each draw then zeroes the
    picked weight in place. The batch's b uniforms are drawn as one block,
    and each pick inverts its uniform through the normalized cumulative
    weights: `Generator.choice`'s own algorithm, so the picks and the
    generator's final state are those of b `rng.choice(n, p=w / w.sum())`
    calls removing picks one by one.
    """
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    unevaluated = np.ones(q.size, dtype=bool)
    unevaluated[list(evaluated)] = False
    remaining = np.flatnonzero(unevaluated)
    if remaining.size <= b:
        return remaining.tolist()
    weights = q.probs[remaining]
    total = weights.sum()
    if total <= 0.0:
        weights = np.full(remaining.size, 1.0 / remaining.size)
    else:
        weights = weights / total
    picks: list[int] = []
    for u in rng.random(b):
        w = weights
        w_total = w.sum()
        if w_total <= 0.0:      # no mass left: uniform over the unpicked
            w = np.ones(remaining.size)
            w[picks] = 0.0
            w_total = w.sum()
        cdf = (w / w_total).cumsum()
        cdf /= cdf[-1]
        pick = int(cdf.searchsorted(u, side="right"))
        weights[pick] = 0.0
        picks.append(pick)
    return remaining[picks].tolist()


def induced_proposal(history: SearchHistory, space: ConfigSpace, beta: float,
                     spread: float) -> ProposalDistribution:
    """Exploitation weights on evaluated configs plus neighborhood deposits.

    Each evaluated config's newest entry gives it weight exp(beta * U) and
    spreads spread * weight uniformly over the neighborhood of its position
    shifted one grid step along any nonzero direction of its feedback. The
    shift targets and neighborhoods are read from the space's move table,
    and every deposit lands in one `np.add.at` in entry order, self first,
    so each config receives its additions in the order of a per-entry loop.
    """
    if not history.latest:
        raise ValueError("history contains no evaluated configurations")
    if beta < 0 or spread < 0:
        raise ValueError("beta and spread must be >= 0")
    u_max = history.best().report.utility
    entries = history.latest.values()
    sites = np.fromiter(history.latest, dtype=np.intp, count=len(entries))[:, None]
    values = np.array([math.exp(beta * (e.report.utility - u_max)) for e in entries])[:, None]
    if spread > 0:
        moves = space.moves
        signals = [e.signal for e in entries]
        centers = moves.shifted[np.sign([s.epsilon_step for s in signals]) + 1,
                                np.sign([s.steps_step for s in signals]) + 1,
                                [int(s.toggle_allocation) for s in signals], sites[:, 0]]
        neighbors = moves.neighbors[centers]
        counts = np.maximum((neighbors < space.size).sum(axis=1, keepdims=True), 1)
        sites = np.concatenate([sites, neighbors], axis=1)
        values = np.concatenate([values, np.repeat(spread * values / counts,
                                                   neighbors.shape[1], axis=1)], axis=1)
    # the neighbour rows' padding is `size`: what lands there is dropped
    probs = np.zeros(space.size + 1)
    np.add.at(probs, sites.ravel(), values.ravel())
    probs = probs[:-1]
    return ProposalDistribution(probs / probs.sum())


@dataclass(frozen=True)
class SearchResult:
    best_report: UtilityReport
    best_index: int
    best_config: AttackConfig
    history: SearchHistory


def run_search(victim, space: ConfigSpace, params: SearchParams,
               q0: ProposalDistribution, baseline: CleanBaseline,
               weights: UtilityWeights = DEFAULT_WEIGHTS,
               refine: bool = True) -> SearchResult:
    """Run the full loop until exactly min(budget, |space|) configs are evaluated.

    With refine=False the proposal is never updated (pure sampling from q0),
    which is the uniform-random baseline when q0 is uniform.
    """
    if q0.size != space.size:
        raise ProposalError("initial proposal is not aligned with the space")
    budget = min(params.budget, space.size)
    if budget < params.budget:
        logger.warning(f"budget clamped from {params.budget} to {budget} (space size)")
    history = SearchHistory()
    stream = Stream(params.seed)
    q = q0
    round_index = 0
    while len(history.evaluated) < budget:
        history.proposal_snapshots.append(q.probs)
        batch_budget = min(params.batch_size, budget - len(history.evaluated))
        batch = propose_batch(q, batch_budget, history.evaluated,
                              stream.child(round_index, 0).generator())
        top_k = min(params.confirm_top_k, len(batch))
        for ev in scout_confirm(victim, space, batch, params.scout_episodes,
                                params.confirm_episodes, top_k, baseline,
                                stream.child(round_index, 1), weights):
            history.record(EvalEntry(round_index, ev.index, ev.report,
                                     feedback(ev.report, weights), ev.seed))
        history.close_round()
        if refine and len(history.evaluated) < budget:
            q_hat = induced_proposal(history, space, params.beta, params.spread)
            q = update(q, q_hat, params.alpha_at(round_index + 1))
        round_index += 1
    best = history.best()
    return SearchResult(best_report=best.report, best_index=best.config_index,
                        best_config=space.configs[best.config_index], history=history)
