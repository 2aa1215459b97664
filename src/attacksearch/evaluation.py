"""Utility components and the scout-confirm evaluation protocol.

The scalarized utility of a configuration is

    U = D + w_f * F - w_r * ln(1 + T) - w_v * V

with D the normalized reward drop, F the action flip rate, T the
per-episode virtual evaluation time in seconds, and V the normalized
return variability. T is charged per episode so that utilities of a
deterministic victim do not depend on how many episodes an estimate used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configspace import AttackConfig, ConfigSpace
from .rngutil import Stream
from .victims import RolloutBatch


@dataclass(frozen=True)
class UtilityWeights:
    flip: float = 0.25
    runtime: float = 0.15
    variability: float = 0.05

    def __post_init__(self) -> None:
        if self.flip < 0 or self.runtime < 0 or self.variability < 0:
            raise ValueError("utility weights must be >= 0")


DEFAULT_WEIGHTS = UtilityWeights()


@dataclass(frozen=True)
class CleanBaseline:
    j_clean: float
    batch: RolloutBatch | None = None   # clean stats, forwarded to summarization


@dataclass(frozen=True)
class UtilityReport:
    drop: float
    flip: float
    runtime: float       # per-episode virtual seconds
    variability: float
    utility: float
    episodes: int
    phase: str           # "scout" | "confirm"

    def __post_init__(self) -> None:
        if not (0.0 <= self.flip <= 1.0):
            raise ValueError(f"flip rate must lie in [0, 1], got {self.flip}")
        if self.runtime < 0 or self.variability < 0:
            raise ValueError("runtime and variability must be >= 0")


def reward_drop(j_clean: float, j_adv: float) -> float:
    """(J_clean - J_adv) / (|J_clean| + 1); negative when the attack helps."""
    if not (math.isfinite(j_clean) and math.isfinite(j_adv)):
        raise ValueError("returns must be finite")
    return (j_clean - j_adv) / (abs(j_clean) + 1.0)


def variability(returns, j_clean: float) -> float:
    """Population standard deviation of returns, normalized by |J_clean|+1."""
    arr = np.asarray(returns, dtype=float)
    n = arr.size
    if n == 0:
        raise ValueError("need at least one return")
    if n == 1:
        return 0.0
    dev = arr - np.add.reduce(arr) / n    # np.std's arithmetic, without its wrapper
    return math.sqrt(np.add.reduce(dev * dev) / n) / (abs(j_clean) + 1.0)


def scalarize(drop: float, flip: float, runtime: float, var: float,
              weights: UtilityWeights = DEFAULT_WEIGHTS) -> float:
    for name, value in (("drop", drop), ("flip", flip), ("runtime", runtime),
                        ("variability", var)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if runtime < 0:
        raise ValueError(f"runtime must be >= 0, got {runtime}")
    return (drop + weights.flip * flip
            - weights.runtime * math.log1p(runtime)
            - weights.variability * var)


def make_baseline(victim, episodes: int, rng: np.random.Generator) -> CleanBaseline:
    batch = victim.clean_rollout(episodes, rng)
    return CleanBaseline(j_clean=float(np.mean(batch.returns)), batch=batch)


class VictimEvaluationError(RuntimeError):
    def __init__(self, config: AttackConfig, cause: Exception):
        super().__init__(f"victim failed while evaluating {config.encode()}: {cause}")
        self.config = config


def estimate_utility(victim, config: AttackConfig, episodes: int,
                     baseline: CleanBaseline, rng: np.random.Generator,
                     weights: UtilityWeights = DEFAULT_WEIGHTS,
                     phase: str = "scout") -> UtilityReport:
    """Empirical utility from `episodes` attacked rollouts."""
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    try:
        batch = victim.attacked_rollout(config, episodes, rng)
    except Exception as exc:  # attach the offending config
        raise VictimEvaluationError(config, exc) from exc
    returns = batch.returns
    j_adv = float(returns.sum() / returns.size)   # np.mean's arithmetic, without its wrapper
    drop = reward_drop(baseline.j_clean, j_adv)
    flip = batch.flip_fraction
    runtime = batch.elapsed_virtual / episodes
    var = variability(returns, baseline.j_clean)
    utility = scalarize(drop, flip, runtime, var, weights)
    return UtilityReport(drop=drop, flip=flip, runtime=runtime,
                         variability=var, utility=utility, episodes=episodes,
                         phase=phase)


@dataclass(frozen=True)
class Evaluation:
    index: int           # the evaluated config's index in the space
    report: UtilityReport
    seed: int            # logged stream fingerprint for this evaluation


_SCOUT, _CONFIRM = 0, 1


def scout_confirm(victim, space: ConfigSpace, batch: list[int], scout_episodes: int,
                  confirm_episodes: int, top_k: int, baseline: CleanBaseline, stream: Stream,
                  weights: UtilityWeights = DEFAULT_WEIGHTS) -> tuple[Evaluation, ...]:
    """Scout each config index in `batch` cheaply, then confirm the best `top_k`.

    Returns the scouts in batch order, then the confirms best first, ties going
    to the lower index (the lower `sort_key`). Consumes exactly
    len(batch) * scout_episodes + top_k * confirm_episodes episodes.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    if scout_episodes < 1 or confirm_episodes < 1:
        raise ValueError("episode counts must be >= 1")
    if not (1 <= top_k <= len(batch)):
        raise ValueError(f"top_k must lie in [1, {len(batch)}], got {top_k}")

    evaluations = []
    for i, index in enumerate(batch):
        child = stream.child(_SCOUT, i)
        report = estimate_utility(victim, space.configs[index], scout_episodes, baseline,
                                  child.generator(), weights, phase="scout")
        evaluations.append(Evaluation(index, report, child.state_u64()))

    ranked = sorted(evaluations, key=lambda ev: (-ev.report.utility, ev.index))
    for j, scout in enumerate(ranked[:top_k]):
        child = stream.child(_CONFIRM, j)
        report = estimate_utility(victim, space.configs[scout.index], confirm_episodes,
                                  baseline, child.generator(), weights, phase="confirm")
        evaluations.append(Evaluation(scout.index, report, child.state_u64()))
    return tuple(evaluations)
