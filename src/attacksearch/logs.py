"""Trial logs: one structured record per evaluation, plus the best-so-far
and threshold-efficiency computations the reports are built from."""

from __future__ import annotations

from dataclasses import dataclass

from .configspace import ConfigSpace
from .search import SearchHistory
from .serial import read_records

TRIAL_FIELDS = ("round", "phase", "config", "D", "F", "T", "V", "U", "episodes", "seed")


def trial_records(history: SearchHistory, space: ConfigSpace) -> list[dict]:
    out = []
    for entry in history.entries:
        report = entry.report
        out.append({
            "round": entry.round_index,
            "phase": report.phase,
            "config": space.configs[entry.config_index].encode(),
            "D": report.drop,
            "F": report.flip,
            "T": report.runtime,
            "V": report.variability,
            "U": report.utility,
            "episodes": report.episodes,
            "seed": entry.seed,
        })
    return out


def read_trial_log(path) -> list[dict]:
    return read_records(path)


@dataclass(frozen=True)
class TrialCurve:
    """Best-so-far utility after each distinct evaluated configuration."""

    best_after_trial: tuple[float, ...]
    final_best: float

    @property
    def trials(self) -> int:
        return len(self.best_after_trial)


def best_so_far_curve(records) -> TrialCurve:
    """Walk log lines in order; confirmed utilities replace scout ones.

    A "trial" is one distinct configuration, counted when its scout line
    appears; confirm lines update values within the current trial count.
    """
    current: dict[str, float] = {}
    curve: list[float] = []
    for rec in records:
        current[rec["config"]] = float(rec["U"])
        best = max(current.values())
        if rec["phase"] == "scout":
            curve.append(best)
        elif curve:
            curve[-1] = max(curve[-1], best)
    if not curve:
        raise ValueError("trial log contains no scout records")
    running = []
    best = -float("inf")
    for value in curve:
        best = max(best, value)
        running.append(best)
    return TrialCurve(tuple(running), running[-1])


@dataclass(frozen=True)
class ThresholdOutcome:
    hit: bool
    trials_to_threshold: int | None    # 1-based trial index, hits only
    final_best: float


def threshold_outcome(records, fraction: float = 0.9) -> ThresholdOutcome:
    """First trial whose best-so-far reaches fraction * final best.

    Runs whose final best utility is not positive never count as hits
    (their threshold would reward weaker search).
    """
    curve = best_so_far_curve(records)
    if curve.final_best <= 0.0:
        return ThresholdOutcome(False, None, curve.final_best)
    target = fraction * curve.final_best
    for i, value in enumerate(curve.best_after_trial, start=1):
        if value >= target:
            return ThresholdOutcome(True, i, curve.final_best)
    return ThresholdOutcome(False, None, curve.final_best)


def search_summary_record(history: SearchHistory, space: ConfigSpace,
                          best_index: int) -> dict:
    best = history.latest[best_index].report
    return {
        "best_config": space.configs[best_index].encode(),
        "U": best.utility,
        "D": best.drop,
        "F": best.flip,
        "rounds": history.rounds,
        "episodes": history.episodes_used,
        "configs_evaluated": len(history.evaluated),
        "virtual_seconds": history.virtual_seconds,
    }
