"""Trial logs: one structured record per evaluation, plus the best-so-far
and threshold-efficiency computations the reports are built from."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .configspace import ConfigSpace
from .rngutil import MAX_SEED
from .search import SearchHistory
from .serial import RecordFormatError, read_records

# Each trial-record field, in logged order: what its value must be, and that
# rule's name; the ranges are those `UtilityReport` and the search guarantee.
# JSON numbers load as exactly int or float, so `type` keeps booleans out, and
# the finite bounds refuse NaN, infinities and integers beyond floats.
_MAX = sys.float_info.max
_FINITE = (lambda v: type(v) in (int, float) and -_MAX <= v <= _MAX, "a finite number")
_NON_NEGATIVE = (lambda v: type(v) in (int, float) and 0 <= v <= _MAX, "a finite number >= 0")
_FIELD_RULES = {
    "round": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "phase": (lambda v: v in ("scout", "confirm"), "'scout' or 'confirm'"),
    "config": (lambda v: type(v) is str, "a string"),
    "D": _FINITE,
    "F": (lambda v: type(v) in (int, float) and 0 <= v <= 1, "a number in [0, 1]"),
    "T": _NON_NEGATIVE,
    "V": _NON_NEGATIVE,
    "U": _FINITE,
    "episodes": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "seed": (lambda v: type(v) is int and 0 <= v <= MAX_SEED, "an integer in [0, 2**64 - 1]"),
}
TRIAL_FIELDS = tuple(_FIELD_RULES)


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


def _check_trial_record(record: dict, ordinal: int) -> None:
    for key, (holds, rule) in _FIELD_RULES.items():
        if key not in record:
            raise ValueError(f"trial record lacks {key!r}")
        if not holds(record[key]):
            raise ValueError(f"trial record {key!r} must be {rule}, got {record[key]!r}")
    if ordinal == 1 and record["phase"] != "scout":
        raise ValueError("trial log does not open with a scout record")


def read_trial_log(path) -> list[dict]:
    """The records of a trial log. Refuses, as `file:line`, an empty log, a
    record that lacks a `TRIAL_FIELDS` key or holds a value of the wrong
    kind in one, and a log that opens with no scout."""
    records = read_records(path, _check_trial_record)
    if not records:
        raise RecordFormatError(str(path), 1, "trial log is empty")
    return records


@dataclass(frozen=True)
class ThresholdOutcome:
    hit: bool
    trials_to_threshold: int | None    # 1-based trial index, hits only
    final_best: float


@dataclass(frozen=True)
class TrialCurve:
    """Best-so-far utility after each distinct evaluated configuration."""

    best_after_trial: tuple[float, ...]
    final_best: float

    def threshold(self, fraction: float = 0.9) -> ThresholdOutcome:
        """First trial whose best-so-far reaches fraction * final best.

        Runs whose final best utility is not positive never count as hits
        (their threshold would reward weaker search).
        """
        if self.final_best > 0.0:
            target = fraction * self.final_best
            for i, value in enumerate(self.best_after_trial, start=1):
                if value >= target:
                    return ThresholdOutcome(True, i, self.final_best)
        return ThresholdOutcome(False, None, self.final_best)


def best_so_far_curve(records) -> TrialCurve:
    """The running maximum of every logged utility, read after each trial.

    A "trial" is one distinct configuration, counted when its scout line
    appears. A confirm line counts toward the current trial: it raises the
    curve when it logs a higher utility and never lowers it.
    """
    if not records or records[0]["phase"] != "scout":
        raise ValueError("trial log does not open with a scout record")
    curve: list[float] = []
    best = -float("inf")
    for rec in records:
        best = max(best, float(rec["U"]))
        if rec["phase"] == "scout":
            curve.append(best)
        else:
            curve[-1] = best
    return TrialCurve(tuple(curve), curve[-1])


def threshold_outcome(records, fraction: float = 0.9) -> ThresholdOutcome:
    """The threshold outcome of a trial log's best-so-far curve."""
    return best_so_far_curve(records).threshold(fraction)


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
