"""Behavioral task summaries, the persistent attack memory, and warm starts.

A task is summarized by a fixed-length statistic vector computed from
clean-rollout trajectories. The memory stores (summary, configuration,
utility) records across tasks; retrieval ranks records by cosine
similarity of z-normalized summaries, and the retrieved configurations are
mixed into the base proposal as weighted point masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configspace import AttackConfig, ConfigSpace, decode_config
from .proposal import ProposalDistribution
from .serial import read_records, write_records
from .victims import RolloutBatch

FEATURE_LENGTH = 12

FEATURE_NAMES = (
    "latent_norm_mean", "latent_norm_std", "prediction_error_mean",
    "reward_mean", "reward_std", "reward_lag1_autocorr",
    "action_entropy", "policy_margin_mean",
    "return_mean", "return_std", "horizon_fraction", "reward_positive_fraction",
)


@dataclass(frozen=True)
class TaskSummary:
    task_id: str
    features: np.ndarray     # raw, length FEATURE_LENGTH

    def __post_init__(self) -> None:
        arr = np.array(self.features, dtype=float)   # a copy, made read-only below
        if arr.shape != (FEATURE_LENGTH,):
            raise ValueError(f"features must have length {FEATURE_LENGTH}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("features must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "features", arr)


def _action_entropy(actions: np.ndarray) -> float:
    _, counts = np.unique(actions, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def _lag1_autocorr(rewards: np.ndarray) -> float | None:
    if rewards.size < 2:
        return None
    a, b = rewards[:-1], rewards[1:]
    va, vb = np.var(a), np.var(b)
    if va < 1e-18 or vb < 1e-18:
        return None
    cov = np.mean((a - a.mean()) * (b - b.mean()))
    return float(cov / math.sqrt(va * vb))


def summarize(batch: RolloutBatch, task_id: str, horizon: int) -> TaskSummary:
    """Aggregate clean-rollout trajectories into the 12-feature summary."""
    traces = batch.trajectories
    if not traces:
        raise ValueError("need at least one episode of clean trajectory records")
    returns = np.asarray(batch.returns, dtype=float)

    latent_norms = np.concatenate([np.linalg.norm(tr.latents, axis=1) for tr in traces])
    rewards = np.concatenate([tr.rewards for tr in traces])
    margins = np.concatenate([tr.margins for tr in traces])

    pred_errors = []
    for tr in traces:
        if tr.latents.shape[0] >= 2:
            diff = tr.predicted_next[:-1] - tr.latents[1:]
            pred_errors.append(np.linalg.norm(diff, axis=1))
    pred_error_mean = float(np.concatenate(pred_errors).mean()) if pred_errors else 0.0

    autocorrs = [ac for tr in traces if (ac := _lag1_autocorr(tr.rewards)) is not None]
    autocorr = float(np.mean(autocorrs)) if autocorrs else 0.0

    action_feature = _action_entropy(np.concatenate([tr.actions for tr in traces]))

    total_steps = sum(tr.rewards.size for tr in traces)
    horizon_fraction = total_steps / (len(traces) * horizon)

    features = np.array([
        latent_norms.mean(), latent_norms.std(), pred_error_mean,
        rewards.mean(), rewards.std(), autocorr,
        action_feature, margins.mean(),
        returns.mean(), returns.std(), horizon_fraction,
        float(np.mean(rewards > 0)),
    ])
    return TaskSummary(task_id=task_id, features=features)


def similarity(a, b) -> float:
    """Cosine similarity; zero-norm vectors are defined to have similarity 0."""
    va = np.asarray(getattr(a, "features", a), dtype=float)
    vb = np.asarray(getattr(b, "features", b), dtype=float)
    if va.shape != vb.shape:
        raise ValueError(f"feature length mismatch: {va.shape} vs {vb.shape}")
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(va, vb) / (na * nb))


@dataclass(frozen=True)
class MemoryRecord(TaskSummary):
    """A task's summary, the configuration found for it, and its scores."""

    config: AttackConfig
    utility: float
    drop: float
    flip: float
    timestamp: float

    def __post_init__(self) -> None:
        super().__post_init__()   # the features check
        for name in ("utility", "drop", "flip", "timestamp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"memory record {name} must be finite, got {getattr(self, name)}")


# A memory-file value's JSON kind: the test it must pass, and its name. JSON
# numbers load as int or float; a bool is neither.
_STRING = (lambda v: type(v) is str, "a string")
_NUMBER = (lambda v: type(v) in (int, float), "a number")
_NUMBERS = (lambda v: type(v) is list and all(map(_NUMBER[0], v)), "a list of numbers")
# Each memory-file key, in written order: the MemoryRecord field it holds and
# its kind. The config is held as its `encode()` record.
_FILE_KEYS = {
    "task_id": ("task_id", _STRING),
    "psi": ("features", _NUMBERS),
    "config": ("config", _STRING),
    "utility": ("utility", _NUMBER),
    "d": ("drop", _NUMBER),
    "f": ("flip", _NUMBER),
    "ts": ("timestamp", _NUMBER),
}


@dataclass
class AttackMemory:
    """Append-only record store. Retrieval z-normalizes with the mean and
    standard deviation of the records held at the time of the call."""

    records: list[MemoryRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def insert(self, record: MemoryRecord) -> None:
        self.records.append(record)

    def next_timestamp(self) -> float:
        return float(len(self.records))

    def retrieve(self, query: TaskSummary, k: int) -> list[tuple[MemoryRecord, float]]:
        """Top-k records by similarity, ties broken by earlier timestamp then task id."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not self.records:
            return []
        stacked = np.stack([r.features for r in self.records])
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        q = (query.features - mean) / std
        scored = [(rec, similarity(q, (rec.features - mean) / std)) for rec in self.records]
        scored.sort(key=lambda pair: (-pair[1], pair[0].timestamp, pair[0].task_id))
        return scored[:k]

    def save(self, path) -> None:
        rows = [{key: getattr(rec, name) for key, (name, _) in _FILE_KEYS.items()}
                for rec in self.records]
        for row in rows:
            row["config"] = row["config"].encode()
        write_records(path, rows)

    @classmethod
    def load(cls, path) -> "AttackMemory":
        records = []

        def check(row: dict, ordinal: int) -> None:
            try:
                values = {}
                for key, (name, (holds, kind)) in _FILE_KEYS.items():
                    if key not in row:
                        raise ValueError(f"lacks {key!r}")
                    if not holds(row[key]):
                        raise ValueError(f"{key!r} must be {kind}, got {row[key]!r}")
                    values[name] = row[key]
                values["config"] = decode_config(values["config"])
                records.append(MemoryRecord(**values))
            except (ValueError, OverflowError) as exc:   # OverflowError: an integer beyond floats
                raise ValueError(f"bad memory record: {exc}") from None

        read_records(path, check)
        return cls(records=records)


@dataclass(frozen=True)
class WarmStart:
    distribution: ProposalDistribution
    skipped: int      # retrieved records whose config fell outside the space


def warm_start(q_base: ProposalDistribution, retrieved, lam: float,
               space: ConfigSpace) -> WarmStart:
    """(1 - lam) * q_base + lam * sum_i alpha_i * point_mass(c_i).

    alpha is a softmax of (similarity + utility) over the retained
    records. Retrieved configurations outside the space are skipped and
    counted; with nothing retained the base proposal is returned whatever
    lam is.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    if q_base.size != space.size:
        raise ValueError("base proposal is not aligned with the space")
    retained: list[tuple[int, float]] = []
    skipped = 0
    for record, sim in retrieved:
        if not space.contains(record.config):
            skipped += 1
            continue
        retained.append((space.index_of(record.config), sim + record.utility))
    if not retained:
        return WarmStart(q_base, skipped)
    scores = np.array([s for _, s in retained])
    alphas = np.exp(scores - scores.max())
    alphas /= alphas.sum()
    probs = (1.0 - lam) * q_base.probs.copy()
    for (idx, _), alpha in zip(retained, alphas):
        probs[idx] += lam * alpha
    return WarmStart(ProposalDistribution(probs), skipped)
