"""Attack configurations and finite per-task search spaces.

A configuration bundles an attack family with its evaluation
hyperparameters (perturbation budget, optimization steps, restarts,
step-size schedule parameter, seed, allocation rule). A `ConfigSpace`
holds one value grid per family; the searchable space is the union over
families of the per-family Cartesian products, enumerated in a fixed
canonical order so every downstream probability vector and log is
reproducible.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .rngutil import MAX_SEED


class SpaceError(ValueError):
    """Invalid grid or configuration definition."""


class AttackFamily(enum.Enum):
    APGD_CE = "apgd-ce"
    APGD_DLR = "apgd-dlr"
    FAB = "fab"
    SQUARE = "square"
    PHYSCOND_WMA = "physcond-wma"

    @property
    def rank(self) -> int:
        return _FAMILY_RANK[self]


_FAMILY_RANK = {f: i for i, f in enumerate(AttackFamily)}


class AllocationRule(enum.Enum):
    FIXED = "fixed"
    MARGIN_LINEAR = "margin-linear"

    @property
    def rank(self) -> int:
        return _ALLOC_RANK[self]


_ALLOC_RANK = {a: i for i, a in enumerate(AllocationRule)}


@dataclass(frozen=True)
class AttackConfig:
    """One point of the search space."""

    family: AttackFamily
    epsilon: int          # pixel budget, applied as epsilon/255
    steps: int
    restarts: int
    rho: float            # step-size schedule parameter
    seed: int
    allocation: AllocationRule

    def __post_init__(self) -> None:
        for name, holds, rule in _FIELD_RULES.values():
            value = getattr(self, name)
            if not holds(value):
                raise SpaceError(f"{name} {rule}, got {value}")

    def sort_key(self) -> tuple:
        return (self.family.rank, self.epsilon, self.steps, self.restarts,
                self.rho, self.seed, self.allocation.rank)

    def encode(self) -> str:
        """Flat text record; field order fixed, round-trip exact."""
        return (f"family={self.family.value};eps={self.epsilon};steps={self.steps};"
                f"restarts={self.restarts};rho={self.rho!r};seed={self.seed};"
                f"alloc={self.allocation.value}")


def decode_config(text: str) -> AttackConfig:
    """The config whose `encode()` is `text`, surrounding whitespace aside: `encode`
    alone defines the record, so any other spelling (`eps=08`, `rho=.75`) is refused."""
    text = text.strip()
    try:
        v = dict(part.split("=", 1) for part in text.split(";"))
        config = AttackConfig(AttackFamily(v["family"]), int(v["eps"]), int(v["steps"]),
                              int(v["restarts"]), float(v["rho"]), int(v["seed"]),
                              AllocationRule(v["alloc"]))
    except KeyError as exc:
        raise SpaceError(f"config record {text!r} lacks field {exc}") from None
    except ValueError as exc:
        raise SpaceError(f"bad config record {text!r}: {exc}") from None
    if config.encode() != text:
        raise SpaceError(f"config record {text!r} differs from its encoding {config.encode()!r}")
    return config


# Each numeric grid axis: the config field it sets and the values that field takes.
_FIELD_RULES = {
    "epsilons": ("epsilon", lambda v: v >= 0, "must be >= 0"),
    "steps": ("steps", lambda v: v >= 1, "must be >= 1"),
    "restarts": ("restarts", lambda v: v >= 1, "must be >= 1"),
    "rhos": ("rho", lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    "seeds": ("seed", lambda v: 0 <= v <= MAX_SEED, "must be an unsigned 64-bit integer"),
}


def grid_problem(axis: str, values: tuple) -> str | None:
    """Why `values` cannot be a family's `axis` grid, or None if it can.

    A grid is non-empty and strictly increasing (allocations by rank, i.e.
    in declaration order, so canonical index order is `sort_key` order),
    and every value is valid for the config field the axis sets.
    """
    if not values:
        return "must be non-empty"
    ranks = [getattr(v, "rank", v) for v in values]
    if any(b <= a for a, b in zip(ranks, ranks[1:])):
        return f"must be strictly increasing, got {list(values)}"
    if axis in _FIELD_RULES:
        name, holds, rule = _FIELD_RULES[axis]
        bad = [v for v in values if not holds(v)]
        if bad:
            return f"holds {bad[0]!r}, but {name} {rule}"
    return None


class SpaceColumns(NamedTuple):
    """Every config's fields in canonical index order, one read-only array each."""

    family_rank: np.ndarray       # int
    epsilon: np.ndarray           # float, like steps, restarts and rho
    steps: np.ndarray
    restarts: np.ndarray
    rho: np.ndarray
    margin_linear: np.ndarray     # bool: the allocation is margin-linear


class MoveTable(NamedTuple):
    """A space's local moves as index tables, one read-only int array each."""

    # shifted[e + 1, s + 1, t, i]: index i moved by `shifted(i, epsilon_step=e,
    # steps_step=s, toggle_allocation=t)`, for e, s in {-1, 0, 1} and t in {0, 1}
    shifted: np.ndarray
    # neighbors[i]: the indices of `neighbors(i)` ascending, padded with `size`
    neighbors: np.ndarray


@dataclass(frozen=True)
class FamilyGrid:
    """Candidate values for every configuration field of one family."""

    epsilons: tuple[int, ...]
    steps: tuple[int, ...]
    restarts: tuple[int, ...] = (1,)
    rhos: tuple[float, ...] = (0.75,)
    seeds: tuple[int, ...] = (0,)
    allocations: tuple[AllocationRule, ...] = (AllocationRule.FIXED, AllocationRule.MARGIN_LINEAR)

    @property
    def cardinality(self) -> int:
        return (len(self.epsilons) * len(self.steps) * len(self.restarts)
                * len(self.rhos) * len(self.seeds) * len(self.allocations))


_AXES = ("epsilons", "steps", "restarts", "rhos", "seeds", "allocations")
# Positions in _AXES of the axes local moves change: every axis but the
# seed (a pure replication knob). The family never moves either.
_MOVE_AXES = (0, 1, 2, 3, 5)
_EPSILON, _STEPS, _ALLOCATION = 0, 1, 5


@dataclass(frozen=True)
class ConfigSpace:
    """Union over families of per-family grids, with a canonical enumeration.

    Canonical order is lexicographic in (family, epsilon, steps, restarts,
    rho, seed, allocation), each ascending; families in declaration order.
    Within a family the index is a mixed-radix number over the axis
    positions, so local moves are stride arithmetic on indices.
    """

    grids: dict[AttackFamily, FamilyGrid] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.grids:
            raise SpaceError("config space must contain at least one family")
        for family, grid in self.grids.items():
            for axis in _AXES:
                problem = grid_problem(axis, getattr(grid, axis))
                if problem:
                    raise SpaceError(f"grid {axis!r} of family {family.value!r} {problem}")

    @property
    def families(self) -> tuple[AttackFamily, ...]:
        return tuple(f for f in AttackFamily if f in self.grids)

    @cached_property
    def size(self) -> int:
        return sum(self.grids[f].cardinality for f in self.families)

    @cached_property
    def configs(self) -> tuple[AttackConfig, ...]:
        """The full enumeration, canonical order, no duplicates."""
        out: list[AttackConfig] = []
        for family in self.families:
            g = self.grids[family]
            for eps, st, re, rho, sd, al in itertools.product(
                    g.epsilons, g.steps, g.restarts, g.rhos, g.seeds, g.allocations):
                out.append(AttackConfig(family, eps, st, re, rho, sd, al))
        return tuple(out)

    @cached_property
    def _index(self) -> dict[AttackConfig, int]:
        return {c: i for i, c in enumerate(self.configs)}

    @cached_property
    def columns(self) -> SpaceColumns:
        """The configs' fields as arrays, built once per space."""
        cols = SpaceColumns(*map(np.array, zip(*(
            (c.family.rank, float(c.epsilon), float(c.steps), float(c.restarts), c.rho,
             c.allocation is AllocationRule.MARGIN_LINEAR) for c in self.configs))))
        for col in cols:
            col.flags.writeable = False
        return cols

    @cached_property
    def moves(self) -> MoveTable:
        """Every index's shift targets and neighbourhood, built once per space
        by stride arithmetic on each family block's mixed-radix coordinates."""
        shifted, neighbors = [], []
        start = 0
        for family in self.families:
            grid = self.grids[family]
            lengths = [len(getattr(grid, axis)) for axis in _AXES]
            strides = [math.prod(lengths[k + 1:]) for k in range(len(_AXES))]
            offset = np.arange(grid.cardinality)
            coords = [offset // s % n for s, n in zip(strides, lengths)]
            index = start + offset

            def moved(k, step):   # each index's change one `step` along axis k, clamped
                return (np.clip(coords[k] + step, 0, lengths[k] - 1) - coords[k]) * strides[k]

            epsilon = np.stack([moved(_EPSILON, s) for s in (-1, 0, 1)])
            steps = np.stack([moved(_STEPS, s) for s in (-1, 0, 1)])
            k = _ALLOCATION
            toggle = ((coords[k] + 1) % lengths[k] - coords[k]) * strides[k]
            shifted.append(index + epsilon[:, None, None] + steps[None, :, None]
                           + np.stack([0 * toggle, toggle])[None, None])
            # A clamped unit move is zero exactly when it would leave the grid;
            # such a move becomes the padding `size`, which sorts last.
            unit_moves = [moved(k, s) for k in _MOVE_AXES for s in (-1, 1)]
            neighbors.append(np.sort(np.stack(
                [np.where(d != 0, index + d, self.size) for d in unit_moves], axis=1), axis=1))
            start += grid.cardinality
        neighbors = np.concatenate(neighbors)
        width = (neighbors < self.size).sum(axis=1).max()
        table = MoveTable(np.concatenate(shifted, axis=-1), neighbors[:, :width].copy())
        for array in table:
            array.flags.writeable = False
        return table

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise SpaceError(f"config index {index} outside [0, {self.size})")

    def index_of(self, config: AttackConfig) -> int:
        try:
            return self._index[config]
        except KeyError:
            raise SpaceError(f"config not in space: {config.encode()}") from None

    def contains(self, config: AttackConfig) -> bool:
        return config in self._index

    def neighbors(self, index: int) -> tuple[int, ...]:
        """Indices of the configs one grid position away in exactly one field, ascending.

        Moves: epsilon/steps/restarts/rho one grid position up or down and
        allocation to an adjacent allocation candidate. The family and the
        seed never move. Never contains `index` itself.
        """
        self._check_index(index)
        return tuple(n for n in self.moves.neighbors[index].tolist() if n < self.size)

    def shifted(self, index: int, *, epsilon_step: int = 0, steps_step: int = 0,
                toggle_allocation: bool = False) -> int:
        """Move one grid position along the given directions: epsilon and steps
        clamp at their grid ends, the allocation toggle wraps to the first candidate."""
        self._check_index(index)
        return int(self.moves.shifted[_sign(epsilon_step) + 1, _sign(steps_step) + 1,
                                      int(bool(toggle_allocation)), index])


def _sign(step) -> int:
    return (step > 0) - (step < 0)


# Per-family (lo, hi, step) of the default epsilon and steps grids. The
# response-surface victim centres its ground truth on these ranges whatever
# space is searched, so that ground truth is a function of (theta, config).
EPSILON_RANGES = {
    AttackFamily.APGD_CE: (2, 20, 2),
    AttackFamily.APGD_DLR: (2, 20, 2),
    AttackFamily.FAB: (2, 20, 2),
    AttackFamily.SQUARE: (2, 16, 2),
    AttackFamily.PHYSCOND_WMA: (2, 20, 2),
}
STEPS_RANGES = {
    AttackFamily.APGD_CE: (4, 24, 2),
    AttackFamily.APGD_DLR: (4, 24, 2),
    AttackFamily.FAB: (6, 32, 2),
    AttackFamily.SQUARE: (20, 160, 20),
    AttackFamily.PHYSCOND_WMA: (6, 32, 2),
}


def _even_range(lo: int, hi: int, step: int) -> tuple[int, ...]:
    return tuple(range(lo, hi + 1, step))


def default_config_space(
    families: tuple[AttackFamily, ...] = tuple(AttackFamily),
    restarts: tuple[int, ...] = (1,),
    rhos: tuple[float, ...] = (0.75,),
    seeds: tuple[int, ...] = (0,),
    epsilon_overrides: dict[AttackFamily, tuple[int, ...]] | None = None,
    steps_overrides: dict[AttackFamily, tuple[int, ...]] | None = None,
) -> ConfigSpace:
    """Default per-family grids: every `step` from `lo` to `hi` of each
    family's `EPSILON_RANGES` and `STEPS_RANGES` entry, unless overridden."""
    eps_over = epsilon_overrides or {}
    steps_over = steps_overrides or {}
    grids = {}
    for family in families:
        grids[family] = FamilyGrid(
            epsilons=tuple(eps_over.get(family, _even_range(*EPSILON_RANGES[family]))),
            steps=tuple(steps_over.get(family, _even_range(*STEPS_RANGES[family]))),
            restarts=tuple(restarts),
            rhos=tuple(rhos),
            seeds=tuple(seeds),
        )
    return ConfigSpace(grids=grids)
