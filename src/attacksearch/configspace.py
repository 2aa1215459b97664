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
from dataclasses import dataclass, field
from functools import cached_property

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
        if self.epsilon < 0:
            raise SpaceError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.steps < 1:
            raise SpaceError(f"steps must be >= 1, got {self.steps}")
        if self.restarts < 1:
            raise SpaceError(f"restarts must be >= 1, got {self.restarts}")
        if not (0.0 < self.rho <= 1.0):
            raise SpaceError(f"rho must be in (0, 1], got {self.rho}")
        if not (0 <= self.seed <= MAX_SEED):
            raise SpaceError(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    def sort_key(self) -> tuple:
        return (self.family.rank, self.epsilon, self.steps, self.restarts,
                self.rho, self.seed, self.allocation.rank)

    def encode(self) -> str:
        """Flat text record; field order fixed, round-trip exact."""
        return (f"family={self.family.value};eps={self.epsilon};steps={self.steps};"
                f"restarts={self.restarts};rho={self.rho!r};seed={self.seed};"
                f"alloc={self.allocation.value}")


_ENCODE_KEYS = ("family", "eps", "steps", "restarts", "rho", "seed", "alloc")


def decode_config(text: str) -> AttackConfig:
    parts = text.strip().split(";")
    if len(parts) != len(_ENCODE_KEYS):
        raise SpaceError(f"expected {len(_ENCODE_KEYS)} fields, got {len(parts)}: {text!r}")
    values: dict[str, str] = {}
    for part, key in zip(parts, _ENCODE_KEYS):
        k, sep, v = part.partition("=")
        if not sep or k != key:
            raise SpaceError(f"expected field {key!r}, got {part!r}")
        values[k] = v
    try:
        family = AttackFamily(values["family"])
        alloc = AllocationRule(values["alloc"])
    except ValueError as exc:
        raise SpaceError(str(exc)) from None
    return AttackConfig(
        family=family,
        epsilon=int(values["eps"]),
        steps=int(values["steps"]),
        restarts=int(values["restarts"]),
        rho=float(values["rho"]),
        seed=int(values["seed"]),
        allocation=alloc,
    )


def _check_grid(name: str, family: AttackFamily, values: tuple, *, numeric: bool = True) -> None:
    if len(values) == 0:
        raise SpaceError(f"empty grid for field {name!r} of family {family.value!r}")
    if numeric and any(b <= a for a, b in zip(values, values[1:])):
        raise SpaceError(f"grid for field {name!r} of family {family.value!r} "
                         f"must be strictly increasing: {values}")
    if not numeric and len(set(values)) != len(values):
        raise SpaceError(f"grid for field {name!r} of family {family.value!r} "
                         f"has duplicates: {values}")


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


# Mutable axes for local moves: everything except the seed (a pure
# replication knob) and the family itself.
_MOVE_AXES = ("epsilons", "steps", "restarts", "rhos", "allocations")
_AXES = ("epsilons", "steps", "restarts", "rhos", "seeds", "allocations")
_FIELD_OF_AXIS = {
    "epsilons": "epsilon", "steps": "steps", "restarts": "restarts",
    "rhos": "rho", "seeds": "seed", "allocations": "allocation",
}


@dataclass(frozen=True)
class ConfigSpace:
    """Union over families of per-family grids, with a canonical enumeration.

    Canonical order is lexicographic in (family, epsilon, steps, restarts,
    rho, seed, allocation), each ascending; families in declaration order.
    """

    grids: dict[AttackFamily, FamilyGrid] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.grids:
            raise SpaceError("config space must contain at least one family")
        for family, grid in self.grids.items():
            _check_grid("epsilon", family, grid.epsilons)
            _check_grid("steps", family, grid.steps)
            _check_grid("restarts", family, grid.restarts)
            _check_grid("rho", family, grid.rhos)
            _check_grid("seed", family, grid.seeds)
            _check_grid("allocation", family, grid.allocations, numeric=False)

    @property
    def families(self) -> tuple[AttackFamily, ...]:
        return tuple(f for f in AttackFamily if f in self.grids)

    @property
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

    def index_of(self, config: AttackConfig) -> int:
        try:
            return self._index[config]
        except KeyError:
            raise SpaceError(f"config not in space: {config.encode()}") from None

    def contains(self, config: AttackConfig) -> bool:
        return config in self._index

    def neighbors(self, config: AttackConfig) -> tuple[AttackConfig, ...]:
        """All on-grid configs one grid position away in exactly one field.

        Moves: epsilon/steps/restarts/rho one grid position up or down and
        allocation to an adjacent allocation candidate. The family and the
        seed never move. Never contains `config` itself.
        """
        if not self.contains(config):
            raise SpaceError(f"config not in space: {config.encode()}")
        grid = self.grids[config.family]
        out = []
        for axis in _MOVE_AXES:
            values = getattr(grid, axis)
            fname = _FIELD_OF_AXIS[axis]
            pos = values.index(getattr(config, fname))
            for npos in (pos - 1, pos + 1):
                if 0 <= npos < len(values):
                    out.append(_replace_field(config, fname, values[npos]))
        out.sort(key=AttackConfig.sort_key)
        return tuple(out)

    def shifted(self, config: AttackConfig, *, epsilon_step: int = 0, steps_step: int = 0,
                toggle_allocation: bool = False) -> AttackConfig:
        """Move one grid position along the given directions, clamped at grid ends."""
        grid = self.grids[config.family]
        new = config
        if epsilon_step:
            new = _replace_field(new, "epsilon",
                                 _step_on_grid(grid.epsilons, new.epsilon, epsilon_step))
        if steps_step:
            new = _replace_field(new, "steps",
                                 _step_on_grid(grid.steps, new.steps, steps_step))
        if toggle_allocation and len(grid.allocations) > 1:
            pos = grid.allocations.index(new.allocation)
            new = _replace_field(new, "allocation",
                                 grid.allocations[(pos + 1) % len(grid.allocations)])
        return new


def _step_on_grid(values: tuple, value, direction: int):
    pos = values.index(value) + (1 if direction > 0 else -1)
    return values[min(max(pos, 0), len(values) - 1)]


def _replace_field(config: AttackConfig, name: str, value) -> AttackConfig:
    kwargs = {
        "family": config.family, "epsilon": config.epsilon, "steps": config.steps,
        "restarts": config.restarts, "rho": config.rho, "seed": config.seed,
        "allocation": config.allocation,
    }
    kwargs[name] = value
    return AttackConfig(**kwargs)


def validate_config(config: AttackConfig, space: ConfigSpace) -> bool:
    """Membership verdict: true iff every field lies on the family's grid."""
    grid = space.grids.get(config.family)
    if grid is None:
        return False
    return (config.epsilon in grid.epsilons and config.steps in grid.steps
            and config.restarts in grid.restarts and config.rho in grid.rhos
            and config.seed in grid.seeds and config.allocation in grid.allocations)


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
    """Default per-family grids.

    Epsilon in steps of 2 across each family's range (2-20 for the
    gradient and boundary families, 2-16 for the square family); steps in
    increments of 2 within each family's range, except the square family
    whose step counts run 20-160 in increments of 20.
    """
    base_eps = {
        AttackFamily.APGD_CE: _even_range(2, 20, 2),
        AttackFamily.APGD_DLR: _even_range(2, 20, 2),
        AttackFamily.FAB: _even_range(2, 20, 2),
        AttackFamily.SQUARE: _even_range(2, 16, 2),
        AttackFamily.PHYSCOND_WMA: _even_range(2, 20, 2),
    }
    base_steps = {
        AttackFamily.APGD_CE: _even_range(4, 24, 2),
        AttackFamily.APGD_DLR: _even_range(4, 24, 2),
        AttackFamily.FAB: _even_range(6, 32, 2),
        AttackFamily.SQUARE: _even_range(20, 160, 20),
        AttackFamily.PHYSCOND_WMA: _even_range(6, 32, 2),
    }
    eps_over = epsilon_overrides or {}
    steps_over = steps_overrides or {}
    grids = {}
    for family in families:
        grids[family] = FamilyGrid(
            epsilons=tuple(eps_over.get(family, base_eps[family])),
            steps=tuple(steps_over.get(family, base_steps[family])),
            restarts=tuple(restarts),
            rhos=tuple(rhos),
            seeds=tuple(seeds),
        )
    return ConfigSpace(grids=grids)
