import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attacksearch.configspace import (AllocationRule, AttackConfig, AttackFamily,
                                      ConfigSpace, FamilyGrid, SpaceError,
                                      decode_config, default_config_space)
from attacksearch.rngutil import MAX_SEED


def brute_force_count(space: ConfigSpace) -> int:
    """Independent nested-loop enumeration counter."""
    count = 0
    for family in AttackFamily:
        grid = space.grids.get(family)
        if grid is None:
            continue
        for _ in itertools.product(grid.epsilons, grid.steps, grid.restarts,
                                   grid.rhos, grid.seeds, grid.allocations):
            count += 1
    return count


def brute_force_neighbors(config, space):
    """Single-field one-grid-step scan over the full enumeration."""
    grid = space.grids[config.family]
    axes = {
        "epsilon": grid.epsilons, "steps": grid.steps, "restarts": grid.restarts,
        "rho": grid.rhos, "allocation": grid.allocations,
    }
    out = []
    for other in space.configs:
        if other == config or other.family != config.family or other.seed != config.seed:
            continue
        diffs = [name for name in ("epsilon", "steps", "restarts", "rho", "allocation")
                 if getattr(other, name) != getattr(config, name)]
        if len(diffs) != 1:
            continue
        name = diffs[0]
        values = axes[name]
        if abs(values.index(getattr(other, name)) - values.index(getattr(config, name))) == 1:
            out.append(other)
    return sorted(out, key=AttackConfig.sort_key)


def neighbor_configs(space, config):
    return [space.configs[i] for i in space.neighbors(space.index_of(config))]


def shifted_oracle(space, config, epsilon_step, steps_step, toggle_allocation):
    """Config-level shift: clamp epsilon and steps at grid ends, wrap the allocation."""
    grid = space.grids[config.family]

    def step(values, value, direction):
        if not direction:
            return value
        pos = values.index(value) + (1 if direction > 0 else -1)
        return values[min(max(pos, 0), len(values) - 1)]

    allocation = config.allocation
    if toggle_allocation:
        pos = grid.allocations.index(allocation)
        allocation = grid.allocations[(pos + 1) % len(grid.allocations)]
    return dataclasses.replace(config, epsilon=step(grid.epsilons, config.epsilon, epsilon_step),
                               steps=step(grid.steps, config.steps, steps_step),
                               allocation=allocation)


def test_enumerate_cardinality_toy(toy_space):
    configs = toy_space.configs
    assert len(configs) == 24  # 2 families * 3 eps * 2 steps * 2 allocations
    assert len(set(configs)) == 24


def test_enumerate_cardinality_default_grid(default_space):
    configs = default_space.configs
    assert len(configs) == brute_force_count(default_space)
    apgd_ce = [c for c in configs if c.family is AttackFamily.APGD_CE]
    # 10 epsilon values x 11 step values x 2 allocations
    assert len(apgd_ce) == 220


def test_enumerate_singleton():
    space = ConfigSpace(grids={AttackFamily.SQUARE: FamilyGrid(
        epsilons=(8,), steps=(20,), allocations=(AllocationRule.FIXED,))})
    assert len(space.configs) == 1


@st.composite
def canonical_order_spaces(draw):
    """1-3 families in any subset, 1-3 values on every axis, one or both allocations."""
    def axis(values):
        return tuple(sorted(draw(st.sets(values, min_size=1, max_size=3))))

    families = draw(st.sets(st.sampled_from(list(AttackFamily)), min_size=1, max_size=3))
    return ConfigSpace(grids={family: FamilyGrid(
        epsilons=axis(st.integers(0, 30)), steps=axis(st.integers(1, 40)),
        restarts=axis(st.integers(1, 4)), rhos=axis(st.sampled_from([0.25, 0.5, 0.75, 1.0])),
        seeds=axis(st.integers(0, 5)),
        allocations=draw(st.sampled_from([(AllocationRule.FIXED,),
                                          (AllocationRule.MARGIN_LINEAR,),
                                          tuple(AllocationRule)])))
        for family in families})


@settings(max_examples=60, deadline=None)
@given(space=canonical_order_spaces())
@example(space=default_config_space())
def test_enumerate_canonical_order(space):
    """Index order is `sort_key` order, and no two keys are equal: scout-confirm
    breaks utility ties by index on that ground."""
    keys = [c.sort_key() for c in space.configs]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_empty_grid_names_field():
    with pytest.raises(SpaceError, match="steps"):
        ConfigSpace(grids={AttackFamily.FAB: FamilyGrid(epsilons=(2,), steps=())})


def test_non_increasing_grid_rejected():
    with pytest.raises(SpaceError, match="epsilon"):
        ConfigSpace(grids={AttackFamily.FAB: FamilyGrid(epsilons=(4, 2), steps=(6,))})


def test_reversed_allocation_grid_rejected():
    with pytest.raises(SpaceError, match="allocations"):
        ConfigSpace(grids={AttackFamily.FAB: FamilyGrid(
            epsilons=(2,), steps=(6,),
            allocations=(AllocationRule.MARGIN_LINEAR, AllocationRule.FIXED))})


def test_validate_membership(toy_space):
    for config in toy_space.configs:
        assert toy_space.contains(config)


def test_validate_off_grid(default_space):
    config = AttackConfig(AttackFamily.APGD_CE, 255, 10, 1, 0.75, 0,
                          AllocationRule.FIXED)
    assert not default_space.contains(config)


def test_validate_absent_family(toy_space):
    config = AttackConfig(AttackFamily.SQUARE, 8, 4, 1, 0.75, 0, AllocationRule.FIXED)
    assert not toy_space.contains(config)


def test_config_field_invariants():
    with pytest.raises(SpaceError):
        AttackConfig(AttackFamily.FAB, -1, 4, 1, 0.75, 0, AllocationRule.FIXED)
    with pytest.raises(SpaceError):
        AttackConfig(AttackFamily.FAB, 4, 0, 1, 0.75, 0, AllocationRule.FIXED)
    with pytest.raises(SpaceError):
        AttackConfig(AttackFamily.FAB, 4, 4, 1, 1.5, 0, AllocationRule.FIXED)


def test_encode_format():
    config = AttackConfig(AttackFamily.APGD_CE, 8, 10, 1, 0.75, 0,
                          AllocationRule.MARGIN_LINEAR)
    assert config.encode() == ("family=apgd-ce;eps=8;steps=10;restarts=1;"
                               "rho=0.75;seed=0;alloc=margin-linear")


def test_encode_decode_round_trip(default_space):
    for config in default_space.configs[::37]:
        assert decode_config(config.encode()) == config


ENCODED = "family=apgd-ce;eps=8;steps=1;restarts=1;rho=0.75;seed=0;alloc=fixed"


@pytest.mark.parametrize("text", [
    "family=apgd-ce;eps=8",
    "eps=8;family=apgd-ce;steps=1;restarts=1;rho=0.75;seed=0;alloc=fixed",
    ENCODED.replace("eps=8", "eps=08"),
    ENCODED.replace("rho=0.75", "rho=.75"),
    ENCODED.replace("rho=0.75", "rho=0.750"),
    ENCODED.replace("seed=0", "seed=+0"),
    ENCODED + ";seed=0",
    ENCODED.replace("steps=", "step="),
], ids=["two-fields", "reordered", "eps-leading-zero", "rho-no-leading-zero",
        "rho-trailing-zero", "seed-plus-sign", "repeated-field", "misspelled-key"])
def test_decode_rejects_malformed(text):
    assert decode_config(ENCODED).encode() == ENCODED
    with pytest.raises(SpaceError):
        decode_config(text)


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(AttackFamily), epsilon=st.integers(0, 255),
       steps=st.integers(1, 10 ** 6), restarts=st.integers(1, 100),
       rho=st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, MAX_SEED),
       allocation=st.sampled_from(AllocationRule))
def test_decode_inverts_encode(family, epsilon, steps, restarts, rho, seed, allocation):
    config = AttackConfig(family, epsilon, steps, restarts, rho, seed, allocation)
    assert decode_config(config.encode()) == config
    assert decode_config(f"  {config.encode()}\n") == config


def test_reenumeration_after_round_trip(toy_space):
    configs = toy_space.configs
    recoded = [decode_config(c.encode()) for c in configs]
    assert recoded == list(configs)


def test_neighborhood_interior_count():
    # 3-valued eps, 3-valued steps, 2 allocations, others singleton
    space = ConfigSpace(grids={AttackFamily.APGD_CE: FamilyGrid(
        epsilons=(2, 8, 16), steps=(4, 10, 20))})
    interior = AttackConfig(AttackFamily.APGD_CE, 8, 10, 1, 0.75, 0,
                            AllocationRule.FIXED)
    neighbors = space.neighbors(space.index_of(interior))
    assert neighbor_configs(space, interior) == brute_force_neighbors(interior, space)
    assert list(neighbors) == sorted(neighbors)
    assert len(neighbors) == 5  # eps 2 + steps 2 + allocation 1


def test_neighborhood_corner_smaller():
    space = ConfigSpace(grids={AttackFamily.APGD_CE: FamilyGrid(
        epsilons=(2, 8, 16), steps=(4, 10, 20))})
    corner = AttackConfig(AttackFamily.APGD_CE, 2, 4, 1, 0.75, 0,
                          AllocationRule.FIXED)
    interior = AttackConfig(AttackFamily.APGD_CE, 8, 10, 1, 0.75, 0,
                            AllocationRule.FIXED)
    corner_n = neighbor_configs(space, corner)
    assert corner_n == brute_force_neighbors(corner, space)
    assert len(corner_n) < len(neighbor_configs(space, interior))


def test_neighborhood_alloc_only():
    space = ConfigSpace(grids={AttackFamily.APGD_CE: FamilyGrid(
        epsilons=(8,), steps=(10,))})
    config = AttackConfig(AttackFamily.APGD_CE, 8, 10, 1, 0.75, 0,
                          AllocationRule.FIXED)
    neighbors = neighbor_configs(space, config)
    assert len(neighbors) == 1
    assert neighbors[0].allocation is AllocationRule.MARGIN_LINEAR


def test_neighborhood_rejects_off_space(toy_space):
    for index in (-1, toy_space.size, 10**6):
        with pytest.raises(SpaceError, match="outside"):
            toy_space.neighbors(index)
        with pytest.raises(SpaceError, match="outside"):
            toy_space.shifted(index, epsilon_step=1)


def test_neighborhood_membership_and_symmetry(toy_space):
    neighbor_sets = [set(toy_space.neighbors(i)) for i in range(toy_space.size)]
    for i, neighbors in enumerate(neighbor_sets):
        assert i not in neighbors
        for n in neighbors:
            assert 0 <= n < toy_space.size
            assert toy_space.configs[n].family is toy_space.configs[i].family
            assert i in neighbor_sets[n]


def test_shifted_clamps_and_wraps():
    space = ConfigSpace(grids={AttackFamily.APGD_CE: FamilyGrid(
        epsilons=(2, 8, 16), steps=(4, 10))})
    top = space.index_of(AttackConfig(AttackFamily.APGD_CE, 16, 10, 1, 0.75, 0,
                                      AllocationRule.MARGIN_LINEAR))
    assert space.shifted(top, epsilon_step=1, steps_step=1) == top
    assert space.shifted(0, epsilon_step=-1, steps_step=-1) == 0
    wrapped = space.configs[space.shifted(top, toggle_allocation=True)]
    assert (wrapped.epsilon, wrapped.steps, wrapped.allocation) == \
        (16, 10, AllocationRule.FIXED)
    assert space.shifted(top) == top


@st.composite
def small_spaces(draw):
    families = draw(st.lists(st.sampled_from(list(AttackFamily)), min_size=1,
                             max_size=3, unique=True))
    grids = {}
    for family in families:
        eps = tuple(sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=4))))
        steps = tuple(sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=3))))
        restarts = tuple(sorted(draw(st.sets(st.integers(1, 3), min_size=1, max_size=2))))
        seeds = tuple(sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=2))))
        allocations = draw(st.sampled_from([(AllocationRule.FIXED,),
                                            (AllocationRule.MARGIN_LINEAR,),
                                            tuple(AllocationRule)]))
        grids[family] = FamilyGrid(epsilons=eps, steps=steps, restarts=restarts,
                                   seeds=seeds, allocations=allocations)
    return ConfigSpace(grids=grids)


@settings(max_examples=40, deadline=None)
@given(space=small_spaces())
def test_enumeration_matches_nested_loop_oracle(space):
    configs = space.configs
    assert len(configs) == brute_force_count(space)
    assert len(set(configs)) == len(configs)
    assert [decode_config(c.encode()) for c in configs] == list(configs)


@settings(max_examples=25, deadline=None)
@given(space=small_spaces())
def test_neighborhood_matches_scan_oracle(space):
    """Every index's row of the move table."""
    for config in space.configs:
        assert neighbor_configs(space, config) == brute_force_neighbors(config, space)


@settings(max_examples=60, deadline=None)
@given(space=small_spaces(), epsilon_step=st.integers(-2, 2), steps_step=st.integers(-2, 2),
       toggle_allocation=st.booleans())
def test_shifted_matches_config_oracle(space, epsilon_step, steps_step, toggle_allocation):
    """Every index's entry of the move table for one drawn direction."""
    for index, config in enumerate(space.configs):
        moved = space.shifted(index, epsilon_step=epsilon_step, steps_step=steps_step,
                              toggle_allocation=toggle_allocation)
        assert space.configs[moved] == shifted_oracle(space, config, epsilon_step, steps_step,
                                                      toggle_allocation)


def test_move_table_is_read_only_and_built_once(toy_space):
    moves = toy_space.moves
    assert toy_space.moves is moves
    assert moves.shifted.shape == (3, 3, 2, toy_space.size)
    assert moves.neighbors.shape[0] == toy_space.size
    for array in moves:
        assert not array.flags.writeable and array.base is None
        with pytest.raises(ValueError):
            array.flat[0] = 0


def test_move_table_is_built_by_array_arithmetic(monkeypatch):
    """No per-index move and no config object goes into the table."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-index move called while building the move table")

    space = default_config_space()
    monkeypatch.setattr(ConfigSpace, "shifted", refuse)
    monkeypatch.setattr(ConfigSpace, "neighbors", refuse)
    moves = space.moves
    assert "configs" not in vars(space)
    monkeypatch.undo()
    assert space.moves is moves
