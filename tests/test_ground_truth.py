"""The response surface's whole-space ground truth against its scalar surfaces.

`ResponseSurfaceVictim.surface_arrays` computes the four scalar surfaces for
a whole space in one array pass, and `population_utility_map` is array
arithmetic over it. Both must agree with the per-config scalar path and
with the independent nested-loop oracle to 1e-12, on any numpy SIMD kernel.
"""

import numpy as np
import pytest

from attacksearch.configspace import (AllocationRule, AttackFamily, ConfigSpace, FamilyGrid,
                                      default_config_space)
from attacksearch.evaluation import CleanBaseline, UtilityWeights
from attacksearch.theory import brute_force_utility_reference, population_utility_map
from attacksearch.victims import ResponseSurfaceVictim, surface_task

TOL = 1e-12
SCALAR_SURFACES = ("drop_true", "flip_true", "episode_seconds_true", "return_noise_scale",
                   "attacked_return_mean")


def rich_space() -> ConfigSpace:
    """Several restarts, rhos and seeds, two non-adjacent families, one allocation."""
    grid = dict(restarts=(1, 2, 3), rhos=(0.5, 0.75, 1.0), seeds=(0, 7),
                allocations=(AllocationRule.MARGIN_LINEAR,))
    return ConfigSpace(grids={
        AttackFamily.APGD_DLR: FamilyGrid(epsilons=(2, 6, 12, 20), steps=(4, 14, 24), **grid),
        AttackFamily.SQUARE: FamilyGrid(epsilons=(2, 8, 16), steps=(20, 80, 160), **grid),
    })


def scalar_columns(victim, space):
    return [np.array([getattr(victim, name)(c) for c in space.configs])
            for name in SCALAR_SURFACES[:4]]


def assert_agrees(victim, space, weights=UtilityWeights()):
    for array, scalar in zip(victim.surface_arrays(space), scalar_columns(victim, space)):
        assert array.shape == (space.size,)
        assert np.abs(array - scalar).max() <= TOL
    umap = population_utility_map(victim, space, weights)
    reference = brute_force_utility_reference(victim, space, CleanBaseline(victim.j_clean),
                                              weights)
    assert np.abs(umap.utilities - reference).max() <= TOL


def test_default_space_agrees_for_20_thetas():
    space = default_config_space()
    victims = [surface_task(f"task-{task_seed}", task_seed) for task_seed in range(20)]
    assert {v.preferred_allocation for v in victims} == set(AllocationRule)
    for victim in victims:
        assert_agrees(victim, space)


@pytest.mark.parametrize("task_seed", [0, 3, 11])
def test_rich_space_agrees(task_seed):
    space = rich_space()
    assert space.size == 4 * 3 * 3 * 3 * 2 + 3 * 3 * 3 * 3 * 2
    victim = surface_task("task-rich", task_seed)
    assert_agrees(victim, space)
    assert_agrees(victim, space, UtilityWeights(flip=0.4, runtime=0.05, variability=0.2))


def test_noisy_victim_flip_and_variability_columns():
    space = rich_space()
    victim = surface_task("task-noisy", 11, noise_scale=0.7)
    denom = abs(victim.j_clean) + 1.0
    umap = population_utility_map(victim, space)
    flips = np.array([victim.flip_true(c) for c in space.configs])
    variabilities = np.array([victim.return_noise_scale(c) / denom for c in space.configs])
    assert np.abs(umap.flips - flips).max() <= TOL
    assert np.abs(umap.variabilities - variabilities).max() <= TOL
    assert umap.variabilities.min() > 0.0


def test_space_columns_are_the_configs_fields_read_only_and_built_once():
    space = rich_space()
    cols = space.columns
    assert space.columns is cols
    for i, c in enumerate(space.configs):
        assert (cols.family_rank[i], cols.epsilon[i], cols.steps[i], cols.restarts[i],
                cols.rho[i]) == (c.family.rank, c.epsilon, c.steps, c.restarts, c.rho)
        assert cols.margin_linear[i] == (c.allocation is AllocationRule.MARGIN_LINEAR)
    for col in cols:
        with pytest.raises(ValueError):
            col[0] = col[0]


def test_population_map_makes_no_per_config_surface_call(monkeypatch):
    space = default_config_space()
    victim = surface_task("task-array", 5)
    expected = population_utility_map(victim, space)

    def per_config_call(self, config):
        raise AssertionError("population_utility_map called a scalar surface")

    for name in SCALAR_SURFACES:
        monkeypatch.setattr(ResponseSurfaceVictim, name, per_config_call)
    umap = population_utility_map(victim, space)
    for field in ("utilities", "drops", "flips", "runtimes", "variabilities"):
        assert np.array_equal(getattr(umap, field), getattr(expected, field))
