"""A plain reference search on `AttackConfig` objects that pins `run_search` bit for bit.

The reference shares only the victims, `Stream` and the utility estimate
(`estimate_utility`, the paper's formula applied to a rollout batch) with
`src/`. It draws each batch with sequential `rng.choice` calls that remove
each pick, scouts and confirms with its own ranking, applies the feedback
rules, takes shifts and neighbourhoods from the scan oracles of
test_configspace.py, and builds every proposal with a per-config loop.
"""

import itertools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_configspace import brute_force_neighbors, shifted_oracle

from attacksearch.configspace import (AllocationRule, AttackConfig, AttackFamily,
                                      ConfigSpace, FamilyGrid)
from attacksearch.evaluation import DEFAULT_WEIGHTS, estimate_utility, make_baseline
from attacksearch.logs import trial_records
from attacksearch.proposal import ProposalDistribution
from attacksearch.rngutil import Stream
from attacksearch.search import ALPHA_SCHEDULES, SearchParams, run_search
from attacksearch.serial import dump_record
from attacksearch.victims import surface_task


def reference_configs(space):
    """Every config of the space, ascending in `sort_key`."""
    return sorted((AttackConfig(family, *values)
                   for family, grid in space.grids.items()
                   for values in itertools.product(grid.epsilons, grid.steps, grid.restarts,
                                                   grid.rhos, grid.seeds, grid.allocations)),
                  key=AttackConfig.sort_key)


def reference_batch(probs, b, evaluated, rng):
    """b picks from the unevaluated configs, one `rng.choice` per pick, each pick removed."""
    remaining = [i for i in range(probs.size) if i not in evaluated]
    if len(remaining) <= b:
        return remaining
    weights = probs[remaining]
    total = weights.sum()
    weights = weights / total if total > 0.0 else np.full(len(remaining), 1.0 / len(remaining))
    chosen = []
    for _ in range(b):
        total = weights.sum()
        p = weights / total if total > 0.0 else np.full(len(remaining), 1.0 / len(remaining))
        pick = int(rng.choice(len(remaining), p=p))
        chosen.append(remaining.pop(pick))
        weights = np.delete(weights, pick)
    return chosen


def reference_scout_confirm(victim, configs, batch, params, baseline, stream):
    """(index, report, seed) of each scout in batch order, then each confirm best first."""
    def evaluate(index, episodes, child, phase):
        report = estimate_utility(victim, configs[index], episodes, baseline, child.generator(),
                                  phase=phase)
        return index, report, child.state_u64()

    scouts = [evaluate(index, params.scout_episodes, stream.child(0, i), "scout")
              for i, index in enumerate(batch)]
    ranked = sorted(scouts, key=lambda ev: (-ev[1].utility, ev[0]))
    top_k = min(params.confirm_top_k, len(batch))
    return scouts + [evaluate(index, params.confirm_episodes, stream.child(1, j), "confirm")
                     for j, (index, _, _) in enumerate(ranked[:top_k])]


def reference_directions(report, weights=DEFAULT_WEIGHTS):
    """(epsilon_step, steps_step, toggle_allocation) by the feedback rules."""
    runtime_cost = weights.runtime * math.log1p(report.runtime)
    return (1 if report.drop < 0.1 else 0,
            -1 if runtime_cost > report.drop + weights.flip * report.flip else 0,
            report.flip < 0.2)


def reference_induced(latest, configs, position, space, beta, spread):
    u_max = max(report.utility for report, _ in latest.values())
    probs = np.zeros(len(configs))
    for index, (report, directions) in latest.items():
        weight = math.exp(beta * (report.utility - u_max))
        probs[index] += weight
        if spread > 0:
            neighbors = brute_force_neighbors(
                shifted_oracle(space, configs[index], *directions), space)
            for neighbor in neighbors:
                probs[position[neighbor]] += spread * weight / len(neighbors)
    return probs / probs.sum()


def reference_search(victim, space, params, q0, baseline, refine):
    """(trial-log lines, proposal of each round, best index)."""
    configs = reference_configs(space)
    position = {config: i for i, config in enumerate(configs)}
    budget = min(params.budget, len(configs))
    stream = Stream(params.seed)
    q, lines, proposals = q0, [], []
    latest = {}            # index -> (newest report, its feedback directions)
    round_index = 0
    while len(latest) < budget:
        proposals.append(q)
        batch = reference_batch(q, min(params.batch_size, budget - len(latest)), latest,
                                stream.child(round_index, 0).generator())
        for index, report, seed in reference_scout_confirm(victim, configs, batch, params,
                                                           baseline, stream.child(round_index, 1)):
            latest[index] = (report, reference_directions(report))
            lines.append(dump_record({
                "round": round_index, "phase": report.phase, "config": configs[index].encode(),
                "D": report.drop, "F": report.flip, "T": report.runtime,
                "V": report.variability, "U": report.utility, "episodes": report.episodes,
                "seed": seed}))
        if refine and len(latest) < budget:
            n = round_index + 1
            alpha = 1.0 / (1.0 + n) if params.alpha_schedule == "harmonic" else params.alpha
            q_hat = reference_induced(latest, configs, position, space, params.beta, params.spread)
            q = (1.0 - alpha) * q + alpha * q_hat
        round_index += 1
    best = min(latest, key=lambda index: (-latest[index][0].utility, index))
    return lines, proposals, best


@st.composite
def reference_cases(draw):
    def axis(values):
        return tuple(sorted(draw(st.sets(values, min_size=1, max_size=3))))

    families = draw(st.sets(st.sampled_from(list(AttackFamily)), min_size=1, max_size=3))
    space = ConfigSpace(grids={family: FamilyGrid(
        epsilons=axis(st.integers(0, 24)), steps=axis(st.integers(1, 40)),
        restarts=axis(st.integers(1, 3)), rhos=axis(st.sampled_from([0.25, 0.5, 0.75, 1.0])),
        seeds=axis(st.integers(0, 3)),
        allocations=draw(st.sampled_from([(AllocationRule.FIXED,),
                                          (AllocationRule.MARGIN_LINEAR,),
                                          tuple(AllocationRule), tuple(AllocationRule)])))
        for family in families})
    budget = draw(st.integers(1, 16))
    params = SearchParams(
        budget=budget, batch_size=draw(st.integers(1, min(budget, 5))),
        alpha=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
        alpha_schedule=draw(st.sampled_from(ALPHA_SCHEDULES)),
        beta=draw(st.sampled_from([0.0, 5.0, 50.0])),
        spread=draw(st.sampled_from([0.0, 0.5, 2.0])),
        scout_episodes=draw(st.integers(1, 3)), confirm_episodes=draw(st.integers(1, 4)),
        confirm_top_k=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**32)))
    victim = surface_task(f"reference-{params.seed}", draw(st.integers(0, 50)),
                          noise_scale=draw(st.sampled_from([0.0, 0.0, 0.3, 1.0])))
    if draw(st.booleans()):
        q0 = np.full(space.size, 1.0 / space.size)
    else:   # a skewed start, as a warm start gives
        raw = np.exp(5.0 * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=space.size,
                                                  max_size=space.size))))
        q0 = raw / raw.sum()
    return space, params, victim, q0, draw(st.sampled_from([True, True, True, False]))


# Seed-only twins tie exactly on a noiseless surface, and one batch holds them all.
TIES = ConfigSpace(grids={AttackFamily.FAB: FamilyGrid(epsilons=(4, 8), steps=(6,),
                                                         seeds=(0, 1, 2))})
# Eight refined rounds whose feedback pushes against grid edges and toggles allocations.
MOVES = ConfigSpace(grids={AttackFamily.APGD_CE: FamilyGrid(epsilons=(2, 8, 20),
                                                            steps=(4, 12, 24))})


@settings(max_examples=100, deadline=None)
@given(case=reference_cases())
@example(case=(TIES, SearchParams(budget=12, batch_size=12, confirm_top_k=4, seed=1),
               surface_task("reference-ties", 3), np.full(TIES.size, 1.0 / TIES.size), True))
@example(case=(MOVES, SearchParams(budget=16, batch_size=2, beta=5.0, spread=2.0, seed=1),
               surface_task("reference-moves", 1), np.full(MOVES.size, 1.0 / MOVES.size), True))
def test_run_search_matches_the_reference_search(case):
    """Same trial-log bytes, same proposal bits every round, same best index."""
    space, params, victim, q0, refine = case
    baseline = make_baseline(victim, 2, Stream(params.seed, (7,)).generator())
    result = run_search(victim, space, params, ProposalDistribution(q0), baseline, refine=refine)
    lines, proposals, best = reference_search(victim, space, params, q0, baseline, refine)
    assert "".join(dump_record(r) + "\n" for r in trial_records(result.history, space)) \
        == "".join(line + "\n" for line in lines)
    assert [p.tobytes() for p in result.history.proposal_snapshots] \
        == [p.tobytes() for p in proposals]
    assert result.best_index == best
