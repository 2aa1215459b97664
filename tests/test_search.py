import logging
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attacksearch import proposal
from attacksearch.configspace import (MAX_NEIGHBORS, AllocationRule, AttackConfig,
                                      AttackFamily, ConfigSpace, FamilyGrid)
from attacksearch.evaluation import DEFAULT_WEIGHTS, UtilityReport
from attacksearch.logs import search_summary_record, trial_records
from attacksearch.rngutil import Stream
from attacksearch.search import (EvalEntry, FeedbackSignal, SearchHistory,
                                 SearchParams, feedback, induced_proposal,
                                 propose_batch, run_search, spread_problem)
from attacksearch.theory import brute_force_utility
from attacksearch.victims import surface_task


def a_config(epsilon=8, steps=10):
    return AttackConfig(AttackFamily.APGD_CE, epsilon, steps, 1, 0.75, 0,
                        AllocationRule.FIXED)


def report(drop=0.5, flip=0.5, runtime=1.0, var=0.0, episodes=2, phase="scout"):
    from attacksearch.evaluation import scalarize
    return UtilityReport(drop=drop, flip=flip, runtime=runtime,
                         variability=var,
                         utility=scalarize(drop, flip, runtime, var),
                         episodes=episodes, phase=phase)


def search_space(eps=(2, 4, 8, 12, 16), steps=(4, 10)):
    return ConfigSpace(grids={AttackFamily.APGD_CE: FamilyGrid(
        epsilons=eps, steps=steps)})


def history_with(space, entries):
    history = SearchHistory()
    for round_index, config, rep, signal in entries:
        history.record(EvalEntry(round_index, space.index_of(config), rep, signal, seed=0))
    return history


# ---------------------------------------------------------------- feedback


def test_feedback_strong_attack_all_quiet():
    signal = feedback(report(drop=0.9, flip=0.8, runtime=1.0, var=0.0))
    assert signal.tags == ()
    assert signal == FeedbackSignal()


def test_feedback_weak_drop_and_low_flip():
    signal = feedback(report(drop=0.0, flip=0.1, runtime=0.1, var=0.0))
    assert "weak-drop" in signal.tags and "low-flip" in signal.tags
    assert signal.epsilon_step == 1
    assert signal.toggle_allocation


def test_feedback_high_cost_rule():
    # runtime term 0.6 > drop + w_f * flip = 0.5
    runtime = math.exp(0.6 / DEFAULT_WEIGHTS.runtime) - 1.0
    signal = feedback(report(drop=0.4, flip=0.4, runtime=runtime, var=0.0))
    assert "high-cost" in signal.tags
    assert signal.steps_step == -1


def test_feedback_unstable_returns_rule():
    signal = feedback(report(drop=0.4, flip=0.5, runtime=0.1, var=0.3))
    assert "unstable-returns" in signal.tags
    quiet = feedback(report(drop=0.4, flip=0.5, runtime=0.1, var=0.1))
    assert "unstable-returns" not in quiet.tags


# ---------------------------------------------------------------- propose_batch


def test_point_mass_proposal_sampled():
    space = search_space()
    q = proposal.point_mass(space.size, 3)
    batch = propose_batch(q.probs, 1, set(), Stream(1).generator())
    assert batch == [3]


def test_exhaustive_batch_returns_all_remaining():
    space = search_space(eps=(2, 4), steps=(4,))
    q = proposal.uniform(space.size)
    batch = propose_batch(q.probs, space.size, set(), Stream(2).generator())
    assert batch == list(range(space.size))


def test_exhausted_space_returns_empty():
    space = search_space(eps=(2,), steps=(4,))
    assert propose_batch(proposal.uniform(space.size).probs, 2, set(range(space.size)),
                         Stream(3).generator()) == []


def test_batch_skips_evaluated_and_is_distinct():
    space = search_space()
    q = proposal.uniform(space.size)
    batch = propose_batch(q.probs, 5, {0, 1, 2}, Stream(4).generator())
    assert len(batch) == len(set(batch)) == 5
    assert not set(batch) & {0, 1, 2}


def test_zero_mass_on_remaining_falls_back_to_uniform():
    space = search_space(eps=(2, 4), steps=(4,))
    q = proposal.point_mass(space.size, 0)
    batch = propose_batch(q.probs, 2, {0}, Stream(5).generator())
    assert len(batch) == len(set(batch)) == 2
    assert set(batch) <= {1, 2, 3}


def test_inclusion_frequency_matches_uniform_without_replacement():
    """10000 batches of 8 from a uniform 100-config proposal: per-config
    inclusion frequency within 3 binomial standard errors of 8/100."""
    size, b, trials = 100, 8, 10_000
    q = proposal.uniform(size)
    counts = np.zeros(size)
    gen = Stream(6).generator()
    for _ in range(trials):
        for idx in propose_batch(q.probs, b, set(), gen):
            counts[idx] += 1
    p = b / size
    se = math.sqrt(p * (1 - p) / trials)
    freq = counts / trials
    assert np.all(np.abs(freq - p) <= 3 * se + 1e-12)


def setdiff_propose_batch(q, b, evaluated, rng):
    """propose_batch as it was written with a set difference and a fresh
    masked copy of the weights per draw: the reference the mask form must
    reproduce draw for draw."""
    remaining = np.setdiff1d(np.arange(q.size), np.fromiter(evaluated, dtype=int,
                                                            count=len(evaluated)))
    if remaining.size == 0:
        return []
    if remaining.size <= b:
        return [int(i) for i in remaining]
    weights = q[remaining].copy()
    total = weights.sum()
    if total <= 0.0:
        weights = np.full(remaining.size, 1.0 / remaining.size)
    else:
        weights = weights / total
    chosen = []
    alive = np.ones(remaining.size, dtype=bool)
    for _ in range(b):
        w = np.where(alive, weights, 0.0)
        w_total = w.sum()
        if w_total <= 0.0:
            w = alive.astype(float)
            w_total = w.sum()
        pick = int(rng.choice(remaining.size, p=w / w_total))
        alive[pick] = False
        chosen.append(int(remaining[pick]))
    return chosen


def generator_state(rng) -> dict:
    """The bit generator's state with its arrays as lists, so states compare with ==."""
    return {key: {k: np.asarray(v).tolist() for k, v in value.items()}
            if isinstance(value, dict) else np.asarray(value).tolist()
            for key, value in rng.bit_generator.state.items()}


@st.composite
def proposal_cases(draw):
    """(probs, b, evaluated, seed): skewed, sparse, or zero on the unevaluated set."""
    size = draw(st.integers(1, 60))
    evaluated = draw(st.sets(st.integers(0, size - 1), max_size=size))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    shape = draw(st.sampled_from(["raw", "cubed", "sparse", "on-evaluated"]))
    if shape == "cubed":
        raw = raw ** 3
    elif shape == "sparse":
        raw[raw < 0.8] = 0.0
    elif shape == "on-evaluated":      # no mass where sampling happens: uniform fallback
        raw = np.zeros(size)
        raw[sorted(evaluated)] = 1.0
    if raw.sum() <= 0.0:
        raw[draw(st.integers(0, size - 1))] = 1.0
    b = draw(st.integers(1, size + 2))
    return raw / raw.sum(), b, evaluated, draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(case=proposal_cases(), rounds=st.integers(1, 4))
def test_propose_batch_matches_setdiff_reference(case, rounds):
    """Same indices and same generator state as the reference, over several
    rounds on an evaluated set that is edited directly between calls."""
    probs, b, evaluated, seed = case
    evaluated = set(evaluated)
    q = proposal.ProposalDistribution(probs).probs
    rng, reference_rng = Stream(seed).generator(), Stream(seed).generator()
    for _ in range(rounds):
        batch = propose_batch(q, b, evaluated, rng)
        assert batch == setdiff_propose_batch(q, b, evaluated, reference_rng)
        assert generator_state(rng) == generator_state(reference_rng)
        evaluated.update(batch)
        if batch:
            evaluated.discard(batch[0])   # a direct edit the next call must see


@pytest.mark.parametrize("shape", ["uniform", "exp-utility", "sparse", "zero-on-remaining"])
def test_propose_batch_matches_choice_on_the_default_space(default_space, shape):
    """`rng.choice` stays the oracle at benchmark scale: on the 1,128-config
    space, batches of up to 8 over searches' worth of rounds give the same
    indices and leave the generator in the same state."""
    size = default_space.size
    victim = surface_task("choice-task", 5)
    utilities = brute_force_utility(victim, default_space, make_baseline_for(victim)).utilities
    cases = Stream(21).generator()
    for case in range(12):
        evaluated = set(cases.choice(size, size=int(cases.integers(0, 24)),
                                     replace=False).tolist())
        if shape == "uniform":
            probs = np.full(size, 1.0 / size)
        elif shape == "exp-utility":
            probs = np.exp(50.0 * (utilities - utilities.max()))
        elif shape == "sparse":     # mass on a few configs: the batch runs out of it
            probs = np.zeros(size)
            probs[cases.choice(size, size=int(cases.integers(1, 6)), replace=False)] = 1.0
        else:                       # no mass where sampling happens: uniform fallback
            probs = np.zeros(size)
            probs[sorted(evaluated) or [0]] = 1.0
        q = proposal.ProposalDistribution(probs / probs.sum()).probs
        b = int(cases.integers(1, 9))
        rng, reference_rng = Stream(case).generator(), Stream(case).generator()
        for _ in range(4):
            batch = propose_batch(q, b, evaluated, rng)
            assert batch == setdiff_propose_batch(q, b, evaluated, reference_rng)
            assert generator_state(rng) == generator_state(reference_rng)
            evaluated.update(batch)


# ---------------------------------------------------------------- induced proposal


def test_induced_uniform_over_evaluated_at_beta_zero():
    space = search_space()
    entries = [(0, a_config(2, 4), report(drop=0.1), FeedbackSignal()),
               (0, a_config(8, 10), report(drop=0.9), FeedbackSignal())]
    history = history_with(space, entries)
    q = induced_proposal(history, space, beta=0.0, spread=0.0)
    i, j = space.index_of(a_config(2, 4)), space.index_of(a_config(8, 10))
    assert q[i] == pytest.approx(0.5, abs=1e-12)
    assert q[j] == pytest.approx(0.5, abs=1e-12)
    assert q.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(proposal.ProposalDistribution(q).probs, q)


def test_induced_concentrates_on_best_at_high_beta():
    space = search_space()
    entries = [(0, a_config(2, 4), report(drop=0.1), FeedbackSignal()),
               (0, a_config(8, 10), report(drop=0.9), FeedbackSignal()),
               (0, a_config(16, 4), report(drop=0.2), FeedbackSignal())]
    history = history_with(space, entries)
    q = induced_proposal(history, space, beta=50.0, spread=0.0)
    best = space.index_of(a_config(8, 10))
    assert q[best] >= 1.0 - 1e-6


def test_induced_single_config_spread_half():
    space = search_space()
    config = a_config(8, 10)
    history = history_with(space, [(0, config, report(), FeedbackSignal())])
    q = induced_proposal(history, space, beta=0.0, spread=1.0)
    idx = space.index_of(config)
    neighbors = space.neighbors(idx)
    assert q[idx] == pytest.approx(0.5, abs=1e-12)
    for n in neighbors:
        assert q[n] == pytest.approx(0.5 / len(neighbors), abs=1e-12)


def test_induced_shifts_along_feedback_direction():
    space = search_space()
    config = a_config(8, 10)
    signal = FeedbackSignal(tags=("weak-drop",), epsilon_step=1)
    history = history_with(space, [(0, config, report(), signal)])
    q = induced_proposal(history, space, beta=0.0, spread=1.0)
    self_idx = space.index_of(config)
    shifted_center = int(space.moves.shifted[2, 1, 0, self_idx])   # epsilon one step up
    assert space.configs[shifted_center].epsilon == 12
    neighbors = space.neighbors(shifted_center)
    share = 0.5 / len(neighbors)
    for i in neighbors:
        expected = share + (0.5 if i == self_idx else 0.0)
        assert q[i] == pytest.approx(expected, abs=1e-12)
    assert shifted_center not in neighbors


def test_induced_requires_history():
    space = search_space()
    with pytest.raises(ValueError):
        induced_proposal(SearchHistory(), space, 1.0, 0.5)


def test_induced_refuses_a_normalizer_that_overflows():
    """A finite spread whose deposits sum past the largest real raises
    instead of handing NaN or zeros to the draw."""
    space = search_space()
    history = history_with(space, [(0, a_config(2, 4), report(), FeedbackSignal()),
                                   (0, a_config(16, 10), report(), FeedbackSignal())])
    assert induced_proposal(history, space, beta=0.0, spread=1e300).sum() \
        == pytest.approx(1.0, abs=1e-12)
    with np.errstate(over="ignore"), pytest.raises(proposal.ProposalError,
                                                    match="induced proposal mass"):
        induced_proposal(history, space, beta=0.0, spread=1e308)


def largest_accepted_spread(budget):
    """The largest float `SearchParams` accepts as the spread of a `budget` search."""
    spread = sys.float_info.max / (MAX_NEIGHBORS * budget)
    while spread_problem(budget, math.nextafter(spread, math.inf)) is None:
        spread = math.nextafter(spread, math.inf)
    while spread_problem(budget, spread) is not None:
        spread = math.nextafter(spread, 0.0)
    return spread


def test_search_params_refuse_a_spread_that_could_overflow():
    with pytest.raises(ValueError, match="spread 1e\\+308 could overflow"):
        SearchParams(budget=8, batch_size=4, spread=1e308)
    largest = largest_accepted_spread(4)
    SearchParams(budget=4, batch_size=2, spread=largest)
    with pytest.raises(ValueError, match="could overflow"):
        SearchParams(budget=4, batch_size=2, spread=math.nextafter(largest, math.inf))


def test_largest_accepted_spread_refines_without_overflow():
    """A refined round at the largest spread the rule lets through raises no
    numpy floating-point warning."""
    victim, space = small_victim(), search_space()
    params = SearchParams(budget=4, batch_size=2, beta=0.0, spread=largest_accepted_spread(4))
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        result = run_search(victim, space, params, proposal.uniform(space.size),
                            make_baseline_for(victim))
    refined = result.history.proposal_snapshots[1]
    assert len(result.history.proposal_snapshots) == 2
    assert np.all(np.isfinite(refined)) and refined.sum() == pytest.approx(1.0, abs=1e-12)
    assert not np.array_equal(refined, result.history.proposal_snapshots[0])


def test_close_round_tie_keeps_lowest_index():
    space = search_space()
    high, low = a_config(16, 10), a_config(2, 4)
    assert space.index_of(high) > space.index_of(low)
    history = history_with(space, [(0, c, report(), FeedbackSignal())
                                   for c in (high, low)])
    history.close_round()
    assert history.best_per_round == [(space.index_of(low), report().utility)]


def test_confirm_replaces_its_scout():
    """A confirm with a lower U than its scout is what `latest`, `best`,
    `close_round` and the induced proposal read."""
    space = search_space()
    a, b = a_config(8, 10), a_config(2, 4)
    scout = report(drop=0.9)
    other = report(drop=0.5)
    confirm = report(drop=0.1, episodes=5, phase="confirm")
    shift = FeedbackSignal(epsilon_step=1)
    history = history_with(space, [(0, a, scout, FeedbackSignal()),
                                   (0, b, other, FeedbackSignal()),
                                   (0, a, confirm, shift)])
    i, j = space.index_of(a), space.index_of(b)
    assert scout.utility > other.utility > confirm.utility
    assert len(history.entries) == 3 and history.evaluated == {i, j}
    assert history.latest[i].report is confirm and history.latest[i].signal == shift
    assert history.best().config_index == j
    history.close_round()
    assert history.best_per_round == [(j, other.utility)]
    confirmed_only = history_with(space, [(0, a, confirm, shift),
                                          (0, b, other, FeedbackSignal())])
    q = induced_proposal(history, space, beta=5.0, spread=1.0)
    assert np.array_equal(q, induced_proposal(confirmed_only, space, 5.0, 1.0))


# ---------------------------------------------------------------- run_search


def small_victim(seed=3):
    return surface_task(f"search-task-{seed}", seed)


def make_baseline_for(victim):
    from attacksearch.evaluation import make_baseline
    return make_baseline(victim, 3, Stream(100).generator())


def test_exhaustive_search_matches_brute_force():
    space = search_space()
    victim = small_victim()
    baseline = make_baseline_for(victim)
    params = SearchParams(budget=space.size, batch_size=4, seed=0)
    result = run_search(victim, space, params, proposal.uniform(space.size), baseline)
    umap = brute_force_utility(victim, space, baseline)
    assert result.best_config == umap.best_config
    assert len(result.history.evaluated) == space.size


def test_budget_one_single_evaluation():
    space = search_space()
    victim = small_victim()
    baseline = make_baseline_for(victim)
    params = SearchParams(budget=1, batch_size=1, seed=5)
    result = run_search(victim, space, params, proposal.uniform(space.size), baseline)
    assert len(result.history.evaluated) == 1
    assert result.history.rounds == 1


def test_budget_clamped_with_warning(caplog):
    space = search_space(eps=(2, 4), steps=(4,))
    victim = small_victim()
    baseline = make_baseline_for(victim)
    params = SearchParams(budget=50, batch_size=4, seed=1)
    with caplog.at_level(logging.WARNING, logger="attacksearch.search"):
        result = run_search(victim, space, params, proposal.uniform(space.size), baseline)
    assert len(result.history.evaluated) == space.size
    assert [r.getMessage() for r in caplog.records] == [
        f"budget clamped from 50 to {space.size} (space size)"]


def test_budget_exactness_and_monotone_best():
    space = search_space()
    victim = small_victim(seed=9)
    baseline = make_baseline_for(victim)
    params = SearchParams(budget=7, batch_size=3, seed=2)
    result = run_search(victim, space, params, proposal.uniform(space.size), baseline)
    assert len(result.history.evaluated) == 7
    bests = [u for _, u in result.history.best_per_round]
    assert all(b >= a for a, b in zip(bests, bests[1:]))
    # batches of 3, 3 and 1: each scouts 2 episodes a config and confirms its
    # top min(2, batch) with 5
    assert result.history.episodes_used == sum(n * 2 + min(2, n) * 5 for n in (3, 3, 1))


def test_search_deterministic_trial_logs():
    space = search_space()
    victim = surface_task("det-task", 4, noise_scale=0.4)
    baseline = make_baseline_for(victim)
    params = SearchParams(budget=8, batch_size=4, seed=11)
    a = run_search(victim, space, params, proposal.uniform(space.size), baseline)
    b = run_search(victim, space, params, proposal.uniform(space.size), baseline)
    assert trial_records(a.history, space) == trial_records(b.history, space)


def test_result_and_summary_read_the_best_report():
    space = search_space()
    victim = surface_task("summary-task", 4, noise_scale=0.4)
    baseline = make_baseline_for(victim)
    params = SearchParams(budget=8, batch_size=4, seed=11)
    result = run_search(victim, space, params, proposal.uniform(space.size), baseline)
    best = result.best_report
    assert result.best_config == space.configs[result.best_index]
    assert result.history.latest[result.best_index].report is best
    summary = search_summary_record(result.history, space, result.best_index)
    assert (summary["U"], summary["D"], summary["F"]) == (best.utility, best.drop, best.flip)
    assert summary["best_config"] == result.best_config.encode()


def test_refine_false_never_updates_proposal():
    space = search_space()
    victim = small_victim(seed=12)
    baseline = make_baseline_for(victim)
    params = SearchParams(budget=8, batch_size=4, seed=3)
    q0 = proposal.uniform(space.size)
    result = run_search(victim, space, params, q0, baseline, refine=False)
    snaps = result.history.proposal_snapshots
    assert len(snaps) == result.history.rounds == 2
    assert all(snap is q0.probs for snap in snaps)


def test_refining_search_keeps_each_round_proposal_read_only():
    space = search_space()
    victim = small_victim(seed=12)
    baseline = make_baseline_for(victim)
    params = SearchParams(budget=10, batch_size=3, seed=3)
    q0 = proposal.uniform(space.size)
    result = run_search(victim, space, params, q0, baseline)
    snaps = result.history.proposal_snapshots
    assert len(snaps) == result.history.rounds == 4
    assert snaps[0] is q0.probs
    assert not any(np.array_equal(a, b) for a, b in zip(snaps, snaps[1:]))
    for snap in snaps:
        assert not snap.flags.writeable
        with pytest.raises(ValueError):
            snap[0] = 1.0


def test_refined_search_builds_no_proposal_distribution_after_q0(monkeypatch):
    """q0 is checked once, where it enters; each refined round then mixes
    plain vectors and builds no `ProposalDistribution`."""
    space = search_space()
    victim = small_victim(seed=12)
    baseline = make_baseline_for(victim)
    params = SearchParams(budget=10, batch_size=3, seed=3)
    q0 = proposal.uniform(space.size)
    built = []
    check = proposal.ProposalDistribution.__post_init__
    monkeypatch.setattr(proposal.ProposalDistribution, "__post_init__",
                        lambda self: built.append(self.size) or check(self))
    result = run_search(victim, space, params, q0, baseline)
    assert result.history.rounds == 4
    assert built == []
    proposal.uniform(3)     # the spy sees a build
    assert built == [3]


def test_alpha_schedules():
    params = SearchParams(budget=4, batch_size=2, alpha=0.3)
    assert params.alpha_at(1) == 0.3
    harmonic = SearchParams(budget=4, batch_size=2, alpha_schedule="harmonic")
    assert harmonic.alpha_at(1) == 0.5
    assert harmonic.alpha_at(3) == 0.25


def test_search_params_validation():
    with pytest.raises(ValueError):
        SearchParams(budget=2, batch_size=4)
    with pytest.raises(ValueError):
        SearchParams(budget=4, batch_size=2, alpha=1.5)
    with pytest.raises(ValueError):
        SearchParams(budget=4, batch_size=2, alpha_schedule="linear")
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            SearchParams(budget=4, batch_size=2, alpha=bad)
        for knob in ("beta", "spread"):
            with pytest.raises(ValueError, match="finite"):
                SearchParams(budget=4, batch_size=2, **{knob: bad})
