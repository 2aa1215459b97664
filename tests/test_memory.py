import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attacksearch import proposal
from attacksearch.configspace import (AllocationRule, AttackConfig, AttackFamily,
                                      ConfigSpace, FamilyGrid)
from attacksearch.memory import (FEATURE_LENGTH, AttackMemory, MemoryRecord,
                                 TaskSummary, similarity, summarize, warm_start)
from attacksearch.rngutil import Stream
from attacksearch.serial import RecordFormatError
from attacksearch.victims import EpisodeTrace, RolloutBatch


def trace_from_rewards(rewards, actions=None, margins=None):
    h = len(rewards)
    latents = np.tile(np.array([[1.0, 0.0]]), (h, 1))
    predicted = latents.copy()
    return EpisodeTrace(
        latents=latents, predicted_next=predicted,
        actions=np.array(actions if actions is not None else [0] * h),
        rewards=np.array(rewards, dtype=float),
        margins=np.array(margins if margins is not None else [0.5] * h),
    )


def batch_from_traces(traces):
    returns = np.array([t.rewards.sum() for t in traces])
    return RolloutBatch(returns=returns, flips=None, elapsed_wall=0.0,
                        elapsed_virtual=1.0, trajectories=tuple(traces))


def record(task_id, features, config, utility, ts):
    return MemoryRecord(task_id=task_id, features=np.asarray(features, dtype=float),
                        config=config, utility=utility, drop=utility, flip=0.5,
                        timestamp=ts)


def a_config(epsilon=8):
    return AttackConfig(AttackFamily.APGD_CE, epsilon, 4, 1, 0.75, 0,
                        AllocationRule.FIXED)


def small_space():
    return ConfigSpace(grids={AttackFamily.APGD_CE: FamilyGrid(
        epsilons=(2, 4, 8, 12, 16), steps=(4,),
        allocations=(AllocationRule.FIXED,))})


# ---------------------------------------------------------------- summarize


def test_summaries_deterministic(surface_victim):
    a = surface_victim.clean_rollout(3, Stream(1).generator())
    b = surface_victim.clean_rollout(3, Stream(2).generator())
    sa = summarize(a, "t", surface_victim.horizon)
    sb = summarize(b, "t", surface_victim.horizon)
    assert np.array_equal(sa.features, sb.features)


def test_summary_length_and_finiteness(linear_victim):
    batch = linear_victim.clean_rollout(4, Stream(3).generator())
    summary = summarize(batch, "lin", linear_victim.horizon)
    assert summary.features.shape == (FEATURE_LENGTH,)
    assert np.all(np.isfinite(summary.features))


def test_constant_reward_zero_std_feature():
    batch = batch_from_traces([trace_from_rewards([2.0, 2.0, 2.0, 2.0])])
    summary = summarize(batch, "t", 4)
    assert summary.features[4] == 0.0  # reward std


def test_hand_built_reward_statistics():
    batch = batch_from_traces([trace_from_rewards([1.0, 2.0, 3.0])])
    summary = summarize(batch, "t", 3)
    assert summary.features[3] == pytest.approx(2.0, abs=0)
    assert summary.features[4] == pytest.approx(0.816496580927726, abs=1e-15)
    assert summary.features[10] == 1.0  # horizon fraction
    assert summary.features[11] == 1.0  # all rewards positive


def test_empty_batch_rejected():
    batch = RolloutBatch(returns=np.array([1.0]), flips=None, elapsed_wall=0.0,
                         elapsed_virtual=0.0, trajectories=())
    with pytest.raises(ValueError):
        summarize(batch, "t", 4)


# ---------------------------------------------------------------- similarity


def test_self_similarity_is_one():
    s = TaskSummary("a", np.arange(1.0, 13.0))
    assert similarity(s, s) == pytest.approx(1.0, abs=1e-12)


def test_negated_similarity_is_minus_one():
    v = np.arange(1.0, 13.0)
    assert similarity(v, -v) == pytest.approx(-1.0, abs=1e-12)


def test_orthogonal_similarity_is_zero():
    a = np.zeros(12)
    b = np.zeros(12)
    a[0] = 1.0
    b[1] = 1.0
    assert similarity(a, b) == 0.0


def test_zero_norm_similarity_defined_zero():
    assert similarity(np.zeros(12), np.arange(12.0)) == 0.0


def test_similarity_length_mismatch():
    with pytest.raises(ValueError):
        similarity(np.zeros(12), np.zeros(11))


# ---------------------------------------------------------------- retrieval


def build_memory(n, rng):
    memory = AttackMemory()
    for i in range(n):
        memory.insert(record(f"task-{i:03d}", rng.normal(size=FEATURE_LENGTH),
                             a_config(), rng.normal(), float(i)))
    return memory


def test_retrieve_topk_matches_full_sort_oracle(rng):
    memory = build_memory(50, rng)
    query = TaskSummary("q", rng.normal(size=FEATURE_LENGTH))
    got = memory.retrieve(query, 5)
    # z-normalize over the records, a zero deviation counting as 1
    stacked = np.array([r.features for r in memory.records])
    mean, std = stacked.mean(axis=0), stacked.std(axis=0)
    std[std == 0.0] = 1.0
    oracle = sorted(
        ((r, similarity((query.features - mean) / std, (r.features - mean) / std))
         for r in memory.records),
        key=lambda pair: (-pair[1], pair[0].timestamp, pair[0].task_id))[:5]
    assert [r.task_id for r, _ in got] == [r.task_id for r, _ in oracle]
    assert [s for _, s in got] == [s for _, s in oracle]


def test_retrieve_k_larger_than_memory(rng):
    memory = build_memory(4, rng)
    query = TaskSummary("q", rng.normal(size=FEATURE_LENGTH))
    got = memory.retrieve(query, 10)
    assert len(got) == 4
    sims = [s for _, s in got]
    assert sims == sorted(sims, reverse=True)


def test_retrieve_self_match_first(rng):
    memory = build_memory(10, rng)
    target = memory.records[3]
    query = TaskSummary("q", target.features)
    top_record, top_sim = memory.retrieve(query, 1)[0]
    assert top_record.task_id == target.task_id
    assert top_sim == pytest.approx(1.0, abs=1e-12)


def test_retrieve_empty_memory():
    memory = AttackMemory()
    query = TaskSummary("q", np.arange(12.0))
    assert memory.retrieve(query, 3) == []


def test_tie_break_earlier_timestamp():
    features = np.arange(1.0, 13.0)
    memory = AttackMemory(records=[
        record("task-b", features, a_config(), 0.5, 1.0),
        record("task-a", features, a_config(), 0.5, 0.0),
    ])
    got = memory.retrieve(TaskSummary("q", features), 2)
    assert [r.task_id for r, _ in got] == ["task-a", "task-b"]


# ---------------------------------------------------------------- warm start


def test_warm_start_lambda_zero_returns_base():
    space = small_space()
    base = proposal.uniform(space.size)
    retrieved = [(record("m", np.arange(12.0), a_config(), 1.0, 0.0), 0.9)]
    out = warm_start(base, retrieved, 0.0, space)
    assert np.array_equal(out.distribution.probs, base.probs)


def test_warm_start_lambda_one_single_record_point_mass():
    space = small_space()
    base = proposal.uniform(space.size)
    out = warm_start(base, [(record("m", np.arange(12.0), a_config(8), 1.0, 0.0), 0.9)],
                     1.0, space)
    idx = space.index_of(a_config(8))
    assert out.distribution.probs[idx] == pytest.approx(1.0, abs=1e-12)


def test_warm_start_hand_mixture():
    # 10-config uniform base, two retained records with equal alpha, lambda 0.5:
    # each retrieved config gets 0.05 + 0.25 = 0.30, the others keep 0.05
    space = ConfigSpace(grids={AttackFamily.APGD_CE: FamilyGrid(
        epsilons=(2, 4, 6, 8, 10), steps=(4,),
        allocations=(AllocationRule.FIXED, AllocationRule.MARGIN_LINEAR))})
    assert space.size == 10
    base = proposal.uniform(10)
    retrieved = [
        (record("a", np.arange(12.0), a_config(2), 0.3, 0.0), 0.7),
        (record("b", np.arange(12.0), a_config(4), 0.3, 1.0), 0.7),
    ]
    out = warm_start(base, retrieved, 0.5, space).distribution
    i2, i4 = space.index_of(a_config(2)), space.index_of(a_config(4))
    for i in range(10):
        expected = 0.30 if i in (i2, i4) else 0.05
        assert out.probs[i] == pytest.approx(expected, abs=1e-12)


def test_warm_start_skips_off_space_configs():
    space = small_space()
    base = proposal.uniform(space.size)
    off = AttackConfig(AttackFamily.FAB, 8, 6, 1, 0.75, 0, AllocationRule.FIXED)
    out = warm_start(base, [(record("m", np.arange(12.0), off, 1.0, 0.0), 0.9)],
                     0.8, space)
    assert out.skipped == 1
    assert np.array_equal(out.distribution.probs, base.probs)


def test_warm_start_rejects_bad_lambda():
    space = small_space()
    with pytest.raises(ValueError):
        warm_start(proposal.uniform(space.size), [], 1.5, space)


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(0, 1), sims=st.lists(st.floats(-1, 1), min_size=1, max_size=4),
       utilities=st.lists(st.floats(-2, 2), min_size=4, max_size=4))
def test_warm_start_mass_properties(lam, sims, utilities):
    space = small_space()
    base = proposal.uniform(space.size)
    eps_grid = (2, 4, 8, 12)
    retrieved = [(record(f"m{i}", np.arange(12.0), a_config(eps_grid[i % 4]),
                         utilities[i % 4], float(i)), s)
                 for i, s in enumerate(sims)]
    out = warm_start(base, retrieved, lam, space).distribution
    assert abs(out.probs.sum() - 1.0) <= 1e-12
    assert np.all(out.probs >= 0.0)


def test_warm_start_mass_shift_increases_with_lambda():
    space = small_space()
    base = proposal.uniform(space.size)
    retrieved = [(record("m", np.arange(12.0), a_config(8), 1.0, 0.0), 0.9)]
    idx = space.index_of(a_config(8))
    masses = [warm_start(base, retrieved, lam, space).distribution.probs[idx]
              for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b > a for a, b in zip(masses, masses[1:]))


# ---------------------------------------------------------------- persistence


def test_save_load_round_trip(tmp_path, rng):
    memory = build_memory(100, rng)
    path = tmp_path / "memory.jsonl"
    memory.save(path)
    loaded = AttackMemory.load(path)
    assert len(loaded) == 100
    for a, b in zip(memory.records, loaded.records):
        assert a.task_id == b.task_id
        assert np.array_equal(a.features, b.features)
        assert a.config == b.config
        assert (a.utility, a.drop, a.flip, a.timestamp) == \
            (b.utility, b.drop, b.flip, b.timestamp)


def test_insert_into_empty_memory():
    memory = AttackMemory()
    memory.insert(record("t", np.arange(12.0), a_config(), 0.5, 0.0))
    assert len(memory) == 1


def test_load_corrupt_file_reports_line(tmp_path, rng):
    memory = build_memory(3, rng)
    path = tmp_path / "memory.jsonl"
    memory.save(path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RecordFormatError, match=":2:"):
        AttackMemory.load(path)


def test_load_missing_key_reports_line(tmp_path, rng):
    path = tmp_path / "memory.jsonl"
    path.write_text('{"task_id":"x"}\n')
    with pytest.raises(RecordFormatError, match=":1:"):
        AttackMemory.load(path)
    # blank lines count: the error names the file line, not the record ordinal
    build_memory(1, rng).save(path)
    path.write_text(path.read_text() + '\n{"task_id":"x"}\n')
    with pytest.raises(RecordFormatError, match=":3:") as err:
        AttackMemory.load(path)
    assert err.value.line_number == 3


@pytest.mark.parametrize("short", [(2,), (0, 1, 2)], ids=["one-record", "every-record"])
def test_load_rejects_wrong_feature_length(tmp_path, rng, short):
    memory = build_memory(3, rng)
    path = tmp_path / "memory.jsonl"
    memory.save(path)
    lines = path.read_text().splitlines()
    for i in short:
        psi = lines[i][lines[i].index('"psi":'):lines[i].index(',"config"')]
        lines[i] = lines[i].replace(psi, '"psi":[0,1,2,3,4]')
    path.write_text("\n".join(lines) + "\n")
    line = short[0] + 1
    with pytest.raises(RecordFormatError, match=rf"memory\.jsonl:{line}: .*length 12") as err:
        AttackMemory.load(path)
    assert (err.value.path, err.value.line_number) == (str(path), line)


def test_retrieval_unchanged_without_insert(rng):
    memory = build_memory(20, rng)
    query = TaskSummary("q", rng.normal(size=FEATURE_LENGTH))
    first = memory.retrieve(query, 5)
    second = memory.retrieve(query, 5)
    assert [(r.task_id, s) for r, s in first] == [(r.task_id, s) for r, s in second]


def test_retrieval_reads_the_records_held_at_the_call(rng, tmp_path):
    """After an insert a memory retrieves exactly as a fresh memory over the
    same records does, and saving it changes nothing."""
    memory = build_memory(20, rng)
    query = TaskSummary("q", rng.normal(size=FEATURE_LENGTH))
    memory.retrieve(query, 3)
    memory.insert(record("new", 100.0 * np.ones(FEATURE_LENGTH), a_config(), 3.0, 99.0))
    after = memory.retrieve(query, 21)
    fresh = AttackMemory(records=list(memory.records)).retrieve(query, 21)
    assert [(r.task_id, s) for r, s in after] == [(r.task_id, s) for r, s in fresh]
    memory.save(tmp_path / "memory.jsonl")
    saved = memory.retrieve(query, 21)
    assert [(r.task_id, s) for r, s in saved] == [(r.task_id, s) for r, s in fresh]



@pytest.mark.parametrize("key,field", [("d", "drop"), ("f", "flip"), ("ts", "timestamp")])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_load_rejects_non_finite_scalars(tmp_path, rng, key, field, bad):
    # such a file used to load and then fail on the next save
    path = tmp_path / "memory.jsonl"
    build_memory(3, rng).save(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[1][key] = bad
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(RecordFormatError, match=rf"memory\.jsonl:2: .*{field} must be finite") \
            as err:
        AttackMemory.load(path)
    assert (err.value.path, err.value.line_number) == (str(path), 2)


def set_value(key, new):
    """A line edit that sets the record's `key` to `new(old value)`."""
    def edit(line):
        row = json.loads(line)
        row[key] = new(row[key])
        return json.dumps(row)
    return edit


# Hand edits of one record's line into what `save` never writes, and the
# start of the refusal each one draws.
BAD_RECORD = "bad memory record"
HAND_EDITS = {
    "utility-bool": (set_value("utility", lambda old: True), BAD_RECORD),
    "psi-holds-bool": (set_value("psi", lambda old: old[:3] + [True] + old[4:]), BAD_RECORD),
    "task_id-number": (set_value("task_id", lambda old: 7), BAD_RECORD),
    "d-text": (set_value("d", lambda old: "0.5"), BAD_RECORD),
    "ts-null": (set_value("ts", lambda old: None), BAD_RECORD),
    "config-number": (set_value("config", lambda old: 3), BAD_RECORD),
    "config-eps-leading-zero": (
        set_value("config", lambda old: old.replace("eps=8;", "eps=08;")), BAD_RECORD),
    "d-beyond-float": (set_value("d", lambda old: 10 ** 400), BAD_RECORD),
    "task_id-repeated": (lambda line: line.replace("{", '{"task_id": "u", ', 1),
                         "invalid record: repeated key 'task_id'"),
}


@pytest.mark.parametrize("edit, refusal", HAND_EDITS.values(), ids=HAND_EDITS.keys())
@pytest.mark.parametrize("newline, blank", [("\n", False), ("\n", True), ("\r\n", True),
                                            ("\r", True)],
                         ids=["no-blank-line", "after-a-blank-line", "after-a-blank-crlf",
                              "after-a-blank-cr"])
def test_load_refuses_a_value_save_never_writes(tmp_path, rng, edit, refusal, newline, blank):
    path = tmp_path / "memory.jsonl"
    build_memory(3, rng).save(path)
    lines = path.read_text().splitlines()
    lines[1] = edit(lines[1])
    if blank:
        lines.insert(1, "")
    path.write_bytes((newline.join(lines) + newline).encode())
    line = 3 if blank else 2
    with pytest.raises(RecordFormatError, match=rf"memory\.jsonl:{line}: {refusal}") as err:
        AttackMemory.load(path)
    assert (err.value.path, err.value.line_number) == (str(path), line)


def test_load_reports_the_first_fault_in_file_order(tmp_path, rng):
    path = tmp_path / "memory.jsonl"
    build_memory(3, rng).save(path)
    lines = path.read_text().splitlines()
    lines[1] = set_value("utility", lambda old: True)(lines[1])
    lines[2] = "not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RecordFormatError, match=r"memory\.jsonl:2: bad memory record"):
        AttackMemory.load(path)
