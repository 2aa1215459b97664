import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attacksearch import bench, logs
from attacksearch.logs import (TRIAL_FIELDS, best_so_far_curve, read_trial_log,
                               threshold_outcome, trial_records)
from attacksearch.rngutil import MAX_SEED
from attacksearch.serial import RecordFormatError, dump_record, read_records, write_records


def scout(config, u, rnd=0):
    return {"round": rnd, "phase": "scout", "config": config, "D": u, "F": 0.0,
            "T": 1.0, "V": 0.0, "U": u, "episodes": 2, "seed": 1}


def confirm(config, u, rnd=0):
    rec = scout(config, u, rnd)
    rec["phase"] = "confirm"
    return rec


def test_dump_record_17_digit_reals():
    line = dump_record({"x": 0.1, "n": 3, "s": "hi", "b": True, "v": [1.5, 2.0]})
    assert line == '{"x":0.10000000000000001,"n":3,"s":"hi","b":true,"v":[1.5,2]}'
    assert json.loads(line)["x"] == 0.1


def test_dump_record_rejects_non_finite():
    with pytest.raises(ValueError):
        dump_record({"x": float("inf")})


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_real_round_trip_exact(value):
    line = dump_record({"x": value})
    assert json.loads(line)["x"] == value


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "records.jsonl"
    records = [scout("cfg-a", 0.25), confirm("cfg-a", 0.3)]
    write_records(path, records)
    assert read_records(path) == records


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_read_records_ends_lines_as_text_mode(tmp_path, newline):
    path = tmp_path / "records.jsonl"
    records = [scout("cfg-a", 0.25), confirm("cfg-a", 0.3)]
    lines = [dump_record(r).encode() for r in records]
    path.write_bytes(newline.join([lines[0], b"", lines[1], b"{"]) + newline)
    with pytest.raises(RecordFormatError, match=r"records\.jsonl:4: invalid record"):
        read_records(path)
    path.write_bytes(newline.join([lines[0], b"", lines[1]]) + newline)
    assert read_records(path) == records
    # a faulty record is refused at its own line, blank lines counted
    faulty = dump_record(dict(records[1], U="x")).encode()
    path.write_bytes(newline.join([lines[0], b"", faulty]) + newline)
    with pytest.raises(RecordFormatError, match=r"records\.jsonl:3: trial record 'U'") as err:
        read_trial_log(path)
    assert err.value.line_number == 3


def test_read_records_checks_each_record_as_it_is_read(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a":1}\n\n{"a":2}\n{oops\n')
    seen = []

    def check(record, ordinal):
        seen.append((record["a"], ordinal))
        if record["a"] == 2:
            raise OverflowError("a is too large")

    with pytest.raises(RecordFormatError, match=r"records\.jsonl:3: a is too large$"):
        read_records(path, check)
    assert seen == [(1, 1), (2, 2)]   # the bad JSON on line 4 is never reached


def test_read_records_refuses_a_repeated_key(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a":1}\n{"U":0.5,"b":{"c":1},"U":9.0}\n')
    with pytest.raises(RecordFormatError,
                       match=r"records\.jsonl:2: invalid record: repeated key 'U'$"):
        read_records(path)
    path.write_text('{"b":{"c":1,"c":2}}\n')
    with pytest.raises(RecordFormatError, match=r":1: invalid record: repeated key 'c'$"):
        read_records(path)


def test_trial_record_fields(tmp_path, surface_victim, surface_baseline, toy_space):
    from attacksearch import proposal
    from attacksearch.search import SearchParams, run_search
    result = run_search(surface_victim, toy_space,
                        SearchParams(budget=6, batch_size=3, seed=1),
                        proposal.uniform(toy_space.size), surface_baseline)
    records = trial_records(result.history, toy_space)
    assert all(tuple(r.keys()) == TRIAL_FIELDS for r in records)
    scouts = [r for r in records if r["phase"] == "scout"]
    assert len(scouts) == 6
    write_records(tmp_path / "trials.jsonl", records)
    assert read_trial_log(tmp_path / "trials.jsonl") == records


def test_read_trial_log_accepts_every_value_in_range(tmp_path):
    low = dict(scout("c1", -2.5), F=0, T=0, V=0, episodes=1, seed=0)
    high = dict(confirm("c1", 1e300, rnd=7), F=1, T=1e300, V=1e300, episodes=10 ** 6,
                seed=MAX_SEED)
    path = tmp_path / "trials.jsonl"
    write_records(path, [low, high])
    assert read_trial_log(path) == [low, high]


def test_best_so_far_monotone_and_confirm_never_lowers():
    records = [
        scout("a", 0.2), scout("b", 0.5), confirm("b", 0.4),
        scout("c", 0.1, rnd=1), scout("d", 0.45, rnd=1), confirm("d", 0.48, rnd=1),
    ]
    curve = best_so_far_curve(records)
    assert len(curve.best_after_trial) == 4
    assert curve.best_after_trial == (0.2, 0.5, 0.5, 0.5)
    assert curve.final_best == 0.5
    # a confirm that logs a higher utility raises its own trial's value
    assert best_so_far_curve([scout("a", 0.2), confirm("a", 0.3)]).best_after_trial == (0.3,)


def test_threshold_hit_at_trial_three():
    # best-so-far reaches 0.9 * final by trial 3
    records = [scout("a", 0.3), scout("b", 0.5), scout("c", 0.95),
               scout("d", 1.0, rnd=1)]
    outcome = threshold_outcome(records, fraction=0.9)
    assert outcome.hit
    assert outcome.trials_to_threshold == 3
    assert outcome.final_best == 1.0


def test_threshold_negative_final_never_hits():
    records = [scout("a", -0.5), scout("b", -0.1)]
    outcome = threshold_outcome(records)
    assert not outcome.hit
    assert outcome.trials_to_threshold is None
    assert outcome.final_best == -0.1


def test_report_builds_each_logs_curve_once(tmp_path, monkeypatch):
    calls = []

    def counted(records):
        calls.append(len(records))
        return best_so_far_curve(records)
    monkeypatch.setattr(logs, "best_so_far_curve", counted)
    monkeypatch.setattr(bench, "best_so_far_curve", counted)
    for method in ("random", "attacksearch"):
        write_records(tmp_path / f"trials__task-000__fab__{method}.jsonl",
                      [scout("a", 0.3), scout("b", 0.5), confirm("b", 0.6)])
    stats = bench.collect_pair_stats(tmp_path)
    assert calls == [3, 3]
    assert [(s.hit, s.trials_to_threshold, s.curve) for s in stats] == [(True, 2, (0.3, 0.6))] * 2


def test_threshold_requires_scouts():
    with pytest.raises(ValueError):
        best_so_far_curve([confirm("a", 0.4)])
