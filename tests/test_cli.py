import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from attacksearch import bench, cli
from attacksearch.cli import main, run
from attacksearch.memory import AttackMemory
from attacksearch.runconfig import MODES
from attacksearch.serial import read_records
from attacksearch.victims import ResponseSurfaceVictim


def write_config(tmp_path, body) -> Path:
    path = tmp_path / "run.yaml"
    path.write_text(body)
    return path


def line_of(body: str, text: str) -> int:
    """1-based line of the first line of `body` that starts with `text`."""
    return next(i for i, line in enumerate(body.splitlines(), start=1)
                if line.lstrip().startswith(text))


SMALL_SEARCH = """
seed: 3
out_dir: {out}
victim:
  kind: surface
  task_seed: 5
space:
  families: [apgd-ce, fab]
  epsilons: {{apgd-ce: [4, 8, 12], fab: [4, 8, 12]}}
  steps: {{apgd-ce: [4, 8], fab: [8, 16]}}
search:
  budget: 8
  batch: 4
"""


def test_search_mode_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, SMALL_SEARCH.format(out=out))
    assert main(["search", "--config", str(cfg)]) == 0
    records = read_records(out / "trial_log.jsonl")
    assert sum(1 for r in records if r["phase"] == "scout") == 8
    summary = read_records(out / "result.json")[0]
    assert set(summary) == {"best_config", "U", "D", "F", "rounds", "episodes",
                            "configs_evaluated", "virtual_seconds"}
    assert summary["configs_evaluated"] == 8


def test_search_mode_byte_identical_across_runs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path, SMALL_SEARCH.format(out=out_a))
    assert main(["search", "--config", str(cfg)]) == 0
    assert main(["search", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "trial_log.jsonl").read_bytes() == \
        (out_b / "trial_log.jsonl").read_bytes()


CLAMP_SEARCH = ("space:\n  families: [fab]\n  epsilons: {fab: [4]}\n  steps: {fab: [8]}\n"
                "search:\n  budget: 4\n  batch: 2\n")
CLAMP_WARNING = "warning: budget clamped from 4 to 2 (space size)\n"


def test_search_over_a_smaller_space_reports_the_budget_clamp_on_stderr(tmp_path):
    """The warning is the only report of the clamp. `cli.main` runs in a fresh
    interpreter, as the console script runs it."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, CLAMP_SEARCH)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from attacksearch.cli import main; sys.exit(main())",
         "search", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == CLAMP_WARNING
    assert read_records(out / "result.json")[0]["configs_evaluated"] == 2


def test_in_process_search_prints_the_clamp_warning_under_a_quiet_root_logger(tmp_path, capsys):
    """A root logger at ERROR, as `logging.basicConfig(level=logging.ERROR)` leaves
    it, does not hide the warning; `main` restores the package logger, so
    repeated calls print one line each."""
    cfg = write_config(tmp_path, CLAMP_SEARCH)
    root, package = logging.getLogger(), logging.getLogger("attacksearch")
    before = (list(package.handlers), package.level, package.propagate)
    root_level = root.level
    root.setLevel(logging.ERROR)
    try:
        for _ in range(2):
            assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
            assert capsys.readouterr().err == CLAMP_WARNING
            assert (list(package.handlers), package.level, package.propagate) == before
    finally:
        root.setLevel(root_level)


def test_seed_override_changes_log(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, SMALL_SEARCH.format(out=out))
    main(["search", "--config", str(cfg)])
    first = (out / "trial_log.jsonl").read_bytes()
    main(["search", "--config", str(cfg), "--seed", "77"])
    assert (out / "trial_log.jsonl").read_bytes() != first


def test_dump_proposals_and_trajectories(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, SMALL_SEARCH.format(out=out) +
                       "  dump_proposals: true\n")
    body = cfg.read_text().replace("victim:\n  kind: surface\n",
                                   "victim:\n  kind: surface\n  dump_trajectories: true\n")
    cfg.write_text(body)
    assert main(["search", "--config", str(cfg)]) == 0
    proposals = read_records(out / "proposals.jsonl")
    assert proposals and len(proposals[0]["q"]) == 24
    trajectories = read_records(out / "trajectories.jsonl")
    assert {"episode", "step", "z", "z_hat_next", "u", "r", "margin"} == set(trajectories[0])


def test_oracle_mode(tmp_path):
    out = tmp_path / "oracle"
    cfg = write_config(tmp_path, SMALL_SEARCH.format(out=out))
    assert main(["oracle", "--config", str(cfg)]) == 0
    lines = (out / "utility_map.csv").read_text().splitlines()
    assert lines[0] == "Config,D,F,T,V,U"
    assert len(lines) == 1 + 24
    exact = read_records(out / "utility_map.jsonl")
    assert len(exact) == 24


def test_oracle_refuses_noisy_victim(tmp_path):
    out = tmp_path / "oracle"
    body = SMALL_SEARCH.format(out=out).replace("task_seed: 5",
                                                "task_seed: 5\n  noise: 0.5")
    cfg = write_config(tmp_path, body)
    # the key is not in the file, so the error names no line
    with pytest.raises(ValueError, match=r"deterministic.*\(key 'oracle\.episodes'\)$"):
        run(["oracle", "--config", str(cfg)])


LINEAR_ORACLE = """
out_dir: {out}
victim:
  kind: linear
  horizon: 3
  obs_dim: 16
  latent_dim: 4
space:
  families: [apgd-ce]
  epsilons: {{apgd-ce: [4, 12]}}
  steps: {{apgd-ce: [4]}}
oracle:
  episodes: {episodes}
"""


def test_oracle_refuses_linear_victim_without_episodes(tmp_path, capsys):
    out = tmp_path / "oracle"
    body = LINEAR_ORACLE.format(out=out, episodes=0)
    cfg = write_config(tmp_path, body)
    assert main(["oracle", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "deterministic" in err
    assert f"(key 'oracle.episodes', line {line_of(body, 'episodes:')})" in err
    assert not out.exists()


def test_oracle_averages_linear_victim_over_episodes(tmp_path):
    out = tmp_path / "oracle"
    cfg = write_config(tmp_path, LINEAR_ORACLE.format(out=out, episodes=2))
    assert main(["oracle", "--config", str(cfg)]) == 0
    records = read_records(out / "utility_map.jsonl")
    assert len(records) == 4
    assert all(r["config"].startswith("family=apgd-ce;") for r in records)


def test_missing_config_reports_error(tmp_path):
    assert main(["search", "--config", str(tmp_path / "missing.yaml")]) == 2


def test_unknown_key_exit_code(tmp_path):
    cfg = write_config(tmp_path, "mode: search\nwat: 1\n")
    assert main(["search", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("body, line", [
    (b"seed: !!python/object:os.system x\n", 1),
    (b"seed: 2024-13-45\n", 1),
    (b"seed: 1\nsearch:\n  budget: !!int abc\n", 3),
    (b"search:\n  dump_proposals: !!bool maybe\n", 2),
    (b"out_dir: !!timestamp soon\n", 1),
    ("victim:\n  task_id: caf\xe9\n".encode("latin-1"), 2),
], ids=["unconstructible-tag", "impossible-date", "int-tag-on-text", "bool-tag-on-text",
        "timestamp-tag-on-text", "latin-1"])
def test_config_that_does_not_load_exits_2_naming_its_line(tmp_path, capsys, body, line):
    cfg = tmp_path / "run.yaml"
    cfg.write_bytes(body)
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f" (line {line})\n")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]


@pytest.mark.parametrize("body, message", [
    ("seed: 1\nsearch:\n  budget: 8\n  budget: 16\n",
     "key given twice, first on line 3 (key 'search.budget', line 4)"),
    ("search: &s {batch: *s}\n",
     "expected integer, got {'batch': {...}} (key 'search.batch', line 1)"),
], ids=["key-given-twice", "self-containing-alias"])
def test_config_with_a_broken_mapping_exits_2(tmp_path, capsys, body, message):
    cfg = write_config(tmp_path, body)
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]


@pytest.mark.parametrize("mode", ["search", "oracle"])
@pytest.mark.parametrize("key", ["victim.noise", "search.beta", "search.spread",
                                 "weights.flip", "weights.runtime", "weights.variability",
                                 "theory.eta", "bench.noise"])
def test_infinite_setting_exits_2_before_any_output(tmp_path, capsys, mode, key):
    section, name = key.split(".")
    cfg = write_config(tmp_path, f"{section}:\n  {name}: .inf\n")
    assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err \
        == f"error: expected finite real, got inf (key '{key}', line 2)\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]


def test_spread_that_could_overflow_exits_2_before_any_output(tmp_path, capsys):
    cfg = write_config(tmp_path, "search:\n  budget: 8\n  batch: 4\n  spread: 1.0e+308\n")
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: spread 1e+308 could overflow the induced proposal: budget * (1 + 10 * spread) "
        "must be a finite real (key 'search', line 1)\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]


@pytest.mark.parametrize("victim", ["{task_seed: -3}", "{kind: linear, weight_seed: -2}"])
def test_negative_victim_seed_exit_code(tmp_path, capsys, victim):
    cfg = write_config(tmp_path, f"out_dir: {tmp_path}\nvictim: {victim}\n")
    assert main(["search", "--config", str(cfg)]) == 2
    assert "_seed" in capsys.readouterr().err


def test_negative_seed_flag_is_refused_before_the_config_is_read(tmp_path, capsys):
    cfg = write_config(tmp_path, f"out_dir: {tmp_path / 'out'}\nvictim:\n  kind: linear\n")
    assert main(["memory", "--config", str(cfg), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0 (key '--seed')\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]


def test_negative_seed_flag_is_refused_before_a_missing_config(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    assert main(["search", "--config", str(missing), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0 (key '--seed')\n"
    assert list(tmp_path.iterdir()) == []


def test_memory_mode_requires_path(tmp_path):
    cfg = write_config(tmp_path, "out_dir: %s\n" % tmp_path)
    assert main(["memory", "--config", str(cfg)]) == 2


def test_search_update_memory_without_path_fails_before_searching(tmp_path, capsys):
    out = tmp_path / "out"
    body = SMALL_SEARCH.format(out=out) + "  update_memory: true\n"
    cfg = write_config(tmp_path, body)
    assert main(["search", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "retrieval.memory_path" in err
    assert f"(key 'search.update_memory', line {line_of(body, 'update_memory:')})" in err
    assert not out.exists()


def test_search_with_missing_memory_file_fails_before_any_rollout(tmp_path, capsys,
                                                                  monkeypatch):
    def no_rollout(*args, **kwargs):
        raise AssertionError("clean_rollout ran before the config was checked")

    monkeypatch.setattr(ResponseSurfaceVictim, "clean_rollout", no_rollout)
    out = tmp_path / "out"
    body = SMALL_SEARCH.format(out=out) + "retrieval:\n  memory_path: %s\n" % (
        tmp_path / "nope.jsonl")
    cfg = write_config(tmp_path, body)
    assert main(["search", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    line = line_of(body, "memory_path:")
    assert err == (f"error: memory file not found: {tmp_path / 'nope.jsonl'} "
                   f"(key 'retrieval.memory_path', line {line})\n")
    assert not out.exists()


BENCH = """
seed: 1
out_dir: {out}
space:
  families: [apgd-ce, fab]
search:
  budget: 8
  batch: 4
bench:
  tasks: 2
  noise: 0.2
retrieval:
  memory_path: '{memory}'
memory:
  tasks: 4
"""


def bench_setup(tmp_path):
    out = tmp_path / "bench"
    memory_path = tmp_path / "memory.jsonl"
    cfg = write_config(tmp_path, BENCH.format(out=out, memory=memory_path))
    assert main(["memory", "--config", str(cfg)]) == 0
    assert main(["bench", "--config", str(cfg)]) == 0
    return cfg, out, memory_path


@pytest.mark.parametrize("mode", ["memory", "bench"])
def test_task_family_modes_refuse_linear_victim(tmp_path, capsys, mode):
    memory_path = tmp_path / "memory.jsonl"
    body = (BENCH.format(out=tmp_path / "out", memory=memory_path)
            + "victim:\n  kind: linear\n")
    cfg = write_config(tmp_path, body)
    assert main([mode, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{mode} mode generates response-surface task families" in err
    assert f"(key 'victim.kind', line {line_of(body, 'kind:')})" in err
    assert not memory_path.exists() and not (tmp_path / "out").exists()


UTILITY_BOOL = json.dumps({
    "task_id": "t", "psi": [0.5] * 12, "utility": True, "d": 0.5, "f": 0.0, "ts": 0,
    "config": "family=apgd-ce;eps=8;steps=10;restarts=1;rho=0.75;seed=0;alloc=fixed"})


@pytest.mark.parametrize("body", ["not json", UTILITY_BOOL], ids=["not-json", "utility-bool"])
@pytest.mark.parametrize("mode", ["search", "bench"])
def test_corrupt_memory_file_names_file_and_line(tmp_path, capsys, mode, body):
    memory_path = tmp_path / "memory.jsonl"
    memory_path.write_text(body + "\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, BENCH.format(out=out, memory=memory_path))
    assert main([mode, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {memory_path}:1: ")
    assert err.count("\n") == 1
    assert not out.exists()
    assert memory_path.read_text() == body + "\n"


@pytest.mark.parametrize("mode", ["search", "bench", "memory"])
def test_memory_path_naming_a_directory_is_refused(tmp_path, capsys, mode):
    memory_dir = tmp_path / "memory.d"
    memory_dir.mkdir()
    out = tmp_path / "out"
    body = BENCH.format(out=out, memory=memory_dir)
    cfg = write_config(tmp_path, body)
    assert main([mode, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "is a directory" in err
    assert f"(key 'retrieval.memory_path', line {line_of(body, 'memory_path:')})" in err
    assert not out.exists()
    assert list(memory_dir.iterdir()) == []


@pytest.mark.parametrize("below", [False, True], ids=["is-a-file", "under-a-file"])
@pytest.mark.parametrize("flag", [True, False], ids=["--out", "out_dir"])
@pytest.mark.parametrize("mode", MODES)
def test_output_directory_at_or_under_a_file_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, mode, flag, below):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{mode} mode ran although its output directory cannot be made")

    monkeypatch.setitem(cli._HANDLERS, mode, no_work)
    blocker = tmp_path / "afile"
    blocker.write_text("kept\n")
    out = blocker / "sub" if below else blocker
    body = SMALL_SEARCH.format(out=tmp_path / "unused" if flag else out)
    if mode == "memory":
        body += "retrieval:\n  memory_path: '%s'\n" % (tmp_path / "memory.jsonl")
    cfg = write_config(tmp_path, body)
    argv = [mode, "--config", str(cfg)] + (["--out", str(out)] if flag else [])
    assert main(argv) == 2
    key = "--out" if flag else "out_dir"
    assert capsys.readouterr().err == (f"error: output directory is, or lies under, a file: "
                                       f"{blocker} (key '{key}')\n")
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.yaml"]


def test_memory_path_under_a_file_is_refused_before_any_search(tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran although the memory file cannot be written")

    monkeypatch.setattr(bench, "run_search", no_search)
    blocker = tmp_path / "sub"
    blocker.write_text("kept\n")
    body = BENCH.format(out=tmp_path / "out", memory=blocker / "memory.jsonl")
    cfg = write_config(tmp_path, body)
    assert main(["memory", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: memory path lies under a file, not a directory: {blocker} "
        f"(key 'retrieval.memory_path', line {line_of(body, 'memory_path:')})\n")
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml", "sub"]


def test_memory_mode_creates_no_output_directory(tmp_path):
    out = tmp_path / "out"
    memory_path = tmp_path / "new" / "memory.jsonl"
    cfg = write_config(tmp_path, BENCH.format(out=out, memory=memory_path))
    assert main(["memory", "--config", str(cfg)]) == 0
    assert not out.exists()
    assert len(AttackMemory.load(memory_path)) == 4


NOT_UTF8 = b"\xff\xfe{\x00\"\x00\n"   # a UTF-16 byte-order mark and text


def test_search_refuses_a_memory_file_that_is_not_utf8(tmp_path, capsys):
    memory_path = tmp_path / "memory.jsonl"
    memory_path.write_bytes(NOT_UTF8)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, BENCH.format(out=out, memory=memory_path))
    assert main(["search", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {memory_path}:1: not UTF-8 text")
    assert not out.exists()


def trial_line(phase="scout", drop=(), **values) -> str:
    record = {"round": 0, "phase": phase, "config": "c1", "D": 0.5, "F": 0.0,
              "T": 1.0, "V": 0.0, "U": 0.5, "episodes": 1, "seed": 0}
    record.update(values)
    return json.dumps({k: v for k, v in record.items() if k not in drop})


@pytest.mark.parametrize("lines, bad_line", [
    ([trial_line(), "", trial_line(drop=("U",))], 3),   # a record without "U"
    ([trial_line("confirm")], 1),                        # only confirm records
    (["", trial_line("confirm"), trial_line()], 2),      # a confirm before any scout
    ([], 1),                                             # no record at all
    ([trial_line(), "{oops"], 2),                        # a line that is not JSON
    ([trial_line(), NOT_UTF8.decode("latin-1")], 2),     # a line that is not UTF-8
    ([trial_line(U="x")], 1),
    ([trial_line(), trial_line("confirm", T=None)], 2),
    ([trial_line(episodes="two")], 1),
    ([trial_line(D=True)], 1),
    ([trial_line(F=[0.5])], 1),
    ([trial_line(V=float("nan"))], 1),
    ([trial_line(U=float("inf"))], 1),
    ([trial_line(), trial_line(D=10 ** 400)], 2),
    ([trial_line(), trial_line(D=0).replace('"D": 0', '"D": 1' + "0" * 5000)], 2),
    ([trial_line(round=1.0)], 1),
    ([trial_line(seed=False)], 1),
    ([trial_line(), trial_line("retry")], 2),
    ([trial_line(config=3)], 1),
    ([trial_line(), trial_line("confirm", round=-1)], 2),
    ([trial_line(episodes=0)], 1),
    ([trial_line(episodes=-3)], 1),
    ([trial_line(seed=-1)], 1),
    ([trial_line(seed=2 ** 64)], 1),
    ([trial_line(F=1.5)], 1),
    ([trial_line(F=-0.1)], 1),
    ([trial_line(T=-2.0)], 1),
    ([trial_line(), trial_line("confirm", V=-0.4)], 2),
    ([trial_line().replace('"U": 0.5', '"U": 0.5, "U": 9.0')], 1),
    ([trial_line("confirm"), trial_line(drop=("U",))], 1),   # the first of two faults
], ids=["missing-U", "no-scout", "confirm-first", "empty", "not-json", "not-utf8",
        "U-text", "T-null", "episodes-text", "D-bool", "F-list", "V-nan", "U-inf",
        "D-beyond-float", "D-too-many-digits", "round-real", "seed-bool", "unknown-phase",
        "config-number", "round-negative", "episodes-zero", "episodes-negative",
        "seed-negative", "seed-beyond-64-bits", "F-above-one", "F-negative", "T-negative",
        "V-negative", "U-repeated", "first-fault"])
def test_report_refuses_malformed_trial_log(tmp_path, capsys, lines, bad_line):
    logs = tmp_path / "logs"
    logs.mkdir()
    log = logs / "trials__task-000__fab__random.jsonl"
    log.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    cfg = write_config(tmp_path, f"out_dir: '{logs}'\n")
    rep = tmp_path / "rep"
    assert main(["report", "--config", str(cfg), "--out", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}:{bad_line}: ")
    assert err.count("\n") == 1
    assert not rep.exists()


STALE_BENCH = """
seed: 1
out_dir: '{out}'
space:
  families: [fab]
  epsilons: {{fab: [4, 8]}}
  steps: {{fab: [8]}}
search:
  budget: 2
  batch: 2
bench:
  tasks: {tasks}
  methods: [random, attacksearch]
"""


def test_bench_refuses_a_trial_log_it_would_not_rewrite(tmp_path, capsys):
    out = tmp_path / "bench"
    cfg = write_config(tmp_path, STALE_BENCH.format(out=out, tasks=2))
    assert main(["bench", "--config", str(cfg)]) == 0
    assert main(["bench", "--config", str(cfg)]) == 0   # a rerun rewrites its own logs
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    cfg.write_text(STALE_BENCH.format(out=out, tasks=1))
    assert main(["bench", "--config", str(cfg)]) == 2
    stale = out / "trials__task-001__fab__attacksearch.jsonl"
    assert capsys.readouterr().err == \
        f"error: {stale} is a trial log this bench run would not rewrite\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


def test_memory_mode_builds_records(tmp_path):
    cfg, out, memory_path = bench_setup(tmp_path)
    memory = AttackMemory.load(memory_path)
    assert len(memory) == 4


def test_bench_writes_logs_and_reports(tmp_path):
    cfg, out, _ = bench_setup(tmp_path)
    logs = sorted(out.glob("trials__*.jsonl"))
    assert len(logs) == 2 * 2 * 3  # tasks x families x methods
    summary = (out / "summary.csv").read_text().splitlines()
    header = [line for line in summary if not line.startswith("#")][0]
    assert header == "Task,Method,Drop,Flip,Utility,Time"
    assert sum(1 for line in summary if line.startswith("aggregate,")) == 3
    efficiency = (out / "efficiency.csv").read_text().splitlines()
    assert any(line.startswith("Method,Pairs,Hit Rate,Trials,Time") for line in efficiency)
    assert any("Trials: mean 1-based trial index" in line for line in efficiency)


def test_bench_budget_parity_logged(tmp_path):
    cfg, out, _ = bench_setup(tmp_path)
    parity = [line.split(",") for line in
              (out / "parity.csv").read_text().splitlines()[1:]]
    counts = {}
    for task, family, method, configs in parity:
        counts.setdefault((task, family), set()).add(configs)
    assert all(len(v) == 1 for v in counts.values())


def test_report_reproducible_and_matches_bench(tmp_path):
    cfg, out, _ = bench_setup(tmp_path)
    rep1, rep2 = tmp_path / "rep1", tmp_path / "rep2"
    assert main(["report", "--config", str(cfg), "--out", str(rep1)]) == 0
    assert main(["report", "--config", str(cfg), "--out", str(rep2)]) == 0
    for name in ("summary.csv", "efficiency.csv", "parity.csv", "curves.csv"):
        assert (rep1 / name).read_bytes() == (rep2 / name).read_bytes()
        assert (rep1 / name).read_bytes() == (out / name).read_bytes()


def test_curves_csv_monotone_checkpoints(tmp_path):
    _, out, _ = bench_setup(tmp_path)
    rows = [line.split(",") for line in
            (out / "curves.csv").read_text().splitlines()
            if line and not line.startswith(("#", "Method,"))]
    by_method = {}
    for method, trial, value in rows:
        by_method.setdefault(method, []).append((int(trial), float(value)))
    assert set(by_method) == {"attacksearch", "random", "feedback-only"}
    for series in by_method.values():
        trials = [t for t, _ in series]
        values = [v for _, v in series]
        assert trials == sorted(trials)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_search_update_memory_appends_record(tmp_path):
    out = tmp_path / "out"
    memory_path = tmp_path / "memory.jsonl"
    body = SMALL_SEARCH.format(out=out) + (
        "  update_memory: true\nretrieval:\n  memory_path: '%s'\n" % memory_path)
    cfg = write_config(tmp_path, body)
    memory_path.write_text("")  # existing empty memory
    assert main(["search", "--config", str(cfg)]) == 0
    memory = AttackMemory.load(memory_path)
    assert len(memory) == 1
    assert memory.records[0].task_id == "task-000"
    assert main(["search", "--config", str(cfg)]) == 0
    assert len(AttackMemory.load(memory_path)) == 2


MISMATCHED = """
out_dir: {out}
space:
  families: [{family}]
search:
  budget: 4
  batch: 2
retrieval:
  memory_path: '{memory}'
memory:
  tasks: 3
bench:
  tasks: 1
  methods: [attacksearch]
"""


def test_warm_start_from_a_mismatched_memory_warns_in_search_only(tmp_path, capsys):
    """Every record of a [fab] memory lies outside an [apgd-ce] space: search
    says so once; bench, whose per-family spaces skip the other families'
    records by design, stays quiet."""
    memory = tmp_path / "memory.jsonl"
    fab = write_config(tmp_path, MISMATCHED.format(out=tmp_path / "m", family="fab",
                                                   memory=memory))
    assert main(["memory", "--config", str(fab)]) == 0
    capsys.readouterr()
    apgd = tmp_path / "apgd.yaml"
    apgd.write_text(MISMATCHED.format(out=tmp_path / "s", family="apgd-ce", memory=memory))
    assert main(["search", "--config", str(apgd)]) == 0
    assert capsys.readouterr().err == ("warning: warm start skipped 3 of 3 retrieved records: "
                                       "their configs lie outside the space\n")
    assert main(["bench", "--config", str(apgd), "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err == ""


def test_report_constructed_log_hits_by_trial_three(tmp_path):
    # every pair reaches 0.9 * final by trial 3 -> hit rate 1.0, mean trials 3
    from attacksearch.bench import write_report_files
    from attacksearch.serial import write_records

    def rec(config, u, phase="scout", rnd=0):
        return {"round": rnd, "phase": phase, "config": config, "D": u, "F": 0.0,
                "T": 1.0, "V": 0.0, "U": u, "episodes": 1, "seed": 0}

    lines = [rec("c1", 0.2), rec("c2", 0.4), rec("c3", 0.95), rec("c4", 1.0, rnd=1)]
    for task in ("task-000", "task-001"):
        write_records(tmp_path / f"trials__{task}__fab__random.jsonl", lines)
    write_report_files(tmp_path, tmp_path)
    rows = [line for line in (tmp_path / "efficiency.csv").read_text().splitlines()
            if not line.startswith("#") and not line.startswith("Method,")]
    method, pairs, hit_rate, trials, _ = rows[0].split(",")
    assert (method, pairs, hit_rate, trials) == ("random", "2", "1.000", "3.000")


def test_bench_full_method_beats_random_on_noiseless_family(tmp_path):
    out = tmp_path / "bench"
    memory_path = tmp_path / "memory.jsonl"
    cfg = write_config(tmp_path, f"""
seed: 2
out_dir: {out}
space:
  families: [apgd-ce, fab]
search:
  budget: 16
  batch: 4
bench:
  tasks: 10
  family_seed: 0
  noise: 0.0
retrieval:
  memory_path: '{memory_path}'
memory:
  tasks: 10
  family_seed: 0
""")
    assert main(["memory", "--config", str(cfg)]) == 0
    assert main(["bench", "--config", str(cfg)]) == 0
    aggregates = {}
    for line in (out / "summary.csv").read_text().splitlines():
        if line.startswith("aggregate,"):
            _, method, _, _, utility, _ = line.split(",")
            aggregates[method] = float(utility)
    assert aggregates["attacksearch"] >= aggregates["random"]


def test_theory_mode_small(tmp_path):
    out = tmp_path / "theory"
    cfg = write_config(tmp_path, f"""
out_dir: {out}
theory:
  hitting_trials: 2000
  pair_trials: 1000
  random_pairs: 3
  identity_tuples: 200
  coverage_trials: 20
  coverage_episodes: 20
""")
    assert main(["theory", "--config", str(cfg)]) == 0
    lines = (out / "theory_verdicts.csv").read_text().splitlines()
    assert lines[0] == "Check,Value,Bound,Empirical,SE,Verdict"
    assert all(line.endswith(",PASS") for line in lines[1:])


def test_theory_mode_default_parameters_all_pass(tmp_path):
    out = tmp_path / "theory"
    cfg = write_config(tmp_path, f"out_dir: {out}\n")
    assert main(["theory", "--config", str(cfg)]) == 0
    lines = (out / "theory_verdicts.csv").read_text().splitlines()
    assert len(lines) > 20
    assert all(line.endswith(",PASS") for line in lines[1:])


def test_theory_mode_seed_209_all_pass(tmp_path):
    # At the former 3-SE rule, hitting-time-pair-5 read 3.45 SE over its
    # exact bound at this seed and the mode exited 1.
    out = tmp_path / "theory"
    cfg = write_config(tmp_path, f"out_dir: {out}\n")
    assert main(["theory", "--config", str(cfg), "--seed", "209"]) == 0
    lines = (out / "theory_verdicts.csv").read_text().splitlines()
    assert len(lines) == 25
    assert all(line.endswith(",PASS") for line in lines[1:])
