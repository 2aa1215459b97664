"""Golden outputs: fixed CLI runs must reproduce the committed files byte for byte.

Each case writes `run.yaml` into an empty directory, runs its modes through
`cli.main` there, and compares every file the run leaves behind with
`tests/golden/<case>/`. Regenerate only together with a CHANGES.md entry that
explains the behaviour change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import pytest

from attacksearch.cli import main

GOLDEN = Path(__file__).parent / "golden"

SPACE = """space:
  families: [apgd-ce, fab]
  epsilons: {apgd-ce: [4, 8, 12], fab: [4, 8, 12]}
  steps: {apgd-ce: [4, 8], fab: [8, 16]}
"""

CASES = {
    "search-noiseless": (("search",), """seed: 3
out_dir: out
victim:
  kind: surface
  task_seed: 5
""" + SPACE + """search:
  budget: 8
  batch: 4
"""),
    "search-noisy": (("search",), """seed: 4
out_dir: out
victim:
  kind: surface
  task_seed: 6
  noise: 0.3
""" + SPACE + """search:
  budget: 12
  batch: 3
  dump_proposals: true
"""),
    "search-linear": (("search",), """seed: 5
out_dir: out
victim:
  kind: linear
  horizon: 4
  obs_dim: 16
  latent_dim: 4
  baseline_episodes: 2
space:
  families: [apgd-ce, fab]
  epsilons: {apgd-ce: [4, 12], fab: [4, 12]}
  steps: {apgd-ce: [4], fab: [6]}
search:
  budget: 4
  batch: 2
  scout_episodes: 1
  confirm_episodes: 2
  confirm_top_k: 1
"""),
    "search-linear-restarts": (("search",), """seed: 3
out_dir: out
victim:
  kind: linear
  horizon: 4
  obs_dim: 16
  latent_dim: 4
  baseline_episodes: 2
  dump_trajectories: true
space:
  families: [square, physcond-wma]
  epsilons: {square: [4, 12], physcond-wma: [4, 12]}
  steps: {square: [8, 16], physcond-wma: [4, 8]}
  restarts: [1, 2]
search:
  budget: 8
  batch: 4
  scout_episodes: 1
  confirm_episodes: 2
  confirm_top_k: 1
  dump_proposals: true
"""),
    "search-linear-grid": (("search",), """seed: 7
out_dir: out
victim:
  kind: linear
  horizon: 6
  obs_dim: 16
  latent_dim: 4
  baseline_episodes: 2
space:
  families: [apgd-ce, apgd-dlr, fab, physcond-wma]
  epsilons: {apgd-ce: [0, 8], apgd-dlr: [0, 8], fab: [0, 8], physcond-wma: [0, 8]}
  steps: {apgd-ce: [3, 6], apgd-dlr: [3, 6], fab: [3, 6], physcond-wma: [3, 6]}
  restarts: [1, 2]
search:
  budget: 40
  batch: 8
  scout_episodes: 2
  confirm_episodes: 3
  confirm_top_k: 2
"""),
    "memory-bench": (("memory", "bench"), """seed: 1
out_dir: out
""" + SPACE + """search:
  budget: 6
  batch: 3
bench:
  tasks: 2
  noise: 0.2
retrieval:
  memory_path: memory.jsonl
memory:
  tasks: 3
"""),
    "oracle": (("oracle",), """seed: 2
out_dir: out
victim:
  kind: surface
  task_seed: 7
""" + SPACE),
    "theory-small": (("theory",), """seed: 2
out_dir: out
theory:
  hitting_trials: 2000
  pair_trials: 1000
  random_pairs: 3
  identity_tuples: 200
  coverage_trials: 20
  coverage_episodes: 20
"""),
}


def run_case(name: str, workdir: Path, *flags: str) -> dict[str, bytes]:
    """Run one case in `workdir`, with `flags` added to each mode's command
    line; every file it wrote, keyed by relative path."""
    modes, body = CASES[name]
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "run.yaml").write_text(body)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for mode in modes:
            assert main([mode, "--config", "run.yaml", *flags]) == 0
    finally:
        os.chdir(cwd)
    return {path.relative_to(workdir).as_posix(): path.read_bytes()
            for path in sorted(workdir.rglob("*"))
            if path.is_file() and path.name != "run.yaml"}


def golden_files(name: str) -> dict[str, bytes]:
    root = GOLDEN / name
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path):
    produced = run_case(name, tmp_path)
    expected = golden_files(name)
    assert expected, f"no golden files for {name}"
    assert sorted(produced) == sorted(expected)
    for rel, data in expected.items():
        assert produced[rel] == data, f"{name}/{rel} differs from its golden copy"


@pytest.mark.parametrize("name", ["search-noisy", "oracle"])
def test_fresh_nested_out_dir_gets_the_golden_files(name, tmp_path):
    produced = run_case(name, tmp_path, "--out", "a/b/out")
    assert produced == {f"a/b/{rel}": data for rel, data in golden_files(name).items()}


def regenerate() -> None:
    import tempfile
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            produced = run_case(name, Path(tmp))
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        for rel, data in produced.items():
            (target / rel).parent.mkdir(parents=True, exist_ok=True)
            (target / rel).write_bytes(data)
        print(f"{name}: {len(produced)} files")


if __name__ == "__main__":
    sys.exit(regenerate())
