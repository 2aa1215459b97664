"""Smoke test of the benchmark at reduced size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced at the "smoke" sizes and
checks that each metric BENCHMARK.json declares is emitted with its unit,
that a victim failing on one configuration is counted without aborting the
run, that tracing leaves the package as it found it, and that the command
refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 3


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = run.run_benchmark(workload, SEED, 0.01, trace, scale="smoke")
    assert result["correct"] and result["failed"] == 0, result["problems"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_workloads_match_the_declared_ones():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


class _FailOnOneConfig:
    """Delegates to a victim, but raises whenever the planted config is evaluated.

    The planted config is the first one any wrapped victim is attacked with.
    """

    planted = None

    def __init__(self, victim):
        self._victim = victim

    def __getattr__(self, name):
        return getattr(self._victim, name)

    def attacked_rollout(self, config, episodes, rng):
        if _FailOnOneConfig.planted is None:
            _FailOnOneConfig.planted = config
        if config == _FailOnOneConfig.planted:
            raise RuntimeError("planted victim failure")
        return self._victim.attacked_rollout(config, episodes, rng)


def test_planted_victim_failure_raises_failed_frac_without_aborting():
    _FailOnOneConfig.planted = None
    result = run.run_benchmark("surface-search", SEED, 0.01, True, scale="smoke",
                               victim_wrapper=_FailOnOneConfig)
    assert _FailOnOneConfig.planted is not None
    assert 0 < result["failed"] < result["attempted"]
    assert not result["correct"]
    assert result["metrics"]["failed_frac"]["value"] == result["failed"] / result["attempted"]
    assert any("planted victim failure" in p for p in result["problems"])


def _bindings():
    from attacksearch import (configspace, memory, rngutil, victims)
    mods = {layer: sys.modules[f"attacksearch.{layer}"] for layer in run.LAYERS}
    classes = (configspace.ConfigSpace, rngutil.Stream, memory.AttackMemory,
               victims.ResponseSurfaceVictim, victims.LinearWorldModelVictim)
    return ({name: dict(vars(mod)) for name, mod in mods.items()},
            {cls.__name__: dict(vars(cls)) for cls in classes},
            dict(mods["cli"]._HANDLERS))


def test_traced_run_restores_every_binding():
    run.load_package()
    before = _bindings()
    run.run_benchmark("bench-cli", SEED, 0.01, True, scale="smoke")
    assert _bindings() == before


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable] + SPEC["command"][1:]
                          + ["--workload", "surface-search", "--seed", "1",
                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
