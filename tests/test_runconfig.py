from dataclasses import asdict, fields, is_dataclass

import pytest
import yaml

from attacksearch.configspace import AttackFamily
from attacksearch.evaluation import UtilityWeights
from attacksearch.runconfig import (RunConfig, RunConfigError, build_search_params,
                                    build_space, build_victim, build_weights,
                                    emit_defaults, parse_run_config, parse_run_config_text)
from attacksearch.search import SearchParams
from attacksearch.victims import LinearWorldModelVictim, ResponseSurfaceVictim, surface_task


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("")
    assert parse_run_config(path) == RunConfig()


def test_minimal_file_applies_defaults():
    config = parse_run_config_text("mode: theory\nvictim:\n  kind: linear\n")
    assert config.mode == "theory"
    assert config.victim.kind == "linear"
    assert config.search.budget == 16
    assert config.retrieval.strength == 0.6
    assert config.weights.flip == 0.25


def test_emit_defaults_round_trip():
    assert parse_run_config_text(emit_defaults()) == RunConfig()


def test_unknown_top_level_key_names_line():
    text = "mode: search\nbogus: 1\n"
    with pytest.raises(RunConfigError, match=r"bogus.*line 2"):
        parse_run_config_text(text)


def test_unknown_nested_key_names_line():
    text = "victim:\n  kind: surface\n  flavor: spicy\n"
    with pytest.raises(RunConfigError, match=r"victim\.flavor.*line 3"):
        parse_run_config_text(text)


def test_type_mismatch_names_key():
    with pytest.raises(RunConfigError, match="search.budget"):
        parse_run_config_text("search:\n  budget: plenty\n")


def test_strength_constraint_named():
    with pytest.raises(RunConfigError, match=r"strength must lie in \[0, 1\]"):
        parse_run_config_text("retrieval:\n  strength: 1.5\n")


def test_mode_validated():
    with pytest.raises(RunConfigError, match="mode must be one of"):
        parse_run_config_text("mode: evaluate\n")


def test_bad_family_rejected():
    with pytest.raises(RunConfigError, match="unknown family"):
        parse_run_config_text("space:\n  families: [apgd-ce, gradient-magic]\n")


def test_bad_method_rejected():
    with pytest.raises(RunConfigError, match="unknown method"):
        parse_run_config_text("bench:\n  methods: [attacksearch, simulated-annealing]\n")


def test_invalid_yaml_reports_line():
    with pytest.raises(RunConfigError, match="invalid YAML"):
        parse_run_config_text("mode: [unclosed\n")


def test_budget_batch_constraint():
    with pytest.raises(RunConfigError, match="budget >= batch"):
        parse_run_config_text("search:\n  budget: 2\n  batch: 8\n")


def test_build_space_with_overrides():
    config = parse_run_config_text(
        "space:\n  families: [fab, square]\n"
        "  epsilons: {fab: [2, 6]}\n  steps: {fab: [8, 12, 16]}\n")
    space = build_space(config)
    assert space.families == (AttackFamily.FAB, AttackFamily.SQUARE)
    fab = space.grids[AttackFamily.FAB]
    assert fab.epsilons == (2, 6)
    assert fab.steps == (8, 12, 16)
    # square keeps its defaults
    assert space.grids[AttackFamily.SQUARE].steps == tuple(range(20, 161, 20))


def test_build_victim_kinds():
    surface = build_victim(parse_run_config_text("victim:\n  kind: surface\n"))
    assert isinstance(surface, ResponseSurfaceVictim)
    linear = build_victim(parse_run_config_text(
        "victim:\n  kind: linear\n  horizon: 6\n"))
    assert linear.horizon == 6


def assert_same_fields(built, expected):
    assert type(built) is type(expected)
    assert asdict(built) == asdict(expected)


def test_default_surface_victim_is_the_constructors_default():
    victim = RunConfig().victim
    assert_same_fields(build_victim(RunConfig()), surface_task(victim.task_id, victim.task_seed))


def test_default_linear_victim_is_the_constructors_default():
    config = parse_run_config_text("victim:\n  kind: linear\n")
    assert_same_fields(build_victim(config), LinearWorldModelVictim(config.victim.task_id))
    assert build_victim(config).horizon == LinearWorldModelVictim("t").horizon == 10


def test_default_search_params_and_weights_are_the_constructors_defaults():
    assert_same_fields(build_search_params(RunConfig()), SearchParams(budget=16, batch_size=4))
    assert_same_fields(build_weights(RunConfig()), UtilityWeights())


def test_build_weights():
    weights = build_weights(parse_run_config_text(
        "weights:\n  flip: 0.3\n  runtime: 0.1\n  variability: 0.0\n"))
    assert (weights.flip, weights.runtime, weights.variability) == (0.3, 0.1, 0.0)


def test_grid_override_validation():
    with pytest.raises(RunConfigError, match="space.epsilons"):
        parse_run_config_text("space:\n  epsilons: {apgd-ce: []}\n")
    with pytest.raises(RunConfigError, match="space.steps"):
        parse_run_config_text("space:\n  steps: {apgd-ce: [1.5]}\n")


# ---------------------------------------------------------------- key table

SECTIONS = [f.name for f in fields(RunConfig) if is_dataclass(f.default)]


def leaf_keys():
    """(dotted key, default) for every key, in declaration order."""
    out = []
    for f in fields(RunConfig):
        default = getattr(RunConfig(), f.name)
        if is_dataclass(default):
            out += [(f"{f.name}.{g.name}", getattr(default, g.name)) for g in fields(default)]
        else:
            out.append((f.name, default))
    return out


def place(dotted: str, value: str) -> tuple[str, int]:
    """A config setting `dotted` to `value`, and the line the key lands on."""
    if "." not in dotted:
        return f"# header\n{dotted}: {value}\n", 2
    section, key = dotted.split(".")
    return f"mode: search\n{section}:\n  # padding\n  {key}: {value}\n", 4


CONSTRAINT_VIOLATIONS = [
    ("mode", "evaluate"), ("seed", "-1"),
    ("victim.task_seed", "-3"), ("victim.weight_seed", "-2"),
    ("bench.family_seed", "-1"), ("memory.family_seed", "-1"),
    ("victim.kind", "cubic"), ("victim.noise", "-0.5"), ("victim.horizon", "0"),
    ("victim.baseline_episodes", "0"), ("victim.action_count", "0"),
    ("victim.grid_size", "1"), ("victim.obs_dim", "2"), ("victim.obs_dim", "3"),
    ("victim.latent_dim", "1"),
    ("space.families", "[]"), ("space.families", "[apgd-ce, gradient-magic]"),
    ("space.families", "[fab, fab]"),
    ("space.restarts", "[]"), ("space.rhos", "[]"), ("space.seeds", "[]"),
    ("space.restarts", "[0]"), ("space.rhos", "[0.5, 0.5]"), ("space.rhos", "[1.5]"),
    ("space.seeds", "[-1]"), ("space.seeds", "[3, 1]"),
    ("weights.flip", "-0.1"), ("weights.runtime", "-0.1"), ("weights.variability", "-0.1"),
    ("search.alpha", "1.5"), ("search.alpha_schedule", "linear"), ("search.beta", "-1"),
    ("search.spread", "-1"), ("search.scout_episodes", "0"),
    ("search.confirm_episodes", "0"), ("search.confirm_top_k", "0"),
    ("retrieval.top_k", "0"), ("retrieval.strength", "1.5"),
    ("oracle.episodes", "-1"),
    ("theory.identity_tuples", "0"), ("theory.hitting_trials", "0"),
    ("theory.random_pairs", "0"), ("theory.pair_trials", "0"),
    ("theory.coverage_trials", "0"), ("theory.coverage_episodes", "0"),
    ("theory.delta", "1.0"), ("theory.delta", "0"), ("theory.eta", "-0.1"),
    ("bench.tasks", "0"), ("bench.noise", "-1"), ("bench.methods", "[]"),
    ("bench.methods", "[attacksearch, annealing]"), ("bench.methods", "[random, random]"),
    ("memory.tasks", "0"),
]


def wrong_type(default) -> str:
    if isinstance(default, bool):
        return "1"
    if isinstance(default, int):
        return "1.5"
    if isinstance(default, float):
        return "fast"
    if isinstance(default, str):
        return "[a]"
    if isinstance(default, tuple):
        return "[[1]]"
    return "[1]"    # grid overrides need a mapping


TYPE_VIOLATIONS = [(key, wrong_type(default)) for key, default in leaf_keys()]


@pytest.mark.parametrize("key,value", CONSTRAINT_VIOLATIONS + TYPE_VIOLATIONS)
def test_bad_value_names_key_and_line(key, value):
    text, line = place(key, value)
    with pytest.raises(RunConfigError) as err:
        parse_run_config_text(text)
    assert (err.value.key, err.value.line) == (key, line)


@pytest.mark.parametrize("key", ["victim.noise", "search.beta", "search.spread",
                                 "weights.flip", "weights.runtime", "weights.variability",
                                 "theory.eta", "bench.noise"])
@pytest.mark.parametrize("value", [".inf", ".nan", "1" + "0" * 400])
def test_non_finite_real_names_key_and_line(key, value):
    """YAML reads `.inf` and `.nan` as reals, and a long integer widens past
    the largest one; each of these keys' own rules would let `.inf` through."""
    text, line = place(key, value)
    with pytest.raises(RunConfigError, match="expected finite real") as err:
        parse_run_config_text(text)
    assert (err.value.key, err.value.line) == (key, line)


def test_non_finite_list_item_is_refused():
    with pytest.raises(RunConfigError, match="list of finite reals, got inf") as err:
        parse_run_config_text("space:\n  rhos: [0.5, .inf]\n")
    assert (err.value.key, err.value.line) == ("space.rhos", 2)


@pytest.mark.parametrize("section", SECTIONS)
def test_unknown_key_in_section_named(section):
    with pytest.raises(RunConfigError) as err:
        parse_run_config_text(f"seed: 1\n{section}:\n  bogus: 1\n")
    assert (err.value.key, err.value.line) == (f"{section}.bogus", 3)


@pytest.mark.parametrize("section", SECTIONS)
def test_non_mapping_section_named(section):
    with pytest.raises(RunConfigError, match="expected a mapping") as err:
        parse_run_config_text(f"seed: 1\n{section}: [1, 2]\n")
    assert (err.value.key, err.value.line) == (section, 2)


@pytest.mark.parametrize("grid", ["epsilons", "steps"])
@pytest.mark.parametrize("entry,key", [
    ("bogus: [2, 4]", "bogus"), ("apgd-ce: []", "apgd-ce"),
    ("apgd-ce: [2, 1.5]", "apgd-ce"), ("apgd-ce: [true]", "apgd-ce"), ("fab: 8", "fab"),
    ("apgd-ce: [-2, 4]", "apgd-ce"), ("apgd-ce: [4, 4]", "apgd-ce"),
    ("apgd-ce: [8, 4]", "apgd-ce"),
])
def test_bad_grid_override_names_family_and_line(grid, entry, key):
    text = f"space:\n  {grid}:\n    fab: [8]\n    {entry}\n"
    with pytest.raises(RunConfigError) as err:
        parse_run_config_text(text)
    assert (err.value.key, err.value.line) == (f"space.{grid}.{key}", 4)


@pytest.mark.parametrize("mode, text, key, line", [
    ("search", "seed: 1\nsearch:\n  update_memory: true\n", "search.update_memory", 3),
    ("oracle", "victim:\n  noise: 0.5\noracle:\n  episodes: 0\n", "oracle.episodes", 4),
    ("oracle", "victim:\n  kind: linear\n", "oracle.episodes", None),
    ("memory", "seed: 1\n", "retrieval.memory_path", None),
    ("bench", "seed: 1\nvictim:\n  kind: linear\n", "victim.kind", 3),
    ("search", "retrieval:\n  memory_path: no/such/memory.jsonl\n", "retrieval.memory_path", 2),
], ids=["update-memory", "noisy-oracle", "linear-oracle", "memory-without-path",
        "linear-bench", "missing-memory-file"])
def test_mode_rules_are_checked_while_parsing(mode, text, key, line):
    parse_run_config_text(text, "theory")   # the theory mode reads none of these keys
    with pytest.raises(RunConfigError) as err:
        parse_run_config_text(text, mode)
    assert (err.value.key, err.value.line) == (key, line)


def test_mode_rules_keep_each_mode_order(tmp_path):
    text = f"victim:\n  kind: linear\nretrieval:\n  memory_path: '{tmp_path}'\n"
    with pytest.raises(RunConfigError, match="is a directory") as err:
        parse_run_config_text(text, "memory")
    assert (err.value.key, err.value.line) == ("retrieval.memory_path", 4)
    with pytest.raises(RunConfigError, match="bench mode generates response-surface") as err:
        parse_run_config_text(text, "bench")
    assert (err.value.key, err.value.line) == ("victim.kind", 2)


def test_budget_batch_rule_names_section_and_line():
    with pytest.raises(RunConfigError, match="budget >= batch >= 1") as err:
        parse_run_config_text("seed: 1\nsearch:\n  batch: 20\n")
    assert (err.value.key, err.value.line) == ("search", 2)


@pytest.mark.parametrize("text, key, first, line", [
    ("seed: 1\nmode: search\nseed: 2\n", "seed", 1, 3),
    ("search: {budget: 8, budget: 16}\n", "search.budget", 1, 1),
    ("seed: 1\nsearch:\n  budget: 8\n  batch: 4\n  budget: 16\n", "search.budget", 3, 5),
    ("space:\n  epsilons:\n    fab: [8]\n    fab: [4]\n", "space.epsilons.fab", 3, 4),
    ("search:\n  budget: 8\nsearch:\n  batch: 4\n", "search", 1, 3),
], ids=["top-level", "flow-mapping", "nested", "grid-override", "section"])
def test_key_given_twice_names_both_lines(text, key, first, line):
    with pytest.raises(RunConfigError, match=f"key given twice, first on line {first}") as err:
        parse_run_config_text(text)
    assert (err.value.key, err.value.line) == (key, line)


def test_key_a_merge_brings_in_may_be_overridden():
    config = parse_run_config_text("<<: {seed: 3, mode: theory}\nseed: 4\n"
                                   "search:\n  <<: {budget: 8, batch: 2}\n  budget: 16\n")
    assert (config.seed, config.mode) == (4, "theory")
    assert (config.search.budget, config.search.batch) == (16, 2)


@pytest.mark.parametrize("text, key, line, message", [
    ("search: &s {batch: *s}\n", "search.batch", 1, "expected integer"),
    ("search: &s {batch: {<<: *s}}\n", "search.batch", 1, "expected integer"),
    ("search: &s {batch: {<<: [*s]}}\n", "search.batch", 1, "expected integer"),
    ("space:\n  families: &f [fab, *f]\n", "space.families", 2, "expected a list"),
], ids=["alias", "merge", "merge-list", "list"])
def test_value_that_contains_itself_is_refused(text, key, line, message):
    with pytest.raises(RunConfigError, match=message) as err:
        parse_run_config_text(text)
    assert (err.value.key, err.value.line) == (key, line)


def test_aliases_that_repeat_a_mapping_are_read_once():
    # 2**40 key paths reach x0's mapping; visiting each one would never end
    text = "x0: &a0 {k: 1}\n" + "".join(f"x{i}: &a{i} {{p: *a{i - 1}, q: *a{i - 1}}}\n"
                                         for i in range(1, 41))
    with pytest.raises(RunConfigError, match="unknown key 'x0'") as err:
        parse_run_config_text(text)
    assert err.value.line == 1


def test_emit_defaults_lists_every_key_once_with_its_default():
    listed, section = [], None
    for line in emit_defaults().splitlines():
        body = line.split(" #")[0]
        if not body.strip() or line.startswith("#"):
            continue
        key, _, value = body.partition(":")
        if not line.startswith(" "):
            section = key if not value.strip() else None
            if section:
                continue
        listed.append((f"{section}.{key.strip()}" if section else key, yaml.safe_load(value)))
    expected = leaf_keys()
    assert [k for k, _ in listed] == [k for k, _ in expected]
    for (key, value), (_, default) in zip(listed, expected):
        assert value == (list(default) if isinstance(default, tuple) else default), key
