"""Declarative run configuration: one YAML tree drives every CLI mode.

Every key is declared once, as a spec-dataclass field that carries its
default, its documentation comment and its constraint; a key that feeds a
constructor reads its default from the type it builds. One walker parses
every section from those fields: a key's type is the type of its default,
unknown keys are rejected, and every violation names the dotted key and
the line it came from. The rules of the run's mode are checked in the same
parse, before the mode does any work. `emit_defaults` walks the same
fields, and its text parses back to the all-default config.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial
from pathlib import Path

import yaml

from .configspace import AttackFamily, ConfigSpace, default_config_space, grid_problem
from .evaluation import UtilityWeights
from .search import ALPHA_SCHEDULES, SearchParams
from .victims import HORIZON, LinearWorldModelVictim, ResponseSurfaceVictim, surface_task

MODES = ("search", "oracle", "theory", "bench", "memory", "report")
METHOD_FULL = "attacksearch"
METHOD_RANDOM = "random"
METHOD_FEEDBACK_ONLY = "feedback-only"
METHODS = (METHOD_FULL, METHOD_RANDOM, METHOD_FEEDBACK_ONLY)
_FAMILIES = tuple(f.value for f in AttackFamily)


class RunConfigError(ValueError):
    def __init__(self, message: str, key: str = "", line: int | None = None):
        where = ", ".join(filter(None, (key and f"key {key!r}", line and f"line {line}")))
        super().__init__(f"{message} ({where})" if where else message)
        self.key = key
        self.line = line


# ----------------------------------------------------------------------
# Key declarations
# ----------------------------------------------------------------------


def _rule(holds, message: str):
    """A constraint: `holds(value)` or the key fails with `<key> <message>`."""
    return lambda value: None if holds(value) else message


def _at_least(bound):
    return _rule(lambda v: v >= bound, f"must be >= {bound}")


def _within(lo, hi):
    return _rule(lambda v: lo <= v <= hi, f"must lie in [{lo}, {hi}]")


def _one_of(choices):
    return lambda v: None if v in choices else f"must be one of {choices}, got {v!r}"


def _members(choices, noun: str):
    def check(values):
        if not values:
            return f"must name at least one {noun}"
        bad = [v for v in values if v not in choices]
        if bad:
            return f"names unknown {noun} {bad[0]!r}; valid: {choices}"
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        return f"names {noun} {repeated[0]!r} twice" if repeated else None
    return check


def _key(default, comment: str = "", check=None):
    """A run-config key: its default, its `emit_defaults` comment, its constraint."""
    meta = {"comment": comment, "check": check}
    if isinstance(default, dict):
        return field(default_factory=dict, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class VictimSpec:
    kind: str = _key("surface", "surface | linear", _one_of(("surface", "linear")))
    task_id: str = "task-000"
    task_seed: int = _key(0, check=_at_least(0))
    noise: float = _key(ResponseSurfaceVictim.noise_scale, "return-noise scale; surface only",
                        _at_least(0))
    horizon: int = _key(HORIZON, check=_at_least(1))
    action_count: int = _key(ResponseSurfaceVictim.action_count, "surface only", _at_least(1))
    obs_dim: int = _key(LinearWorldModelVictim.obs_dim, "linear only", _at_least(4))
    latent_dim: int = _key(LinearWorldModelVictim.latent_dim, "linear only", _at_least(2))
    grid_size: int = _key(LinearWorldModelVictim.grid_size, "linear only", _at_least(2))
    weight_seed: int = _key(LinearWorldModelVictim.weight_seed, "linear only", _at_least(0))
    baseline_episodes: int = _key(3, check=_at_least(1))
    dump_trajectories: bool = False


@dataclass(frozen=True)
class SpaceSpec:
    families: tuple[str, ...] = _key(_FAMILIES, check=_members(_FAMILIES, "family"))
    restarts: tuple[int, ...] = _key((1,), check=partial(grid_problem, "restarts"))
    rhos: tuple[float, ...] = _key((0.75,), check=partial(grid_problem, "rhos"))
    seeds: tuple[int, ...] = _key((0,), check=partial(grid_problem, "seeds"))
    epsilons: dict = _key({}, "per-family grid overrides, e.g. {apgd-ce: [2, 4, 8]}")
    steps: dict = _key({}, "per-family grid overrides")


@dataclass(frozen=True)
class SearchSpec:
    budget: int = _key(16, "distinct configurations to evaluate")
    batch: int = 4
    alpha: float = _key(SearchParams.alpha, "proposal update rate", _within(0, 1))
    alpha_schedule: str = _key(SearchParams.alpha_schedule, " | ".join(ALPHA_SCHEDULES),
                               _one_of(ALPHA_SCHEDULES))
    beta: float = _key(SearchParams.beta, "exploitation temperature", _at_least(0))
    spread: float = _key(SearchParams.spread, "neighborhood deposit weight", _at_least(0))
    scout_episodes: int = _key(SearchParams.scout_episodes, check=_at_least(1))
    confirm_episodes: int = _key(SearchParams.confirm_episodes, check=_at_least(1))
    confirm_top_k: int = _key(SearchParams.confirm_top_k, check=_at_least(1))
    update_memory: bool = False
    dump_proposals: bool = False

    def __post_init__(self) -> None:
        if not (self.budget >= self.batch >= 1):
            raise ValueError("need budget >= batch >= 1")


@dataclass(frozen=True)
class RetrievalSpec:
    memory_path: str = _key("", "empty disables retrieval")
    top_k: int = _key(3, check=_at_least(1))
    strength: float = _key(0.6, "warm-start mixing weight in [0, 1]", _within(0, 1))


@dataclass(frozen=True)
class WeightsSpec:
    flip: float = _key(UtilityWeights.flip, check=_at_least(0))
    runtime: float = _key(UtilityWeights.runtime, check=_at_least(0))
    variability: float = _key(UtilityWeights.variability, check=_at_least(0))


@dataclass(frozen=True)
class OracleSpec:
    episodes: int = _key(0, "0 = refuse non-deterministic victims", _at_least(0))


@dataclass(frozen=True)
class TheorySpec:
    identity_tuples: int = _key(1000, check=_at_least(1))
    hitting_trials: int = _key(20000, check=_at_least(1))
    random_pairs: int = _key(10, check=_at_least(1))
    pair_trials: int = _key(4000, check=_at_least(1))
    coverage_trials: int = _key(200, check=_at_least(1))
    coverage_episodes: int = _key(50, check=_at_least(1))
    delta: float = _key(0.1, check=_rule(lambda v: 0 < v < 1, "must lie in (0, 1)"))
    eta: float = _key(0.05, check=_at_least(0))


@dataclass(frozen=True)
class BenchSpec:
    tasks: int = _key(10, check=_at_least(1))
    family_seed: int = _key(0, check=_at_least(0))
    noise: float = _key(0.2, check=_at_least(0))
    methods: tuple[str, ...] = _key(METHODS, check=_members(METHODS, "method"))


@dataclass(frozen=True)
class MemorySpec:
    tasks: int = _key(20, check=_at_least(1))
    family_seed: int = _key(0, check=_at_least(0))


@dataclass(frozen=True)
class RunConfig:
    mode: str = _key("search", " | ".join(MODES), _one_of(MODES))
    seed: int = _key(0, check=_at_least(0))
    out_dir: str = "out"
    victim: VictimSpec = VictimSpec()
    space: SpaceSpec = SpaceSpec()
    weights: WeightsSpec = WeightsSpec()
    search: SearchSpec = SearchSpec()
    retrieval: RetrievalSpec = RetrievalSpec()
    oracle: OracleSpec = OracleSpec()
    theory: TheorySpec = TheorySpec()
    bench: BenchSpec = BenchSpec()
    memory: MemorySpec = MemorySpec()


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

_TYPE_NAMES = {bool: "boolean", int: "integer", float: "real", str: "string"}


class _Loader(yaml.SafeLoader):
    def construct_object(self, node, deep=False):   # marks a value like `!!int abc`
        try:
            return super().construct_object(node, deep)
        except (ValueError, KeyError, AttributeError):
            problem = f"cannot construct {node.value!r} as {node.tag.rsplit(':', 1)[-1]}"
            raise yaml.MarkedYAMLError(problem=problem, problem_mark=node.start_mark) from None


def _refuse_repeats(node, path: tuple = (), checked: set | None = None) -> None:
    """Refuse a key given twice in one mapping.

    Runs on the composed nodes, before construction, while each mapping
    lists only its own keys: a key a `<<` merge brings in may be overridden.
    Each node is checked once, however many aliases reach it.
    """
    checked = set() if checked is None else checked
    if node in checked:
        return
    checked.add(node)
    if isinstance(node, yaml.SequenceNode):
        for item in node.value:
            _refuse_repeats(item, path, checked)
    elif isinstance(node, yaml.MappingNode):
        first: dict[str, int] = {}
        for key_node, value_node in node.value:
            key, line = str(key_node.value), key_node.start_mark.line + 1
            if key_node.tag == "tag:yaml.org,2002:merge":
                _refuse_repeats(value_node, path, checked)
                continue
            if key in first:
                raise RunConfigError(f"key given twice, first on line {first[key]}",
                                     key=".".join(path + (key,)), line=line)
            first[key] = line
            _refuse_repeats(value_node, path + (key,), checked)


def _load(text: str) -> tuple[object, yaml.Node | None]:
    """The YAML document and its root node, in one loader pass."""
    try:
        loader = _Loader(text)
        root = loader.get_single_node()
        _refuse_repeats(root)
        data = None if root is None else loader.construct_document(root)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise RunConfigError(f"invalid YAML: {problem}",
                             line=mark.line + 1 if mark else None) from None
    return data, root


def _line_of(node, path: tuple) -> int | None:
    """1-based line of the key at `path` below `node`, or None if it is not there.

    Construction lists a mapping's merged keys ahead of its own, and the
    last of equal keys is the one the data holds.
    """
    line = None
    for key in path:
        if not isinstance(node, yaml.MappingNode):
            return None
        pairs = [pair for pair in node.value if str(pair[0].value) == key]
        if not pairs:
            return None
        key_node, node = pairs[-1]
        line = key_node.start_mark.line + 1
    return line


def _scalar(value, kind):
    """`value` as a `kind`, or None; integers widen to reals, booleans never count."""
    if kind is bool:
        return value if isinstance(value, bool) else None
    if kind in (int, float) and isinstance(value, bool):
        return None
    if kind is float and isinstance(value, (int, float)):
        return float(value)
    return value if isinstance(value, kind) else None


class _Walker:
    def __init__(self, root: yaml.Node | None):
        self.root = root

    def fail(self, path: tuple, message: str):
        raise RunConfigError(message, key=".".join(path), line=_line_of(self.root, path))

    def mapping(self, value, path: tuple) -> dict:
        if value is None:
            return {}
        if not isinstance(value, dict):
            self.fail(path, f"expected a mapping, got {value!r}")
        return value

    def spec(self, cls, data: dict, path: tuple = ()):
        """Parse one section (or the top level) into `cls`, field by field."""
        names = {f.name for f in fields(cls)}
        for key in data:
            if key not in names:
                self.fail(path + (str(key),), f"unknown key {key!r}")
        values = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            key_path = path + (f.name,)
            default = f.default if f.default is not MISSING else f.default_factory()
            value = self.value(data[f.name], default, key_path)
            check = f.metadata.get("check")
            problem = check(value) if check else None
            if problem:
                self.fail(key_path, f"{f.name} {problem}")
            values[f.name] = value
        try:
            return cls(**values)
        except ValueError as exc:  # a cross-field rule of the section
            self.fail(path, str(exc))

    def value(self, raw, default, path: tuple):
        if is_dataclass(default):
            return self.spec(type(default), self.mapping(raw, path), path)
        if isinstance(default, dict):
            return self.grid_overrides(raw, path)
        if isinstance(default, tuple):
            kind = type(default[0])
            if not isinstance(raw, list):
                self.fail(path, f"expected a list of {_TYPE_NAMES[kind]}s, got {raw!r}")
            items = tuple(_scalar(item, kind) for item in raw)
            if None in items:
                bad = raw[items.index(None)]
                self.fail(path, f"expected a list of {_TYPE_NAMES[kind]}s, got {bad!r}")
            return items
        parsed = _scalar(raw, type(default))
        if parsed is None:
            self.fail(path, f"expected {_TYPE_NAMES[type(default)]}, got {raw!r}")
        return parsed

    def grid_overrides(self, raw, path: tuple) -> dict:
        """Per-family grids of the `path[-1]` axis: family -> list of integers."""
        out = {}
        for family, grid in self.mapping(raw, path).items():
            if family not in _FAMILIES:
                self.fail(path + (str(family),), f"unknown family {family!r}")
            if not isinstance(grid, list) or any(_scalar(g, int) is None for g in grid):
                self.fail(path + (family,), "grid must be a list of integers")
            problem = grid_problem(path[-1], tuple(grid))
            if problem:
                self.fail(path + (family,), f"{path[-1]} {problem}")
            out[family] = tuple(grid)
        return out


def non_directory_above(path) -> Path | None:
    """The existing non-directory that `path` is or lies under, if any."""
    found = next((p for p in (Path(path), *Path(path).parents) if p.exists()), None)
    return found if found and not found.is_dir() else None


def _check_mode(config: RunConfig, walker: _Walker) -> None:
    """The rules `config.mode` puts on the keys it reads, in the order it reads them."""
    mode, path, path_key = config.mode, config.retrieval.memory_path, ("retrieval", "memory_path")
    surface_only = f"{mode} mode generates response-surface task families"
    if mode == "search" and config.search.update_memory and not path:
        walker.fail(("search", "update_memory"), "update_memory requires retrieval.memory_path")
    if (mode == "oracle" and config.oracle.episodes == 0
            and not build_victim(config).is_deterministic):
        walker.fail(("oracle", "episodes"), "victim is not deterministic; set a positive "
                    "episode count to average each configuration over")
    if mode == "memory" and not path:
        walker.fail(path_key, "memory mode requires retrieval.memory_path")
    if mode == "bench" and config.victim.kind != "surface":
        walker.fail(("victim", "kind"), surface_only)
    if mode in ("search", "bench", "memory") and path and Path(path).is_dir():
        walker.fail(path_key, f"memory path is a directory, not a file: {path}")
    if mode == "memory" and path and (blocker := non_directory_above(Path(path).parent)):
        walker.fail(path_key, f"memory path lies under a file, not a directory: {blocker}")
    if mode == "memory" and config.victim.kind != "surface":
        walker.fail(("victim", "kind"), surface_only)
    if mode in ("search", "bench") and path and not Path(path).exists():
        walker.fail(path_key, f"memory file not found: {path}")


def parse_run_config_text(text: str, mode: str | None = None) -> RunConfig:
    """Parse a run configuration and check the rules of `mode` (by default the
    file's own) on it, so that a mode refuses a bad config before any work."""
    data, root = _load(text)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise RunConfigError("run configuration must be a mapping at the top level")
    walker = _Walker(root)
    config = walker.spec(RunConfig, data)
    config = replace(config, mode=mode or config.mode)
    _check_mode(config, walker)
    return config


def parse_run_config(path, mode: str | None = None) -> RunConfig:
    try:
        raw = Path(path).read_bytes()
        text = raw.decode("utf-8")
    except OSError as exc:
        raise RunConfigError(f"cannot read run configuration: {exc}") from None
    except UnicodeDecodeError as exc:
        raise RunConfigError(f"run configuration is not UTF-8 text: {exc.reason}",
                             line=raw.count(b"\n", 0, exc.start) + 1) from None
    return parse_run_config_text(text, mode)


# ----------------------------------------------------------------------
# Factories
# ----------------------------------------------------------------------


def build_space(config: RunConfig) -> ConfigSpace:
    families = tuple(AttackFamily(f) for f in config.space.families)
    eps_over = {AttackFamily(f): tuple(v) for f, v in config.space.epsilons.items()}
    steps_over = {AttackFamily(f): tuple(v) for f, v in config.space.steps.items()}
    return default_config_space(
        families=families,
        restarts=config.space.restarts,
        rhos=config.space.rhos,
        seeds=config.space.seeds,
        epsilon_overrides=eps_over,
        steps_overrides=steps_over,
    )


def build_victim(config: RunConfig):
    v = config.victim
    if v.kind == "surface":
        return surface_task(v.task_id, v.task_seed, v.noise, v.horizon, v.action_count)
    return LinearWorldModelVictim(
        task_id=v.task_id, obs_dim=v.obs_dim, latent_dim=v.latent_dim,
        grid_size=v.grid_size, horizon=v.horizon, weight_seed=v.weight_seed)


def build_weights(config: RunConfig) -> UtilityWeights:
    return UtilityWeights(**asdict(config.weights))


def build_search_params(config: RunConfig, seed: int | None = None) -> SearchParams:
    s = config.search
    return SearchParams(
        budget=s.budget, batch_size=s.batch, alpha=s.alpha, alpha_schedule=s.alpha_schedule,
        beta=s.beta, spread=s.spread, scout_episodes=s.scout_episodes,
        confirm_episodes=s.confirm_episodes, confirm_top_k=s.confirm_top_k,
        seed=config.seed if seed is None else seed)


# ----------------------------------------------------------------------
# Defaults emission
# ----------------------------------------------------------------------


def _yaml_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value if value else "''"
    if isinstance(value, tuple):
        return "[" + ", ".join(_yaml_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_yaml_value(v)}" for k, v in value.items()) + "}"
    return str(value)


def emit_defaults() -> str:
    """The all-default configuration, one documented key per line."""
    lines = ["# attacksearch run configuration (all keys shown with their defaults)"]

    def emit(spec, indent: str) -> None:
        for f in fields(spec):
            value = getattr(spec, f.name)
            if is_dataclass(value):
                lines.extend(["", f"{f.name}:"])
                emit(value, indent + "  ")
                continue
            text = f"{indent}{f.name}: {_yaml_value(value)}"
            comment = f.metadata.get("comment")
            lines.append(f"{text:<26} # {comment}" if comment else text)

    emit(RunConfig(), "")
    return "\n".join(lines) + "\n"
