"""Declarative run configuration: YAML file + dotted-path overrides,
validated strictly before any work starts.

The sections are the library's own runtime dataclasses. Every value is
checked against its field's type hint (unknown keys rejected), then by
the dataclass's own ``__post_init__``. Every ``rng_seed`` follows the
top-level ``seed`` and cannot be set.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import yaml

from .data import SynthConfig
from .errors import ConfigError
from .features import ContextConfig
from .hierarchy import SparseContextConfig
from .mlp import TrainSchedule
from .rbm import PretrainConfig

GMM_FEATURE_MODES = ("delta42", "stacked")

# derived from RunConfig.seed, never read from a file or an override
DERIVED_KEY = "rng_seed"


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats without a dot (``1e-3``);
    PyYAML's YAML 1.1 resolver reads them as strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


@dataclass
class NetworkSection:
    hidden_dims: list[int] = field(default_factory=lambda: [2000, 2000, 2000])
    schedule: TrainSchedule = field(default_factory=TrainSchedule)

    def __post_init__(self):
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError(f"hidden_dims must be positive, got {self.hidden_dims}")


@dataclass
class Stage2Section(NetworkSection):
    hidden_dims: list[int] = field(default_factory=lambda: [1000, 1000])


@dataclass
class GmmSection:
    num_components: int = 256
    iterations: int = 20
    feature_mode: str = "delta42"
    stacked_width: int = 5

    def __post_init__(self):
        if self.feature_mode not in GMM_FEATURE_MODES:
            raise ValueError(f"feature_mode must be one of {list(GMM_FEATURE_MODES)}, "
                             f"got {self.feature_mode!r}")
        if self.num_components < 1 or self.iterations < 0:
            raise ValueError("need num_components >= 1 and iterations >= 0")
        if self.feature_mode == "stacked":
            ContextConfig(width=self.stacked_width, dct_enabled=False)


@dataclass
class PathsSection:
    corpus_dir: str = "corpus"
    out_dir: str = "runs/run"


@dataclass
class RunConfig:
    seed: int = 0
    train_fraction: float = 0.8
    paths: PathsSection = field(default_factory=PathsSection)
    context: ContextConfig = field(default_factory=ContextConfig)
    sparse: SparseContextConfig = field(default_factory=SparseContextConfig)
    nn: NetworkSection = field(default_factory=NetworkSection)
    stage2: Stage2Section = field(default_factory=Stage2Section)
    pretrain: PretrainConfig | None = field(default_factory=PretrainConfig)
    gmm: GmmSection = field(default_factory=GmmSection)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        self.nn.schedule.rng_seed = self.seed
        self.stage2.schedule.rng_seed = self.seed + 1
        if self.pretrain is not None:
            self.pretrain.rng_seed = self.seed
        self.synth.rng_seed = self.seed


def _check(hint, value, path):
    """``value`` validated against the type hint ``hint``; tuples are
    built from lists and nested dataclasses from mappings."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _check(inner, value, path)
    if is_dataclass(hint):
        return _from_dict(hint, value, path)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if origin is list or args[-1] is Ellipsis:
            item_hints = [args[0]] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} items, got {len(value)}")
        else:
            item_hints = args
        return origin(_check(h, v, f"{path}[{i}]")
                      for i, (h, v) in enumerate(zip(item_hints, value)))
    accepted = (int, float) if hint is float else (hint,)
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path}: expected {hint.__name__}, got {value!r}")
    return value


def _from_dict(cls, data, path="config"):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in fields(cls)} - {DERIVED_KEY}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(map(str, unknown))}")
    kwargs = {name: _check(hints[name], value, f"{path}.{name}")
              for name, value in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    """Load a YAML config (defaults when path is None) and apply
    ``key.path=value`` overrides."""
    data = {}
    if path is not None:
        with open(path) as f:
            data = yaml.load(f, Loader=_Loader) or {}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} descends into a scalar")
        node[parts[-1]] = yaml.load(raw, Loader=_Loader)
    return _from_dict(RunConfig, data)


def config_to_dict(config: RunConfig) -> dict:
    """Plain YAML/JSON data that load_config reads back to ``config``
    (tuples as lists, derived seeds left out)."""
    def plain(node):
        if isinstance(node, dict):
            return {k: plain(v) for k, v in node.items() if k != DERIVED_KEY}
        if isinstance(node, (list, tuple)):
            return [plain(v) for v in node]
        return node
    return plain(dataclasses.asdict(config))


def fingerprint(config: RunConfig) -> str:
    """Short stable hash of every hyperparameter (everything but
    ``paths``), for reproducibility audits."""
    params = config_to_dict(config)
    del params["paths"]
    canonical = json.dumps(params, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def write_snapshot(config: RunConfig, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.yaml", "w") as f:
        yaml.safe_dump(config_to_dict(config), f, sort_keys=False)
    (out_dir / "fingerprint.txt").write_text(fingerprint(config) + "\n")
