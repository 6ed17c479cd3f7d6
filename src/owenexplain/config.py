"""Run configuration: a strict JSON document with defaulted sections that
CLI flags override. Unknown keys are rejected so configs cannot drift.

_TABLE names each key once, with its default, and a key takes its
default's type (see _as); DEFAULTS is the table's defaults. load_config
casts every section, whatever the command reads. Each builder casts the
sections it reads, builds its specs from the values their fields name,
and checks across fields. Every failure is a ConfigError (CLI exit code
2), naming the key where a value is of none of its types."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .blackbox import TopKConfig, VictimSpec
from .core import ConfigError, build_atom_grid, build_partition_tree
from .explainer import BudgetTooSmall, ExplainConfig
from .extraction import ExtractionConfig, ProbeConfig, TrainConfig
from .masking import MaskerSpec
from .objectives import ObjectiveWeights
from .synthesis import (
    DEFAULT_SCHEDULE_TEXT,
    SearchParams,
    SynthConfig,
    parse_schedule,
)
from .tensorio import read_tensor

SCHEMA_VERSION = "1"

# Section -> key -> default. A key takes its default's type (see _as); a
# (default, other) pair also takes the type named `other`.
_TABLE: dict = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "victim": {
        "kind": "linear_softmax",
        "num_classes": 4,
        "input_shape": [6, 6],
        "weight_scale": 1.0,
        "temperature": 1.0,
        "dead_index": 0,
        "group_sizes": (None, "list of int"),
        "class_bias": (None, "list of float"),
        "input_cap": 1.0,
    },
    "topk": {"mode": "all", "k": (None, "int")},
    "masker": {"fill": "blur", "sigma": (None, "float"), "baseline_path": (None, "str"),
               "block": (None, "list of int")},
    # max_evals null means unlimited; classes is "all" or a class index.
    "explainer": {"max_evals": (128, "null"), "order": "priority_abs", "classes": ("all", "int")},
    "synthesis": {
        "target_class": 0,
        "alpha": 1.0,
        "beta": 1.0,
        "schedule": DEFAULT_SCHEDULE_TEXT,
        "after_end": "freeze_shap",
        "population": 4,
        "mutation_rate": 0.1,
        "mutation_scale": 0.25,
        "steps": 100,
        "clamp": [0.0, 1.0],
    },
    "extraction": {
        "mode": "guided",
        "labels": "soft",
        "query_budget": 5000,
        "rounds": 4,
        "samples_per_class": 1,
        "lr": 0.5,
        "epochs_per_round": 20,
        "minibatch": 64,
        "n_probe": 256,
        "probe_seed": 17,
        "probe_kind": "uniform",
        "probe_boost": 0.6,
    },
}

# The document every run starts from: _TABLE without its second types.
DEFAULTS: dict = {name: {k: e[0] if isinstance(e, tuple) else e for k, e in keys.items()}
                  if isinstance(keys, dict) else keys for name, keys in _TABLE.items()}


def _merge_strict(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {path + key!r} must be an object")
            out[key] = _merge_strict(base[key], value, f"{path}{key}.")
        else:
            out[key] = value
    return out


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Defaults, then the config file, then flag overrides; all strict."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        version = doc.get("schema_version", SCHEMA_VERSION)
        if str(version) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}")
        cfg = _merge_strict(cfg, doc)
    if overrides:
        cfg = _merge_strict(cfg, overrides)
    # Every section is cast at load, whatever the command reads, so every
    # document that loads (and so every emitted config) loads again.
    for name, keys in _TABLE.items():
        if isinstance(keys, dict):
            _section(cfg, name)
    return cfg


def _as(kind: str, value):
    """value as kind: "int" is an integer, a float without a fractional part
    or an integer string, never a bool; "float" is what float() takes if
    finite, never a bool; "str" and "null" are themselves; "list of <kind>"
    casts each entry. Else TypeError or ValueError."""
    if kind.startswith("list of ") and isinstance(value, (list, tuple)):
        return tuple(_as(kind.removeprefix("list of "), v) for v in value)
    if kind == "null" and value is None or kind == "str" and isinstance(value, str):
        return value
    if kind == "float" and not isinstance(value, bool) and math.isfinite(number := float(value)):
        return number
    fractional = isinstance(value, float) and not value.is_integer()
    if kind == "int" and not isinstance(value, bool) and not fractional:
        return int(value)
    raise TypeError


def _kind(default) -> str:
    if isinstance(default, list):
        return "list of " + _kind(default[0])
    return "null" if default is None else type(default).__name__


def _cast(key: str, value, entry):
    """value cast to one of config key `key`'s kinds, in order."""
    kinds = [_kind(entry[0]), entry[1]] if isinstance(entry, tuple) else [_kind(entry)]
    for kind in kinds:
        try:
            return _as(kind, value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"config key {key!r}: expected {' or '.join(kinds)}, got {value!r}")


def _section(cfg: dict, name: str) -> dict:
    return {key: _cast(f"{name}.{key}", v, _TABLE[name][key]) for key, v in cfg[name].items()}


def _seed(cfg: dict) -> int:
    return _cast("seed", cfg["seed"], _TABLE["seed"])


def checked(fn, *args, **kwargs):
    """fn(*args, **kwargs), a ValueError it raises as ConfigError."""
    try:
        return fn(*args, **kwargs)
    except BudgetTooSmall:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _spec(cls, values: dict, **given):
    """cls from the values its fields name, and `given`, through checked."""
    names = {f.name for f in dataclasses.fields(cls)}
    return checked(cls, **({k: v for k, v in values.items() if k in names} | given))


def class_target(value, num_classes: int):
    """"all", or a class index in [0, num_classes) as a number or a string."""
    if value == "all":
        return "all"
    try:
        cls = int(value)
    except ValueError:
        raise ConfigError(f"classes must be all or a class index, got {value!r}") from None
    if not 0 <= cls < num_classes:
        raise ConfigError(f"class {cls} outside [0, {num_classes})")
    return cls


def victim_from_config(cfg: dict) -> VictimSpec:
    return _spec(VictimSpec, _section(cfg, "victim"), seed=_seed(cfg))


def masker_from_config(cfg: dict, input_shape: tuple[int, ...]) -> MaskerSpec:
    m = _section(cfg, "masker")
    block = m["block"] or (1 if len(input_shape) == 1 else 3,) * len(input_shape)
    grid = checked(build_atom_grid, input_shape, block)
    baseline = None
    if m["fill"] == "baseline":
        if m["baseline_path"] is None:
            baseline = np.zeros(grid.n_cells)
        else:
            baseline, base_shape = checked(read_tensor, m["baseline_path"])
            if base_shape != input_shape:
                raise ConfigError("baseline tensor shape mismatch")
    return _spec(MaskerSpec, m, grid=grid, baseline=baseline)


def explainer_from_config(cfg: dict, masker: MaskerSpec, num_classes: int) -> ExplainConfig:
    e = _section(cfg, "explainer")
    return _spec(ExplainConfig, e, masker=masker, tree=build_partition_tree(masker.grid),
                 target=class_target(e["classes"], num_classes))


def synth_from_config(cfg: dict, masker: MaskerSpec) -> SynthConfig:
    s = _section(cfg, "synthesis")
    schedule = checked(parse_schedule, s["schedule"], s["after_end"])
    return _spec(SynthConfig, s, masker=masker, weights=_spec(ObjectiveWeights, s),
                 schedule=schedule, search=_spec(SearchParams, s), seed=_seed(cfg))


def extraction_from_config(cfg: dict) -> ExtractionConfig:
    e = _section(cfg, "extraction")
    victim = victim_from_config(cfg)
    if e["labels"] not in {"soft", "hard"}:
        raise ConfigError("extraction labels must be soft or hard")
    topk = _spec(TopKConfig, _section(cfg, "topk"))
    if e["labels"] == "hard" and topk.mode != "hard":
        raise ConfigError("hard labels need topk.mode = hard")
    masker = masker_from_config(cfg, victim.input_shape)
    # ProbeConfig's fields are extraction keys without their probe_ prefix,
    # so its seed is never the run seed.
    probe = {key.removeprefix("probe_"): v for key, v in e.items()}
    return _spec(ExtractionConfig, e, victim=victim, topk=topk, masker=masker,
                 synth=synth_from_config(cfg, masker), train=_spec(TrainConfig, e),
                 probe=_spec(ProbeConfig, probe), seed=victim.seed)
