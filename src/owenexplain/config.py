"""Run configuration: a strict JSON document with defaulted sections that
CLI flags override. Unknown keys are rejected so configs cannot drift."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

from .blackbox import TopKConfig, VictimSpec
from .core import ConfigError, build_atom_grid, check_shape
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

DEFAULTS: dict = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "victim": {
        "kind": "linear_softmax",
        "num_classes": 4,
        "input_shape": [6, 6],
        "weight_scale": 1.0,
        "temperature": 1.0,
        "dead_index": 0,
        "group_sizes": None,
        "class_bias": None,
        "input_cap": 1.0,
    },
    "topk": {"mode": "all", "k": None},
    "masker": {"fill": "blur", "sigma": None, "baseline_path": None, "block": None},
    "explainer": {"max_evals": 128, "order": "priority_abs", "classes": "all"},
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


def _merge_strict(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
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
    return cfg


def default_block(input_shape: tuple[int, ...]) -> list[int]:
    if len(input_shape) == 1:
        return [1]
    return [3] * len(input_shape)


def victim_from_config(cfg: dict) -> VictimSpec:
    v = cfg["victim"]
    try:
        return VictimSpec(
            kind=v["kind"],
            seed=int(cfg["seed"]),
            num_classes=int(v["num_classes"]),
            input_shape=tuple(v["input_shape"]),
            weight_scale=float(v["weight_scale"]),
            temperature=float(v["temperature"]),
            dead_index=int(v["dead_index"]),
            group_sizes=tuple(v["group_sizes"]) if v["group_sizes"] else None,
            class_bias=tuple(v["class_bias"]) if v["class_bias"] else None,
            input_cap=float(v["input_cap"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def topk_from_config(cfg: dict) -> TopKConfig:
    t = cfg["topk"]
    try:
        return TopKConfig(mode=t["mode"], k=None if t["k"] is None else int(t["k"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def masker_from_config(cfg: dict, input_shape: tuple[int, ...]) -> MaskerSpec:
    m = cfg["masker"]
    shape = check_shape(input_shape)
    block = m["block"] if m["block"] is not None else default_block(shape)
    try:
        grid = build_atom_grid(shape, block)
        baseline = None
        if m["fill"] == "baseline":
            if m["baseline_path"] is None:
                baseline = np.zeros(grid.n_cells)
            else:
                baseline, base_shape = read_tensor(m["baseline_path"])
                if base_shape != shape:
                    raise ConfigError("baseline tensor shape mismatch")
        return MaskerSpec(
            grid=grid,
            fill=m["fill"],
            sigma=None if m["sigma"] is None else float(m["sigma"]),
            baseline=baseline,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def synth_from_config(cfg: dict, masker: MaskerSpec) -> SynthConfig:
    s = cfg["synthesis"]
    try:
        return SynthConfig(
            target_class=int(s["target_class"]),
            masker=masker,
            weights=ObjectiveWeights(alpha=float(s["alpha"]), beta=float(s["beta"])),
            schedule=parse_schedule(s["schedule"], s["after_end"]),
            search=SearchParams(
                population=int(s["population"]),
                mutation_rate=float(s["mutation_rate"]),
                mutation_scale=float(s["mutation_scale"]),
                steps=int(s["steps"]),
            ),
            seed=int(cfg["seed"]),
            clamp=(float(s["clamp"][0]), float(s["clamp"][1])),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def extraction_from_config(cfg: dict, masker: MaskerSpec) -> ExtractionConfig:
    e = cfg["extraction"]
    victim = victim_from_config(cfg)
    labels = e["labels"]
    if labels not in {"soft", "hard"}:
        raise ConfigError("extraction labels must be soft or hard")
    topk = topk_from_config(cfg)
    if labels == "hard" and topk.mode != "hard":
        raise ConfigError("hard labels need topk.mode = hard")
    try:
        return ExtractionConfig(
            victim=victim,
            topk=topk,
            masker=masker,
            query_budget=int(e["query_budget"]),
            rounds=int(e["rounds"]),
            mode=e["mode"],
            samples_per_class=int(e["samples_per_class"]),
            synth=synth_from_config(cfg, masker),
            train=TrainConfig(
                lr=float(e["lr"]),
                epochs_per_round=int(e["epochs_per_round"]),
                minibatch=int(e["minibatch"]),
            ),
            probe=ProbeConfig(
                n_probe=int(e["n_probe"]),
                seed=int(e["probe_seed"]),
                kind=e["probe_kind"],
                boost=float(e["probe_boost"]),
            ),
            seed=int(cfg["seed"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
