"""Command-line interface.

Subcommands: explain, oracle (shapley | owen | group-uniform), synth,
extract. Every run is a pure function of (config, seed): re-running with
the same inputs reproduces byte-identical output files. Exit codes: 0 ok,
2 config error, 3 budget below minimum, 4 I/O, 5 model output not finite
or mis-shaped, 6 training diverged.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import config as cfgmod
from .blackbox import ModelOutputError, make_victim
from .core import ConfigError, QueryLedger, build_partition_tree, derive_seed, make_rng
from .explainer import BudgetTooSmall, ExplainConfig, explain, explain_all_classes
from .objectives import normalize_shap
from .extraction import run_extraction
from .oracle import (
    SHAPLEY_MAX_ATOMS,
    ClassGame,
    VectorGame,
    check_partition,
    exact_owen,
    exact_shapley,
    group_uniform_shapley,
)
from .synthesis import synthesize
from .tensorio import attribution_payload, dump_csv, dump_json, read_tensor, write_tensor

_ORDER_NAMES = {"priority": "priority_abs", "bfs": "breadth_first"}


def _parse_max_evals(text: str):
    if text.lower() in {"unlimited", "none", "inf"}:
        return None
    return int(text)


def _parse_int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip() != ""]


def _parse_groups(text: str) -> list[list[int]]:
    try:
        groups = [_parse_int_list(part) for part in text.split("|")]
    except ValueError as exc:
        raise ConfigError(f"malformed group string {text!r}") from exc
    if not groups or any(not g for g in groups):
        raise ConfigError(f"malformed group string {text!r}")
    return groups


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--workers", type=int,
                        help="accepted and ignored: every run is sequential")
    parser.add_argument("--emit-config", dest="emit_config",
                        help="write the fully resolved config JSON here")
    parser.add_argument("--victim", choices=("linear_softmax", "quadrant_bright",
                                             "group_symmetric", "dead_feature"))
    parser.add_argument("--num-classes", type=int, dest="num_classes")
    parser.add_argument("--input-shape", dest="input_shape",
                        help="comma-separated dims, e.g. 6,6")
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--block", help="comma-separated block extents")
    parser.add_argument("--fill", choices=("blur", "mean", "baseline"))
    parser.add_argument("--sigma", type=float)
    parser.add_argument("--baseline", help="baseline tensor path for --fill baseline")


def _overrides_from_args(args) -> dict:
    out: dict = {}

    def put(section, key, value):
        if value is not None:
            out.setdefault(section, {})[key] = value

    if args.seed is not None:
        out["seed"] = args.seed
    put("victim", "kind", getattr(args, "victim", None))
    put("victim", "num_classes", getattr(args, "num_classes", None))
    if getattr(args, "input_shape", None):
        put("victim", "input_shape", _parse_int_list(args.input_shape))
    put("victim", "temperature", getattr(args, "temperature", None))
    if getattr(args, "block", None):
        put("masker", "block", _parse_int_list(args.block))
    put("masker", "fill", getattr(args, "fill", None))
    put("masker", "sigma", getattr(args, "sigma", None))
    put("masker", "baseline_path", getattr(args, "baseline", None))
    return out


def _resolve(args, extra: dict | None = None) -> dict:
    overrides = _overrides_from_args(args)
    if extra:
        for section, values in extra.items():
            if isinstance(values, dict):
                overrides.setdefault(section, {}).update(
                    {k: v for k, v in values.items() if v is not None}
                )
            elif values is not None:
                overrides[section] = values
    cfg = cfgmod.load_config(args.config, overrides)
    if args.emit_config:
        dump_json(args.emit_config, cfg)
    return cfg


def _load_input(args, cfg, victim) -> np.ndarray:
    if getattr(args, "input", None):
        data, shape = read_tensor(args.input)
        if shape != victim.input_shape:
            raise ConfigError(
                f"input shape {shape} does not match victim {victim.input_shape}"
            )
        return data
    if not getattr(args, "random", False):
        raise ConfigError("provide --input PATH or --random")
    rng = make_rng(derive_seed(int(cfg["seed"]), "input"))
    return rng.uniform(0.0, 1.0, victim.n_cells)


def _classes_arg(text: str, num_classes: int):
    if text == "all":
        return "all"
    cls = int(text)
    if not 0 <= cls < num_classes:
        raise ConfigError(f"class {cls} outside [0, {num_classes})")
    return cls


def cmd_explain(args) -> int:
    extra = {"explainer": {
        "max_evals": args.max_evals,
        "order": _ORDER_NAMES.get(args.order) if args.order else None,
        "classes": args.classes,
    }}
    cfg = _resolve(args, extra)
    victim = make_victim(cfgmod.victim_from_config(cfg))
    x = _load_input(args, cfg, victim)
    masker = cfgmod.masker_from_config(cfg, victim.input_shape)
    tree = build_partition_tree(masker.grid)
    target = _classes_arg(str(cfg["explainer"]["classes"]), victim.num_classes)
    ex_cfg = ExplainConfig(
        masker=masker,
        tree=tree,
        max_evals=cfg["explainer"]["max_evals"],
        target=target,
        order=cfg["explainer"]["order"],
    )
    ledger = QueryLedger(budget=None)
    seed = int(cfg["seed"])
    shape, block = victim.input_shape, masker.grid.block
    if target == "all":
        attrs = explain_all_classes(x, victim, ex_cfg, ledger)
    else:
        attrs = [explain(x, victim, ex_cfg, ledger)]
    if args.normalize:
        attrs = [normalize_shap(a) for a in attrs]
    payloads = [attribution_payload(a, shape, block, seed) for a in attrs]
    dump_json(args.out, payloads if target == "all" else payloads[0])
    return 0


def cmd_oracle(args) -> int:
    cfg = _resolve(args)
    victim = make_victim(cfgmod.victim_from_config(cfg))
    x = _load_input(args, cfg, victim)
    masker = cfgmod.masker_from_config(cfg, victim.input_shape)
    n_atoms = masker.grid.atom_count
    groups = None
    # The engines' size guards, checked before any model evaluation.
    if args.engine == "shapley" and n_atoms > SHAPLEY_MAX_ATOMS:
        raise ConfigError(f"oracle shapley guard: {n_atoms} atoms > {SHAPLEY_MAX_ATOMS}")
    if args.engine in {"owen", "group-uniform"}:
        if not args.groups:
            raise ConfigError(f"oracle {args.engine} needs --groups")
        groups = _parse_groups(args.groups)
        try:
            check_partition(groups, n_atoms)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    target = _classes_arg(str(args.classes), victim.num_classes)
    classes = list(range(victim.num_classes)) if target == "all" else [target]
    seed = int(cfg["seed"])
    payloads = []
    shared = VectorGame(victim, x, masker)
    for cls in classes:
        game = ClassGame(shared, cls)
        if args.engine == "shapley":
            attr = exact_shapley(game)
        elif args.engine == "owen":
            attr = exact_owen(game, groups)
        else:
            attr = group_uniform_shapley(game, groups)
        if args.normalize:
            attr = normalize_shap(attr)
        payloads.append(
            attribution_payload(attr, victim.input_shape, masker.grid.block, seed)
        )
    dump_json(args.out, payloads if target == "all" else payloads[0])
    return 0


def cmd_synth(args) -> int:
    extra = {"synthesis": {
        "target_class": args.target_class,
        "schedule": args.schedule,
        "steps": args.steps,
        "population": args.population,
        "alpha": args.alpha,
        "beta": args.beta,
    }}
    cfg = _resolve(args, extra)
    victim = make_victim(cfgmod.victim_from_config(cfg))
    masker = cfgmod.masker_from_config(cfg, victim.input_shape)
    synth_cfg = cfgmod.synth_from_config(cfg, masker)
    if not 0 <= synth_cfg.target_class < victim.num_classes:
        raise ConfigError("target class outside the victim output")
    budget = _parse_max_evals(args.budget) if args.budget else None
    ledger = QueryLedger(budget=budget)
    result = synthesize(victim, None, synth_cfg, ledger)
    write_tensor(args.out, result.sample, victim.input_shape)
    if args.trace:
        dump_csv(
            args.trace,
            ["step", "objective", "class_obj_term", "disagreement_term", "evals_used_cum"],
            [
                (r.step, r.objective, r.class_obj_term, r.disagreement_term, r.evals_used_cum)
                for r in result.trace
            ],
        )
    return 0


def cmd_extract(args) -> int:
    topk_mode = None
    topk_k = None
    if args.topk:
        if args.topk == "all":
            topk_mode = "all"
        else:
            topk_k = int(args.topk)
    if args.labels:
        if args.labels == "hard":
            topk_mode = "hard"
        elif topk_mode != "all":
            topk_mode = "soft"
    extra = {
        "topk": {"mode": topk_mode, "k": topk_k},
        "extraction": {
            "mode": args.mode,
            "labels": args.labels,
            "query_budget": args.budget,
            "rounds": args.rounds,
        },
    }
    cfg = _resolve(args, extra)
    masker = cfgmod.masker_from_config(cfg, tuple(cfg["victim"]["input_shape"]))
    ex_cfg = cfgmod.extraction_from_config(cfg, masker)
    report = run_extraction(ex_cfg)
    dump_csv(
        args.out,
        ["round", "queries_cum", "agreement", "min_class_count", "max_class_count"],
        [
            (r.round, r.queries_cum, r.agreement, r.min_class_count, r.max_class_count)
            for r in report.rows
        ],
    )
    if args.summary:
        dump_json(
            args.summary,
            {
                "mode": report.mode,
                "final_agreement": report.final_agreement,
                "class_histogram": [int(c) for c in report.class_histogram],
                "queries_total": report.queries_total,
                "probe_charged": report.probe_charged,
                "truncated": report.truncated,
            },
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owenexplain",
        description="Budgeted hierarchical attribution and extraction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explain", help="budgeted partition attribution")
    _add_common(p)
    p.add_argument("--input", help="tensor file (.tnsr or .json)")
    p.add_argument("--random", action="store_true", help="seeded random input")
    p.add_argument("--max-evals", dest="max_evals", type=_parse_max_evals)
    p.add_argument("--classes", default=None, help="all or a class index")
    p.add_argument("--order", choices=tuple(_ORDER_NAMES))
    p.add_argument("--normalize", action="store_true",
                   help="scale the attribution map into [-1, 1]")
    p.add_argument("--out", required=True, help="attribution JSON path")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("oracle", help="exact Shapley / Owen engines")
    p.add_argument("engine", choices=("shapley", "owen", "group-uniform"))
    _add_common(p)
    p.add_argument("--input", help="tensor file (.tnsr or .json)")
    p.add_argument("--random", action="store_true")
    p.add_argument("--groups", help='e.g. "0,1|2,3"')
    p.add_argument("--classes", default="0", help="all or a class index")
    p.add_argument("--normalize", action="store_true",
                   help="scale the attribution map into [-1, 1]")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("synth", help="class-targeted sample synthesis")
    _add_common(p)
    p.add_argument("--target-class", dest="target_class", type=int)
    p.add_argument("--schedule", help='e.g. "0:500:128,500:1000:64,1000:1500:32"')
    p.add_argument("--steps", type=int)
    p.add_argument("--population", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--budget", help="victim evaluation budget (int or unlimited)")
    p.add_argument("--out", required=True, help="sample tensor path")
    p.add_argument("--trace", help="objective trace CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extraction simulation")
    _add_common(p)
    p.add_argument("--mode", choices=("guided", "random"))
    p.add_argument("--budget", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--topk", help="k or all")
    p.add_argument("--labels", choices=("soft", "hard"))
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--summary", help="summary JSON path")
    p.set_defaults(func=cmd_extract)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BudgetTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ModelOutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except FloatingPointError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
