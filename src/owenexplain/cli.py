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
from .blackbox import VICTIM_KINDS, ModelOutputError, make_victim
from .core import ConfigError, QueryLedger, derive_seed, make_rng
from .explainer import BudgetTooSmall, explain, explain_all_classes
from .masking import FILL_KINDS
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
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or unlimited, got {text!r}"
        ) from None


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers such as 6,6, got {text!r}"
        )
    return values


def _parse_order(text: str) -> str:
    if text not in _ORDER_NAMES:
        choices = ", ".join(map(repr, _ORDER_NAMES))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})")
    return _ORDER_NAMES[text]


def _parse_topk(text: str):
    if text == "all":
        return "all"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer k or all, got {text!r}") from None


def _parse_groups(text: str) -> list[list[int]]:
    try:
        return [_parse_int_list(part) for part in text.split("|")]
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"malformed group string {text!r}") from exc


def _config_flag(parser: argparse.ArgumentParser, flag: str, key: str, **kwargs) -> None:
    """A flag that overrides config key `key` ("section.name", or "seed")
    when given, even with a None value; absent, it sets no attribute."""
    parser.add_argument(flag, dest=key, default=argparse.SUPPRESS, **kwargs)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run configuration")
    _config_flag(parser, "--seed", "seed", type=int, help="master seed")
    parser.add_argument("--workers", type=int,
                        help="accepted and ignored; every model call runs in one "
                             "fixed order on the caller's thread")
    parser.add_argument("--emit-config", dest="emit_config",
                        help="write the fully resolved config JSON here")
    _config_flag(parser, "--victim", "victim.kind", choices=VICTIM_KINDS)
    _config_flag(parser, "--num-classes", "victim.num_classes", type=int)
    _config_flag(parser, "--input-shape", "victim.input_shape", type=_parse_int_list,
                 help="comma-separated dims, e.g. 6,6")
    _config_flag(parser, "--temperature", "victim.temperature", type=float)
    _config_flag(parser, "--block", "masker.block", type=_parse_int_list,
                 help="comma-separated block extents")
    _config_flag(parser, "--fill", "masker.fill", choices=FILL_KINDS)
    _config_flag(parser, "--sigma", "masker.sigma", type=float)
    _config_flag(parser, "--baseline", "masker.baseline_path",
                 help="baseline tensor path for --fill baseline")


def _resolve(args) -> dict:
    """The config file overridden by every config flag given."""
    overrides: dict = {}
    for dest, value in vars(args).items():
        section, _, key = dest.partition(".")
        if key:
            overrides.setdefault(section, {})[key] = value
        elif dest == "seed":
            overrides[dest] = value
    cfg = cfgmod.load_config(args.config, overrides)
    if args.emit_config:
        dump_json(args.emit_config, cfg)
    return cfg


def _load_input(args, seed: int, victim) -> np.ndarray:
    if getattr(args, "input", None):
        data, shape = read_tensor(args.input)
        if shape != victim.input_shape:
            raise ConfigError(
                f"input shape {shape} does not match victim {victim.input_shape}"
            )
        return data
    if not getattr(args, "random", False):
        raise ConfigError("provide --input PATH or --random")
    rng = make_rng(derive_seed(seed, "input"))
    return rng.uniform(0.0, 1.0, victim.n_cells)


def cmd_explain(args) -> int:
    cfg = _resolve(args)
    spec = cfgmod.victim_from_config(cfg)
    victim = make_victim(spec)
    x = _load_input(args, spec.seed, victim)
    masker = cfgmod.masker_from_config(cfg, victim.input_shape)
    ex_cfg = cfgmod.explainer_from_config(cfg, masker, victim.num_classes)
    ledger = QueryLedger(budget=None)
    shape, block = victim.input_shape, masker.grid.block
    if ex_cfg.target == "all":
        attrs = explain_all_classes(x, victim, ex_cfg, ledger)
    else:
        attrs = [explain(x, victim, ex_cfg, ledger)]
    if args.normalize:
        attrs = [normalize_shap(a) for a in attrs]
    payloads = [attribution_payload(a, shape, block, spec.seed) for a in attrs]
    dump_json(args.out, payloads if ex_cfg.target == "all" else payloads[0])
    return 0


def cmd_oracle(args) -> int:
    cfg = _resolve(args)
    spec = cfgmod.victim_from_config(cfg)
    victim = make_victim(spec)
    x = _load_input(args, spec.seed, victim)
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
        cfgmod.checked(check_partition, groups, n_atoms)
    target = cfgmod.class_target(args.classes, victim.num_classes)
    classes = list(range(victim.num_classes)) if target == "all" else [target]
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
            attribution_payload(attr, victim.input_shape, masker.grid.block, spec.seed)
        )
    dump_json(args.out, payloads if target == "all" else payloads[0])
    return 0


def cmd_synth(args) -> int:
    cfg = _resolve(args)
    victim = make_victim(cfgmod.victim_from_config(cfg))
    masker = cfgmod.masker_from_config(cfg, victim.input_shape)
    synth_cfg = cfgmod.synth_from_config(cfg, masker)
    if not 0 <= synth_cfg.target_class < victim.num_classes:
        raise ConfigError("target class outside the victim output")
    ledger = QueryLedger(budget=args.budget)
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
    # --topk all and --labels derive topk.mode: hard labels need mode hard,
    # and soft labels mean mode soft unless --topk all keeps every output.
    opts = vars(args)
    if opts.get("topk.k") == "all":
        opts["topk.mode"] = opts.pop("topk.k")
    labels = opts.get("extraction.labels")
    if labels == "hard" or (labels == "soft" and "topk.mode" not in opts):
        opts["topk.mode"] = labels
    cfg = _resolve(args)
    report = run_extraction(cfgmod.extraction_from_config(cfg))
    dump_csv(
        args.out,
        ["round", "queries_cum", "agreement", "min_class_count", "max_class_count",
         "truncated_jobs"],
        [
            (r.round, r.queries_cum, r.agreement, r.min_class_count, r.max_class_count,
             r.truncated_jobs)
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
                "truncated": report.truncated,
                "truncated_jobs": [r.truncated_jobs for r in report.rows],
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
    _config_flag(p, "--max-evals", "explainer.max_evals", type=_parse_max_evals,
                 help="int or unlimited")
    _config_flag(p, "--classes", "explainer.classes", help="all or a class index")
    _config_flag(p, "--order", "explainer.order", type=_parse_order,
                 metavar="{" + ",".join(_ORDER_NAMES) + "}")
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
    _config_flag(p, "--target-class", "synthesis.target_class", type=int)
    _config_flag(p, "--schedule", "synthesis.schedule",
                 help='e.g. "0:500:128,500:1000:64,1000:1500:32"')
    _config_flag(p, "--steps", "synthesis.steps", type=int)
    _config_flag(p, "--population", "synthesis.population", type=int)
    _config_flag(p, "--alpha", "synthesis.alpha", type=float)
    _config_flag(p, "--beta", "synthesis.beta", type=float)
    p.add_argument("--budget", type=_parse_max_evals,
                   help="victim evaluation budget (int or unlimited)")
    p.add_argument("--out", required=True, help="sample tensor path")
    p.add_argument("--trace", help="objective trace CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extraction simulation")
    _add_common(p)
    _config_flag(p, "--mode", "extraction.mode", choices=("guided", "random"))
    _config_flag(p, "--budget", "extraction.query_budget", type=int)
    _config_flag(p, "--rounds", "extraction.rounds", type=int)
    _config_flag(p, "--topk", "topk.k", type=_parse_topk, help="k or all")
    _config_flag(p, "--labels", "extraction.labels", choices=("soft", "hard"))
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
