"""Gradient-free class-targeted sample synthesis.

An elitist (1+lambda) evolution loop maximizes
alpha * class term + beta * disagreement(victim output, substitute output).
The class term is f_c(x) - f_c(fill(x)) for the target class c: by
efficiency, the sum of the budgeted attribution toward c at every budget,
so it is read from the explainer's root pair alone. The attribution budget
follows a staged decay schedule, and each scoring is charged what a
priority_abs explanation at the stage's budget charges (explain_cost):
the root pair is evaluated, and the refinement coalitions, which cannot
change the class term, are charged to the ledger but never evaluated. The
kept-best objective trace is monotone non-decreasing and every victim
access is charged to the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blackbox import Model, checked_outputs
from .core import BudgetExhausted, PartitionTree, QueryLedger, derive_seed, make_rng
from .explainer import explain  # noqa: F401  perfbench/tracing.py patches synthesis.explain
from .explainer import explain_cost
from .masking import MaskerSpec, fill_reference
from .objectives import ObjectiveWeights, disagreement, saturated

SHAP_OFF = "shap_off"
AFTER_END_POLICIES = ("freeze_shap", "hold_last")

# Staging mirrors the reference decay run: 128/64/32 over three
# 500-step intervals, with attribution frozen afterwards.
DEFAULT_SCHEDULE_TEXT = "0:500:128,500:1000:64,1000:1500:32"
MIN_STAGE_EVALS = 32


@dataclass(frozen=True)
class DecaySchedule:
    """Contiguous ascending (start, end, max_evals) stages."""

    stages: tuple[tuple[int, int, int], ...]
    after_end: str = "freeze_shap"

    def __post_init__(self):
        if not self.stages:
            raise ValueError("schedule needs at least one stage")
        if self.after_end not in AFTER_END_POLICIES:
            raise ValueError(f"after_end must be one of {AFTER_END_POLICIES}")
        prev_end = None
        for start, end, evals in self.stages:
            if end <= start or evals < 2:
                raise ValueError(f"bad stage {(start, end, evals)}")
            if prev_end is not None and start != prev_end:
                raise ValueError("stage ranges must be contiguous and ascending")
            prev_end = end
        if self.stages[0][0] != 0:
            raise ValueError("first stage must start at step 0")


def parse_schedule(text: str, after_end: str = "freeze_shap") -> DecaySchedule:
    """Parse "start:end:max_evals,..." into a DecaySchedule."""
    stages = []
    for part in text.split(","):
        pieces = part.strip().split(":")
        if len(pieces) != 3:
            raise ValueError(f"bad schedule stage {part!r}")
        stages.append(tuple(int(p) for p in pieces))
    return DecaySchedule(tuple(stages), after_end)


def schedule_lookup(schedule: DecaySchedule, step: int):
    """max_evals for the stage containing step, or SHAP_OFF past the end
    under the freeze policy."""
    if step < 0:
        raise ValueError("step must be non-negative")
    for start, end, evals in schedule.stages:
        if start <= step < end:
            return evals
    if schedule.after_end == "hold_last":
        return schedule.stages[-1][2]
    return SHAP_OFF


@dataclass(frozen=True)
class SearchParams:
    population: int = 4
    mutation_rate: float = 0.1
    mutation_scale: float = 0.25
    steps: int = 100

    def __post_init__(self):
        if self.population < 1 or self.steps < 1:
            raise ValueError("population and steps must be >= 1")
        if not 0 < self.mutation_rate <= 1:
            raise ValueError("mutation_rate must be in (0, 1]")
        if self.mutation_scale <= 0:
            raise ValueError("mutation_scale must be positive")


@dataclass(frozen=True)
class SynthConfig:
    target_class: int
    masker: MaskerSpec
    weights: ObjectiveWeights = ObjectiveWeights()
    schedule: DecaySchedule = field(
        default_factory=lambda: parse_schedule(DEFAULT_SCHEDULE_TEXT)
    )
    search: SearchParams = SearchParams()
    seed: int = 0
    clamp: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if len(self.clamp) != 2 or not self.clamp[0] < self.clamp[1]:
            raise ValueError(f"clamp must be a pair lo < hi, got {self.clamp}")


@dataclass
class TraceRow:
    step: int
    objective: float
    class_obj_term: float
    disagreement_term: float
    evals_used_cum: int


@dataclass
class SynthResult:
    sample: np.ndarray
    trace: list[TraceRow]
    truncated: bool
    victim_out: np.ndarray | None
    objective: float


def _uniform_substitute(num_classes: int) -> np.ndarray:
    return np.full(num_classes, 1.0 / num_classes)


def _class_term(
    x: np.ndarray,
    victim: Model,
    masker: MaskerSpec,
    tree: PartitionTree,
    max_evals: int,
    target: int,
    ledger: QueryLedger | None,
) -> float:
    """f_target(x) - f_target(fill(x)), charged as one priority_abs
    explanation at max_evals: the root pair is evaluated and the rest of
    explain_cost is charged under the same tag, unevaluated. Raises
    BudgetExhausted, charging nothing, if the root pair does not fit.
    """
    cost = explain_cost(max_evals, tree, ledger)
    # Coalitions 0 and full mask to the fill reference and x itself. The
    # pair is column-major, as BoundMasker.masked_batch lays out its batches:
    # a model's matmul can round differently on the other layout.
    pair = np.array([fill_reference(x, masker), x], order="F")
    if ledger is not None:
        ledger.charge(2, "explain")
    v_empty, v_full = checked_outputs(victim, pair)
    if ledger is not None and cost > 2:
        ledger.charge(cost - 2, "explain")
    return float(v_full[target] - v_empty[target])


def synthesize(
    victim: Model,
    substitute: Model | None,
    cfg: SynthConfig,
    ledger: QueryLedger | None = None,
) -> SynthResult:
    """Elitist (1+lambda) search for a sample targeting cfg.target_class.

    Deterministic under cfg.seed; candidates are scored in index order.
    Budget exhaustion mid-run returns the best-so-far with the truncation
    flag set. Raises ModelOutputError if a victim output is mis-shaped or
    not finite.

    A candidate replaces the parent only if its objective is strictly
    greater. Under hard top-k labels the class term takes only the values
    -1/k, 0 and 1/k, so candidates often tie the parent exactly and the
    parent is kept: a 6x6 quadrant_bright victim behind a hard top-1
    wrapper, 1x1 atoms, target 1, seed 2, 3 candidates a step and a budget
    of 60 keeps its initial sample at objective 0.0 until truncation.
    """
    # Looked up at call time, so a wrapper installed on
    # core.build_partition_tree sees every build.
    from .core import build_partition_tree

    tree = build_partition_tree(cfg.masker.grid)
    n_cells = cfg.masker.grid.n_cells
    if n_cells != victim.n_cells:
        raise ValueError("masker grid does not match the victim input")
    if not 0 <= cfg.target_class < victim.num_classes:
        raise ValueError(f"target class {cfg.target_class} outside [0, {victim.num_classes})")
    lo, hi = cfg.clamp
    rng = make_rng(derive_seed(cfg.seed, "synth-init"))
    alpha, beta = cfg.weights.alpha, cfg.weights.beta

    def victim_output(x: np.ndarray) -> np.ndarray:
        return checked_outputs(victim, x.reshape(1, -1))[0]

    def objective(x: np.ndarray, step: int):
        """(objective, class term, disagreement term, victim output)."""
        class_term = 0.0
        victim_out = None
        stage = schedule_lookup(cfg.schedule, step)
        if alpha > 0 and stage is not SHAP_OFF:
            class_term = _class_term(
                x, victim, cfg.masker, tree, stage, cfg.target_class, ledger
            )
        dis_term = 0.0
        if beta > 0:
            if ledger is not None:
                ledger.charge(1, "synth.disagree")
            victim_out = victim_output(x)
            sub_out = (
                substitute.evaluate_one(x)
                if substitute is not None
                else _uniform_substitute(victim.num_classes)
            )
            dis_term = saturated(disagreement(victim_out, sub_out))
        return alpha * class_term + beta * dis_term, class_term, dis_term, victim_out

    best = np.clip(rng.uniform(lo, hi, n_cells), lo, hi)
    trace: list[TraceRow] = []
    truncated = False
    best_victim_out = None

    def used() -> int:
        return ledger.evals_used if ledger is not None else 0

    # With beta=0 the search never queries the victim directly, but the
    # caller still needs the best sample's full output; reserve that one
    # labeling evaluation now so exhaustion cannot strand an unlabeled
    # sample at the end.
    label_reserved = False
    if beta == 0 and ledger is not None:
        if not ledger.try_charge(1, "synth.label"):
            return SynthResult(best, trace, True, None, float("-inf"))
        label_reserved = True

    try:
        best_obj, best_class, best_dis, best_victim_out = objective(best, 0)
    except BudgetExhausted:
        if label_reserved:
            best_victim_out = victim_output(best)
        return SynthResult(best, trace, True, best_victim_out, float("-inf"))

    lam = cfg.search.population
    n_mut = max(1, int(round(cfg.search.mutation_rate * n_cells)))
    scale = cfg.search.mutation_scale * (hi - lo)

    for step in range(cfg.search.steps):
        candidates = []
        for j in range(lam):
            mut_rng = make_rng(derive_seed(cfg.seed, "synth-mut", step, j))
            cells = mut_rng.choice(n_cells, size=n_mut, replace=False)
            cand = best.copy()
            cand[cells] = np.clip(cand[cells] + mut_rng.normal(0.0, scale, n_mut), lo, hi)
            candidates.append(cand)

        try:
            results = [objective(cand, step) for cand in candidates]
        except BudgetExhausted:
            truncated = True
            trace.append(TraceRow(step, best_obj, best_class, best_dis, used()))
            break

        pick = max(range(lam), key=lambda j: (results[j][0], -j))
        if results[pick][0] > best_obj:
            best = candidates[pick]
            best_obj, best_class, best_dis, best_victim_out = results[pick]
        trace.append(TraceRow(step, best_obj, best_class, best_dis, used()))

    # With beta > 0 every kept objective holds its victim output; with
    # beta = 0 the label was reserved above, or there is no ledger.
    if best_victim_out is None:
        best_victim_out = victim_output(best)
    return SynthResult(best, trace, truncated, best_victim_out, best_obj)
