"""Desk-scale extraction simulator.

A linear-softmax substitute is trained with analytic gradients on
victim-labeled queries. Per round, the guided arm synthesizes
class-targeted samples (round-robin over classes) and the random arm
draws uniform samples; both arms consume exactly the same per-round query
quota, so equal budgets are structural rather than conventional. Probe
evaluations measure clone agreement on a held-out set and are never
charged to the ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .blackbox import (
    Model,
    TopKConfig,
    VictimSpec,
    WrappedModel,
    _softmax,
    class_regions,
    make_victim,
    query,
)
from .core import QueryLedger, derive_seed, make_rng
from .masking import MaskerSpec
from .synthesis import SynthConfig, synthesize


@dataclass
class SubstituteModel(Model):
    """Linear-softmax clone with analytic gradients."""

    W: np.ndarray
    b: np.ndarray
    temperature: float = 1.0
    input_shape: tuple[int, ...] = ()

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.b))):
            raise ValueError("substitute parameters must be finite")
        self.num_classes = self.W.shape[0]
        if not self.input_shape:
            self.input_shape = (self.W.shape[1],)

    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        return _softmax(batch @ self.W.T, self.temperature, self.b)

    def copy(self) -> "SubstituteModel":
        return SubstituteModel(self.W.copy(), self.b.copy(), self.temperature, self.input_shape)


def init_substitute(
    seed: int, num_classes: int, input_shape: tuple[int, ...], scale: float = 0.01
) -> SubstituteModel:
    n = math.prod(input_shape)
    rng = make_rng(derive_seed(seed, "substitute-init"))
    return SubstituteModel(
        W=rng.normal(0.0, scale, (num_classes, n)),
        b=np.zeros(num_classes),
        input_shape=tuple(input_shape),
    )


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.5
    epochs_per_round: int = 20
    minibatch: int = 64

    def __post_init__(self):
        if self.lr <= 0 or self.epochs_per_round < 1 or self.minibatch < 1:
            raise ValueError("bad training configuration")


def train_substitute(
    sub: SubstituteModel,
    inputs: np.ndarray,
    targets: np.ndarray,
    mode: str,
    cfg: TrainConfig,
    seed: int = 0,
) -> SubstituteModel:
    """Minibatch gradient descent on the clone loss; returns the trained
    copy of sub.

    Both KL-to-distribution (mode "soft") and CE-to-distribution (mode
    "hard") have the same analytic logit gradient (probs - target) for a
    full wrapped target distribution, scaled by the substitute
    temperature, so mode is checked but does not change the step.

    Each step is `SubstituteModel.evaluate`'s softmax and the gradient
    update written as in-place operations on the copy's W and b, in the
    same operand order, so the result is bitwise that of the plain form.
    W and b are checked for finiteness at the end of every epoch (a
    non-finite entry stays non-finite under later steps), which raises
    FloatingPointError for a non-finite gradient and for an update that
    overflows.
    """
    if mode not in {"soft", "hard"}:
        raise ValueError("mode must be soft or hard")
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.shape[0] != targets.shape[0]:
        raise ValueError("inputs and targets disagree on batch size")
    sub = sub.copy()
    W, b, temperature = sub.W, sub.b, sub.temperature
    W_T = W.T  # a view, so it follows the in-place updates of W
    lr, minibatch = cfg.lr, cfg.minibatch
    # Dividing or multiplying by 1.0 is exact, so those steps are skipped.
    scale_logits, scale_step = temperature != 1.0, lr != 1.0
    rng = make_rng(derive_seed(seed, "train"))
    n = inputs.shape[0]
    # A diverging run overflows before the epoch check sees it; that check,
    # not a numpy warning per operation, reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs_per_round):
            order = rng.permutation(n)
            for start in range(0, n, minibatch):
                idx = order[start : start + minibatch]
                x = inputs.take(idx, axis=0)
                g = x @ W_T
                g += b
                if scale_logits:
                    g /= temperature
                g -= np.maximum.reduce(g, axis=1, keepdims=True)
                np.exp(g, out=g)
                g /= np.add.reduce(g, axis=1, keepdims=True)
                g -= targets.take(idx, axis=0)
                g /= len(idx) * temperature
                grad_w = g.T @ x
                grad_b = np.add.reduce(g, axis=0)
                if scale_step:
                    grad_w *= lr
                    grad_b *= lr
                W -= grad_w
                b -= grad_b
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise FloatingPointError(
                    f"non-finite substitute parameters after epoch {epoch + 1}; aborting the "
                    f"round (lr={lr}, minibatch={minibatch})"
                )
    return sub


@dataclass(frozen=True)
class ProbeConfig:
    n_probe: int = 256
    seed: int = 17
    kind: str = "uniform"  # uniform | region_boost
    boost: float = 0.6
    base_level: float = 0.2

    def __post_init__(self):
        if self.n_probe < 1:
            raise ValueError("n_probe must be positive")
        if self.kind not in {"uniform", "region_boost"}:
            raise ValueError("probe kind must be uniform or region_boost")


def make_probe(victim: Model, cfg: ProbeConfig) -> np.ndarray:
    """Held-out probe inputs, drawn independently of training queries.

    region_boost emits class-stratified samples with one class region
    raised above a flat background: a desk-scale stand-in for a
    class-balanced held-out test set.
    """
    rng = make_rng(derive_seed(cfg.seed, "probe"))
    n = victim.n_cells
    if cfg.kind == "uniform":
        return rng.uniform(0.0, 1.0, (cfg.n_probe, n))
    regions = class_regions(victim.input_shape, victim.num_classes)
    probes = np.full((cfg.n_probe, n), cfg.base_level, dtype=np.float64)
    probes += rng.uniform(-0.05, 0.05, probes.shape)
    for row in range(cfg.n_probe):
        cls = row % victim.num_classes
        probes[row, regions == cls] += cfg.boost
    return np.clip(probes, 0.0, 1.0)


def agreement(
    sub: Model, victim: Model, probe: np.ndarray, victim_labels: np.ndarray | None = None
) -> float:
    """Fraction of probe inputs with matching argmax (not budget-charged).

    victim_labels, if given, is the victim's argmax on the probe, computed
    once by a caller that measures agreement repeatedly.
    """
    if victim_labels is None:
        victim_labels = np.argmax(victim.evaluate(probe), axis=1)
    return float(np.mean(np.argmax(sub.evaluate(probe), axis=1) == victim_labels))


@dataclass(frozen=True)
class ExtractionConfig:
    victim: VictimSpec
    topk: TopKConfig
    masker: MaskerSpec
    query_budget: int
    rounds: int
    mode: str = "guided"  # guided | random
    samples_per_class: int = 1
    synth: SynthConfig | None = None
    train: TrainConfig = TrainConfig()
    probe: ProbeConfig = ProbeConfig()
    seed: int = 0

    def __post_init__(self):
        if self.mode not in {"guided", "random"}:
            raise ValueError("mode must be guided or random")
        if self.query_budget < 1 or self.rounds < 1 or self.samples_per_class < 1:
            raise ValueError("budget, rounds and samples_per_class must be positive")


@dataclass
class RoundRow:
    round: int
    queries_cum: int
    agreement: float
    min_class_count: int
    max_class_count: int
    # Synthesis jobs of the round that stopped short of their steps.
    truncated_jobs: int


@dataclass
class ExtractionReport:
    rows: list[RoundRow]
    class_histogram: np.ndarray
    final_agreement: float
    queries_total: int
    truncated: bool
    mode: str

    def ratio(self) -> float:
        """max/min class-count ratio of the training-query histogram."""
        top = float(self.class_histogram.max())
        bottom = float(self.class_histogram.min())
        return math.inf if bottom == 0 else top / bottom


def _round_quotas(budget: int, rounds: int) -> list[int]:
    base = budget // rounds
    quotas = [base] * rounds
    quotas[-1] += budget - base * rounds
    return quotas


def run_extraction(cfg: ExtractionConfig) -> ExtractionReport:
    """Rounds of (synthesize or sample) -> label through the wrapper ->
    train; reports per-round agreement and the class histogram of victim
    predictions over all labeled training queries."""
    victim = make_victim(cfg.victim)
    wrapped = WrappedModel(victim, cfg.topk)
    ledger = QueryLedger(budget=cfg.query_budget)
    mode_label = "soft" if cfg.topk.mode in {"soft", "all"} else "hard"
    sub = init_substitute(cfg.seed, victim.num_classes, victim.input_shape)
    probe = make_probe(victim, cfg.probe)
    probe_labels = np.argmax(victim.evaluate(probe), axis=1)
    histogram = np.zeros(victim.num_classes, dtype=np.int64)
    rows = [RoundRow(0, 0, agreement(sub, victim, probe, probe_labels), 0, 0, 0)]
    # Labeled training queries as 2-D blocks of rows, in query order.
    train_x: list[np.ndarray] = []
    train_y: list[np.ndarray] = []

    quotas = _round_quotas(cfg.query_budget, cfg.rounds)
    for round_idx, quota in enumerate(quotas, start=1):
        target_used = ledger.evals_used + quota
        first_block = len(train_y)
        truncated_jobs = 0

        if cfg.mode == "guided":
            if cfg.synth is None:
                raise ValueError("guided mode needs a synthesis configuration")
            synth_x: list[np.ndarray] = []
            synth_y: list[np.ndarray] = []
            n_jobs = victim.num_classes * cfg.samples_per_class
            per_job = max(2, (quota - n_jobs) // max(n_jobs, 1))
            for job in range(n_jobs):
                cls = job % victim.num_classes
                remaining = target_used - ledger.evals_used
                if remaining < 3:
                    break
                sub_ledger = QueryLedger(budget=min(per_job, remaining - 1))
                seed = derive_seed(cfg.seed, "synth", round_idx, job)
                synth_cfg = replace(cfg.synth, target_class=cls, seed=seed)
                result = synthesize(wrapped, sub, synth_cfg, sub_ledger)
                truncated_jobs += int(result.truncated)
                if sub_ledger.evals_used > 0:
                    ledger.charge(sub_ledger.evals_used, "synth")
                if result.victim_out is not None:
                    synth_x.append(result.sample)
                    synth_y.append(result.victim_out)
            if synth_x:
                train_x.append(np.asarray(synth_x))
                train_y.append(np.asarray(synth_y))

        # Fill the remainder of the quota with uniform labeled queries so
        # both arms consume exactly the same budget per round.
        pad = target_used - ledger.evals_used
        if pad > 0:
            rng = make_rng(derive_seed(cfg.seed, "pad", round_idx))
            batch = rng.uniform(0.0, 1.0, (pad, victim.n_cells))
            outputs = query(victim, batch, cfg.topk, ledger)
            train_x.append(batch)
            train_y.append(outputs)

        for y in train_y[first_block:]:
            histogram += np.bincount(np.argmax(y, axis=1), minlength=victim.num_classes)

        if train_x:
            sub = train_substitute(
                sub,
                np.concatenate(train_x),
                np.concatenate(train_y),
                mode_label,
                cfg.train,
                seed=derive_seed(cfg.seed, "train", round_idx),
            )
        rows.append(
            RoundRow(
                round_idx,
                ledger.evals_used,
                agreement(sub, victim, probe, probe_labels),
                int(histogram.min()),
                int(histogram.max()),
                truncated_jobs,
            )
        )

    return ExtractionReport(
        rows=rows,
        class_histogram=histogram,
        final_agreement=rows[-1].agreement,
        queries_total=ledger.evals_used,
        truncated=any(row.truncated_jobs for row in rows),
        mode=cfg.mode,
    )


def run_comparison(cfg: ExtractionConfig) -> dict[str, ExtractionReport]:
    """Both arms under one configuration; identical budgets by structure."""
    reports = {}
    for mode in ("guided", "random"):
        reports[mode] = run_extraction(replace(cfg, mode=mode))
    cums_g = [r.queries_cum for r in reports["guided"].rows]
    cums_r = [r.queries_cum for r in reports["random"].rows]
    if cums_g != cums_r:
        raise AssertionError("arms consumed different budgets")
    return reports
