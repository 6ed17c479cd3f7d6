"""Span recording around owenexplain's module boundaries, for traced runs.

Wrappers are installed from here, never from the library: each public
function or method at a layer boundary is replaced, where its caller looks
it up, by a wrapper that records a span (name, start, end, parent) and the
counts the layer's metrics need. Spans stay in memory until the run ends.
A layer's self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import contextlib
import csv
import time
from collections import defaultdict
from pathlib import Path

from owenexplain import _kernels, blackbox, core, extraction, masking, oracle, synthesis

# name -> (unit, better). Values are for the traced set-up plus one mean
# round of the workload, so counts repeat exactly for a given seed.
PER_LAYER = {
    "core.ledger_charges": ("count", "lower"),
    "core.ledger_s": ("s", "lower"),
    "core.tree_build_s": ("s", "lower"),
    "masking.batches": ("count", "lower"),
    "masking.rows": ("count", "lower"),
    "masking.rows_per_batch": ("rows", "higher"),
    "masking.s": ("s", "lower"),
    "masking.active_rows_s": ("s", "lower"),
    "masking.fill_s": ("s", "lower"),
    "kernels.apply_masks_s": ("s", "lower"),
    "kernels.apply_masks_bytes": ("B", "lower"),
    "kernels.blur_s": ("s", "lower"),
    "kernels.shapley_table_s": ("s", "lower"),
    "blackbox.model_calls": ("count", "lower"),
    "blackbox.model_rows": ("count", "lower"),
    "blackbox.rows_per_call": ("rows", "higher"),
    "blackbox.model_s": ("s", "lower"),
    "blackbox.topk_calls": ("count", "lower"),
    "blackbox.topk_s": ("s", "lower"),
    "oracle.evaluate_misses_calls": ("count", "lower"),
    "oracle.game_rows": ("count", "lower"),
    "oracle.table_s": ("s", "lower"),
    "oracle.memo_entries": ("count", "lower"),
    "oracle.owen_self_s": ("s", "lower"),
    "explainer.calls": ("count", "lower"),
    "explainer.evals": ("count", "lower"),
    "explainer.self_s": ("s", "lower"),
    "synthesis.jobs": ("count", "lower"),
    "synthesis.steps": ("count", "higher"),
    "synthesis.truncated_jobs": ("count", "lower"),
    "synthesis.self_s": ("s", "lower"),
    "extraction.train_calls": ("count", "lower"),
    "extraction.sgd_rows": ("count", "lower"),
    "extraction.train_s": ("s", "lower"),
    "extraction.substitute_calls": ("count", "lower"),
    "extraction.agreement_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _apply_masks_bytes(args, result):
    # Computed from array sizes (inputs plus output), not measured traffic.
    return {"kernels.apply_masks_bytes": sum(a.nbytes for a in args) + result.nbytes}


def _rows(key):
    def measure(args, result):
        return {key: len(args[1])}

    return measure


def _evaluate_misses(args, result):
    # "max:" keys keep the largest value seen instead of a sum.
    game, miss_list = args[0], args[1]
    return {"oracle.game_rows": len(miss_list), "max:oracle.memo_entries": len(game.memo)}


def _explained(args, result):
    return {"explainer.evals": result.evals_used}


def _synthesized(args, result):
    return {"synthesis.steps": len(result.trace), "synthesis.truncated_jobs": int(result.truncated)}


def _trained(args, result):
    inputs, cfg = args[1], args[4]
    return {"extraction.sgd_rows": len(inputs) * cfg.epochs_per_round}


# (owner, attribute, span name, measure). Each name is patched where its
# caller looks it up: kernels as _kernels.<name>, synthesize, train_substitute
# and agreement inside extraction, explain inside synthesis.
BOUNDARIES = [
    (core.QueryLedger, "try_charge", "core.ledger", None),
    (core, "build_partition_tree", "core.tree_build", None),
    (masking.BoundMasker, "masked_batch", "masking", _rows("masking.rows")),
    (masking.BoundMasker, "active_rows", "masking.active_rows", None),
    (masking, "fill_reference", "masking.fill", None),
    (_kernels, "apply_masks", "kernels.apply_masks", _apply_masks_bytes),
    (_kernels, "gaussian_blur", "kernels.blur", None),
    (_kernels, "shapley_from_table", "kernels.shapley_table", None),
    (blackbox.LinearSoftmaxVictim, "evaluate", "blackbox.model", _rows("blackbox.model_rows")),
    (blackbox.QuadrantBrightVictim, "evaluate", "blackbox.model", _rows("blackbox.model_rows")),
    (blackbox.GroupSymmetricVictim, "evaluate", "blackbox.model", _rows("blackbox.model_rows")),
    (blackbox.TopKConfig, "apply_batch", "blackbox.topk", None),
    (oracle.VectorGame, "evaluate_misses", "oracle.evaluate_misses", _evaluate_misses),
    (oracle.ClassGame, "value_batch", "oracle.table", None),
    (oracle, "exact_owen", "oracle.owen", None),
    (synthesis, "explain", "explainer", _explained),
    (extraction, "synthesize", "synthesis", _synthesized),
    (extraction, "train_substitute", "extraction.train", _trained),
    (extraction, "agreement", "extraction.agreement", None),
]

# Called once per SGD minibatch, so only counted: a span each would cost
# more than the call it measures.
COUNTED = [(extraction.SubstituteModel, "evaluate", "extraction.substitute_calls")]


class Tracer:
    """Installs the boundary wrappers and keeps their spans and counts."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self.setup_spans = 0
        self.setup_counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._originals: list = []

    def install(self) -> None:
        for owner, attr, name, measure in BOUNDARIES:
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name, measure))
        for owner, attr, key in COUNTED:
            self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), key))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _patch(self, owner, attr, wrapper) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed code as one span, child of the open one."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _span_wrapper(self, fn, name, measure):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if measure is not None:
                for key, value in measure(args, result).items():
                    if key.startswith("max:"):
                        counts[key] = max(counts[key], value)
                    else:
                        counts[key] += value
            return result

        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def end_setup(self) -> None:
        """Mark the end of the traced set-up; what follows is rounds."""
        self.setup_spans = len(self.spans)
        self.setup_counts = dict(self.counts)

    def layer_totals(self, rounds: int) -> tuple[dict, dict, dict]:
        """Per span name: number of spans, total time and self time, for
        the set-up plus the mean round."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        # [set-up, all rounds] per name
        calls = defaultdict(lambda: [0, 0])
        total = defaultdict(lambda: [0.0, 0.0])
        own = defaultdict(lambda: [0.0, 0.0])
        for index, (name, start, end, parent) in enumerate(self.spans):
            phase = int(index >= self.setup_spans)
            calls[name][phase] += 1
            total[name][phase] += end - start
            own[name][phase] += end - start - child_time[index]
        return tuple(
            defaultdict(float, {name: s + r / rounds for name, (s, r) in d.items()})
            for d in (calls, total, own)
        )

    def metrics(self, rounds: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced set-up plus one mean round."""
        calls, total, own = self.layer_totals(rounds)
        c = defaultdict(float, self.setup_counts)
        for key, value in self.counts.items():
            if not key.startswith("max:"):
                c[key] += (value - self.setup_counts.get(key, 0)) / rounds

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "core.ledger_charges": calls["core.ledger"],
            "core.ledger_s": total["core.ledger"],
            "core.tree_build_s": total["core.tree_build"],
            "masking.batches": calls["masking"],
            "masking.rows": c["masking.rows"],
            "masking.s": total["masking"],
            "masking.active_rows_s": total["masking.active_rows"],
            "masking.fill_s": total["masking.fill"],
            "kernels.apply_masks_s": total["kernels.apply_masks"],
            "kernels.apply_masks_bytes": c["kernels.apply_masks_bytes"],
            "kernels.blur_s": total["kernels.blur"],
            "kernels.shapley_table_s": total["kernels.shapley_table"],
            "blackbox.model_calls": calls["blackbox.model"],
            "blackbox.model_rows": c["blackbox.model_rows"],
            "blackbox.model_s": total["blackbox.model"],
            "blackbox.topk_calls": calls["blackbox.topk"],
            "blackbox.topk_s": total["blackbox.topk"],
            "oracle.evaluate_misses_calls": calls["oracle.evaluate_misses"],
            "oracle.game_rows": c["oracle.game_rows"],
            "oracle.table_s": total["oracle.table"],
            "oracle.owen_self_s": own["oracle.owen"],
            "explainer.calls": calls["explainer"],
            "explainer.evals": c["explainer.evals"],
            "explainer.self_s": own["explainer"],
            "synthesis.jobs": calls["synthesis"],
            "synthesis.steps": c["synthesis.steps"],
            "synthesis.truncated_jobs": c["synthesis.truncated_jobs"],
            "synthesis.self_s": own["synthesis"],
            "extraction.train_calls": calls["extraction.train"],
            "extraction.sgd_rows": c["extraction.sgd_rows"],
            "extraction.train_s": total["extraction.train"],
            "extraction.substitute_calls": c["extraction.substitute_calls"],
            "extraction.agreement_s": total["extraction.agreement"],
            "masking.rows_per_batch": ratio(c["masking.rows"], calls["masking"]),
            "blackbox.rows_per_call": ratio(c["blackbox.model_rows"], calls["blackbox.model"]),
            # The largest memo one game held: a peak, not a per-round sum.
            "oracle.memo_entries": self.counts["max:oracle.memo_entries"],
            "trace.overhead_s": overhead_s,
        }
        return {key: float(out[key]) for key in PER_LAYER}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent"])
            for index, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([index, name, repr(start), repr(end), parent])
