"""Budget-constrained hierarchical partition explainer.

The recursion bisects the partition tree, spending two new model
evaluations per expansion, and stops when the next expansion would exceed
max_evals or the ledger. Un-expanded frontier nodes spread their credit
uniformly over their atoms, so attributions plus the base value reproduce
the model output at every budget.

Credit bookkeeping: an expansion computes the symmetrized two-player
split of the node span (each child evaluated alone, all other atoms off)
and apportions the node's carried credit by that split's ratio, with the
right child receiving the exact remainder. This conserves the credit sum
through every step and keeps atoms the model ignores at exactly zero.
Where the children's spans cancel, the ratio is undefined and the residual
credit - span is shared equally on top of each child's own span, so the
split is exact for every additive game, cancelling ones included.
Refinement priority is the largest per-class absolute credit, so
single-class and all-class requests consume identical evaluation streams.

Every internal node is expanded in turn (under breadth_first, only those
above choose_depth's frontier) until the budget stops the next one, so a
priority_abs explanation's charge has the closed form explain_cost.

At unlimited budget this is the proportional split of the whole tree,
which is the Shapley value on additive games but on other games neither
the Shapley value nor the Owen value of the tree (shap's
PartitionExplainer recursion). Error max|phi - Shapley| / max|Shapley|,
median / worst of 10 seeds (zero baseline, 1x1 atoms, weight_scale 3,
class 0), for this explainer and for the tree's Owen value:
linear_softmax 4x4, 0.66 / 2.47 and 0.105 / 0.40; linear_softmax 8,
0.15 / 0.80 and 0.077 / 0.36; quadrant_bright 4x4, 0.064 / 1.94 and
0.0076 / 0.013.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .blackbox import Model
from .core import BudgetExhausted, PartitionTree, QueryLedger
from .masking import MaskerSpec
from .oracle import Attribution, VectorGame


class BudgetTooSmall(ValueError):
    """max_evals below the two root evaluations (CLI exit code 3)."""


REFINEMENT_ORDERS = ("priority_abs", "breadth_first")


@dataclass(frozen=True)
class ExplainConfig:
    masker: MaskerSpec
    tree: PartitionTree
    max_evals: int | None = 128
    target: int | str = "all"
    order: str = "priority_abs"

    def __post_init__(self):
        if self.max_evals is not None and self.max_evals < 2:
            raise BudgetTooSmall("max_evals must be at least 2 (empty and full)")
        if self.order not in REFINEMENT_ORDERS:
            raise ValueError(f"order must be one of {REFINEMENT_ORDERS}")
        if self.tree.atom_count != self.masker.grid.atom_count:
            raise ValueError("tree and masker grid disagree on atom count")


def choose_depth(max_evals: int | None, tree: PartitionTree) -> int:
    """Largest frontier depth whose full expansion cost fits max_evals.

    Cost model: 2 root evaluations plus 2 per internal node expanded,
    cumulative over all depths below the frontier.
    """
    max_depth = max(node.depth for node in tree.nodes)
    if max_evals is None:
        return max_depth
    internal_at_depth = [0] * (max_depth + 1)
    for node in tree.nodes:
        if not node.is_leaf:
            internal_at_depth[node.depth] += 1
    cost = 2
    depth = 0
    for d in range(max_depth):
        cost += 2 * internal_at_depth[d]
        if cost > max_evals:
            break
        depth = d + 1
    return depth


def explain_cost(
    max_evals: int | None, tree: PartitionTree, ledger: QueryLedger | None = None
) -> int:
    """Evaluations a priority_abs explanation charges, root pair included,
    when it starts with the ledger's current room:
    2 + 2 * min(internal nodes, (max_evals - 2) // 2, (room - 2) // 2).

    Assumes the root pair fits; with less than 2 left, explain raises
    BudgetExhausted instead.
    """
    expansions = len(tree.nodes) - len(tree.leaf_ids)
    room = ledger.remaining if ledger is not None else None
    for cap in (max_evals, room):
        if cap is not None:
            expansions = min(expansions, (cap - 2) // 2)
    return 2 + 2 * expansions


@dataclass
class _Entry:
    node_id: int
    v_node: np.ndarray
    credit: np.ndarray


def _split_credit(
    credit: np.ndarray, s_left: np.ndarray, s_right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    span = s_left + s_right
    left = np.empty_like(credit)
    degenerate = np.abs(span) <= 1e-12 * np.maximum(np.abs(s_left), np.abs(s_right))
    ratio = ~degenerate
    left[ratio] = credit[ratio] * (s_left[ratio] / span[ratio])
    left[degenerate] = s_left[degenerate] + 0.5 * (credit[degenerate] - span[degenerate])
    right = credit - left
    return left, right


def explain_all_classes(
    x,
    model: Model,
    cfg: ExplainConfig,
    ledger: QueryLedger | None = None,
    step_hook=None,
) -> list[Attribution]:
    """One attribution per class from a single shared evaluation stream.

    step_hook, if given, is called after every expansion with a copy of
    each frontier node's per-class credit.
    """
    game = VectorGame(model, x, cfg.masker, ledger, tag="explain")
    tree = cfg.tree
    budget = cfg.max_evals

    # ExplainConfig guarantees max_evals >= 2, so only the ledger can
    # refuse the root pair.
    v_empty, v_full = game.read([0, game.full_bits])

    root_entry = _Entry(0, v_full, v_full - v_empty)
    final: list[_Entry] = []

    # One frontier heap: largest absolute credit first (node id breaks
    # ties) under priority_abs, insertion (FIFO) order under breadth_first.
    heap: list[tuple] = []
    counter = itertools.count()

    def push(entry: _Entry) -> None:
        if cfg.order == "priority_abs":
            key = (-float(np.abs(entry.credit).max()), entry.node_id)
        else:
            key = (next(counter),)
        heapq.heappush(heap, (*key, entry))

    depth_limit = choose_depth(budget, tree) if cfg.order == "breadth_first" else None
    push(root_entry)

    while heap:
        entry = heapq.heappop(heap)[-1]
        node = tree.nodes[entry.node_id]
        if node.is_leaf:
            final.append(entry)
            continue
        if depth_limit is not None and node.depth >= depth_limit:
            final.append(entry)
            continue
        left = tree.nodes[node.left]
        right = tree.nodes[node.right]
        try:
            v_left, v_right = game.read(
                [left.bits, right.bits],
                None if budget is None else budget - game.evals_used,
            )
        except BudgetExhausted:
            final.append(entry)
            final.extend(item[-1] for item in heap)
            break
        s_left = 0.5 * ((v_left - v_empty) + (entry.v_node - v_right))
        s_right = 0.5 * ((v_right - v_empty) + (entry.v_node - v_left))
        credit_left, credit_right = _split_credit(entry.credit, s_left, s_right)
        push(_Entry(node.left, v_left, credit_left))
        push(_Entry(node.right, v_right, credit_right))
        if step_hook is not None:
            snapshot = [e.credit.copy() for e in final]
            snapshot.extend(item[-1].credit.copy() for item in heap)
            step_hook(snapshot)

    n_atoms = tree.atom_count
    values = np.zeros((n_atoms, model.num_classes), dtype=np.float64)
    for entry in final:
        atoms = tree.nodes[entry.node_id].atoms
        values[atoms, :] += entry.credit / len(atoms)
    return [
        Attribution(
            values=values[:, c].copy(),
            base_value=float(v_empty[c]),
            method="partition",
            class_index=c,
            evals_used=game.evals_used,
            max_evals=cfg.max_evals,
        )
        for c in range(model.num_classes)
    ]


def explain(
    x,
    model: Model,
    cfg: ExplainConfig,
    ledger: QueryLedger | None = None,
    step_hook=None,
) -> Attribution:
    """Single-class budgeted attribution: cfg.target's entry of
    explain_all_classes. cfg.target must be a class index."""
    target = cfg.target
    if not isinstance(target, int):
        raise ValueError("explain needs an integer target class; use explain_all_classes")
    if not 0 <= target < model.num_classes:
        raise ValueError(f"target class {target} outside [0, {model.num_classes})")
    return explain_all_classes(x, model, cfg, ledger, step_hook)[target]
