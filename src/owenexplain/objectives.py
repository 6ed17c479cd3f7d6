"""Search and training objectives: the class-wise attribution objective,
attribution normalization, and the clone/divergence losses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .oracle import Attribution

SATURATION_CAP = 1e9


@dataclass(frozen=True)
class ObjectiveWeights:
    """alpha weights the class objective, beta the divergence reward."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("weights must be non-negative")
        if self.alpha + self.beta <= 0:
            raise ValueError("at least one weight must be positive")


def class_objective(attr: Attribution) -> float:
    """Sum of per-atom attributions toward the targeted class.

    For any efficiency-preserving method, the partition explainer at every
    budget included, this is f_c(x) - f_c(fill(x)): the class output minus
    the base value. The synthesis objective is that difference, read from
    the explainer's root pair (synthesis.synthesize); how the explainer
    refines its credit does not enter it.
    """
    return attr.total()


def normalize_shap(attr: Attribution) -> Attribution:
    """Scale attributions into [-1, 1] by the largest magnitude.

    All-zero input stays all-zero; the base value is untouched; sign
    pattern and argmax are preserved. Idempotent.
    """
    peak = float(np.abs(attr.values).max()) if attr.values.size else 0.0
    values = attr.values / peak if peak > 0 else attr.values.copy()
    method = attr.method
    if not method.endswith("+normalized"):
        method = f"{method}+normalized"
    return Attribution(
        values=values,
        base_value=attr.base_value,
        method=method,
        class_index=attr.class_index,
        evals_used=attr.evals_used,
        max_evals=attr.max_evals,
    )


def _support_sum(victim_out, substitute_out, indices, term) -> float:
    """Sum of term(V_i, S_i) over the given classes where V_i is not 0, in
    ascending class order; +inf, with a warning, if the substitute puts
    zero mass on one of them."""
    v = np.asarray(victim_out, dtype=np.float64).reshape(-1)
    s = np.asarray(substitute_out, dtype=np.float64).reshape(-1)
    if v.shape != s.shape:
        raise ValueError("victim and substitute vectors differ in length")
    idx = sorted(int(i) for i in indices)
    if any(i < 0 or i >= v.size for i in idx):
        raise ValueError("index outside the class range")
    total = 0.0
    for vi, si in zip(v[idx], s[idx]):
        if vi == 0.0:
            continue
        if si <= 0.0:
            warnings.warn("substitute assigns zero mass on the victim support")
            return math.inf
        total += term(vi, si)
    return float(total)


def kl_clone_loss(victim_out, substitute_out, topk_indices) -> float:
    """sum_i V_i ln(V_i / S_i) over the top-k support, with 0 ln 0 = 0.

    Returns +inf (with a warning) when the substitute puts zero mass where
    the victim does not; optimizers use the saturated variant instead.
    """
    return _support_sum(
        victim_out, substitute_out, topk_indices, lambda vi, si: vi * math.log(vi / si)
    )


def ce_clone_loss(victim_hard, substitute_out, topk_indices) -> float:
    """-sum_i V_i ln(S_i) over the top-k support."""
    return _support_sum(
        victim_hard, substitute_out, topk_indices, lambda vi, si: -vi * math.log(si)
    )


def disagreement(victim_out, substitute_out) -> float:
    """KL form over all classes; the generator-side divergence reward."""
    n = np.asarray(victim_out).size
    return kl_clone_loss(victim_out, substitute_out, range(n))


def saturated(loss: float) -> float:
    """Finite stand-in for infinite losses inside gradient-free search."""
    return min(loss, SATURATION_CAP)
