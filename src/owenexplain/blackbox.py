"""Black-box model abstraction, top-k output wrappers, and the seeded toy
victim zoo.

Victims are pure functions of immutable parameters, fully determined by
their spec, and therefore safe for concurrent evaluation. Batches are
(n_rows, n_cells) float64 matrices of flat row-major inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import QueryLedger, check_shape, make_rng

_PROB_ATOL = 1e-9


class ModelOutputError(ValueError):
    """A model returned outputs of the wrong shape or with non-finite
    entries (CLI exit code 5)."""


class Model:
    """Deterministic probabilistic classifier over flat inputs.

    evaluate must not write into its batch or read it after returning:
    the exact-Shapley dense fill (oracle.VectorGame.dense_table) rewrites
    one buffer for its next batch."""

    num_classes: int
    input_shape: tuple[int, ...]

    @property
    def n_cells(self) -> int:
        return math.prod(self.input_shape)

    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        """(n_rows, n_cells) -> (n_rows, num_classes) probabilities, in any
        memory layout: the softmax victims return a class-major array's
        (rows, classes) view, and no caller's bytes depend on the layout."""
        raise NotImplementedError

    def evaluate_one(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(np.asarray(x, dtype=np.float64).reshape(1, -1))[0]


def wrap_topk_soft(raw_probs, k: int) -> np.ndarray:
    """Top-k probabilities kept, leftover mass spread uniformly over the
    masked classes; TopKConfig("soft", k) applied to one row."""
    return TopKConfig("soft", k).apply_batch(np.reshape(raw_probs, (1, -1)))[0]


def wrap_topk_hard(raw_probs, k: int) -> np.ndarray:
    """1/k on each of the k top classes, 0 elsewhere; TopKConfig("hard", k)
    applied to one row."""
    return TopKConfig("hard", k).apply_batch(np.reshape(raw_probs, (1, -1)))[0]


@dataclass(frozen=True)
class TopKConfig:
    """Victim output access mode: soft/hard top-k, or all probabilities."""

    mode: str = "all"
    k: int | None = None

    def __post_init__(self):
        if self.mode not in {"soft", "hard", "all"}:
            raise ValueError(f"mode must be soft, hard or all, got {self.mode!r}")
        if self.mode != "all" and (self.k is None or self.k < 1):
            raise ValueError("soft/hard modes require k >= 1")

    def apply_batch(self, raw: np.ndarray) -> np.ndarray:
        """Wrap a (rows, classes) batch of model outputs; ModelOutputError
        if any entry is not finite, in every mode. The top k are the k
        largest entries, ties going to the lower class index. Soft mode at
        k equal to the class count is the identity; leftover shares keep
        exact float64 arithmetic, with no flooring. The identity copies keep
        raw's memory layout, and the row-sum check adds each row's classes
        in the order of a C-ordered row's pairwise sum in every layout."""
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 2:
            raise ValueError("batch must be 2-D")
        _finite(raw)
        if self.mode == "all":
            return np.copy(raw)
        if (raw < 0).any():
            raise ValueError("probabilities must be non-negative")
        c = raw.shape[1]
        k = self.k
        if not 1 <= k <= c:
            raise ValueError(f"k must be in [1, {c}], got {k}")
        if (abs(_class_major_sum(raw.T) - 1.0) > _PROB_ATOL).any():
            raise ValueError("probability rows must sum to 1")
        if self.mode == "soft" and k == c:
            return np.copy(raw)
        top = np.argsort(-raw, axis=1, kind="stable")[:, :k]
        rows = np.arange(len(raw))[:, None]
        if self.mode == "soft":
            top_vals = raw[rows, top]
            out = np.empty(raw.shape)
            out[:] = ((1.0 - top_vals.sum(axis=1)) / (c - k))[:, None]
            out[rows, top] = top_vals
        else:
            out = np.zeros_like(raw)
            out[rows, top] = 1.0 / k
        return out


class WrappedModel(Model):
    """Model view through a top-k wrapper; what an attacker observes.

    evaluate raises ModelOutputError if the inner model's outputs are
    mis-shaped or not finite, whatever the top-k mode.
    """

    def __init__(self, inner: Model, topk: TopKConfig):
        if topk.mode != "all" and topk.k > inner.num_classes:
            raise ValueError("k exceeds the model class count")
        self.inner = inner
        self.topk = topk
        self.num_classes = inner.num_classes
        self.input_shape = inner.input_shape

    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        return self.topk.apply_batch(_shaped_outputs(self.inner, batch))


def _finite(raw: np.ndarray) -> np.ndarray:
    """raw itself; ModelOutputError if an entry is not finite."""
    if not np.isfinite(raw).all():
        raise ModelOutputError("model returned non-finite outputs")
    return raw


def _shaped_outputs(model: Model, batch: np.ndarray) -> np.ndarray:
    """model.evaluate(batch) as float64; ModelOutputError unless it is one
    row of num_classes outputs per input row."""
    raw = np.asarray(model.evaluate(batch), dtype=np.float64)
    expected = (len(batch), model.num_classes)
    if raw.shape != expected:
        raise ModelOutputError(f"model returned shape {raw.shape}, expected {expected}")
    return raw


def checked_outputs(model: Model, batch: np.ndarray) -> np.ndarray:
    """model.evaluate(batch) as float64; ModelOutputError unless it is one
    row of num_classes finite outputs per input row. Every batch is checked
    once: a WrappedModel's evaluate checks its own outputs, so they are
    returned as they come."""
    if isinstance(model, WrappedModel):
        return model.evaluate(batch)
    return _finite(_shaped_outputs(model, batch))


def query(
    model: Model, batch: np.ndarray, topk: TopKConfig, ledger: QueryLedger
) -> np.ndarray:
    """Charge the ledger for the batch and return the outputs model shows
    through topk (WrappedModel.evaluate).

    Raises ModelOutputError if the model's outputs are mis-shaped or not
    finite; the batch stays charged.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.n_cells:
        raise ValueError("batch shape does not match model input")
    ledger.charge(batch.shape[0], "query")
    return WrappedModel(model, topk).evaluate(batch)


VICTIM_KINDS = ("linear_softmax", "quadrant_bright", "group_symmetric", "dead_feature")


@dataclass(frozen=True)
class VictimSpec:
    """Seeded toy victim description, reconstructible from its fields."""

    kind: str
    seed: int
    num_classes: int
    input_shape: tuple[int, ...]
    weight_scale: float = 1.0
    temperature: float = 1.0
    dead_index: int = 0
    group_sizes: tuple[int, ...] | None = None
    class_bias: tuple[float, ...] | None = None
    input_cap: float = 1.0

    def __post_init__(self):
        """Check every field the kind reads; an empty group_sizes or
        class_bias means none, as None does."""
        if self.kind not in VICTIM_KINDS:
            raise ValueError(f"unknown victim kind {self.kind!r}")
        object.__setattr__(self, "input_shape", check_shape(self.input_shape))
        object.__setattr__(self, "group_sizes", self.group_sizes or None)
        object.__setattr__(self, "class_bias", self.class_bias or None)
        n = math.prod(self.input_shape)
        if self.num_classes < 2:
            raise ValueError("victims need at least 2 classes")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        sizes, bias = self.group_sizes, self.class_bias
        if self.kind == "dead_feature" and not 0 <= self.dead_index < n:
            raise ValueError("dead feature index outside the input")
        if self.kind == "group_symmetric" and sizes and (sum(sizes) != n or min(sizes) < 1):
            raise ValueError("group sizes must be positive and cover the input")
        if self.kind == "quadrant_bright":
            if bias and len(bias) != self.num_classes:
                raise ValueError("class_bias length must equal num_classes")
            cells = np.bincount(
                class_regions(self.input_shape, self.num_classes), minlength=self.num_classes
            )
            if not cells.all():
                raise ValueError(
                    f"quadrant_bright input {self.input_shape} leaves class "
                    f"{int(np.argmin(cells))} of {self.num_classes} without cells"
                )


def _softmax(logits: np.ndarray, temperature: float = 1.0,
             bias: np.ndarray | None = None) -> np.ndarray:
    """Row softmax of a (rows, classes) array of (logits + bias) /
    temperature, with the bytes of

        z = (logits + bias) / temperature
        e = np.exp(z - z.max(axis=1, keepdims=True))
        e / e.sum(axis=1, keepdims=True)

    returned as e.T, the (rows, classes) view of a new class-major
    (classes, rows) array: each class's outputs are one contiguous row.

    The work is done class-major, on a (classes, rows) copy, because
    numpy runs a reduction along axis 1 as one length-C loop per row, about
    60 ns a row, which at 4 classes cost more than the exp and the matmul
    before it. Class-major, the bias is one scalar add per class row, the
    max is one elementwise np.maximum over class rows (exact in any order)
    and the normaliser is _class_major_sum, which adds class rows in the
    order of numpy's pairwise sum. Dividing by 1.0 is exact, so it is
    skipped."""
    e = logits.T.copy()
    if bias is not None:
        e += bias[:, None]
    if temperature != 1.0:
        e /= temperature
    e -= np.maximum.reduce(e, axis=0)
    np.exp(e, out=e)
    e /= _class_major_sum(e)
    return e.T


def _class_major_sum(e: np.ndarray) -> np.ndarray:
    """e.T.sum(axis=1) for a (classes, rows) array, bit for bit: numpy's
    pairwise sum adds fewer than 8 terms left to right, up to 128 in 8
    strided accumulators joined as a tree and then the leftover terms, and
    splits longer runs in two at a multiple of 8."""
    n = len(e)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _class_major_sum(e[:half]) + _class_major_sum(e[half:])
    if n < 8:
        total = e[0].copy()
        rest = e[1:]
    else:
        acc = e[:8].copy()
        for i in range(8, n - n % 8, 8):
            acc += e[i : i + 8]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        rest = e[n - n % 8 :]
    for row in rest:
        total += row
    return total


class LinearSoftmaxVictim(Model):
    """softmax((W x + b) / temperature) with seeded W, b."""

    def __init__(self, spec: VictimSpec, dead_index: int | None = None):
        self.spec = spec
        self.num_classes = spec.num_classes
        self.input_shape = spec.input_shape
        n = self.n_cells
        rng = make_rng(spec.seed)
        self.W = rng.normal(0.0, spec.weight_scale / math.sqrt(n), (spec.num_classes, n))
        self.b = rng.normal(0.0, 0.1 * spec.weight_scale, spec.num_classes)
        if dead_index is not None:
            if not 0 <= dead_index < n:
                raise ValueError("dead feature index outside the input")
            self.W[:, dead_index] = 0.0
        self.W.setflags(write=False)
        self.b.setflags(write=False)

    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        return _softmax(batch @ self.W.T, self.spec.temperature, self.b)


def class_regions(input_shape: tuple[int, ...], num_classes: int) -> np.ndarray:
    """Cell -> class region map. Rank-2+ inputs get a near-square grid of
    bands over the first two axes when num_classes factors; otherwise cells
    are chunked contiguously."""
    n = math.prod(input_shape)
    if len(input_shape) >= 2:
        rows = int(math.isqrt(num_classes))
        while rows > 1 and num_classes % rows:
            rows -= 1
        cols = num_classes // rows
        if rows * cols == num_classes:
            h, w = input_shape[0], input_shape[1]
            band_r = np.minimum(np.arange(h) * rows // h, rows - 1)
            band_c = np.minimum(np.arange(w) * cols // w, cols - 1)
            region2d = band_r[:, None] * cols + band_c[None, :]
            tail = math.prod(input_shape[2:]) if len(input_shape) > 2 else 1
            return np.repeat(region2d.reshape(-1), tail).astype(np.int32)
    return np.minimum(np.arange(n) * num_classes // n, num_classes - 1).astype(np.int32)


class QuadrantBrightVictim(Model):
    """Each class scored by the mean brightness of its assigned region,
    plus an optional per-class bias, through a softmax."""

    def __init__(self, spec: VictimSpec):
        self.spec = spec
        self.num_classes = spec.num_classes
        self.input_shape = spec.input_shape
        regions = class_regions(spec.input_shape, spec.num_classes)
        n = self.n_cells
        member = np.zeros((spec.num_classes, n), dtype=np.float64)
        member[regions, np.arange(n)] = 1.0
        self.region_mean = member / member.sum(axis=1, keepdims=True)
        if spec.class_bias is not None:
            self.bias = np.asarray(spec.class_bias, dtype=np.float64)
        else:
            self.bias = np.zeros(spec.num_classes)
        self.region_mean.setflags(write=False)
        self.bias.setflags(write=False)

    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        return _softmax(batch @ self.region_mean.T, self.spec.temperature, self.bias)


class GroupSymmetricVictim(Model):
    """Affine probability model over within-group sums.

    Output is 1/C plus a centered linear term in the group means, so it is
    exactly invariant under permuting cells inside a group and the induced
    coalition game is additive in the cells. Inputs are clipped to
    [-input_cap, input_cap], the domain on which outputs are valid
    probabilities by construction.
    """

    def __init__(self, spec: VictimSpec):
        self.spec = spec
        self.num_classes = spec.num_classes
        self.input_shape = spec.input_shape
        n = self.n_cells
        sizes = spec.group_sizes
        if sizes is None:
            g = min(4, n)
            bounds = [i * n // g for i in range(g + 1)]
            sizes = tuple(bounds[i + 1] - bounds[i] for i in range(g))
        self.group_sizes = tuple(int(s) for s in sizes)
        groups = np.repeat(np.arange(len(sizes)), sizes)
        member = np.zeros((len(sizes), n), dtype=np.float64)
        member[groups, np.arange(n)] = 1.0
        self.group_mean = member / member.sum(axis=1, keepdims=True)
        rng = make_rng(spec.seed)
        a = rng.uniform(-1.0, 1.0, (spec.num_classes, len(sizes)))
        a -= a.mean(axis=0, keepdims=True)
        peak = float(np.abs(a).max())
        if peak > 0:
            cap = max(spec.input_cap, 1e-12)
            a *= (0.9 / spec.num_classes) / (len(sizes) * cap * peak)
        self.A = a
        self.A.setflags(write=False)
        self.group_mean.setflags(write=False)

    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        clipped = np.clip(batch, -self.spec.input_cap, self.spec.input_cap)
        means = clipped @ self.group_mean.T
        return 1.0 / self.num_classes + means @ self.A.T


def make_victim(spec: VictimSpec) -> Model:
    if spec.kind == "linear_softmax":
        return LinearSoftmaxVictim(spec)
    if spec.kind == "dead_feature":
        return LinearSoftmaxVictim(spec, dead_index=spec.dead_index)
    if spec.kind == "quadrant_bright":
        return QuadrantBrightVictim(spec)
    if spec.kind == "group_symmetric":
        return GroupSymmetricVictim(spec)
    raise ValueError(f"unknown victim kind {spec.kind!r}")
