"""No consumer of model outputs depends on their memory layout.

The softmax victims return the (rows, classes) view of a class-major
array. A test double returns a model's outputs either C-ordered or
class-major, with the same values, and every consumer must give the same
bytes from both: the coalition game's dense table, values and read, the
budgeted explainer, the top-k wrapper in every mode and k, and the
synthesis class term.
"""

from unittest import mock

import numpy as np
import pytest

from owenexplain import (
    ExplainConfig,
    MaskerSpec,
    Model,
    QueryLedger,
    TopKConfig,
    VictimSpec,
    WrappedModel,
    build_atom_grid,
    build_partition_tree,
    explain_all_classes,
    make_rng,
    make_victim,
    oracle,
    query,
    synthesis,
)
from owenexplain.oracle import VectorGame

LAYOUTS = ("C", "class-major")


class LayoutModel(Model):
    """inner's outputs, C-ordered or class-major."""

    def __init__(self, inner: Model, layout: str):
        self.inner = inner
        self.layout = layout
        self.num_classes = inner.num_classes
        self.input_shape = inner.input_shape

    def evaluate(self, batch):
        out = self.inner.evaluate(batch)
        if self.layout == "C":
            out = np.ascontiguousarray(out)
            assert out.flags.c_contiguous
        else:
            out = np.asfortranarray(out)
            assert out.T.flags.c_contiguous
        return out


class FixedOutputs(Model):
    """The first len(batch) rows of a fixed output table."""

    def __init__(self, outputs):
        self.outputs = outputs
        self.num_classes = outputs.shape[1]
        self.input_shape = (3,)

    def evaluate(self, batch):
        return self.outputs[: len(batch)]


def twins(inner: Model) -> list[LayoutModel]:
    return [LayoutModel(inner, layout) for layout in LAYOUTS]


def assert_same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def victim(kind, n, classes=4, seed=3):
    spec = VictimSpec(kind=kind, seed=seed, num_classes=classes, input_shape=(n,),
                      weight_scale=3.0)
    return make_victim(spec)


MASKER10 = MaskerSpec(grid=build_atom_grid((10,), (1,)), fill="blur")
X10 = make_rng(11).uniform(0.0, 1.0, 10)


@pytest.mark.parametrize("kind", ["linear_softmax", "quadrant_bright", "group_symmetric"])
@pytest.mark.parametrize("classes", [4, 9])
def test_coalition_game(kind, classes):
    masks = make_rng(classes).integers(0, 1 << 10, 300)
    got = []
    for model in twins(victim(kind, 10, classes)):
        game = VectorGame(model, X10, MASKER10, QueryLedger())
        read = game.read([0, game.full_bits, 5, 17])
        values = game.read(masks)
        # Sixteen chunks through a 64-mask chunk buffer.
        with mock.patch.object(oracle, "_CHUNK", 64):
            table = game.dense_table()
        got.append((read, values, table))
    for a, b in zip(*got):
        assert_same(a, b)


@pytest.mark.parametrize("max_evals", [2, 16, None])
def test_explain_all_classes(max_evals):
    grid = build_atom_grid((4, 4), (1, 1))
    masker = MaskerSpec(grid=grid, fill="mean")
    cfg = ExplainConfig(masker=masker, tree=build_partition_tree(grid), max_evals=max_evals)
    x = make_rng(5).uniform(0.0, 1.0, 16)
    got = [explain_all_classes(x, model, cfg, QueryLedger())
           for model in twins(victim("linear_softmax", 16, 5))]
    for a, b in zip(*got, strict=True):
        assert_same(a.values, b.values)
        assert_same(a.base_value, b.base_value)
        assert a.evals_used == b.evals_used


def tied_outputs(rows, classes, seed):
    """Probability rows with ties, zeros and negative zeros."""
    rng = make_rng(seed)
    counts = rng.integers(0, 4, (rows, classes)).astype(np.float64)
    counts[:, 0] += 1.0
    counts[1] = 1.0  # every class tied
    out = counts / counts.sum(axis=1, keepdims=True)
    out[out == 0.0] = np.where(rng.uniform(size=int((out == 0.0).sum())) < 0.5, 0.0, -0.0)
    assert np.signbit(out[out == 0.0]).any() and not np.signbit(out[out == 0.0]).all()
    return out


@pytest.mark.parametrize("classes", [2, 4, 9, 17])
def test_query_through_the_wrapper(classes):
    outputs = tied_outputs(64, classes, classes)
    batch = np.zeros((64, 3))
    modes = [TopKConfig("all")] + [TopKConfig(mode, k) for mode in ("soft", "hard")
                                   for k in range(1, classes + 1)]
    for topk in modes:
        got = [query(model, batch, topk, QueryLedger()) for model in twins(FixedOutputs(outputs))]
        assert_same(*got)


@pytest.mark.parametrize("topk", [None, TopKConfig("hard", 1), TopKConfig("soft", 2),
                                  TopKConfig("all")])
@pytest.mark.parametrize("kind", ["quadrant_bright", "linear_softmax"])
def test_synthesis_class_term(kind, topk):
    grid = build_atom_grid((6, 6), (3, 3))
    masker = MaskerSpec(grid=grid, fill="mean")
    tree = build_partition_tree(grid)
    inner = make_victim(VictimSpec(kind=kind, seed=0, num_classes=4, input_shape=(6, 6)))
    models = [m if topk is None else WrappedModel(m, topk) for m in twins(inner)]
    for seed in range(8):
        x = make_rng(seed).uniform(0.0, 1.0, 36)
        for target in range(4):
            got = [synthesis._class_term(x, model, masker, tree, 16, target, QueryLedger())
                   for model in models]
            assert_same(*got)
