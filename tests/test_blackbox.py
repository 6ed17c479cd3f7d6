import math
from unittest import mock

import numpy as np
import pytest

from owenexplain import (
    MaskerSpec,
    Model,
    ModelOutputError,
    QueryLedger,
    TopKConfig,
    VictimSpec,
    WrappedModel,
    blackbox,
    build_atom_grid,
    make_rng,
    make_victim,
    parse_schedule,
    query,
    synthesize,
    wrap_topk_hard,
    wrap_topk_soft,
)
from owenexplain.extraction import SubstituteModel
from owenexplain.objectives import ObjectiveWeights
from owenexplain.oracle import ClassGame, VectorGame
from owenexplain.synthesis import SearchParams, SynthConfig


def random_prob_vectors(n, classes, seed=0):
    rng = make_rng(seed)
    raw = rng.uniform(0, 1, (n, classes)) ** 2
    return raw / raw.sum(axis=1, keepdims=True)


def reference_topk(p, k, mode):
    """One row through the top-k wrapper, written per row and apart from
    TopKConfig.apply_batch: the k largest entries, ties to the lower class
    index, kept (soft, leftover mass spread over the rest) or set to 1/k
    (hard)."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    c = p.size
    if mode == "soft" and k == c:
        return p.copy()
    top = np.argsort(-p, kind="stable")[:k]
    if mode == "soft":
        out = np.full(c, (1.0 - float(p[top].sum())) / (c - k), dtype=np.float64)
        out[top] = p[top]
    else:
        out = np.zeros(c, dtype=np.float64)
        out[top] = 1.0 / k
    return out


class TestSoftWrapper:
    def test_topk_values_kept_remainder_uniform(self):
        out = wrap_topk_soft([0.3, 0.05, 0.6, 0.05], 2)
        assert np.allclose(out, [0.3, 0.05, 0.6, 0.05], atol=1e-12)

    def test_k_equals_classes_identity(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(wrap_topk_soft(p, 4), p)

    def test_zero_remainder(self):
        assert np.array_equal(wrap_topk_soft([1.0, 0.0, 0.0], 1), [1.0, 0.0, 0.0])

    def test_remainder_split(self):
        out = wrap_topk_soft([0.5, 0.3, 0.15, 0.05], 2)
        assert np.allclose(out, [0.5, 0.3, 0.1, 0.1], atol=1e-12)

    def test_tie_at_cut_prefers_lower_index(self):
        out = wrap_topk_soft([0.25, 0.25, 0.25, 0.25], 2)
        # classes 0 and 1 kept, remainder 0.5 split over classes 2 and 3
        assert np.allclose(out, [0.25, 0.25, 0.25, 0.25], atol=1e-12)
        out = wrap_topk_soft([0.4, 0.2, 0.2, 0.2], 2)
        assert out[1] == 0.2 and np.isclose(out[2], 0.2) and np.isclose(out[3], 0.2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            wrap_topk_soft([0.9, 0.9], 1)

    def test_property_sweep(self):
        vectors = random_prob_vectors(10_000, 5, seed=3)
        for k in range(1, 6):
            for p in vectors[:2000]:
                out = wrap_topk_soft(p, k)
                assert np.all(out >= 0)
                assert abs(out.sum() - 1.0) <= 1e-9
                top = np.argsort(-p, kind="stable")[:k]
                assert np.array_equal(out[top], p[top])
                if len(np.flatnonzero(p == p.max())) == 1:
                    assert np.argmax(out) == np.argmax(p)

    @pytest.mark.parametrize("classes", [4, 8, 9, 16, 17])
    def test_row_sum_check_does_not_depend_on_layout(self, classes):
        # Rows scaled to sum to about 1 + _PROB_ATOL, so that the check's
        # verdict turns on the last bit of each sum. Every row the check
        # passes alone must pass in a class-major batch too, which holds
        # only if the batch's sums have the C-ordered rows' bits.
        p = random_prob_vectors(2048, classes, seed=classes)
        p *= (1.0 + blackbox._PROB_ATOL) / p.sum(axis=1, keepdims=True)
        topk = TopKConfig(mode="soft", k=1)
        kept = []
        for row in p:
            try:
                topk.apply_batch(row[None, :])
            except ValueError:
                continue
            kept.append(row)
        rows = np.array(kept)
        assert 0 < len(rows) < len(p)
        class_major = np.asfortranarray(rows)
        assert class_major.T.flags.c_contiguous
        sums = [blackbox._class_major_sum(batch.T) for batch in (rows, class_major)]
        assert sums[0].tobytes() == sums[1].tobytes() == rows.sum(axis=1).tobytes()
        assert topk.apply_batch(class_major).tobytes() == topk.apply_batch(rows).tobytes()


class TestHardWrapper:
    def test_top1_one_hot(self):
        assert np.array_equal(wrap_topk_hard([0.1, 0.2, 0.6, 0.1], 1), [0, 0, 1, 0])

    def test_top3_uniform_third(self):
        out = wrap_topk_hard([0.05, 0.3, 0.35, 0.3], 3)
        assert np.allclose(out, [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_k_equals_classes_uniform(self):
        out = wrap_topk_hard([0.7, 0.1, 0.2], 3)
        assert np.allclose(out, [1 / 3] * 3, atol=1e-12)

    def test_entropy_is_log_k(self):
        vectors = random_prob_vectors(500, 6, seed=4)
        for k in range(1, 7):
            for p in vectors:
                out = wrap_topk_hard(p, k)
                nz = out[out > 0]
                # exactly k entries of exactly 1/k
                assert nz.size == k
                assert np.all(nz == 1.0 / k)
                entropy = -np.sum(nz * np.log(nz))
                assert abs(entropy - math.log(k)) <= 1e-12


class TestVictims:
    def test_group_symmetric_invariance(self):
        spec = VictimSpec(kind="group_symmetric", seed=5, num_classes=3,
                          input_shape=(4,), group_sizes=(2, 2))
        model = make_victim(spec)
        x = np.array([0.3, 0.9, 0.1, 0.7])
        swapped = np.array([0.9, 0.3, 0.1, 0.7])
        assert np.array_equal(model.evaluate_one(x), model.evaluate_one(swapped))

    def test_group_symmetric_outputs_valid(self):
        spec = VictimSpec(kind="group_symmetric", seed=5, num_classes=4, input_shape=(3, 3))
        model = make_victim(spec)
        probs = model.evaluate(make_rng(0).uniform(-1, 1, (100, 9)))
        assert np.all(probs > 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_dead_feature_ignored(self):
        spec = VictimSpec(kind="dead_feature", seed=9, num_classes=3,
                          input_shape=(8,), dead_index=5)
        model = make_victim(spec)
        x = make_rng(1).uniform(0, 1, 8)
        y = x.copy()
        y[5] += 10.0
        assert np.array_equal(model.evaluate_one(x), model.evaluate_one(y))

    def test_linear_softmax_reproducible(self):
        spec = VictimSpec(kind="linear_softmax", seed=42, num_classes=4, input_shape=(5,))
        x = np.linspace(0, 1, 5)
        a = make_victim(spec).evaluate_one(x)
        b = make_victim(spec).evaluate_one(x)
        assert np.array_equal(a, b)

    def test_quadrant_bright_region_scoring(self):
        spec = VictimSpec(kind="quadrant_bright", seed=0, num_classes=4,
                          input_shape=(6, 6), temperature=0.1)
        model = make_victim(spec)
        x = np.zeros((6, 6))
        x[:3, 3:] = 1.0  # top-right quadrant = class 1
        assert np.argmax(model.evaluate_one(x.reshape(-1))) == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            VictimSpec(kind="nope", seed=0, num_classes=2, input_shape=(2,))

    # A class without cells would score 0/0 and make every output NaN.
    @pytest.mark.parametrize("shape, classes, empty", [((3,), 4, 3), ((12, 12), 17, 3)])
    def test_quadrant_bright_rejects_a_class_without_cells(self, shape, classes, empty):
        with pytest.raises(ValueError, match=f"leaves class {empty} of {classes} without cells"):
            VictimSpec(kind="quadrant_bright", seed=0, num_classes=classes, input_shape=shape)

    # Each field is checked when the spec is built, for the kind that reads
    # it only; the other kinds ignore it.
    @pytest.mark.parametrize("kind, field, message", [
        ("dead_feature", {"dead_index": 99}, "dead feature index outside the input"),
        ("dead_feature", {"dead_index": -1}, "dead feature index outside the input"),
        ("quadrant_bright", {"class_bias": (0.1,)}, "class_bias length must equal num_classes"),
        ("group_symmetric", {"group_sizes": (5, 5)}, "group sizes must be positive and cover"),
        ("group_symmetric", {"group_sizes": (0, 36)}, "group sizes must be positive and cover"),
    ], ids=["dead-index-99", "dead-index-negative", "class-bias", "group-sizes-short",
            "group-size-zero"])
    def test_field_checked_at_construction(self, kind, field, message):
        with pytest.raises(ValueError, match=message):
            VictimSpec(kind=kind, seed=0, num_classes=4, input_shape=(6, 6), **field)
        VictimSpec(kind="linear_softmax", seed=0, num_classes=4, input_shape=(6, 6), **field)

    @pytest.mark.parametrize("field", ["group_sizes", "class_bias"])
    def test_empty_tuple_means_none(self, field):
        kind = "group_symmetric" if field == "group_sizes" else "quadrant_bright"
        spec = VictimSpec(kind=kind, seed=0, num_classes=4, input_shape=(6, 6), **{field: ()})
        assert getattr(spec, field) is None
        x = make_rng(2).uniform(0, 1, (3, 36))
        default = VictimSpec(kind=kind, seed=0, num_classes=4, input_shape=(6, 6))
        assert make_victim(spec).evaluate(x).tobytes() == make_victim(default).evaluate(x).tobytes()


def reference_softmax(logits):
    """The row softmax written with per-row reductions along axis 1."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def assert_same_bytes(out, ref, class_major=True):
    """out has ref's bytes, read row by row, and the promised layout: the
    (rows, classes) view of a class-major array for a softmax, C order for
    anything else."""
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.T.flags.c_contiguous if class_major else out.flags.c_contiguous
    assert out.tobytes() == ref.tobytes()


class TestSoftmax:
    """blackbox._softmax works class-major; its bytes must equal the
    per-row form's, whose sum is numpy's pairwise sum (left to right below
    8 terms, 8 accumulators up to 128, split in two above)."""

    @pytest.mark.parametrize("rows", [1, 2, 8, 4096])
    @pytest.mark.parametrize("classes", [2, 3, 4, 7, 8, 9, 16, 17, 128, 129, 300])
    def test_bytes_equal_the_per_row_form(self, classes, rows):
        rng = make_rng(classes * 10_000 + rows)
        for scale in (1e-3, 0.1, 1.0, 5.0, 50.0):
            logits = rng.normal(0.0, scale, (rows, classes))
            assert_same_bytes(blackbox._softmax(logits), reference_softmax(logits))

    @pytest.mark.parametrize("classes", [2, 4, 9, 129])
    def test_ties_and_signed_zeros(self, classes):
        rng = make_rng(classes)
        logits = rng.integers(-2, 3, (64, classes)).astype(np.float64)
        logits[rng.uniform(size=logits.shape) < 0.3] = -0.0
        logits[0] = 0.0
        logits[1] = -0.0
        logits[2] = 1.5
        assert_same_bytes(blackbox._softmax(logits), reference_softmax(logits))

    @pytest.mark.parametrize("temperature", [1.0, 0.15])
    @pytest.mark.parametrize("kind", blackbox.VICTIM_KINDS)
    def test_victim_outputs_equal_the_per_row_form(self, kind, temperature):
        spec = VictimSpec(kind=kind, seed=7, num_classes=4, input_shape=(6, 6),
                          temperature=temperature)
        model = make_victim(spec)
        for rows in (1, 2, 8, 4096):
            batch = make_rng(rows).uniform(-1.0, 2.0, (rows, 36))
            if kind == "group_symmetric":
                clipped = np.clip(batch, -spec.input_cap, spec.input_cap)
                ref = 1.0 / 4 + (clipped @ model.group_mean.T) @ model.A.T
            elif kind == "quadrant_bright":
                ref = reference_softmax((batch @ model.region_mean.T + model.bias) / temperature)
            else:
                ref = reference_softmax((batch @ model.W.T + model.b) / temperature)
            assert_same_bytes(model.evaluate(batch), ref, kind != "group_symmetric")

    @pytest.mark.parametrize("temperature", [1.0, 0.15])
    def test_substitute_outputs_equal_the_per_row_form(self, temperature):
        rng = make_rng(3)
        sub = SubstituteModel(rng.normal(0.0, 0.5, (10, 25)), rng.normal(0.0, 1.0, 10),
                              temperature, (5, 5))
        for rows in (1, 2, 8, 4096):
            batch = make_rng(rows).uniform(0.0, 1.0, (rows, 25))
            ref = reference_softmax((batch @ sub.W.T + sub.b) / temperature)
            assert_same_bytes(sub.evaluate(batch), ref)


class TestQuery:
    def test_ledger_charged_by_batch(self):
        spec = VictimSpec(kind="linear_softmax", seed=1, num_classes=3, input_shape=(4,))
        model = make_victim(spec)
        ledger = QueryLedger(budget=100)
        batch = make_rng(2).uniform(0, 1, (8, 4))
        query(model, batch, TopKConfig(mode="all"), ledger)
        assert ledger.evals_used == 8

    def test_mode_all_is_raw(self):
        spec = VictimSpec(kind="linear_softmax", seed=1, num_classes=3, input_shape=(4,))
        model = make_victim(spec)
        batch = make_rng(2).uniform(0, 1, (4, 4))
        out = query(model, batch, TopKConfig(mode="all"), QueryLedger())
        assert np.array_equal(out, model.evaluate(batch))

    def test_hard_top1_one_hot(self):
        spec = VictimSpec(kind="linear_softmax", seed=1, num_classes=5, input_shape=(4,))
        model = make_victim(spec)
        batch = make_rng(3).uniform(0, 1, (6, 4))
        out = query(model, batch, TopKConfig(mode="hard", k=1), QueryLedger())
        assert np.all(out.max(axis=1) == 1.0)
        assert np.all(out.sum(axis=1) == 1.0)

    def test_budget_exhaustion_propagates(self):
        from owenexplain import BudgetExhausted
        spec = VictimSpec(kind="linear_softmax", seed=1, num_classes=3, input_shape=(4,))
        model = make_victim(spec)
        with pytest.raises(BudgetExhausted):
            query(model, np.zeros((5, 4)), TopKConfig(mode="all"), QueryLedger(budget=4))

    def test_batch_wrapper_matches_per_row(self):
        vectors = random_prob_vectors(200, 5, seed=8)
        for mode in ("soft", "hard"):
            for k in range(1, 6):
                batch = TopKConfig(mode=mode, k=k).apply_batch(vectors)
                rows = np.stack([reference_topk(v, k, mode) for v in vectors])
                assert np.array_equal(batch, rows)

    def test_wrapped_model_composes(self):
        spec = VictimSpec(kind="linear_softmax", seed=1, num_classes=4, input_shape=(4,))
        model = make_victim(spec)
        wrapped = WrappedModel(model, TopKConfig(mode="soft", k=1))
        out = wrapped.evaluate(make_rng(4).uniform(0, 1, (3, 4)))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        raw = model.evaluate(make_rng(4).uniform(0, 1, (3, 4)))
        assert np.array_equal(np.argmax(out, axis=1), np.argmax(raw, axis=1))


class BrokenModel(Model):
    """Four classes over 4 cells; returns the given outputs for any batch."""

    num_classes = 4
    input_shape = (4,)

    def __init__(self, outputs):
        self.outputs = outputs

    def evaluate(self, batch):
        return self.outputs(len(batch))


BROKEN_OUTPUTS = {
    "nan": lambda rows: np.full((rows, 4), np.nan),
    "inf": lambda rows: np.vstack([np.full((rows - 1, 4), 0.25), [[np.inf, 0.0, 0.0, 0.0]]]),
    "too-few-classes": lambda rows: np.full((rows, 3), 1 / 3),
    "too-few-rows": lambda rows: np.full((rows - 1, 4), 0.25),
    "1-D": lambda rows: np.full(rows * 4, 0.25),
}
TOPK_MODES = [TopKConfig(mode="all"), TopKConfig(mode="soft", k=2), TopKConfig(mode="hard", k=1)]


class TestModelOutputErrors:
    @pytest.mark.parametrize("topk", TOPK_MODES, ids=lambda t: t.mode)
    @pytest.mark.parametrize("broken", sorted(BROKEN_OUTPUTS))
    def test_wrapped_model_rejects(self, broken, topk):
        wrapped = WrappedModel(BrokenModel(BROKEN_OUTPUTS[broken]), topk)
        with pytest.raises(ModelOutputError):
            wrapped.evaluate(np.zeros((3, 4)))

    @pytest.mark.parametrize("topk", TOPK_MODES, ids=lambda t: t.mode)
    @pytest.mark.parametrize("broken", sorted(BROKEN_OUTPUTS))
    def test_query_rejects_and_stays_charged(self, broken, topk):
        ledger = QueryLedger(budget=10)
        with pytest.raises(ModelOutputError):
            query(BrokenModel(BROKEN_OUTPUTS[broken]), np.zeros((3, 4)), topk, ledger)
        assert ledger.evals_used == 3

    @pytest.mark.parametrize("topk", TOPK_MODES, ids=lambda t: t.mode)
    def test_valid_outputs_pass(self, topk):
        probs = random_prob_vectors(3, 4, seed=5)
        out = WrappedModel(BrokenModel(lambda rows: probs), topk).evaluate(np.zeros((3, 4)))
        assert np.array_equal(out, topk.apply_batch(probs))


BARE_AND_WRAPPED = [None, *TOPK_MODES]


def broken(fault, topk):
    """BrokenModel with the given fault, bare (topk None) or wrapped."""
    model = BrokenModel(BROKEN_OUTPUTS[fault])
    return model if topk is None else WrappedModel(model, topk)


def mode_id(topk):
    return "bare" if topk is None else topk.mode


MASKER = MaskerSpec(grid=build_atom_grid((4,), (1,)), fill="mean")
X = np.array([0.1, 0.4, 0.7, 0.2])


class TestReadPath:
    """Every victim read checks its batch: a broken model raises
    ModelOutputError through synthesis and the coalition game, bare or
    wrapped, and each batch is checked once."""

    @pytest.mark.parametrize("topk", BARE_AND_WRAPPED, ids=mode_id)
    @pytest.mark.parametrize("fault", sorted(BROKEN_OUTPUTS))
    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (0.0, 1.0)],
                             ids=["class-term", "disagreement"])
    def test_synthesize_rejects(self, fault, topk, alpha, beta):
        cfg = SynthConfig(target_class=0, masker=MASKER,
                          weights=ObjectiveWeights(alpha=alpha, beta=beta),
                          schedule=parse_schedule("0:99999:8"),
                          search=SearchParams(population=2, steps=2))
        with pytest.raises(ModelOutputError):
            synthesize(broken(fault, topk), None, cfg, QueryLedger())

    @pytest.mark.parametrize("topk", BARE_AND_WRAPPED, ids=mode_id)
    @pytest.mark.parametrize("fault", sorted(BROKEN_OUTPUTS))
    def test_coalition_game_rejects(self, fault, topk):
        game = VectorGame(broken(fault, topk), X, MASKER)
        with pytest.raises(ModelOutputError):
            game.read([0, game.full_bits])
        with pytest.raises(ModelOutputError):
            ClassGame(game, 0).value_batch([0, game.full_bits])
        with pytest.raises(ModelOutputError):
            game.dense_table()
        assert game.evals_used == 0

    @pytest.mark.parametrize("topk", BARE_AND_WRAPPED, ids=mode_id)
    def test_one_shape_and_one_finiteness_check_per_batch(self, topk):
        probs = random_prob_vectors(2, 4, seed=6)
        model = BrokenModel(lambda rows: probs)
        game = VectorGame(model if topk is None else WrappedModel(model, topk), X, MASKER)
        with mock.patch.object(blackbox, "_shaped_outputs",
                               wraps=blackbox._shaped_outputs) as shaped:
            with mock.patch.object(np, "isfinite", wraps=np.isfinite) as counted:
                out = game.read([0, game.full_bits])
        assert shaped.call_count == 1
        assert [c.args[0].shape for c in counted.call_args_list] == [(2, 4)]
        expected = probs if topk is None else topk.apply_batch(probs)
        assert np.array_equal(out, expected)
