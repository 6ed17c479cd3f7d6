"""exact_shapley's dense coalition table, and ClassGame.value_batch's
read through the sorted mask index, against the walks they replaced.

exact_shapley's reference is what it did before: every mask read in
ascending order through the dict memo (conftest.DictMemo), each chunk's
misses charged, evaluated and memoized, then shapley_from_table on the
class's column. value_batch's reference is the same dict memo walk. Each
pair runs on twin games (same model, input, pre-memoized coalitions and
budget) and must agree bit for bit, down to the model batches they send.
A 17-atom fill is checked chunk by chunk against masked_batch.
"""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DictMemo, RecordingModel, assert_index_matches

from owenexplain import (
    BudgetExhausted,
    MaskerSpec,
    ModelOutputError,
    QueryLedger,
    VictimSpec,
    build_atom_grid,
    exact_shapley,
    make_rng,
    make_victim,
    oracle,
)
from owenexplain._kernels import shapley_from_table
from owenexplain.oracle import ClassGame, VectorGame


def twin(case, reference: bool = False, model_type=RecordingModel):
    """(game, model, ledger) with case's coalitions memoized one read each;
    under reference, game is a DictMemo of the VectorGame."""
    spec = VictimSpec(kind="linear_softmax", seed=case["seed"], num_classes=case["classes"],
                      input_shape=(case["n"],), weight_scale=3.0)
    model = model_type(make_victim(spec))
    masker = MaskerSpec(grid=build_atom_grid((case["n"],), (1,)), fill="mean")
    x = make_rng(case["seed"]).uniform(0.0, 1.0, case["n"])
    ledger = QueryLedger(budget=case["budget"])
    vector_game = VectorGame(model, x, masker, ledger, tag="oracle")
    game = DictMemo(vector_game) if reference else vector_game
    for bits in case["pre"]:
        game.values([bits])
    if case["fail_after"] is not None:
        model.fail_at = len(model.batches) + case["fail_after"]
    return game, model, ledger


def reference_shapley(memo: DictMemo, class_index):
    before, n = memo.evals_used, memo.game.n_atoms
    table = memo.values(np.arange(1 << n, dtype=np.int64))[class_index]
    phi = shapley_from_table(table, n)
    return phi.tobytes(), float(table[0]).hex(), memo.evals_used - before


def dense_shapley(game, class_index):
    attr = exact_shapley(ClassGame(game, class_index))
    return attr.values.tobytes(), attr.base_value.hex(), attr.evals_used


def every_class(engine, game, classes):
    """Per-class results, stopping at the first failure, and its type."""
    results = []
    for c in range(classes):
        try:
            results.append(engine(game, c))
        except (BudgetExhausted, ModelOutputError) as exc:
            return results, type(exc)
    return results, None


@st.composite
def cases(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    size = 1 << n
    pre = draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=min(size, 24)))
    extra = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=size + 1)))
    return {
        "n": n,
        "classes": draw(st.integers(min_value=2, max_value=4)),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "pre": pre,
        "budget": None if extra is None else max(1, len(set(pre)) + extra),
        "fail_after": draw(st.one_of(st.none(), st.integers(min_value=0, max_value=6))),
        # Small chunks put several batches, and so a mid-fill failure, into
        # a game of at most 1,024 coalitions.
        "chunk": draw(st.sampled_from([1, 2, 64, 4096])),
    }


@given(cases())
@settings(max_examples=150, deadline=None)
def test_dense_table_matches_memo_walk(case):
    with mock.patch.object(oracle, "_CHUNK", case["chunk"]):
        ref_game, ref_model, ref_ledger = twin(case, reference=True)
        ref, ref_error = every_class(reference_shapley, ref_game, case["classes"])
        game, model, ledger = twin(case)
        got, error = every_class(dense_shapley, game, case["classes"])

        assert got == ref
        assert error is ref_error
        assert game.evals_used == ref_game.evals_used
        assert ledger.evals_used == ref_ledger.evals_used
        assert ledger.by_tag == ref_ledger.by_tag
        assert model.batches == ref_model.batches

        masks = list(range(1 << case["n"]))
        calls, charged = len(model.batches), ledger.evals_used
        if error is None:
            # The fill added nothing to the memo, and every lookup now reads
            # the table at no charge, one mask at a time or all at once.
            assert len(game.memo) == len(set(case["pre"]))
            for c in range(case["classes"]):
                expected = ref_game.values(masks)[c].tobytes()
                assert ClassGame(game, c).value_batch(np.array(masks)).tobytes() == expected
                assert game.values(masks)[c].tobytes() == expected
            for bits in masks:
                assert game.values([bits]).tobytes() == ref_game.values([bits]).tobytes()
        else:
            # Every coalition charged and evaluated before the failure is
            # memoized as the reference memoized it; nothing else is cached.
            assert_index_matches(game, ref_game)
            kept = list(ref_game.memo)
            assert game.values(kept).tobytes() == ref_game.values(kept).tobytes()
        assert len(model.batches) == calls
        assert ledger.evals_used == charged


def test_fill_reads_the_memo_without_charging_it_again():
    case = {"n": 6, "classes": 3, "seed": 11, "pre": [0, 63, 5, 40], "budget": 64,
            "fail_after": None}
    game, model, ledger = twin(case)
    assert ledger.evals_used == 4
    attr = exact_shapley(ClassGame(game, 1))
    assert attr.evals_used == 60
    assert ledger.evals_used == 64
    assert len(model.batches) == 5  # four lookups, then one batch of 60
    # The other classes read the same table.
    for c in (0, 2):
        assert exact_shapley(ClassGame(game, c)).evals_used == 0
    assert ledger.evals_used == 64 and len(game.memo) == 4


@st.composite
def batch_cases(draw):
    case = draw(cases())
    size = 1 << case["n"]
    queries = draw(st.lists(st.integers(min_value=0, max_value=size - 1),
                             max_size=min(3 * size, 160)))
    # Leading with the memoized coalitions gives all-hit chunks; the random
    # rest gives partly hit and all-miss ones.
    case["masks"] = (case["pre"] if draw(st.booleans()) else []) + queries
    case["chunk"] = draw(st.sampled_from([1, 3, 64]))
    return case


@given(batch_cases())
@settings(max_examples=150, deadline=None)
def test_value_batch_matches_miss_first_walk(case):
    masks = np.array(case["masks"], dtype=np.int64)
    with mock.patch.object(oracle, "_CHUNK", case["chunk"]):
        # The reference finds each chunk's misses in a dict before it reads
        # the chunk.
        ref_game, ref_model, ref_ledger = twin(case, reference=True)
        ref, ref_error = every_class(
            lambda g, c: g.values(masks)[c].tobytes(), ref_game, case["classes"])
        game, model, ledger = twin(case)
        got, error = every_class(
            lambda g, c: ClassGame(g, c).value_batch(masks).tobytes(), game, case["classes"])

        assert got == ref
        assert error is ref_error
        assert game.evals_used == ref_game.evals_used
        assert ledger.evals_used == ref_ledger.evals_used
        assert ledger.by_tag == ref_ledger.by_tag
        assert model.batches == ref_model.batches
        assert_index_matches(game, ref_game)

        if error is None:
            # Every queried coalition is memoized now: reading them again
            # charges and evaluates nothing.
            calls, charged, used = len(model.batches), dict(ledger.by_tag), game.evals_used
            for c in range(case["classes"]):
                again = ClassGame(game, c).value_batch(masks)
                assert again.tobytes() == got[c]
            assert len(model.batches) == calls
            assert ledger.by_tag == charged
            assert game.evals_used == used


class LayoutLog(RecordingModel):
    """A RecordingModel that also logs the strides of every batch."""

    def __init__(self, victim):
        super().__init__(victim)
        self.strides: list[tuple[int, ...]] = []

    def evaluate(self, batch):
        self.strides.append(np.asarray(batch).strides)
        return super().evaluate(batch)


def test_fill_sends_its_chunks_in_order_from_the_callers_thread():
    # 17 atoms: 32 chunks of 4,096 masks, none memoized.
    case = {"n": 17, "classes": 4, "seed": 5, "pre": [], "budget": None, "fail_after": None}
    ref_game = twin(case, reference=True)[0]
    game, model, ledger = twin(case, model_type=LayoutLog)
    with mock.patch.object(threading, "Thread", wraps=threading.Thread) as made:
        table = game.dense_table()
    assert made.call_count == 0
    assert len(model.batches) == 32
    for k, (batch, strides) in enumerate(zip(model.batches, model.strides)):
        expected = game.masker.masked_batch(range(k * 4096, (k + 1) * 4096))
        assert batch == repr(expected.shape).encode() + expected.tobytes()
        assert strides == expected.strides
    assert table.tobytes() == ref_game.values(np.arange(1 << 17)).tobytes()
    assert ledger.evals_used == game.evals_used == 1 << 17

    # The charge of chunk 5 fails: chunks 0-4 stay charged and are
    # memoized, and no later chunk reaches the ledger or the model.
    game, model, ledger = twin(dict(case, budget=5 * 4096 + 100))
    with pytest.raises(BudgetExhausted):
        game.dense_table()
    assert len(model.batches) == 5
    assert ledger.evals_used == len(game.memo) == 5 * 4096
    assert game.memo.tolist() == list(range(5 * 4096))
