"""exact_shapley's dense coalition table, and ClassGame.value_batch's
read through the sorted mask index, against the walks they replaced.

exact_shapley's reference, on a game it reads through
VectorGame.dense_table, is what it did before: every mask read in
ascending order through the dict memo (conftest.DictMemo), each chunk's
misses charged, evaluated and memoized, then shapley_from_table on the
class's column. value_batch's reference is the same dict memo walk. Each
pair runs on twin games (same model, input, pre-memoized coalitions and
budget) and must agree bit for bit, down to the model batches they send.
A 17-atom fill is checked chunk by chunk against masked_batch.

A game with no memoized coalition streams its Shapley values instead
(VectorGame.shapley_pairs): it must send the fill's batches, byte for
byte, in the kernel's row order, give the table path's bits, keep no
table, and on a failure keep nothing but the charges of what it fetched.
"""

import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ChargeLog, DictMemo, RecordingModel, assert_index_matches

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
from owenexplain import _kernels
from owenexplain._kernels import shapley_from_table
from owenexplain.oracle import ClassGame, VectorGame


def twin(case, reference: bool = False, model_type=RecordingModel, ledger_type=QueryLedger):
    """(game, model, ledger) with case's coalitions memoized one read each;
    under reference, game is a DictMemo of the VectorGame."""
    spec = VictimSpec(kind="linear_softmax", seed=case["seed"], num_classes=case["classes"],
                      input_shape=(case["n"],), weight_scale=3.0)
    model = model_type(make_victim(spec))
    masker = MaskerSpec(grid=build_atom_grid((case["n"],), (1,)), fill="mean")
    x = make_rng(case["seed"]).uniform(0.0, 1.0, case["n"])
    ledger = ledger_type(budget=case["budget"])
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
    """exact_shapley through the dense table: a game with no memoized
    coalition would stream instead (see the stream tests below)."""
    before = game.evals_used
    game.dense_table()
    attr = exact_shapley(ClassGame(game, class_index))
    return attr.values.tobytes(), attr.base_value.hex(), game.evals_used - before


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


def stream_case(n: int, **given) -> dict:
    return {"n": n, "classes": 4, "seed": 5, "pre": [], "budget": None, "fail_after": None} | given


def every_shapley(game, classes: int) -> list:
    attrs = [exact_shapley(ClassGame(game, c)) for c in range(classes)]
    return [(a.values.tobytes(), a.base_value.hex()) for a in attrs]


def row_order(n: int, step: int) -> list[int]:
    """The chunk starts of an n-atom stream: rows in bit-reversed order,
    each row's chunks in the lower half table, then its twin's in the
    upper half, ascending."""
    row_bits, col_bits = _kernels.row_split(n)
    rank = {r: k for k, r in enumerate(_kernels.bit_reversed(row_bits).tolist())}
    rows = (1 << row_bits) - 1
    return sorted(range(0, 1 << n, step),
                  key=lambda s: (rank[s >> col_bits & rows], s >> (n - 1), s))


@pytest.mark.parametrize("n, chunk", [(17, 4096), (16, 4096), (13, 4096), (10, 4096),
                                      (13, 64), (10, 1), (10, 2), (10, 64)])
def test_stream_sends_the_fill_batches_in_row_order(n, chunk):
    with mock.patch.object(oracle, "_CHUNK", chunk):
        filled, fill_model, _ = twin(stream_case(n), model_type=LayoutLog)
        filled.dense_table()
        game, model, ledger = twin(stream_case(n), model_type=LayoutLog, ledger_type=ChargeLog)
        got = every_shapley(game, 4)
        step = min(chunk, 1 << n)
        starts = row_order(n, step)
        assert model.batches == [fill_model.batches[s // step] for s in starts]
        assert model.strides == [fill_model.strides[s // step] for s in starts]
        assert ledger.charges == [(step, "oracle")] * len(starts)
        assert got == every_shapley(filled, 4)
        assert game.evals_used == ledger.evals_used == 1 << n
        # No table and no memo are kept: a later lookup evaluates again.
        assert len(game.memo) == 0 and game._dense is None
        table = ClassGame(game, 2).full_table()
        assert table.tobytes() == filled.dense_table()[2].tobytes()
        assert ledger.evals_used == 2 << n


@pytest.mark.parametrize("error", [BudgetExhausted, ModelOutputError])
@pytest.mark.parametrize("n, chunk, k", [(17, 4096, 0), (17, 4096, 5), (10, 64, 7), (10, 1, 300)])
def test_failed_stream_keeps_only_its_charges(error, n, chunk, k):
    with mock.patch.object(oracle, "_CHUNK", chunk):
        fresh, fresh_model, _ = twin(stream_case(n))
        expected = every_shapley(fresh, 4)
        # Chunk k's charge fails, or its outputs are NaN after it is charged.
        if error is BudgetExhausted:
            game, model, ledger = twin(stream_case(n, budget=(k + 1) * chunk - 1))
            fetched = k
        else:
            game, model, ledger = twin(stream_case(n, fail_after=k))
            fetched = k + 1
        with pytest.raises(error):
            exact_shapley(ClassGame(game, 1))
        assert model.batches == fresh_model.batches[:fetched]
        assert ledger.evals_used == fetched * chunk
        assert game.evals_used == k * chunk
        assert len(game.memo) == 0 and game._dense is None
        assert game._attributions == {}
        # A retry streams every coalition again, with the same bits.
        ledger.budget, model.fail_at = None, None
        assert every_shapley(game, 4) == expected
        assert ledger.evals_used == fetched * chunk + (1 << n)
        assert model.batches[fetched:] == fresh_model.batches


def test_stream_of_four_classes_at_20_atoms_keeps_no_table():
    # The dense table would be 32 MB: 4 classes x 2**20 float64. The stream
    # keeps the kernel's stack of rows, two rows of outputs and one chunk
    # buffer, about 6 MB.
    spec = VictimSpec(kind="linear_softmax", seed=3, num_classes=4, input_shape=(4, 5),
                      weight_scale=3.0)
    masker = MaskerSpec(grid=build_atom_grid((4, 5), (1, 1)), fill="blur")
    x = make_rng(3).uniform(0.0, 1.0, 20)
    game = VectorGame(make_victim(spec), x, masker)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        attrs = [exact_shapley(ClassGame(game, c)) for c in range(4)]
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert [a.evals_used for a in attrs] == [1 << 20, 0, 0, 0]
