"""exact_shapley's dense coalition table, and ClassGame.value_batch's
read through the sorted mask index, against the walks they replaced.

exact_shapley's reference is what it did before: every mask read in
ascending order through the dict memo (conftest.DictMemo), each chunk's
misses charged, evaluated and memoized, then shapley_from_table on the
class's column. value_batch's reference is the same dict memo walk. Each
pair runs on twin games (same model, input, pre-memoized coalitions and
budget) and must agree bit for bit, down to the model batches they send.
The fill split over several parts is checked against the fill on one part.
"""

import contextlib
import os
import sys
import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DictMemo, RecordingModel, assert_index_matches

from owenexplain import (
    BudgetExhausted,
    MaskerSpec,
    ModelOutputError,
    QueryLedger,
    VictimSpec,
    _kernels,
    build_atom_grid,
    exact_shapley,
    make_rng,
    make_victim,
    oracle,
)
from owenexplain._kernels import shapley_from_table
from owenexplain.oracle import ClassGame, VectorGame


def twin(case, reference: bool = False):
    """(game, model, ledger) with case's coalitions memoized one read each;
    under reference, game is a DictMemo of the VectorGame."""
    spec = VictimSpec(kind="linear_softmax", seed=case["seed"], num_classes=case["classes"],
                      input_shape=(case["n"],), weight_scale=3.0)
    model = RecordingModel(make_victim(spec))
    masker = MaskerSpec(grid=build_atom_grid((case["n"],), (1,)), fill="mean")
    x = make_rng(case["seed"]).uniform(0.0, 1.0, case["n"])
    ledger = QueryLedger(budget=case["budget"])
    vector_game = VectorGame(model, x, masker, ledger, tag="oracle")
    game = DictMemo(vector_game) if reference else vector_game
    for bits in case["pre"]:
        game.values([bits])
    if case["fail_after"] is not None:
        model.fail_at = len(model.batches) + case["fail_after"]
    if case.get("poison") is not None:
        model.poison = vector_game.masker.masked_batch([case["poison"]])[0]
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
        "chunk": draw(st.sampled_from([1, 3, 64, 4096])),
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


@contextlib.contextmanager
def split_fill(parts):
    """Every table splits over parts parts, with a thread switch requested
    every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(_kernels, "_SPLIT_MIN_SIZE", 1), \
                mock.patch.object(_kernels, "_MAX_PARTS", parts), \
                mock.patch.object(_kernels, "_cpu_count", lambda: parts):
            yield
    finally:
        sys.setswitchinterval(interval)


def batch_rows(batch: bytes) -> int:
    """Row count of a logged batch, from the repr of its shape."""
    return int(batch[1:batch.index(b",")])


@st.composite
def split_cases(draw):
    case = draw(cases())
    # A batch holding the poisoned coalition fails whichever part sends it,
    # so the failing chunk does not depend on the order of model calls.
    case["fail_after"] = None
    case["poison"] = draw(st.one_of(st.none(), st.integers(0, (1 << case["n"]) - 1)))
    case["chunk"] = draw(st.sampled_from([1, 3, 64]))
    # Three parts on two CPUs: more threads than cores.
    case["parts"] = draw(st.sampled_from([2, 3]))
    return case


@given(split_cases())
# The charge of chunk 10 fails with 2 evaluations left, which would cover
# chunk 11's one miss: no part may take it.
@example({"n": 8, "classes": 3, "seed": 1, "pre": [33, 34], "budget": 34, "fail_after": None,
          "chunk": 3, "poison": None, "parts": 2})
@settings(max_examples=100, deadline=None)
def test_split_fill_matches_one_part(case):
    with mock.patch.object(oracle, "_CHUNK", case["chunk"]):
        # n <= 10 never reaches _SPLIT_MIN_SIZE: the reference runs on one part.
        ref_game, ref_model, ref_ledger = twin(case)
        ref, ref_error = every_class(dense_shapley, ref_game, case["classes"])
        game, model, ledger = twin(case)
        calls, charged = len(model.batches), ledger.evals_used
        before = threading.active_count()
        with split_fill(case["parts"]):
            got, error = every_class(dense_shapley, game, case["classes"])
        assert threading.active_count() == before

    assert got == ref
    assert error is ref_error
    # Every row the fill sent was charged, and every charge was sent.
    assert sum(map(batch_rows, model.batches[calls:])) == ledger.evals_used - charged
    # Memoized: the coalitions of the chunks below the first failing one.
    assert game.memo.tobytes() == ref_game.memo.tobytes()
    assert game.memo_rows.tobytes() == ref_game.memo_rows.tobytes()
    assert (game._table[: len(game.memo)].tobytes()
            == ref_game._table[: len(ref_game.memo)].tobytes())
    assert game.evals_used == ref_game.evals_used
    if error is ModelOutputError:
        # The fill sent every batch one part sends, up to the failing one,
        # and the batches of the chunks other parts had taken by then.
        sent, one_part = Counter(model.batches), Counter(ref_model.batches)
        assert not one_part - sent
        extra = (sent - one_part).elements()
        assert ledger.evals_used - ref_ledger.evals_used == sum(map(batch_rows, extra))
    else:
        assert sorted(model.batches) == sorted(ref_model.batches)
        assert ledger.evals_used == ref_ledger.evals_used
        assert ledger.by_tag == ref_ledger.by_tag
    if error is None:
        assert game._dense.tobytes() == ref_game._dense.tobytes()


def fill_threads(game):
    """The threads dense_table started."""
    with mock.patch.object(threading, "Thread", wraps=threading.Thread) as made:
        game.dense_table()
    return made.call_count


def seventeen_atom_game():
    case = {"n": 17, "classes": 4, "seed": 5, "pre": [0, 3, 1 << 16], "budget": None,
            "fail_after": None}
    return twin(case)[0]


def test_split_fill_starts_one_thread_per_other_part():
    one, split = seventeen_atom_game(), seventeen_atom_game()
    with mock.patch.object(_kernels, "_cpu_count", lambda: 1):
        assert fill_threads(one) == 0
    with mock.patch.object(_kernels, "_cpu_count", lambda: 2):
        assert fill_threads(split) == 1
    assert split.dense_table().tobytes() == one.dense_table().tobytes()
    assert split.evals_used == one.evals_used == (1 << 17)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_fill_parts_follow_the_real_affinity():
    # No patching: under a one-CPU affinity (taskset -c 0) the fill runs on
    # the caller's thread alone, on two CPUs or more it starts one helper.
    game = seventeen_atom_game()
    assert fill_threads(game) == min(len(os.sched_getaffinity(0)), _kernels._MAX_PARTS) - 1
