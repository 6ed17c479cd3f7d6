import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from conftest import (
    ChargeLog,
    DictMemo,
    RecordingModel,
    additive_game,
    permutation_shapley,
    random_table_game,
    unanimity_game,
)

from owenexplain import (
    BudgetExhausted,
    ExplainConfig,
    MaskerSpec,
    Model,
    ModelOutputError,
    QueryLedger,
    TableGame,
    VictimSpec,
    build_atom_grid,
    build_partition_tree,
    exact_owen,
    explain_all_classes,
    exact_shapley,
    group_uniform_shapley,
    make_rng,
    make_victim,
    masked_game,
    oracle,
)
from owenexplain._kernels import shapley_from_table
from owenexplain.oracle import (
    ClassGame,
    VectorGame,
    _mask_dtype,
    _unions,
    shapley_weights,
)


class QuadraticGame:
    """v(S) = sum_{i in S} a_i + (sum_{i in S} b_i)**2 on masks of any width,
    evaluated without converting a mask to a fixed-width integer."""

    def __init__(self, n_atoms: int, seed: int):
        rng = make_rng(seed)
        self.n_atoms = n_atoms
        self.a = rng.uniform(-1.0, 1.0, n_atoms)
        self.b = rng.uniform(-1.0, 1.0, n_atoms)
        self.evals_used = 0

    def value_batch(self, masks) -> np.ndarray:
        width = (self.n_atoms + 7) // 8
        packed = b"".join([int(m).to_bytes(width, "little") for m in masks])
        members = np.unpackbits(
            np.frombuffer(packed, dtype=np.uint8).reshape(len(masks), width),
            axis=1, count=self.n_atoms, bitorder="little",
        ).astype(np.float64)
        self.evals_used += len(masks)
        return members @ self.a + (members @ self.b) ** 2


class TestExactShapley:
    def test_additive_game_returns_weights(self):
        attr = exact_shapley(additive_game([0.2, 0.5, 0.3]))
        assert np.allclose(attr.values, [0.2, 0.5, 0.3], atol=1e-12)

    def test_unanimity_pair_with_bystander(self):
        attr = exact_shapley(unanimity_game([0, 1], 3))
        assert np.allclose(attr.values, [0.5, 0.5, 0.0], atol=1e-12)

    def test_single_player_takes_surplus(self):
        attr = exact_shapley(TableGame(1, [0.1, 0.7]))
        assert np.allclose(attr.values, [0.6], atol=1e-12)
        assert attr.base_value == 0.1

    def test_matches_permutation_oracle(self):
        for seed in range(5):
            game = random_table_game(5, seed)
            attr = exact_shapley(game)
            assert np.allclose(attr.values, permutation_shapley(game), atol=1e-10)

    def test_guard_on_large_n(self):
        with pytest.raises(ValueError, match="exact_shapley guard: 21 atoms > 20"):
            exact_shapley(QuadraticGame(21, seed=0))
        # A masked 21-atom game is refused before the model is called.
        calls = []

        class Counting(Model):
            num_classes = 2
            input_shape = (21,)

            def evaluate(self, batch):
                calls.append(len(batch))
                return np.full((len(batch), 2), 0.5)

        masker = MaskerSpec(grid=build_atom_grid((21,), (1,)), fill="mean")
        game = masked_game(Counting(), np.zeros(21), masker, 0)
        with pytest.raises(ValueError, match="exact_shapley guard: 21 atoms > 20"):
            exact_shapley(game)
        assert calls == []
        assert game.evals_used == 0

    def test_weights_match_exact_rationals(self):
        for n in range(1, 13):
            approx = shapley_weights(n)
            for s in range(n):
                exact = Fraction(
                    math.factorial(s) * math.factorial(n - s - 1), math.factorial(n)
                )
                assert abs(approx[s] - float(exact)) <= 1e-12 * float(exact)


class TestExactOwen:
    def test_singleton_partition_equals_shapley(self):
        for seed in range(10):
            for n in range(2, 7):
                game = random_table_game(n, 100 * seed + n)
                singles = [[i] for i in range(n)]
                owen = exact_owen(game, singles)
                shap = exact_shapley(game)
                assert np.allclose(owen.values, shap.values, atol=1e-9)

    def test_symmetric_game_equal_shares(self):
        n = 4
        game = TableGame(n, [bin(b).count("1") / n for b in range(1 << n)])
        attr = exact_owen(game, [[0, 1], [2, 3]])
        assert np.allclose(attr.values, 0.25, atol=1e-12)

    def test_unanimity_with_grouped_pair(self):
        attr = exact_owen(unanimity_game([0, 1], 3), [[0, 1], [2]])
        assert np.allclose(attr.values, [0.5, 0.5, 0.0], atol=1e-12)

    def test_efficiency(self):
        for seed in range(5):
            game = random_table_game(6, seed + 7)
            attr = exact_owen(game, [[0, 1, 2], [3, 4], [5]])
            total = game.table[-1] - game.table[0]
            assert abs(attr.values.sum() - total) <= 1e-9

    def test_sum_starts_from_positive_zero(self):
        # The only marginal is -0.0 - 0.0 = -0.0; a sum started at +0.0,
        # like a loop's accumulator, returns +0.0.
        attr = exact_owen(TableGame(1, [0.0, -0.0]), [[0]])
        assert attr.values.tobytes() == np.zeros(1).tobytes()

    def test_masks_stay_exact_past_63_atoms(self):
        groups = [list(range(g * 6, g * 6 + 6)) for g in range(12)]
        game = QuadraticGame(72, seed=3)
        owen = exact_owen(game, groups)
        uniform = group_uniform_shapley(game, groups)
        full = game.value_batch([(1 << 72) - 1])[0]
        assert abs(owen.values.sum() + owen.base_value - full) <= 1e-9
        assert abs(uniform.values.sum() + uniform.base_value - full) <= 1e-9
        for g in groups:
            assert abs(owen.values[g].sum() - uniform.values[g].sum()) <= 1e-9

    def test_game_sees_ascending_masks_past_63_atoms(self):
        # Interleaved groups put every group's members in both 64-bit words.
        batches = []

        class Recording(QuadraticGame):
            def value_batch(self, masks):
                batches.append([int(m) for m in masks])
                return super().value_batch(masks)

        exact_owen(Recording(72, seed=5), [list(range(g, 72, 9)) for g in range(9)])
        # One read per chunk of 4,096 masks that holds a mask no earlier
        # group read: each group's 2**16 masks hold 16 chunks, and from the
        # second group on, 2 * 2**8 of them are unions of whole groups that
        # the first group read.
        assert len(batches) == 9 * 16
        for batch in batches:
            assert all(a < b for a, b in zip(batch, batch[1:]))
        read = [bits for batch in batches for bits in batch]
        assert len(set(read)) == len(read) == (1 << 16) + 8 * ((1 << 16) - (1 << 9))

    def test_rejects_bad_partitions(self):
        game = random_table_game(4, 0)
        with pytest.raises(ValueError):
            exact_owen(game, [[0, 1], [1, 2, 3]])
        with pytest.raises(ValueError):
            exact_owen(game, [[0, 1]])

    @pytest.mark.parametrize("engine", [exact_owen, group_uniform_shapley])
    def test_rejects_an_empty_group(self, engine):
        # Without the check, group-uniform divides 0 by 0 and Owen reads
        # every coalition twice for a dummy group.
        game = random_table_game(3, 1)
        with pytest.raises(ValueError, match="groups must not be empty"):
            engine(game, [[0, 1, 2], []])
        with pytest.raises(ValueError, match="groups must not be empty"):
            engine(ClassGame(small_game(), 0), [[], *SMALL_GROUPS])
        assert game.evals_used == 0


class TestGroupUniform:
    def test_singleton_groups_equal_shapley(self):
        game = random_table_game(6, 3)
        uniform = group_uniform_shapley(game, [[i] for i in range(6)])
        shap = exact_shapley(game)
        assert np.allclose(uniform.values, shap.values, atol=1e-12)

    def test_constant_game_all_zero(self):
        game = TableGame(4, np.full(16, 0.7))
        attr = group_uniform_shapley(game, [[0, 1], [2, 3]])
        assert np.array_equal(attr.values, np.zeros(4))

    def test_group_symmetric_victim_matches_brute_force(self):
        # Property-4 limit: group-homogeneous game, inputs constant per
        # group, affine victim -> group-uniform equals exact Shapley.
        sizes = (2, 2, 2)
        spec = VictimSpec(kind="group_symmetric", seed=21, num_classes=3,
                          input_shape=(6,), group_sizes=sizes)
        model = make_victim(spec)
        rng = make_rng(9)
        per_group = rng.uniform(0, 1, len(sizes))
        x = np.repeat(per_group, sizes)
        masker = MaskerSpec(grid=build_atom_grid((6,), (1,)), fill="baseline",
                            baseline=np.zeros(6))
        game = masked_game(model, x, masker, class_index=1)
        groups = [[0, 1], [2, 3], [4, 5]]
        uniform = group_uniform_shapley(game, groups)
        shap = exact_shapley(game)
        assert np.allclose(uniform.values, shap.values, atol=1e-9)


class TestAxioms:
    def test_efficiency_100_random_games(self):
        for seed in range(100):
            n = 2 + seed % 7
            game = random_table_game(n, seed)
            attr = exact_shapley(game)
            total = game.table[-1] - game.table[0]
            assert abs(attr.values.sum() - total) <= 1e-9

    def test_missingness_dead_player(self):
        rng = make_rng(5)
        n = 5
        sub = rng.uniform(-1, 1, 1 << (n - 1))
        table = np.empty(1 << n)
        for bits in range(1 << n):
            reduced = (bits & 0b11) | ((bits >> 1) & ~0b11 & ((1 << (n - 1)) - 1))
            table[bits] = sub[reduced]  # value ignores player 2
        attr = exact_shapley(TableGame(n, table))
        assert attr.values[2] == 0.0

    def test_consistency_unanimity_boost(self):
        for seed in range(10):
            game = random_table_game(4, seed)
            i = seed % 4
            boosted = TableGame(
                4,
                [game.table[b] + (1.0 if (b >> i) & 1 else 0.0) for b in range(16)],
            )
            assert exact_shapley(boosted).values[i] >= exact_shapley(game).values[i] - 1e-12

    def test_symmetry_of_symmetrized_games(self):
        def swap_bits(bits, i, j):
            bi, bj = (bits >> i) & 1, (bits >> j) & 1
            out = bits & ~((1 << i) | (1 << j))
            return out | (bi << j) | (bj << i)

        for seed in range(5):
            game = random_table_game(5, seed + 50)
            i, j = 1, 3
            table = [(game.table[b] + game.table[swap_bits(b, i, j)]) / 2 for b in range(32)]
            attr = exact_shapley(TableGame(5, table))
            assert abs(attr.values[i] - attr.values[j]) <= 1e-12


class TestMaskedGame:
    def test_value_batch_charges_every_call(self):
        spec = VictimSpec(kind="linear_softmax", seed=2, num_classes=3, input_shape=(4,))
        model = RecordingModel(make_victim(spec))
        masker = MaskerSpec(grid=build_atom_grid((4,), (1,)), fill="mean")
        ledger = ChargeLog()
        game = masked_game(model, make_rng(0).uniform(0, 1, 4), masker, 0, ledger=ledger)
        first = game.value_batch([0b0101])
        assert ledger.evals_used == game.evals_used == 1
        # No memo: the same coalition, or a repeated one, is charged and
        # evaluated again, one read per call.
        again = game.value_batch([0b0101, 0b0101, 0b1111])
        assert ledger.charges == [(1, "oracle"), (3, "oracle")]
        assert game.evals_used == 4 and len(model.batches) == 2
        assert np.allclose(again[:2], first[0], rtol=0, atol=1e-12)
        assert again.tobytes() == game.vector_game.read([5, 5, 15])[:, 0].tobytes()

    def test_read_charges_once_or_not_at_all(self):
        spec = VictimSpec(kind="linear_softmax", seed=2, num_classes=3, input_shape=(4,))
        masker = MaskerSpec(grid=build_atom_grid((4,), (1,)), fill="mean")
        ledger = QueryLedger(budget=3)
        model = RecordingModel(make_victim(spec))
        vg = VectorGame(model, make_rng(0).uniform(0, 1, 4), masker, ledger)
        # Two coalitions: over a limit of one, nothing is charged or sent.
        with pytest.raises(BudgetExhausted):
            vg.read([1, 2], limit=1)
        assert ledger.evals_used == vg.evals_used == len(model.batches) == 0
        out = vg.read([1, 2], limit=2)
        assert ledger.by_tag == {"explain": 2} and vg.evals_used == 2
        assert out.tobytes() == model.victim.evaluate(vg.masker.masked_batch([1, 2])).tobytes()
        # Two more coalitions, one evaluation left on the ledger.
        with pytest.raises(BudgetExhausted):
            vg.read([4, 8])
        assert ledger.evals_used == vg.evals_used == 2 and len(model.batches) == 1
        # A read memoizes nothing: reading a coalition again charges again.
        again = vg.read([2])
        assert ledger.evals_used == vg.evals_used == 3 and len(model.batches) == 2
        assert np.allclose(again, out[1:], rtol=0, atol=1e-12)

    def test_vector_game_serves_all_classes(self):
        spec = VictimSpec(kind="linear_softmax", seed=2, num_classes=4, input_shape=(4,))
        model = make_victim(spec)
        masker = MaskerSpec(grid=build_atom_grid((4,), (1,)), fill="mean")
        ledger = QueryLedger()
        vg = VectorGame(model, make_rng(0).uniform(0, 1, 4), masker, ledger)
        vec = vg.read([0b1100])[0]
        assert vec.shape == (4,)
        assert ledger.evals_used == 1

    def test_oracle_engines_agree_on_masked_games(self):
        spec = VictimSpec(kind="linear_softmax", seed=4, num_classes=3, input_shape=(5,))
        model = make_victim(spec)
        masker = MaskerSpec(grid=build_atom_grid((5,), (1,)), fill="mean")
        x = make_rng(2).uniform(0, 1, 5)
        game = masked_game(model, x, masker, 1)
        owen = exact_owen(game, [[i] for i in range(5)])
        shap = exact_shapley(game)
        assert np.allclose(owen.values, shap.values, atol=1e-9)


class OneClassGame:
    """ClassGame as the engines read it one class at a time: it has only
    value_batch, so exact_owen and group_uniform_shapley take their
    one-class path. Masks are read through the memo walk (DictMemo), so
    this is also the reference for the Owen engines' read plan."""

    def __init__(self, memo: DictMemo, class_index: int):
        self.memo = memo
        self.class_index = class_index
        self.n_atoms = memo.game.n_atoms

    @property
    def evals_used(self) -> int:
        return self.memo.evals_used

    def value_batch(self, masks) -> np.ndarray:
        return self.memo.values(masks)[self.class_index]


def loop_owen(game, groups):
    """exact_owen of one class, one atom at a time: each atom's terms in a
    1-D cumsum from 0.0. Returns (values, base value, evals used)."""
    n, m = game.n_atoms, len(groups)
    before, dtype = game.evals_used, _mask_dtype(n)
    group_bits = [sum(1 << i for i in g) for g in groups]
    outer_w = shapley_weights(m)
    phi = np.zeros(n)
    for gi, members in enumerate(groups):
        contexts, q_sizes = _unions([group_bits[h] for h in range(m) if h != gi], dtype)
        subsets, s_sizes = _unions([1 << atom for atom in members], dtype)
        masks = (contexts[:, None] | subsets[None, :]).reshape(-1)
        order = np.argsort(masks)
        values = np.empty(masks.size)
        values[order] = game.value_batch(masks[order])
        values = values.reshape(len(contexts), len(subsets))
        inner_w = np.append(shapley_weights(len(members)), 0.0)
        weights = outer_w[q_sizes][:, None] * inner_w[s_sizes][None, :]
        for j, atom in enumerate(members):
            split = values.reshape(len(contexts), -1, 2, 1 << j)
            w = weights.reshape(len(contexts), -1, 2, 1 << j)[:, :, 0]
            terms = w * (split[:, :, 1] - split[:, :, 0])
            phi[atom] = np.cumsum(np.append(0.0, terms))[-1]
    base = float(game.value_batch(np.zeros(1, dtype=dtype))[0])
    return phi, base, game.evals_used - before


def loop_group_uniform(game, groups):
    """group_uniform_shapley of one class. Returns (values, base value,
    evals used)."""
    before = game.evals_used
    masks, _ = _unions([sum(1 << i for i in g) for g in groups], _mask_dtype(game.n_atoms))
    table = np.asarray(game.value_batch(masks), dtype=np.float64)
    group_phi = shapley_from_table(table, len(groups))
    phi = np.zeros(game.n_atoms)
    for gi, members in enumerate(groups):
        phi[members] = group_phi[gi] / len(members)
    return phi, float(table[0]), game.evals_used - before


LOOP_REFERENCE = {exact_owen: loop_owen, group_uniform_shapley: loop_group_uniform}


# Owen partitions: 48 atoms in 8 groups of 6 (int64 masks), 72 atoms in 8
# interleaved groups of 9, each with members in both 64-bit words (object
# masks), and 12 atoms in uneven groups whose first and last are
# singletons.
CLASS_MAJOR_CASES = {
    48: ((6, 8), [[row * 8 + col for row in range(6)] for col in range(8)]),
    72: ((72,), [list(range(g, 72, 8)) for g in range(8)]),
    12: ((12,), [[7], [0, 2, 4], [1, 3], [5, 6, 8, 9, 10], [11]]),
}


class DigestModel(RecordingModel):
    """A RecordingModel that logs a SHA-256 digest of each batch, not its
    bytes: a 72-atom Owen call sends about 300 MB of batches."""

    def evaluate(self, batch):
        out = super().evaluate(batch)
        self.batches[-1] = hashlib.sha256(self.batches[-1]).digest()
        return out


def class_major_game(n: int, ledger: QueryLedger | None):
    shape, _ = CLASS_MAJOR_CASES[n]
    spec = VictimSpec(kind="linear_softmax", seed=n, num_classes=4, input_shape=shape,
                      weight_scale=3.0)
    model = DigestModel(make_victim(spec))
    masker = MaskerSpec(grid=build_atom_grid(shape, (1,) * len(shape)), fill="blur")
    x = make_rng(n).uniform(0.0, 1.0, masker.grid.n_cells)
    return VectorGame(model, x, masker, ledger, tag="oracle"), model


def small_game(ledger: QueryLedger | None = None) -> VectorGame:
    spec = VictimSpec(kind="linear_softmax", seed=8, num_classes=3, input_shape=(3, 4),
                      weight_scale=3.0)
    masker = MaskerSpec(grid=build_atom_grid((3, 4), (1, 1)), fill="mean")
    return VectorGame(make_victim(spec), make_rng(8).uniform(0.0, 1.0, 12), masker, ledger)


SMALL_GROUPS = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]


class TestClassMajor:
    """exact_shapley, exact_owen and group_uniform_shapley read a
    ClassGame's VectorGame once for every class and share the result with
    the other classes."""

    @pytest.mark.parametrize("engine", [exact_owen, group_uniform_shapley])
    @pytest.mark.parametrize("ledger", [False, True])
    @pytest.mark.parametrize("n", [12, 48, 72])
    def test_every_class_matches_the_one_class_path(self, n, ledger, engine):
        groups = CLASS_MAJOR_CASES[n][1]
        ref_game, ref_model = class_major_game(n, ChargeLog() if ledger else None)
        ref_memo = DictMemo(ref_game)
        ref = [LOOP_REFERENCE[engine](OneClassGame(ref_memo, c), groups) for c in range(4)]
        game, model = class_major_game(n, ChargeLog() if ledger else None)
        got = [engine(ClassGame(game, c), groups) for c in range(4)]
        for c, (attr, (values, base, _)) in enumerate(zip(got, ref)):
            assert attr.values.tobytes() == values.tobytes()
            assert attr.base_value.hex() == base.hex()
            assert attr.class_index == c
        # The one-class path of the same engine gives the same bits.
        one_class = engine(OneClassGame(ref_memo, 3), groups)
        assert one_class.values.tobytes() == got[3].values.tobytes()
        assert [a.evals_used for a in got] == [r[2] for r in ref] == [game.evals_used, 0, 0, 0]
        assert Counter(model.batches) == Counter(ref_model.batches)
        if ledger:
            assert game.ledger.charges == ref_game.ledger.charges
            assert game.ledger.evals_used == game.evals_used

    @pytest.mark.parametrize("engine", [exact_owen, group_uniform_shapley])
    def test_returned_values_are_copies(self, engine):
        game = small_game()
        first = engine(ClassGame(game, 1), SMALL_GROUPS)
        kept = first.values.tobytes()
        first.values[:] = 7.0
        assert engine(ClassGame(game, 1), SMALL_GROUPS).values.tobytes() == kept
        assert engine(ClassGame(game, 0), SMALL_GROUPS).values.tobytes() == engine(
            ClassGame(small_game(), 0), SMALL_GROUPS).values.tobytes()

    @pytest.mark.parametrize("engine", [exact_owen, group_uniform_shapley])
    def test_reordered_partition_has_its_own_entry(self, engine):
        game = small_game()
        engine(ClassGame(game, 0), SMALL_GROUPS)
        reordered = SMALL_GROUPS[::-1]
        got = engine(ClassGame(game, 2), reordered)
        expected = engine(ClassGame(small_game(), 2), reordered)
        assert got.values.tobytes() == expected.values.tobytes()
        # No memo: the reordered partition reads its coalitions again.
        assert got.evals_used == expected.evals_used > 0
        assert len(game._attributions) == 2
        # Members listed in another order give the same checked partition.
        engine(ClassGame(game, 1), [g[::-1] for g in SMALL_GROUPS])
        assert len(game._attributions) == 2

    @pytest.mark.parametrize("engine", [exact_owen, group_uniform_shapley])
    def test_budget_exhausted_midway_caches_nothing(self, engine):
        expected = engine(ClassGame(small_game(), 1), SMALL_GROUPS)
        ledger = QueryLedger(budget=expected.evals_used - 1)
        game = small_game(ledger)
        with pytest.raises(BudgetExhausted):
            engine(ClassGame(game, 0), SMALL_GROUPS)
        assert game._attributions == {}
        charged = ledger.evals_used
        # A retry reads every coalition again.
        ledger.budget = None
        got = engine(ClassGame(game, 1), SMALL_GROUPS)
        assert got.values.tobytes() == expected.values.tobytes()
        assert got.evals_used == expected.evals_used
        assert ledger.evals_used == charged + expected.evals_used

    def test_shapley_classes_share_one_kernel_call(self):
        game = small_game(QueryLedger())
        with mock.patch.object(oracle._kernels, "shapley_fold",
                               wraps=oracle._kernels.shapley_fold) as kernel:
            got = [exact_shapley(ClassGame(game, c)) for c in (2, 0, 1)]
        assert kernel.call_count == 1
        assert [a.evals_used for a in got] == [1 << 12, 0, 0]
        assert game.ledger.evals_used == 1 << 12
        for attr, c in zip(got, (2, 0, 1)):
            row = ClassGame(small_game(), c).full_table()
            assert attr.values.tobytes() == shapley_from_table(row, 12).tobytes()
            assert attr.base_value.hex() == float(row[0]).hex()
            assert attr.class_index == c
        # The returned values are copies of the kept rows.
        got[0].values[:] = 7.0
        assert exact_shapley(ClassGame(game, 2)).values.tobytes() == (
            shapley_from_table(ClassGame(small_game(), 2).full_table(), 12).tobytes())

    def test_shapley_budget_exhausted_caches_nothing(self):
        game = small_game(QueryLedger(budget=(1 << 12) - 1))
        with pytest.raises(BudgetExhausted):
            exact_shapley(ClassGame(game, 0))
        assert game._attributions == {}


def residues(game, masks):
    """Stands in for VectorGame.evaluate_misses: logs the masks of each
    batch on the game's model and returns, for each mask, its residues
    modulo four primes as the four classes' outputs."""
    game.model.batches.append([int(bits) for bits in masks])
    return np.array([[int(bits) % p for p in (101, 103, 107, 109)] for bits in masks],
                    dtype=np.float64).reshape(len(masks), 4)


class TestOwenPlan:
    """exact_owen reads each distinct coalition once, from a plan that the
    partition fixes: its batches, in order, and its ledger charges are
    those of the memo walk (DictMemo) over every group's ascending masks,
    chunk by chunk. A model batch is the masked batch of its masks, so the
    masks of each batch are compared; at 72 atoms a chunk of one mask
    makes about 520,000 reads, too many to send through the model."""

    @pytest.mark.parametrize("chunk", [1, 2, 64])
    @pytest.mark.parametrize("n", sorted(CLASS_MAJOR_CASES))
    def test_reads_match_the_memo_walk(self, n, chunk):
        groups = CLASS_MAJOR_CASES[n][1]
        with mock.patch.object(oracle, "_CHUNK", chunk), mock.patch.object(
                VectorGame, "evaluate_misses", residues):
            ref_game, ref_model = class_major_game(n, ChargeLog())
            values, base, used = loop_owen(OneClassGame(DictMemo(ref_game), 2), groups)
            game, model = class_major_game(n, ChargeLog())
            got = exact_owen(ClassGame(game, 2), groups)
        assert got.values.tobytes() == values.tobytes()
        assert got.base_value.hex() == base.hex()
        assert model.batches == ref_model.batches
        assert game.ledger.charges == ref_game.ledger.charges
        assert got.evals_used == game.evals_used == game.ledger.evals_used == used

    @pytest.mark.parametrize("failing_chunk", [0, 1, 3, 4, 11])
    def test_budget_exhausted_keeps_the_chunks_before_it(self, failing_chunk):
        # Chunks of 64 masks: one read for the first group, 2 for the
        # second, 1 for the third, 8 for the fourth and none for the last
        # singleton, whose masks are all unions of whole groups.
        groups = CLASS_MAJOR_CASES[12][1]
        with mock.patch.object(oracle, "_CHUNK", 64):
            fresh, fresh_model = class_major_game(12, ChargeLog())
            expected = exact_owen(ClassGame(fresh, 1), groups)
            charges = fresh.ledger.charges
            assert len(charges) == 12
            before = sum(k for k, _ in charges[:failing_chunk])
            game, model = class_major_game(12, ChargeLog(
                budget=before + charges[failing_chunk][0] - 1))
            with pytest.raises(BudgetExhausted):
                exact_owen(ClassGame(game, 1), groups)
            assert game.ledger.charges == charges[:failing_chunk]
            assert model.batches == fresh_model.batches[:failing_chunk]
            assert game.evals_used == game.ledger.evals_used == before
            assert game._attributions == {}
            # A retry charges every chunk again, with the same bits.
            game.ledger.budget = None
            got = exact_owen(ClassGame(game, 1), groups)
        assert got.values.tobytes() == expected.values.tobytes()
        assert got.base_value.hex() == expected.base_value.hex()
        assert got.evals_used == expected.evals_used
        assert game.ledger.charges == charges[:failing_chunk] + charges
        assert model.batches == fresh_model.batches[:failing_chunk] + fresh_model.batches


class BrokenModel(Model):
    """Returns NaN rows, or rows with one class too many."""

    def __init__(self, fault: str):
        self.num_classes = 2
        self.input_shape = (4,)
        self.fault = fault

    def evaluate(self, batch):
        if self.fault == "nan":
            return np.full((len(batch), 2), np.nan)
        return np.full((len(batch), 3), 1.0 / 3.0)


class TestModelOutputChecks:
    masker = MaskerSpec(grid=build_atom_grid((4,), (1,)), fill="mean")
    x = np.array([0.1, 0.4, 0.7, 0.2])

    @pytest.mark.parametrize("fault", ["nan", "shape"])
    def test_exact_shapley_fails_loudly(self, fault):
        vg = VectorGame(BrokenModel(fault), self.x, self.masker)
        with pytest.raises(ModelOutputError):
            exact_shapley(ClassGame(vg, 0))
        assert vg.evals_used == 0

    @pytest.mark.parametrize("fault", ["nan", "shape"])
    def test_explain_all_classes_fails_loudly(self, fault):
        cfg = ExplainConfig(masker=self.masker, tree=build_partition_tree(self.masker.grid),
                            max_evals=None)
        with pytest.raises(ModelOutputError):
            explain_all_classes(self.x, BrokenModel(fault), cfg)
