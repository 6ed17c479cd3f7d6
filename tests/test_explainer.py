import numpy as np
import pytest

from owenexplain import (
    BudgetTooSmall,
    ExplainConfig,
    MaskerSpec,
    Model,
    QueryLedger,
    VictimSpec,
    build_atom_grid,
    build_partition_tree,
    choose_depth,
    exact_shapley,
    explain,
    explain_all_classes,
    make_rng,
    make_victim,
    masked_game,
)

ADDITIVE_KIND = "group_symmetric"  # singleton groups give affine outputs


def additive_victim(n_cells: int, seed: int = 3, num_classes: int = 3):
    """Victim whose class outputs are affine in the cells, so the masked
    coalition game is additive."""
    return make_victim(
        VictimSpec(
            kind=ADDITIVE_KIND,
            seed=seed,
            num_classes=num_classes,
            input_shape=(n_cells,),
            group_sizes=tuple([1] * n_cells),
        )
    )


def setup(n_cells=8, fill="baseline", block=1, seed=3):
    model = additive_victim(n_cells, seed=seed)
    grid = build_atom_grid((n_cells,), (block,))
    baseline = np.zeros(n_cells) if fill == "baseline" else None
    masker = MaskerSpec(grid=grid, fill=fill, baseline=baseline)
    tree = build_partition_tree(grid)
    return model, masker, tree


class TestExplainContracts:
    def test_budget_two_splits_root_uniformly(self):
        model, masker, tree = setup()
        cfg = ExplainConfig(masker=masker, tree=tree, max_evals=2, target=0)
        x = make_rng(0).uniform(0, 1, 8)
        attr = explain(x, model, cfg)
        expected = (model.evaluate_one(x)[0] - attr.base_value) / 8
        assert np.allclose(attr.values, expected, atol=1e-12)
        assert attr.evals_used == 2

    def test_additive_victim_matches_exact_shapley(self):
        model, masker, tree = setup()
        cfg = ExplainConfig(masker=masker, tree=tree, max_evals=None, target=1)
        x = make_rng(1).uniform(0, 1, 8)
        attr = explain(x, model, cfg)
        oracle = exact_shapley(masked_game(model, x, masker, 1))
        assert np.allclose(attr.values, oracle.values, atol=1e-9)

    def test_additive_per_atom_weight_identity(self):
        # additive victim, baseline fill b: atom phi = sum of per-cell
        # affine weights times (x - b) over the atom's cells
        n = 8
        model = additive_victim(n, seed=5)
        grid = build_atom_grid((n,), (2,))
        masker = MaskerSpec(grid=grid, fill="baseline", baseline=np.zeros(n))
        tree = build_partition_tree(grid)
        x = make_rng(2).uniform(0, 1, n)
        cfg = ExplainConfig(masker=masker, tree=tree, max_evals=None, target=0)
        attr = explain(x, model, cfg)
        weights = model.A[0] @ model.group_mean  # per-cell affine weights
        expected = [weights[2 * a : 2 * a + 2] @ x[2 * a : 2 * a + 2] for a in range(4)]
        assert np.allclose(attr.values, expected, atol=1e-9)

    def test_constant_model_stops_at_root(self):
        class Constant:
            num_classes = 2
            input_shape = (4,)
            n_cells = 4
            def evaluate(self, batch):
                return np.tile([0.25, 0.75], (len(batch), 1))
            def evaluate_one(self, x):
                return np.array([0.25, 0.75])

        grid = build_atom_grid((4,), (1,))
        masker = MaskerSpec(grid=grid, fill="mean")
        cfg = ExplainConfig(masker=masker, tree=build_partition_tree(grid),
                            max_evals=1000, target=0)
        attr = explain(np.ones(4), Constant(), cfg)
        assert attr.evals_used == 2
        assert np.array_equal(attr.values, np.zeros(4))

    def test_budget_below_two_rejected(self):
        model, masker, tree = setup()
        with pytest.raises(BudgetTooSmall):
            ExplainConfig(masker=masker, tree=tree, max_evals=1, target=0)

    def test_efficiency_at_every_budget(self):
        model, masker, tree = setup(fill="mean")
        x = make_rng(3).uniform(0, 1, 8)
        v_full = model.evaluate_one(x)[0]
        for budget in (2, 3, 5, 8, 13, 21, 34):
            cfg = ExplainConfig(masker=masker, tree=tree, max_evals=budget, target=0)
            attr = explain(x, model, cfg)
            assert attr.evals_used <= budget
            assert abs(attr.values.sum() - (v_full - attr.base_value)) <= 1e-9

    def test_frontier_credit_sum_invariant(self):
        spec = VictimSpec(kind="linear_softmax", seed=8, num_classes=3, input_shape=(8,))
        model = make_victim(spec)
        grid = build_atom_grid((8,), (1,))
        masker = MaskerSpec(grid=grid, fill="mean")
        cfg = ExplainConfig(masker=masker, tree=build_partition_tree(grid),
                            max_evals=None, target=0)
        x = make_rng(4).uniform(0, 1, 8)
        sums = []
        explain(x, model, cfg, step_hook=lambda credits: sums.append(sum(c.sum() for c in credits)))
        assert len(sums) >= 3
        assert np.allclose(sums, sums[0], atol=1e-9)

    def test_dead_feature_zero_at_singleton_depth(self):
        spec = VictimSpec(kind="dead_feature", seed=6, num_classes=3,
                          input_shape=(8,), dead_index=5)
        model = make_victim(spec)
        grid = build_atom_grid((8,), (1,))
        masker = MaskerSpec(grid=grid, fill="mean")
        cfg = ExplainConfig(masker=masker, tree=build_partition_tree(grid),
                            max_evals=None, target=1)
        attr = explain(make_rng(5).uniform(0, 1, 8), model, cfg)
        assert abs(attr.values[5]) <= 1e-12

    def test_breadth_first_uniform_frontier(self):
        model, masker, tree = setup()
        x = make_rng(6).uniform(0, 1, 8)
        cfg = ExplainConfig(masker=masker, tree=tree, max_evals=4, target=0,
                            order="breadth_first")
        attr = explain(x, model, cfg)
        assert attr.evals_used <= 4
        # depth-1 frontier: two groups of four atoms, each uniform inside
        assert np.allclose(attr.values[:4], attr.values[0], atol=1e-12)
        assert np.allclose(attr.values[4:], attr.values[4], atol=1e-12)


class TestChooseDepth:
    def test_full_depth_on_matching_budget(self):
        tree = build_partition_tree(build_atom_grid((8,), (1,)))
        assert choose_depth(16, tree) == 3

    def test_budget_two_depth_zero(self):
        tree = build_partition_tree(build_atom_grid((8,), (1,)))
        assert choose_depth(2, tree) == 0

    def test_budget_four_depth_one(self):
        tree = build_partition_tree(build_atom_grid((8,), (1,)))
        assert choose_depth(4, tree) == 1

    def test_unlimited_reaches_leaves(self):
        tree = build_partition_tree(build_atom_grid((8,), (1,)))
        assert choose_depth(None, tree) == 3


class TestAllClasses:
    def test_two_class_complementarity(self):
        spec = VictimSpec(kind="linear_softmax", seed=9, num_classes=2, input_shape=(6,))
        model = make_victim(spec)
        grid = build_atom_grid((6,), (1,))
        masker = MaskerSpec(grid=grid, fill="mean")
        cfg = ExplainConfig(masker=masker, tree=build_partition_tree(grid), max_evals=10)
        attrs = explain_all_classes(make_rng(7).uniform(0, 1, 6), model, cfg)
        assert np.allclose(attrs[0].values, -attrs[1].values, atol=1e-9)

    def test_evals_identical_single_vs_all(self):
        spec = VictimSpec(kind="linear_softmax", seed=10, num_classes=4, input_shape=(6,))
        model = make_victim(spec)
        grid = build_atom_grid((6,), (1,))
        masker = MaskerSpec(grid=grid, fill="mean")
        x = make_rng(8).uniform(0, 1, 6)
        for budget in (2, 6, 10, None):
            cfg_all = ExplainConfig(masker=masker, tree=build_partition_tree(grid),
                                    max_evals=budget)
            attrs = explain_all_classes(x, model, cfg_all)
            for c in range(4):
                cfg_one = ExplainConfig(masker=masker, tree=build_partition_tree(grid),
                                        max_evals=budget, target=c)
                single = explain(x, model, cfg_one)
                assert single.evals_used == attrs[0].evals_used
                assert np.array_equal(single.values, attrs[c].values)

    def test_per_class_efficiency_simultaneously(self):
        spec = VictimSpec(kind="quadrant_bright", seed=11, num_classes=4,
                          input_shape=(6, 6), temperature=0.3)
        model = make_victim(spec)
        grid = build_atom_grid((6, 6), (3, 3))
        masker = MaskerSpec(grid=grid, fill="mean")
        x = make_rng(9).uniform(0, 1, 36)
        cfg = ExplainConfig(masker=masker, tree=build_partition_tree(grid), max_evals=6)
        attrs = explain_all_classes(x, model, cfg)
        full = model.evaluate_one(x)
        for c, attr in enumerate(attrs):
            assert abs(attr.values.sum() - (full[c] - attr.base_value)) <= 1e-9


class TestBudgetSafetyAndConvergence:
    def test_budget_sweep_never_exceeds(self):
        spec = VictimSpec(kind="linear_softmax", seed=13, num_classes=3, input_shape=(4, 4))
        model = make_victim(spec)
        grid = build_atom_grid((4, 4), (1, 1))
        masker = MaskerSpec(grid=grid, fill="mean")
        tree = build_partition_tree(grid)
        x = make_rng(11).uniform(0, 1, 16)
        for budget in range(2, 65):
            ledger = QueryLedger()
            cfg = ExplainConfig(masker=masker, tree=tree, max_evals=budget, target=0)
            attr = explain(x, model, cfg, ledger)
            assert attr.evals_used <= budget
            assert ledger.evals_used == attr.evals_used

    def test_error_trend_statistical(self):
        # statistical check: seed-averaged mean |error| vs exact Shapley
        # shrinks at every budget doubling on additive victims (strict
        # per-seed decrease is not required; uniform splits estimate by
        # the group mean, which is not the L1 minimizer)
        budgets = [2, 4, 8, 16, 32, 64]
        mean_errs = np.zeros(len(budgets))
        per_seed_monotone = 0
        for seed in range(20):
            model = additive_victim(8, seed=seed)
            grid = build_atom_grid((8,), (1,))
            masker = MaskerSpec(grid=grid, fill="baseline", baseline=np.zeros(8))
            tree = build_partition_tree(grid)
            x = make_rng(1000 + seed).uniform(0, 1, 8)
            oracle = exact_shapley(masked_game(model, x, masker, 0)).values
            errs = []
            for budget in budgets:
                cfg = ExplainConfig(masker=masker, tree=tree, max_evals=budget, target=0)
                attr = explain(x, model, cfg)
                errs.append(float(np.mean(np.abs(attr.values - oracle))))
            mean_errs += np.array(errs) / 20
            if all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1)):
                per_seed_monotone += 1
        assert all(mean_errs[i + 1] <= mean_errs[i] + 1e-12 for i in range(len(budgets) - 1))
        assert mean_errs[-1] <= 1e-9
        # sanity floor; the per-seed trend is asserted in RMS error, in
        # every seed, by acceptance criterion 4
        assert per_seed_monotone >= 10

    def test_root_split_lowers_squared_not_absolute_error(self):
        # Additive game with per-atom Shapley values scale * w on a 6-atom
        # bisected tree. Budget 2 holds every atom at mean(w) = 5/6; budget
        # 4 splits the root 3|3 and holds each half at its own mean (1 and
        # 2/3). The split moves each atom to its half's least-squares fit:
        # summed |error| rises 5 -> 16/3, summed error^2 falls 41/6 -> 20/3.
        scale = 0.1
        w = np.array([0.0, 0.0, 3.0, 0.0, 1.0, 1.0])

        class Affine(Model):
            num_classes = 1
            input_shape = (6,)

            def evaluate(self, batch):
                return 0.2 + scale * (np.asarray(batch) @ w)[:, None]

        grid = build_atom_grid((6,), (1,))
        masker = MaskerSpec(grid=grid, fill="baseline", baseline=np.zeros(6))
        tree = build_partition_tree(grid)
        phi = scale * w
        abs_err, sq_err = [], []
        for budget in (2, 4):
            cfg = ExplainConfig(masker=masker, tree=tree, max_evals=budget, target=0)
            diff = explain(np.ones(6), Affine(), cfg).values - phi
            abs_err.append(np.abs(diff).sum() / scale)
            sq_err.append((diff ** 2).sum() / scale ** 2)
        assert np.allclose(abs_err, [5.0, 16 / 3], rtol=0, atol=1e-12)
        assert np.allclose(sq_err, [41 / 6, 20 / 3], rtol=0, atol=1e-12)
        assert abs_err[1] > abs_err[0]
        assert sq_err[1] < sq_err[0]

    @pytest.mark.xfail(
        strict=True,
        reason="cancelling credit: the root's credit 1 - 1 = 0 is at most prune_eps, so "
        "the root is never split and both atoms get half of 0",
    )
    def test_additive_game_with_cancelling_credit_matches_shapley(self):
        w = np.array([1.0, -1.0])

        class Affine(Model):
            num_classes = 1
            input_shape = (2,)

            def evaluate(self, batch):
                return (np.asarray(batch) @ w)[:, None]

        grid = build_atom_grid((2,), (1,))
        masker = MaskerSpec(grid=grid, fill="baseline", baseline=np.zeros(2))
        cfg = ExplainConfig(masker=masker, tree=build_partition_tree(grid),
                            max_evals=None, target=0)
        x = np.ones(2)
        oracle = exact_shapley(masked_game(Affine(), x, masker, 0)).values
        assert np.allclose(oracle, w, atol=1e-12)
        assert np.allclose(explain(x, Affine(), cfg).values, oracle, atol=1e-9)
