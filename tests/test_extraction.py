import numpy as np
import pytest

from owenexplain import (
    MaskerSpec,
    TopKConfig,
    VictimSpec,
    build_atom_grid,
    make_rng,
    make_victim,
    parse_schedule,
    run_comparison,
    run_extraction,
    train_substitute,
)
from owenexplain.core import derive_seed
from owenexplain.extraction import (
    ExtractionConfig,
    ProbeConfig,
    SubstituteModel,
    TrainConfig,
    init_substitute,
    make_probe,
)
from owenexplain.objectives import ObjectiveWeights, ce_clone_loss, kl_clone_loss
from owenexplain.synthesis import SearchParams, SynthConfig


def linear_victim(seed=11, classes=4, shape=(4, 4)):
    return make_victim(VictimSpec(kind="linear_softmax", seed=seed,
                                  num_classes=classes, input_shape=shape))


def base_config(mode="random", seed=0, budget=600, rounds=2, labels_topk=("all", None)):
    spec = VictimSpec(kind="linear_softmax", seed=11, num_classes=4, input_shape=(4, 4))
    masker = MaskerSpec(grid=build_atom_grid((4, 4), (1, 1)), fill="mean")
    synth = SynthConfig(
        target_class=0, masker=masker, weights=ObjectiveWeights(1.0, 0.0),
        schedule=parse_schedule("0:99999:8"),
        search=SearchParams(population=3, steps=20), seed=seed,
    )
    mode_name, k = labels_topk
    return ExtractionConfig(
        victim=spec, topk=TopKConfig(mode=mode_name, k=k), masker=masker,
        query_budget=budget, rounds=rounds, mode=mode, samples_per_class=1,
        synth=synth, train=TrainConfig(lr=0.5, epochs_per_round=15, minibatch=16),
        probe=ProbeConfig(n_probe=128, seed=23, kind="uniform"), seed=seed,
    )


def mean_clone_loss(targets, probs, mode):
    """Mean over rows of the clone loss: KL (soft) or cross-entropy (hard)
    over every class."""
    loss = kl_clone_loss if mode == "soft" else ce_clone_loss
    classes = range(targets.shape[1])
    return float(np.mean([loss(t, p, classes) for t, p in zip(targets, probs)]))


def reference_train(sub, inputs, targets, mode, cfg, seed=0):
    """train_substitute as first written: the softmax through
    SubstituteModel.evaluate, fresh arrays for every update and a
    finiteness check of every gradient."""
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    sub = sub.copy()
    rng = make_rng(derive_seed(seed, "train"))
    n = inputs.shape[0]
    for _ in range(cfg.epochs_per_round):
        order = rng.permutation(n)
        for start in range(0, n, cfg.minibatch):
            idx = order[start : start + cfg.minibatch]
            x = inputs[idx]
            probs = sub.evaluate(x)
            grad_logits = (probs - targets[idx]) / (len(idx) * sub.temperature)
            grad_w = grad_logits.T @ x
            grad_b = grad_logits.sum(axis=0)
            if not (np.all(np.isfinite(grad_w)) and np.all(np.isfinite(grad_b))):
                raise FloatingPointError(
                    "non-finite clone-loss gradient; aborting the round "
                    f"(lr={cfg.lr}, batch={len(idx)})"
                )
            sub.W = sub.W - cfg.lr * grad_w
            sub.b = sub.b - cfg.lr * grad_b
    return sub


class TestTrainSubstitute:
    def test_white_box_fixed_point(self):
        victim = linear_victim()
        sub = SubstituteModel(victim.W.copy(), victim.b.copy(),
                              victim.spec.temperature, victim.input_shape)
        x = make_rng(0).uniform(0, 1, (64, 16))
        targets = victim.evaluate(x)
        trained = train_substitute(sub, x, targets, "soft",
                                   TrainConfig(lr=0.1, epochs_per_round=5, minibatch=16))
        assert mean_clone_loss(targets, trained.evaluate(x), "soft") <= 1e-9
        assert np.allclose(trained.W, sub.W, atol=1e-6)

    def test_loss_decreases_on_fixed_batch(self):
        wins = 0
        for seed in range(20):
            victim = linear_victim(seed=seed)
            sub = init_substitute(seed, 4, (4, 4))
            x = make_rng(seed).uniform(0, 1, (48, 16))
            targets = victim.evaluate(x)
            initial = mean_clone_loss(targets, sub.evaluate(x), "soft")
            trained = train_substitute(
                sub, x, targets, "soft",
                TrainConfig(lr=0.1, epochs_per_round=200, minibatch=16), seed=seed)
            wins += int(mean_clone_loss(targets, trained.evaluate(x), "soft") < initial)
        assert wins >= 19

    def test_hard_top1_is_one_hot_cross_entropy(self):
        victim = linear_victim()
        sub = init_substitute(3, 4, (4, 4))
        x = make_rng(1).uniform(0, 1, (32, 16))
        raw = victim.evaluate(x)
        one_hot = np.zeros_like(raw)
        one_hot[np.arange(len(raw)), np.argmax(raw, axis=1)] = 1.0
        initial = mean_clone_loss(one_hot, sub.evaluate(x), "hard")
        trained = train_substitute(sub, x, one_hot, "hard",
                                   TrainConfig(lr=0.5, epochs_per_round=50, minibatch=8))
        probs = trained.evaluate(x)
        loss = mean_clone_loss(one_hot, probs, "hard")
        manual = float(np.mean(-np.log(probs[np.arange(len(raw)), np.argmax(raw, axis=1)])))
        assert abs(loss - manual) <= 1e-9
        assert loss < initial

    def test_nonfinite_gradient_aborts(self):
        sub = init_substitute(0, 2, (2,))
        x = np.array([[1e308, 1e308], [1.0, 0.0]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                train_substitute(sub, x, targets, "soft",
                                 TrainConfig(lr=1e6, epochs_per_round=3, minibatch=2))

    def test_overflowing_last_update_aborts(self):
        # The gradient is finite (about 1e308) but lr times it overflows, on
        # the only step; no gradient check could see it.
        sub = init_substitute(0, 2, (2,))
        x = np.array([[1e308, 0.0]])
        targets = np.array([[1.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                train_substitute(sub, x, targets, "soft",
                                 TrainConfig(lr=1e10, epochs_per_round=1, minibatch=1))

    @pytest.mark.parametrize(
        "mode, n, minibatch, temperature, lr, epochs",
        [
            ("soft", 40, 8, 1.0, 0.5, 4),
            ("hard", 40, 8, 1.0, 0.5, 4),
            ("soft", 37, 8, 1.0, 0.3, 3),  # n not divisible by the minibatch
            ("hard", 13, 1, 1.0, 0.7, 2),
            ("soft", 13, 64, 1.0, 1.0, 5),  # one minibatch larger than n
            ("soft", 50, 16, 0.15, 0.1, 3),
            ("hard", 29, 4, 2.5, 1.3, 3),
        ],
    )
    def test_bitwise_equal_to_reference_loop(self, mode, n, minibatch, temperature, lr, epochs):
        rng = make_rng(n + minibatch)
        x = rng.uniform(0.0, 1.0, (n, 12))
        targets = rng.dirichlet(np.ones(4), n)
        if mode == "hard":
            targets = np.eye(4)[np.argmax(targets, axis=1)]
        start = init_substitute(n, 4, (12,))
        sub = SubstituteModel(start.W, start.b + 0.05, temperature, (12,))
        cfg = TrainConfig(lr=lr, epochs_per_round=epochs, minibatch=minibatch)
        w_before, b_before = sub.W.copy(), sub.b.copy()
        trained = train_substitute(sub, x, targets, mode, cfg, seed=n)
        expected = reference_train(sub, x, targets, mode, cfg, seed=n)
        assert trained.W.tobytes() == expected.W.tobytes()
        assert trained.b.tobytes() == expected.b.tobytes()
        # the caller's model is left as it was
        assert np.array_equal(sub.W, w_before) and np.array_equal(sub.b, b_before)


class TestRunExtraction:
    def test_budget_accounting(self):
        report = run_extraction(base_config(mode="random", budget=500, rounds=3))
        assert report.queries_total == 500
        assert [r.queries_cum for r in report.rows] == [0, 166, 332, 500]

    def test_zero_training_baseline_agreement_near_chance(self):
        # round-0 row of every report: untrained substitute vs 4 classes
        agrees = []
        for seed in range(8):
            report = run_extraction(base_config(mode="random", seed=seed, budget=100, rounds=1))
            agrees.append(report.rows[0].agreement)
        assert 0.05 <= float(np.mean(agrees)) <= 0.5

    def test_agreement_improves_with_training(self):
        report = run_extraction(base_config(mode="random", budget=2000, rounds=2))
        assert report.final_agreement > report.rows[0].agreement

    def test_guided_mode_runs_and_labels_per_class(self):
        cfg = base_config(mode="guided", budget=800, rounds=2, labels_topk=("soft", 1))
        report = run_extraction(cfg)
        assert report.queries_total == 800
        assert int(report.class_histogram.sum()) > 0

    def test_guided_report_says_when_synthesis_truncates(self):
        # 100 queries per round leave each of the 4 jobs 24 evaluations,
        # too few for 20 search steps; 8000 in one round let every job finish.
        short = run_extraction(base_config(mode="guided", budget=200, rounds=2,
                                           labels_topk=("soft", 1)))
        assert short.truncated
        assert [r.truncated_jobs for r in short.rows] == [0, 4, 4]
        ample = run_extraction(base_config(mode="guided", budget=8000, rounds=1,
                                           labels_topk=("soft", 1)))
        assert not ample.truncated
        assert [r.truncated_jobs for r in ample.rows] == [0, 0]
        random = run_extraction(base_config(mode="random", budget=200, rounds=2))
        assert not random.truncated
        assert [r.truncated_jobs for r in random.rows] == [0, 0, 0]

    def test_comparison_arms_spend_identical_budgets(self):
        reports = run_comparison(base_config(budget=700, rounds=3, labels_topk=("soft", 1)))
        g = [r.queries_cum for r in reports["guided"].rows]
        r = [r.queries_cum for r in reports["random"].rows]
        assert g == r
        assert reports["guided"].queries_total == reports["random"].queries_total == 700

    def test_agreement_metric_range_and_determinism(self):
        cfg = base_config(mode="random", seed=5, budget=400, rounds=2)
        a = run_extraction(cfg)
        b = run_extraction(cfg)
        assert 0.0 <= a.final_agreement <= 1.0
        assert a.final_agreement == b.final_agreement
        assert np.array_equal(a.class_histogram, b.class_histogram)


class TestProbe:
    def test_uniform_probe_shape_and_range(self):
        victim = linear_victim()
        probe = make_probe(victim, ProbeConfig(n_probe=32, seed=1, kind="uniform"))
        assert probe.shape == (32, 16)
        assert np.all((probe >= 0) & (probe <= 1))

    def test_region_boost_probe_is_class_balanced(self):
        spec = VictimSpec(kind="quadrant_bright", seed=3, num_classes=4,
                          input_shape=(12, 12), temperature=0.15,
                          class_bias=(0.2, 0.0, -0.05, -0.12))
        victim = make_victim(spec)
        probe = make_probe(victim, ProbeConfig(n_probe=200, seed=2, kind="region_boost",
                                               boost=0.6, base_level=0.2))
        preds = np.argmax(victim.evaluate(probe), axis=1)
        counts = np.bincount(preds, minlength=4)
        assert counts.min() >= 30  # every class well represented
