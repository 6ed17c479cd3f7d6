import numpy as np
import pytest

from owenexplain import (
    MaskerSpec,
    QueryLedger,
    SHAP_OFF,
    VictimSpec,
    build_atom_grid,
    make_victim,
    parse_schedule,
    schedule_lookup,
    synthesize,
)
from owenexplain.objectives import ObjectiveWeights
from owenexplain.synthesis import DEFAULT_SCHEDULE_TEXT, SearchParams, SynthConfig


def quadrant_victim(seed=3, bias=None, temperature=0.15):
    spec = VictimSpec(kind="quadrant_bright", seed=seed, num_classes=4,
                      input_shape=(12, 12), temperature=temperature, class_bias=bias)
    return make_victim(spec)


def synth_cfg(target, seed, steps=60, alpha=1.0, beta=0.0, schedule="0:99999:8",
              population=4):
    masker = MaskerSpec(grid=build_atom_grid((12, 12), (3, 3)), fill="mean")
    return SynthConfig(
        target_class=target,
        masker=masker,
        weights=ObjectiveWeights(alpha=alpha, beta=beta),
        schedule=parse_schedule(schedule),
        search=SearchParams(population=population, mutation_rate=0.1,
                            mutation_scale=0.25, steps=steps),
        seed=seed,
    )


class TestSchedule:
    def test_reference_staging(self):
        sched = parse_schedule(DEFAULT_SCHEDULE_TEXT)
        assert schedule_lookup(sched, 0) == 128
        assert schedule_lookup(sched, 499) == 128
        assert schedule_lookup(sched, 500) == 64
        assert schedule_lookup(sched, 999) == 64
        assert schedule_lookup(sched, 1000) == 32
        assert schedule_lookup(sched, 1500) is SHAP_OFF

    def test_hold_last_policy(self):
        sched = parse_schedule("0:10:16", after_end="hold_last")
        assert schedule_lookup(sched, 100) == 16

    def test_single_stage_constant(self):
        sched = parse_schedule("0:1000:64")
        assert schedule_lookup(sched, 0) == 64
        assert schedule_lookup(sched, 999) == 64

    def test_rejects_gaps_and_overlaps(self):
        with pytest.raises(ValueError):
            parse_schedule("0:10:8,20:30:4")
        with pytest.raises(ValueError):
            parse_schedule("5:10:8")
        with pytest.raises(ValueError):
            parse_schedule("0:10:8,x")


class TestSynthesize:
    def test_deterministic_single_step(self):
        victim = quadrant_victim()
        cfg = synth_cfg(target=1, seed=9, steps=1, population=1)
        a = synthesize(victim, None, cfg, QueryLedger())
        b = synthesize(victim, None, cfg, QueryLedger())
        assert np.array_equal(a.sample, b.sample)
        assert a.objective == b.objective

    def test_trace_is_monotone_non_decreasing(self):
        victim = quadrant_victim()
        cfg = synth_cfg(target=2, seed=4, steps=30)
        res = synthesize(victim, None, cfg, QueryLedger())
        objs = [row.objective for row in res.trace]
        assert all(objs[i] <= objs[i + 1] + 1e-15 for i in range(len(objs) - 1))

    def test_targets_bright_region(self):
        # directional: the synthesized sample's target region outshines the
        # others in at least 8 of 10 seeds
        victim = quadrant_victim()
        wins = 0
        for seed in range(10):
            cfg = synth_cfg(target=0, seed=100 + seed, steps=200)
            res = synthesize(victim, None, cfg, QueryLedger())
            x = res.sample.reshape(12, 12)
            quads = [x[:6, :6].mean(), x[:6, 6:].mean(), x[6:, :6].mean(), x[6:, 6:].mean()]
            wins += int(np.argmax(quads) == 0)
        assert wins >= 8

    def test_alpha_zero_never_invokes_explainer(self):
        victim = quadrant_victim()
        ledger = QueryLedger()
        cfg = synth_cfg(target=0, seed=5, steps=10, alpha=0.0, beta=1.0)
        synthesize(victim, None, cfg, ledger)
        assert "explain" not in ledger.by_tag
        assert ledger.by_tag["synth.disagree"] > 0

    def test_query_bound(self):
        # steps*lam mutant evaluations plus the initial parent evaluation,
        # each at most (stage max_evals + 1 disagreement call)
        victim = quadrant_victim()
        steps, lam, stage = 12, 3, 8
        ledger = QueryLedger()
        cfg = synth_cfg(target=1, seed=6, steps=steps, alpha=1.0, beta=1.0,
                        schedule=f"0:99999:{stage}", population=lam)
        synthesize(victim, None, cfg, ledger)
        assert ledger.evals_used <= (steps * lam + 1) * (stage + 1)

    def test_budget_exhaustion_truncates_cleanly(self):
        victim = quadrant_victim()
        ledger = QueryLedger(budget=120)
        cfg = synth_cfg(target=1, seed=7, steps=50)
        res = synthesize(victim, None, cfg, ledger)
        assert res.truncated
        assert ledger.evals_used <= 120
        assert res.victim_out is not None  # label reserved up front

    def test_schedule_stage_bounds_explainer_charges(self):
        victim = quadrant_victim()
        ledger = QueryLedger()
        cfg = synth_cfg(target=1, seed=8, steps=4, schedule="0:99999:4", population=2)
        synthesize(victim, None, cfg, ledger)
        # 4 steps x 2 candidates + init, each at most 4 explain evals
        assert ledger.by_tag.get("explain", 0) <= (4 * 2 + 1) * 4

    def test_stage_budgets_apply_per_step(self):
        # explainer charges track the stage containing each step, and the
        # attribution term is dropped once the schedule ends (freeze policy)
        victim = quadrant_victim()
        ledger = QueryLedger()
        cfg = synth_cfg(target=1, seed=3, steps=9, alpha=1.0, beta=0.0,
                        schedule="0:3:4,3:6:8", population=1)
        res = synthesize(victim, None, cfg, ledger)
        cums = [row.evals_used_cum for row in res.trace]
        # label reserve (1) + init explain (4) before step 0
        deltas = [cums[0] - 5] + [cums[i] - cums[i - 1] for i in range(1, len(cums))]
        assert deltas[:3] == [4, 4, 4]
        assert deltas[3:6] == [8, 8, 8]
        assert deltas[6:] == [0, 0, 0]  # shap_off: no further charges
        assert all(row.class_obj_term == res.trace[5].class_obj_term
                   for row in res.trace[6:])
