from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ChargeLog, RecordingModel

from owenexplain import (
    ExplainConfig,
    MaskerSpec,
    QueryLedger,
    SHAP_OFF,
    TopKConfig,
    VictimSpec,
    WrappedModel,
    build_atom_grid,
    build_partition_tree,
    class_objective,
    explain,
    explain_cost,
    make_rng,
    make_victim,
    parse_schedule,
    schedule_lookup,
    synthesize,
)
from owenexplain import extraction, oracle, synthesis
from owenexplain.blackbox import VICTIM_KINDS
from owenexplain.core import derive_seed
from owenexplain.extraction import ExtractionConfig, ProbeConfig, TrainConfig, run_extraction
from owenexplain.masking import BoundMasker
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

    def test_hard_labels_tie_and_keep_the_parent(self):
        # Under hard top-1 labels every class term here is 0.0, so no
        # candidate beats the initial sample; soft labels move it.
        grid = build_atom_grid((6, 6), (1, 1))
        cfg = SynthConfig(target_class=1, masker=MaskerSpec(grid=grid, fill="mean"),
                          weights=ObjectiveWeights(1.0, 0.0),
                          schedule=parse_schedule("0:99999:8"),
                          search=SearchParams(population=3, steps=8), seed=2)
        initial = make_rng(derive_seed(2, "synth-init")).uniform(0.0, 1.0, 36)
        victim = make_victim(VictimSpec(kind="quadrant_bright", seed=0, num_classes=4,
                                        input_shape=(6, 6)))
        hard = synthesize(WrappedModel(victim, TopKConfig("hard", 1)), None, cfg,
                          QueryLedger(budget=60))
        assert hard.truncated
        assert [row.objective for row in hard.trace] == [0.0, 0.0, 0.0]
        assert np.array_equal(hard.sample, initial)
        soft = synthesize(WrappedModel(victim, TopKConfig("soft", 1)), None, cfg,
                          QueryLedger(budget=60))
        assert not np.array_equal(soft.sample, initial)


root_pair_class_term = synthesis._class_term


def explainer_class_term(x, victim, masker, tree, max_evals, target, ledger):
    """Reference class term: the full budgeted explanation, charged to the
    ledger and summed. Every call checks it against the uncharged root-pair
    term."""
    cfg = ExplainConfig(masker=masker, tree=tree, max_evals=max_evals,
                        target=target, order="priority_abs")
    total = class_objective(explain(x, victim, cfg, ledger))
    root = root_pair_class_term(x, victim, masker, tree, max_evals, target, None)
    assert abs(total - root) <= 1e-12 * max(1.0, abs(root))
    return total


def close(a, b):
    return a == b or abs(a - b) <= 1e-12 * max(1.0, abs(b))


WRAPPERS = [TopKConfig("soft", 1), TopKConfig("hard", 1), TopKConfig("soft", 2),
            TopKConfig("hard", 2), TopKConfig("all")]
SCHEDULES = [("0:99999:8", "freeze_shap"), ("0:3:16,3:6:6", "freeze_shap"),
             ("0:2:60,2:4:7", "hold_last")]
SYNTH_CASES = dict(
    kind=st.sampled_from(VICTIM_KINDS),
    victim_seed=st.integers(0, 50),
    topk=st.sampled_from(WRAPPERS),
    block=st.sampled_from([(1, 1), (2, 2), (3, 3), (2, 3)]),
    schedule=st.sampled_from(SCHEDULES),
    beta=st.sampled_from([0.0, 0.5]),
    budget=st.sampled_from([7, 60, 400, None]),
    target=st.integers(0, 3),
    seed=st.integers(0, 1000),
)


def synthesize_both(reference, kind, victim_seed, topk, block, schedule, beta, budget,
                    target, seed):
    """(result, ledger) with the root-pair class term, then with reference."""
    victim = WrappedModel(
        make_victim(VictimSpec(kind=kind, seed=victim_seed, num_classes=4,
                               input_shape=(6, 6))),
        topk,
    )
    cfg = SynthConfig(
        target_class=target,
        masker=MaskerSpec(grid=build_atom_grid((6, 6), block), fill="mean"),
        weights=ObjectiveWeights(alpha=1.0, beta=beta),
        schedule=parse_schedule(schedule[0], after_end=schedule[1]),
        search=SearchParams(population=3, steps=8),
        seed=seed,
    )
    runs = []
    for term in (root_pair_class_term, reference):
        ledger = QueryLedger(budget=budget)
        with mock.patch.object(synthesis, "_class_term", term):
            runs.append((synthesize(victim, None, cfg, ledger), ledger))
    return runs


class TestRootPairObjective:
    """The root-pair class term against the full explainer's summed
    attribution: the same charges and truncation points, and objectives
    that differ only in rounding."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(**SYNTH_CASES)
    def test_charges_match_full_explainer(self, **case):
        # The reference hands the search the root-pair term, so both runs
        # keep the same samples, and any difference is in the charges. With
        # hard labels, candidates often tie exactly, and the explainer's
        # rounding (1.4e-17 for a true 0, say) would break such ties.
        def reference(*args):
            explainer_class_term(*args)
            return root_pair_class_term(*args[:-1], None)

        (got, ledger), (ref, ref_ledger) = synthesize_both(reference, **case)
        assert ledger.by_tag == ref_ledger.by_tag
        assert ledger.evals_used == ref_ledger.evals_used
        assert got.truncated == ref.truncated
        assert [r.evals_used_cum for r in got.trace] == [r.evals_used_cum for r in ref.trace]
        assert got.sample.tobytes() == ref.sample.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(**{**SYNTH_CASES, "topk": st.sampled_from([t for t in WRAPPERS if t.mode != "hard"])})
    def test_soft_labels_keep_full_explainer_samples(self, **case):
        (got, ledger), (ref, ref_ledger) = synthesize_both(explainer_class_term, **case)
        assert ledger.by_tag == ref_ledger.by_tag
        assert got.truncated == ref.truncated
        assert [r.evals_used_cum for r in got.trace] == [r.evals_used_cum for r in ref.trace]
        assert got.sample.tobytes() == ref.sample.tobytes()
        assert close(got.objective, ref.objective)
        for row, ref_row in zip(got.trace, ref.trace, strict=True):
            assert close(row.objective, ref_row.objective)
            assert close(row.class_obj_term, ref_row.class_obj_term)
            assert row.disagreement_term == ref_row.disagreement_term


@pytest.mark.parametrize("max_evals", [2, 3, 7, 64])
def test_class_term_reads_the_root_pair_once_without_the_memo(max_evals):
    victim = RecordingModel(quadrant_victim())
    masker = synth_cfg(1, 0).masker
    tree = build_partition_tree(masker.grid)
    x = make_rng(4).uniform(0.0, 1.0, 144)
    ledger = ChargeLog()
    with mock.patch.object(oracle.VectorGame, "evaluate_misses") as memoized:
        term = synthesis._class_term(x, victim, masker, tree, max_evals, 1, ledger)
    memoized.assert_not_called()
    rows = BoundMasker(x, masker).masked_batch([0, (1 << 16) - 1])
    assert victim.batches == [repr(rows.shape).encode() + rows.tobytes()]
    out = victim.victim.evaluate(rows)
    assert term == float(out[1, 1] - out[0, 1])
    cost = explain_cost(max_evals, tree)
    assert ledger.charges == [(2, "explain")] + ([(cost - 2, "explain")] if cost > 2 else [])


class RecordingLedger(QueryLedger):
    """QueryLedger that counts refused charges and checks after every
    charge that the budget holds."""

    def __post_init__(self):
        super().__post_init__()
        self.refused = 0

    def try_charge(self, n, tag):
        ok = super().try_charge(n, tag)
        self.refused += not ok
        assert self.budget is None or self.evals_used <= self.budget
        return ok


class TestLedgerProperty:
    """At every budget the ledger is never overspent, and a run reports
    truncation exactly when one of its charges was refused."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(VICTIM_KINDS),
        topk=st.sampled_from(WRAPPERS),
        block=st.sampled_from([(1, 1), (2, 3), (3, 3)]),
        schedule=st.sampled_from(SCHEDULES),
        weights=st.sampled_from([(1.0, 0.0), (1.0, 0.5), (0.0, 1.0)]),
        spent=st.integers(0, 3),
        room=st.integers(0, 300),
        seed=st.integers(0, 1000),
    )
    def test_synthesize(self, kind, topk, block, schedule, weights, spent, room, seed):
        # A ledger the caller has already partly spent, down to no room.
        assume(spent + room >= 1)
        victim = WrappedModel(make_victim(VictimSpec(kind=kind, seed=seed, num_classes=4,
                                                     input_shape=(6, 6))), topk)
        cfg = SynthConfig(
            target_class=seed % 4,
            masker=MaskerSpec(grid=build_atom_grid((6, 6), block), fill="mean"),
            weights=ObjectiveWeights(*weights),
            schedule=parse_schedule(schedule[0], after_end=schedule[1]),
            search=SearchParams(population=3, steps=8),
            seed=seed,
        )
        ledger = RecordingLedger(budget=spent + room)
        if spent:
            ledger.charge(spent, "other")
        result = synthesize(victim, None, cfg, ledger)
        assert ledger.evals_used <= spent + room
        assert result.truncated == (ledger.refused > 0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        mode=st.sampled_from(["guided", "random"]),
        topk=st.sampled_from(WRAPPERS),
        budget=st.integers(1, 400),
        rounds=st.integers(1, 3),
        samples_per_class=st.integers(1, 2),
        seed=st.integers(0, 1000),
    )
    def test_run_extraction(self, mode, topk, budget, rounds, samples_per_class, seed):
        masker = MaskerSpec(grid=build_atom_grid((4, 4), (2, 2)), fill="mean")
        cfg = ExtractionConfig(
            victim=VictimSpec(kind="quadrant_bright", seed=seed, num_classes=4,
                              input_shape=(4, 4), temperature=0.2),
            topk=topk, masker=masker, query_budget=budget, rounds=rounds, mode=mode,
            samples_per_class=samples_per_class,
            synth=SynthConfig(target_class=0, masker=masker,
                              schedule=parse_schedule("0:2:8,2:4:4"),
                              search=SearchParams(population=2, steps=6)),
            train=TrainConfig(epochs_per_round=1, minibatch=32),
            probe=ProbeConfig(n_probe=8), seed=seed,
        )
        ledgers = []

        def recording(**kwargs):
            ledgers.append(RecordingLedger(**kwargs))
            return ledgers[-1]

        with mock.patch.object(extraction, "QueryLedger", recording):
            report = run_extraction(cfg)
        outer, jobs = ledgers[0], ledgers[1:]
        assert outer.evals_used == report.queries_total == budget
        assert outer.refused == 0
        assert all(job.evals_used <= job.budget for job in jobs)
        assert report.truncated == any(job.refused for job in jobs)
        assert sum(r.truncated_jobs for r in report.rows) == sum(job.refused > 0 for job in jobs)
