"""The benchmark workloads: set-up from a seed, and one round of library
calls, each paired with the check its output must pass.

Library functions are looked up as module attributes at call time
(``oracle.exact_owen``, not a bound name), so the wrappers a traced run
installs see every call.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from owenexplain import blackbox, core, extraction, masking, oracle
from owenexplain.synthesis import SearchParams, SynthConfig, parse_schedule
from owenexplain.objectives import ObjectiveWeights

import checks


@dataclasses.dataclass
class Op:
    """One library call of a round and the check of its output."""

    label: str
    call: object
    check: object


# --- oracle-enum ---------------------------------------------------------

OWEN_GROUPS = [[row * 8 + col for row in range(6)] for col in range(8)]


class OracleEnum:
    """Exact oracles for every class through one shared VectorGame per
    engine, as the CLI builds them: Shapley on a non-additive 20-atom game
    (the enumeration guard's limit), on a 16-atom additive game and on a
    non-additive 10-atom game; Owen and group-uniform Shapley on a 48-atom
    game in 8 groups of 6."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.games = {}
        for key, kind, shape, fill in (
            ("shapley20", "linear_softmax", (4, 5), "blur"),
            ("additive16", "group_symmetric", (4, 4), "baseline"),
            ("shapley10", "linear_softmax", (2, 5), "baseline"),
            ("owen48", "linear_softmax", (6, 8), "blur"),
        ):
            grid = core.build_atom_grid(shape, (1,) * len(shape))
            victim = blackbox.make_victim(blackbox.VictimSpec(
                kind=kind, seed=seed, num_classes=4, input_shape=shape, weight_scale=3.0))
            base = rng.uniform(0.0, 0.2, grid.n_cells)
            spec = masking.MaskerSpec(
                grid=grid, fill=fill, baseline=base if fill == "baseline" else None)
            x = rng.uniform(0.0, 1.0, grid.n_cells)
            self.games[key] = (victim, spec, x, base)
        self._expected: dict[str, np.ndarray] = {}
        self._owen = None

    def _engine(self, key, engine, *extra):
        victim, spec, x, _ = self.games[key]

        def call():
            shared = oracle.VectorGame(victim, x, spec)
            run = getattr(oracle, engine)
            return [run(oracle.ClassGame(shared, c), *extra) for c in range(victim.num_classes)]

        return call

    def ops(self) -> list[Op]:
        self._owen = None
        return [
            Op("exact_shapley/20", self._engine("shapley20", "exact_shapley"),
               self._efficient("shapley20")),
            Op("exact_shapley/16-additive", self._engine("additive16", "exact_shapley"),
               self._closed_form),
            Op("exact_shapley/10", self._engine("shapley10", "exact_shapley"),
               self._enumerated),
            Op("exact_owen/48", self._engine("owen48", "exact_owen", OWEN_GROUPS),
               self._keep_owen),
            Op("group_uniform_shapley/48",
               self._engine("owen48", "group_uniform_shapley", OWEN_GROUPS), self._quotient),
        ]

    def _fx(self, key):
        victim, _, x, _ = self.games[key]
        return victim.evaluate(x[None, :])[0]

    def _efficient(self, key):
        return lambda attrs: checks.efficiency(attrs, self._fx(key), 1e-9)

    def _closed_form(self, attrs):
        victim, spec, x, base = self.games["additive16"]
        checks.efficiency(attrs, self._fx("additive16"), 1e-9)
        if "additive16" not in self._expected:
            self._expected["additive16"] = checks.singleton_gains(victim, x, base, spec.grid)
        checks.matches(attrs, self._expected["additive16"], 1e-9, "additive closed form")

    def _enumerated(self, attrs):
        victim, spec, x, base = self.games["shapley10"]
        checks.efficiency(attrs, self._fx("shapley10"), 1e-9)
        if "shapley10" not in self._expected:
            n = spec.grid.atom_count
            coalitions = [[a for a in range(n) if (s >> a) & 1] for s in range(1 << n)]
            table = victim.evaluate(checks.masked_rows(x, base, spec.grid.cell_atom, coalitions))
            self._expected["shapley10"] = checks.enumerated_shapley(table, n)
        checks.matches(attrs, self._expected["shapley10"], 1e-9, "subset enumeration")

    def _keep_owen(self, attrs):
        checks.efficiency(attrs, self._fx("owen48"), 1e-9)
        self._owen = attrs

    def _quotient(self, attrs):
        checks.efficiency(attrs, self._fx("owen48"), 1e-9)
        if self._owen is None:
            raise checks.CheckFailed("no Owen values of this round to compare")
        checks.group_sums(self._owen, attrs, OWEN_GROUPS, 1e-9)


# --- extract-arms --------------------------------------------------------

EXTRACT_BUDGET = 50_000
EXTRACT_ROUNDS = 4
EPOCHS_PER_ROUND = 15


class ExtractArms:
    """Both arms of one equal-budget extraction comparison, under the
    acceptance suite's criterion-10 configuration with 15 substitute epochs
    per round instead of 60."""

    def __init__(self, seed: int):
        shape = (12, 12)
        spec = blackbox.VictimSpec(
            kind="quadrant_bright", seed=3, num_classes=4, input_shape=shape,
            temperature=0.15, class_bias=(0.2, 0.0, -0.05, -0.12))
        grid = core.build_atom_grid(shape, (3, 3))
        mask = masking.MaskerSpec(grid=grid, fill="mean")
        synth = SynthConfig(
            target_class=0, masker=mask, weights=ObjectiveWeights(alpha=1.0, beta=0.0),
            schedule=parse_schedule("0:99999:8"),
            search=SearchParams(population=4, mutation_rate=0.1, mutation_scale=0.25, steps=400),
            seed=seed)
        base = extraction.ExtractionConfig(
            victim=spec, topk=blackbox.TopKConfig(mode="soft", k=1), masker=mask,
            query_budget=EXTRACT_BUDGET, rounds=EXTRACT_ROUNDS, samples_per_class=1,
            synth=synth,
            train=extraction.TrainConfig(lr=1.0, epochs_per_round=EPOCHS_PER_ROUND, minibatch=8),
            probe=extraction.ProbeConfig(
                n_probe=256, seed=17, kind="region_boost", boost=0.6, base_level=0.2),
            seed=seed)
        # run_comparison runs these two arms in this order; calling
        # run_extraction per arm lets each arm be timed on its own.
        self.arms = {mode: dataclasses.replace(base, mode=mode) for mode in ("guided", "random")}

    def ops(self) -> list[Op]:
        reports = {}

        def arm(mode):
            def check(report):
                checks.extraction_report(
                    report, EXTRACT_BUDGET, EXTRACT_ROUNDS, self.arms[mode].probe.n_probe,
                    exact_histogram=mode == "random")
                reports[mode] = report
                if len(reports) == 2:
                    checks.equal_budgets(reports["guided"], reports["random"])

            return Op(f"{mode}-arm", lambda: extraction.run_extraction(self.arms[mode]), check)

        return [arm("guided"), arm("random")]


WORKLOADS = {"oracle-enum": OracleEnum, "extract-arms": ExtractArms}
