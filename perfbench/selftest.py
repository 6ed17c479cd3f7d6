"""Self-test of the benchmark's correctness checks and metric list.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Each check must accept a real output of the library and reject the same
output corrupted: a perturbed attribution, swapped atoms, a shifted group
sum, a mismatched quota. The metric names and units the benchmark prints
must be the ones BENCHMARK.json declares. Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import sys

import numpy as np

import checks
import run

run.load_library()

from owenexplain import blackbox, core, extraction, masking, oracle  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def accepted(what: str, check, *args) -> None:
    check(*args)
    print(f"ok   accepts {what}")


def rejected(what: str, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed as err:
        print(f"ok   rejects {what}: {err}")
        return
    sys.exit(f"FAIL {what} was not rejected")


def corrupt(attrs, atom_values) -> list:
    out = copy.deepcopy(attrs)
    for a in out:
        a.values = atom_values(a.values.copy())
    return out


def oracle_checks() -> None:
    shape = (2, 3)
    grid = core.build_atom_grid(shape, (1, 1))
    rng = np.random.default_rng(1)
    x, base = rng.uniform(0, 1, 6), rng.uniform(0, 0.2, 6)
    spec = masking.MaskerSpec(grid=grid, fill="baseline", baseline=base)
    groups = [[0, 1], [2, 3], [4, 5]]

    def every_class(victim, engine, *extra):
        game = oracle.VectorGame(victim, x, spec)
        return [engine(oracle.ClassGame(game, c), *extra) for c in range(3)]

    def perturb(v):
        v[3] += 1e-6
        return v

    def swap(v):
        v[[1, 4]] = v[[4, 1]]
        return v

    def shift(v):
        v[0] += 1e-6
        v[2] -= 1e-6
        return v

    additive = blackbox.make_victim(blackbox.VictimSpec(
        kind="group_symmetric", seed=2, num_classes=3, input_shape=shape, group_sizes=(2, 4)))
    shapley = every_class(additive, oracle.exact_shapley)
    fx = additive.evaluate(x[None, :])[0]
    closed = checks.singleton_gains(additive, x, base, grid)
    accepted("exact Shapley of an additive game", checks.efficiency, shapley, fx, 1e-9)
    accepted("its closed form", checks.matches, shapley, closed, 1e-9, "closed form")
    rejected("a perturbed attribution", checks.efficiency, corrupt(shapley, perturb), fx, 1e-9)
    rejected("swapped atoms", checks.matches, corrupt(shapley, swap), closed, 1e-9, "closed form")

    victim = blackbox.make_victim(blackbox.VictimSpec(
        kind="linear_softmax", seed=4, num_classes=3, input_shape=shape, weight_scale=3.0))
    shapley = every_class(victim, oracle.exact_shapley)
    owen = every_class(victim, oracle.exact_owen, groups)
    uniform = every_class(victim, oracle.group_uniform_shapley, groups)
    coalitions = [[a for a in range(6) if (s >> a) & 1] for s in range(64)]
    table = victim.evaluate(checks.masked_rows(x, base, grid.cell_atom, coalitions))
    enumerated = checks.enumerated_shapley(table, 6)
    accepted("exact Shapley against subset enumeration", checks.matches, shapley, enumerated,
             1e-9, "enumeration")
    rejected("swapped atoms", checks.matches, corrupt(shapley, swap), enumerated, 1e-9,
             "enumeration")
    accepted("Owen group sums", checks.group_sums, owen, uniform, groups, 1e-9)
    shifted = corrupt(owen, shift)
    accepted("a shifted group sum by efficiency alone", checks.efficiency, shifted,
             victim.evaluate(x[None, :])[0], 1e-9)
    rejected("a shifted group sum", checks.group_sums, shifted, uniform, groups, 1e-9)


def extraction_checks() -> None:
    shape = (4, 4)
    grid = core.build_atom_grid(shape, (1, 1))
    cfg = extraction.ExtractionConfig(
        victim=blackbox.VictimSpec(kind="linear_softmax", seed=2, num_classes=4,
                                   input_shape=shape),
        topk=blackbox.TopKConfig(mode="soft", k=1),
        masker=masking.MaskerSpec(grid=grid, fill="mean"),
        query_budget=300, rounds=2, mode="random",
        train=extraction.TrainConfig(lr=0.5, epochs_per_round=2, minibatch=32),
        probe=extraction.ProbeConfig(n_probe=64), seed=2)
    report = extraction.run_extraction(cfg)
    accepted("a random-arm report", checks.extraction_report, report, 300, 2, 64, True)

    quota = copy.deepcopy(report)
    quota.rows[1].queries_cum += 1
    rejected("a mismatched quota", checks.extraction_report, quota, 300, 2, 64, True)
    rejected("arms with different quotas", checks.equal_budgets, report, quota)
    total = copy.deepcopy(report)
    total.queries_total -= 1
    rejected("a total under the budget", checks.extraction_report, total, 300, 2, 64, True)
    histogram = copy.deepcopy(report)
    histogram.class_histogram[0] -= 1
    rejected("a histogram short of the budget", checks.extraction_report, histogram, 300, 2,
             64, True)
    agreement = copy.deepcopy(report)
    agreement.rows[-1].agreement += 0.5 / 64
    rejected("an agreement off the 1/n_probe grid", checks.extraction_report, agreement, 300,
             2, 64, True)


def metric_list() -> None:
    declared = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    for section, printed in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in declared[section]}
        if listed != printed:
            sys.exit(f"FAIL BENCHMARK.json {section} differs from what run.py prints")
        print(f"ok   BENCHMARK.json {section} matches the {len(printed)} printed metrics")
    if [w["name"] for w in declared["workloads"]] != list(workloads.WORKLOADS):
        sys.exit("FAIL BENCHMARK.json workloads differ from workloads.py")


if __name__ == "__main__":
    oracle_checks()
    extraction_checks()
    metric_list()
    print("selftest passed")
