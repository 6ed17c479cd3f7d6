"""Correctness checks on the program's outputs.

Each check compares against a value the benchmark computes itself (the
victim's output on an input the benchmark built, a closed form, a subset
enumeration) or against a property the method must have. A failed check
raises CheckFailed.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    pass


def _values(attrs) -> np.ndarray:
    """(n_atoms, n_classes) from one Attribution per class."""
    return np.stack([a.values for a in attrs], axis=1)


def masked_rows(x, fill, cell_atom, coalitions) -> np.ndarray:
    """The benchmark's own masking: cells of atoms outside a coalition take
    the fill value."""
    rows = np.empty((len(coalitions), x.size))
    for r, atoms in enumerate(coalitions):
        rows[r] = np.where(np.isin(cell_atom, list(atoms)), x, fill)
    return rows


def singleton_gains(victim, x, fill, grid) -> np.ndarray:
    """v({a}) - v(empty) for every atom, per class: the Shapley value of an
    additive game."""
    rows = masked_rows(x, fill, grid.cell_atom, [()] + [(a,) for a in range(grid.atom_count)])
    values = victim.evaluate(rows)
    return values[1:] - values[0]


def efficiency(attrs, fx: np.ndarray, tol: float) -> None:
    """Sum of attributions plus the base value equals f(x), per class."""
    for a in attrs:
        err = abs(a.total() + a.base_value - fx[a.class_index])
        if not err <= tol:
            raise CheckFailed(f"efficiency off by {err:.3e} for class {a.class_index}")


def matches(attrs, expected: np.ndarray, tol: float, what: str) -> None:
    err = float(np.abs(_values(attrs) - expected).max())
    if not err <= tol:
        raise CheckFailed(f"{what}: off by {err:.3e}")


def enumerated_shapley(table: np.ndarray, n: int) -> np.ndarray:
    """Shapley values of every class by direct subset enumeration from a
    (2**n, n_classes) value table."""
    phi = np.zeros((n, table.shape[1]))
    for i in range(n):
        for s in range(1 << n):
            if (s >> i) & 1:
                continue
            size = bin(s).count("1")
            weight = math.factorial(size) * math.factorial(n - size - 1) / math.factorial(n)
            phi[i] += weight * (table[s | (1 << i)] - table[s])
    return phi


def group_sums(owen, group_uniform, groups, tol: float) -> None:
    """Each group's summed Owen values equal its group-level Shapley value
    (the quotient-game property)."""
    a, b = _values(owen), _values(group_uniform)
    for members in groups:
        err = float(np.abs(a[members].sum(axis=0) - b[members].sum(axis=0)).max())
        if not err <= tol:
            raise CheckFailed(f"group {members[0]}..: Owen sum off by {err:.3e}")


def cumulative_quotas(budget: int, rounds: int) -> list[int]:
    quotas = [budget // rounds] * rounds
    quotas[-1] += budget - sum(quotas)
    return [0] + list(np.cumsum(quotas))


def extraction_report(report, budget: int, rounds: int, n_probe: int, exact_histogram: bool) -> None:
    if report.queries_total != budget:
        raise CheckFailed(f"{report.mode}: {report.queries_total} queries, budget {budget}")
    cums = [row.queries_cum for row in report.rows]
    if cums != cumulative_quotas(budget, rounds):
        raise CheckFailed(f"{report.mode}: queries_cum {cums}")
    labeled = int(report.class_histogram.sum())
    if labeled > budget or (exact_histogram and labeled != budget):
        raise CheckFailed(f"{report.mode}: histogram sums to {labeled}, budget {budget}")
    for row in report.rows:
        hits = row.agreement * n_probe
        if not (0.0 <= row.agreement <= 1.0 and abs(hits - round(hits)) < 1e-9):
            raise CheckFailed(f"{report.mode}: agreement {row.agreement} not k/{n_probe}")


def equal_budgets(guided, random) -> None:
    if [r.queries_cum for r in guided.rows] != [r.queries_cum for r in random.rows]:
        raise CheckFailed("arms consumed different budgets")
