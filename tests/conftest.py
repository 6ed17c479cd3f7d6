import itertools
import math

import numpy as np
import pytest

from owenexplain import Model, TableGame, make_rng


def random_table_game(n: int, seed: int) -> TableGame:
    rng = make_rng(seed)
    return TableGame(n, rng.uniform(-1.0, 1.0, 1 << n))


def additive_game(weights, base: float = 0.0) -> TableGame:
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    table = [base + sum(w[i] for i in range(n) if (bits >> i) & 1) for bits in range(1 << n)]
    return TableGame(n, table)


def unanimity_game(required, n: int) -> TableGame:
    need = sum(1 << i for i in required)
    return TableGame(n, [1.0 if bits & need == need else 0.0 for bits in range(1 << n)])


def permutation_shapley(game) -> np.ndarray:
    """Independent Shapley oracle: average marginal over all n! orderings."""
    n = game.n_atoms
    phi = np.zeros(n)
    count = 0
    for perm in itertools.permutations(range(n)):
        bits = 0
        for player in perm:
            before = game.table[bits]
            bits |= 1 << player
            phi[player] += game.table[bits] - before
        count += 1
    return phi / count


class RecordingModel(Model):
    """A victim that logs every batch it is sent, shape first, and returns
    NaN from call fail_at on, or for a batch holding the row poison."""

    def __init__(self, victim):
        self.victim = victim
        self.num_classes = victim.num_classes
        self.input_shape = victim.input_shape
        self.batches: list[bytes] = []
        self.fail_at: int | None = None
        self.poison: np.ndarray | None = None

    def evaluate(self, batch):
        batch = np.asarray(batch)
        self.batches.append(repr(batch.shape).encode() + batch.tobytes())
        out = self.victim.evaluate(batch)
        if self.fail_at is not None and len(self.batches) > self.fail_at:
            return np.full_like(out, np.nan)
        if self.poison is not None and (batch == self.poison).all(axis=1).any():
            return np.full_like(out, np.nan)
        return out


@pytest.fixture
def rng():
    return make_rng(12345)
