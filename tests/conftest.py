import itertools
import math

import numpy as np
import pytest

from owenexplain import Model, QueryLedger, TableGame, make_rng, oracle


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
    NaN from call fail_at on."""

    def __init__(self, victim):
        self.victim = victim
        self.num_classes = victim.num_classes
        self.input_shape = victim.input_shape
        self.batches: list[bytes] = []
        self.fail_at: int | None = None

    def evaluate(self, batch):
        batch = np.asarray(batch)
        self.batches.append(repr(batch.shape).encode() + batch.tobytes())
        out = self.victim.evaluate(batch)
        if self.fail_at is not None and len(self.batches) > self.fail_at:
            return np.full_like(out, np.nan)
        return out


class ChargeLog(QueryLedger):
    """A ledger that also lists its charges, in order."""

    def __post_init__(self):
        super().__post_init__()
        self.charges: list[tuple[int, str]] = []

    def try_charge(self, n: int, tag: str) -> bool:
        charged = super().try_charge(n, tag)
        if charged:
            self.charges.append((n, tag))
        return charged


class DictMemo:
    """Reference memo walk: a dict from each mask read to its output row,
    filled chunk by chunk. Each chunk's distinct misses, in first-seen
    order, are charged to the game's ledger and evaluated through
    game.evaluate_misses, so the charges and model batches are the ones
    a reader that asks for each coalition once must send."""

    def __init__(self, game):
        self.game = game
        self.memo: dict[int, np.ndarray] = {}

    @property
    def evals_used(self) -> int:
        return len(self.memo)

    def values(self, masks) -> np.ndarray:
        game, memo = self.game, self.memo
        masks = np.asarray(masks)
        out = np.empty((game.model.num_classes, len(masks)), dtype=np.float64)
        for start in range(0, len(masks), oracle._CHUNK):
            chunk = masks[start : start + oracle._CHUNK].tolist()
            miss = [bits for bits in dict.fromkeys(chunk) if bits not in memo]
            if miss:
                if game.ledger is not None:
                    game.ledger.charge(len(miss), game.tag)
                memo.update(zip(miss, game.evaluate_misses(miss)))
            out[:, start : start + len(chunk)] = np.array([memo[bits] for bits in chunk]).T
        return out


@pytest.fixture
def rng():
    return make_rng(12345)
