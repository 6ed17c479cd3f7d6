"""Ground-truth attribution engines.

exact_shapley enumerates every coalition (guarded at 20 atoms),
exact_owen computes the standard two-stage coalitional value over an
explicit partition, and group_uniform_shapley plays the group-level game
and splits each group's credit uniformly.

Engine contract. Every game has ``n_atoms`` and ``evals_used``.
exact_shapley reads ``full_table()``, the 2**n values indexed by mask,
and nothing else; exact_owen and group_uniform_shapley call only
``value_batch(masks)``. A mask is a plain int whose bit i marks atom i;
batches are int64 arrays up to 63 atoms and object arrays of Python ints
beyond. The masked model game below builds all of it from a model, an
input and a masker: its full table is a row of the shared VectorGame's
class-major dense table, filled once for every class, while value_batch
goes through the sparse coalition memo.

A ClassGame is read class-major instead: exact_owen and
group_uniform_shapley read every class at once through its VectorGame's
``values(masks)``, compute every class's attribution in one pass, and
keep the rows on that VectorGame under the checked partition. A later
call for any class of the same game and partition returns a copy of its
row, charges nothing and reports evals_used 0. Any other game is the
one-class case of the same arithmetic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import shapley_weights
from .blackbox import Model, checked_outputs
from .core import BudgetExhausted, QueryLedger
from .masking import BoundMasker, MaskerSpec

SHAPLEY_MAX_ATOMS = 20
OWEN_MAX_GROUPS = 12
OWEN_MAX_GROUP_SIZE = 12
_CHUNK = 4096
_FIRST_ROWS = 64


@dataclass
class Attribution:
    """Per-atom attribution plus the base value and evaluation count."""

    values: np.ndarray
    base_value: float
    method: str
    class_index: int | None
    evals_used: int
    max_evals: int | None = None

    @property
    def n_atoms(self) -> int:
        return int(self.values.size)

    def total(self) -> float:
        return float(self.values.sum())


class VectorGame:
    """Memoized coalition -> probability-vector game.

    A memo hit is free; a miss charges the ledger exactly one evaluation.
    One instance serves every class of an explanation, so multi-class
    attributions share a single evaluation stream. Outputs are rows of one
    growing (rows, num_classes) table; memo maps each coalition's bits to
    its row, so len(memo) counts coalitions. Once dense_table has been
    built, every lookup reads it instead and charges nothing.
    """

    def __init__(
        self,
        model: Model,
        x,
        masker: MaskerSpec,
        ledger: QueryLedger | None = None,
        tag: str = "explain",
    ):
        self.model = model
        self.masker = BoundMasker(x, masker)
        if masker.grid.n_cells != model.n_cells:
            raise ValueError("masker grid does not match the model input shape")
        self.ledger = ledger
        self.tag = tag
        self.n_atoms = masker.grid.atom_count
        self.full_bits = (1 << self.n_atoms) - 1
        self.memo: dict[int, int] = {}
        self._table = np.empty((_FIRST_ROWS, model.num_classes), dtype=np.float64)
        self._rows = 0
        self._dense: np.ndarray | None = None
        self._dense_evals = 0
        # (engine, partition) -> (per-class values, per-class base values)
        # of the class-major Owen engines, shared by every ClassGame.
        self._attributions: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def evals_used(self) -> int:
        """Coalitions evaluated: the memoized ones, plus the dense table's
        others once it is built."""
        return self._rows + self._dense_evals

    def misses(self, bits_list) -> list[int]:
        """Distinct coalitions not yet memoized, in first-seen order."""
        if self._dense is not None:
            return []
        memo = self.memo
        return [bits for bits in dict.fromkeys(bits_list) if bits not in memo]

    def fetch(self, bits_list, limit: int | None = None) -> None:
        """Charge and evaluate, as one ledger charge and one model batch,
        the distinct coalitions of bits_list that are not yet memoized.

        Raises BudgetExhausted, charging and evaluating nothing, if they
        number more than limit or than the ledger has left.
        """
        miss = self.misses(bits_list)
        if not miss:
            return
        if limit is not None and len(miss) > limit:
            raise BudgetExhausted(f"{len(miss)} coalitions exceed the limit of {limit}")
        if self.ledger is not None:
            self.ledger.charge(len(miss), self.tag)
        self.evaluate_misses(miss)

    def evaluate_misses(self, miss_list, memoize: bool = True) -> np.ndarray:
        """Evaluate coalitions assumed already charged to the ledger and
        return their (len(miss_list), num_classes) outputs, memoized unless
        memoize is False. miss_list holds Python ints or is an int64 array.

        Raises ModelOutputError, and memoizes nothing, if the model's
        outputs are mis-shaped or not finite.
        """
        if not len(miss_list):
            return np.empty((0, self.model.num_classes), dtype=np.float64)
        outputs = checked_outputs(self.model, self.masker.masked_batch(miss_list))
        if memoize:
            self._store(miss_list, outputs)
        return outputs

    def _store(self, bits_list: list[int], outputs: np.ndarray) -> None:
        """Memoize evaluated coalitions as the next rows of the table."""
        start, stop = self._rows, self._rows + len(bits_list)
        if stop > len(self._table):
            grown = np.empty((max(stop, 2 * len(self._table)), outputs.shape[1]), dtype=np.float64)
            grown[:start] = self._table[:start]
            self._table = grown
        self._table[start:stop] = outputs
        self.memo.update(zip(bits_list, range(start, stop)))
        self._rows = stop

    def dense_table(self) -> np.ndarray:
        """(num_classes, 2**n_atoms) outputs of every coalition, class-major:
        column r is the coalition whose members are the set bits of r, so
        each class's values are one contiguous row.

        Built once, in chunks of _CHUNK masks: memoized coalitions are
        copied in, and each chunk's others are charged and evaluated as one
        batch, the batches the memo path would send. None is added to the
        memo. The chunks are split over the parts of _kernels.run_in_parts,
        so a table of _kernels._SPLIT_MIN_SIZE entries or more calls the
        model from two threads at once. Parts take chunks in ascending order
        and charge each under one lock before it reaches the model; once a
        charge or an evaluation has failed, no part takes another chunk.
        Chunks that other parts took while the failing one was in flight
        stay charged and evaluated, but only the coalitions of the chunks
        below the failing one are memoized, as one part would have
        memoized them. Then its error is raised and no table is kept.
        """
        if self._dense is not None:
            return self._dense
        if self.n_atoms > SHAPLEY_MAX_ATOMS:
            raise ValueError(f"dense table guard: {self.n_atoms} atoms > {SHAPLEY_MAX_ATOMS}")
        size = 1 << self.n_atoms
        table = np.empty((self.model.num_classes, size), dtype=np.float64)
        known = np.zeros(size, dtype=bool)
        if self.memo:
            bits = np.fromiter(self.memo, np.int64, len(self.memo))
            known[bits] = True
            table[:, bits] = self._table[np.fromiter(self.memo.values(), np.intp, len(bits))].T
        chunks = -(-size // _CHUNK)
        lock = threading.Lock()
        next_chunk = 0
        failed: dict[int, BaseException] = {}

        def run(_part: int, _parts: int) -> None:
            nonlocal next_chunk
            chunk = next_chunk
            # The lock is held except while a chunk is evaluated, so a failed
            # charge is recorded before another part can take a chunk.
            with lock:
                try:
                    while not failed and next_chunk < chunks:
                        chunk = next_chunk
                        next_chunk += 1
                        start, stop = chunk * _CHUNK, min((chunk + 1) * _CHUNK, size)
                        miss = np.flatnonzero(~known[start:stop]) + start
                        if miss.size and self.ledger is not None:
                            self.ledger.charge(miss.size, self.tag)
                        lock.release()
                        try:
                            if miss.size:
                                outputs = self.evaluate_misses(miss, memoize=False)
                                if miss.size == stop - start:
                                    table[:, start:stop] = outputs.T
                                else:
                                    table[:, miss] = outputs.T
                        finally:
                            lock.acquire()
                except BaseException as exc:
                    failed[chunk] = exc

        _kernels.run_in_parts(size, chunks, run)
        if failed:
            first = min(failed)
            fresh = np.flatnonzero(~known[: first * _CHUNK])
            self._store(fresh.tolist(), table[:, fresh].T)
            raise failed[first]
        self._dense_evals = size - int(np.count_nonzero(known))
        self._dense = table
        return table

    def row(self, bits: int) -> np.ndarray:
        """Read-only output vector of a memoized coalition."""
        if self._dense is not None:
            out = self._dense[:, bits]
        else:
            out = self._table[self.memo[bits]]
        out.setflags(write=False)
        return out

    def values(self, masks) -> np.ndarray:
        """(num_classes, len(masks)) outputs of the coalitions masks, as a
        new class-major array.

        Masks are read in chunks of _CHUNK. A chunk that is not all
        memoized has its misses charged and evaluated as one batch, in
        first-seen order (fetch), before it is read.
        """
        masks = np.asarray(masks)
        if self._dense is not None:
            return np.take(self._dense, masks.astype(np.intp), axis=1)
        out = np.empty((self.model.num_classes, len(masks)), dtype=np.float64)
        memo = self.memo
        for start in range(0, len(masks), _CHUNK):
            chunk = masks[start : start + _CHUNK].tolist()
            # A chunk the memo already holds is read without a miss scan.
            try:
                rows = np.fromiter(map(memo.__getitem__, chunk), np.intp, len(chunk))
            except KeyError:
                self.fetch(chunk)
                rows = np.fromiter(map(memo.__getitem__, chunk), np.intp, len(chunk))
            out[:, start : start + len(chunk)] = self._table[rows].T
        return out


class ClassGame:
    """Scalar view of a VectorGame for one output class."""

    def __init__(self, vector_game: VectorGame, class_index: int):
        if not 0 <= class_index < vector_game.model.num_classes:
            raise ValueError("class index outside the model output")
        self.vector_game = vector_game
        self.class_index = class_index
        self.n_atoms = vector_game.n_atoms

    @property
    def evals_used(self) -> int:
        return self.vector_game.evals_used

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        return self.vector_game.values(masks)[self.class_index]

    def full_table(self) -> np.ndarray:
        """This class's value of every coalition, indexed by mask, as a
        read-only view of the shared dense table's contiguous row."""
        out = self.vector_game.dense_table()[self.class_index]
        out.setflags(write=False)
        return out


class TableGame:
    """Synthetic game backed by a dense 2**n value table (tests, oracles)."""

    def __init__(self, n_atoms: int, values):
        self.n_atoms = n_atoms
        self.table = np.asarray(values, dtype=np.float64)
        if self.table.shape != (1 << n_atoms,):
            raise ValueError("table must have 2**n_atoms entries")
        self.evals_used = 0

    def value_batch(self, masks) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.int64)
        self.evals_used += len(masks)
        return self.table[masks]

    def full_table(self) -> np.ndarray:
        """The table itself; counts one evaluation per coalition."""
        self.evals_used += len(self.table)
        return self.table


def exact_shapley(game) -> Attribution:
    """Exact Shapley values by full subset enumeration."""
    n = game.n_atoms
    if n > SHAPLEY_MAX_ATOMS:
        raise ValueError(f"exact_shapley guard: {n} atoms > {SHAPLEY_MAX_ATOMS}")
    before = game.evals_used
    table = game.full_table()
    phi = _kernels.shapley_from_table(table, n)
    return Attribution(
        values=np.asarray(phi, dtype=np.float64),
        base_value=float(table[0]),
        method="exact_shapley",
        class_index=getattr(game, "class_index", None),
        evals_used=game.evals_used - before,
    )


def check_partition(partition, n: int) -> list[list[int]]:
    """The groups, each sorted; ValueError unless they partition range(n)
    within the Owen guards."""
    groups = [sorted(int(i) for i in g) for g in partition]
    flat = [i for g in groups for i in g]
    if sorted(flat) != list(range(n)):
        raise ValueError("groups must partition the atom set exactly")
    if len(groups) > OWEN_MAX_GROUPS:
        raise ValueError(f"owen guard: more than {OWEN_MAX_GROUPS} groups")
    if any(len(g) > OWEN_MAX_GROUP_SIZE for g in groups):
        raise ValueError(f"owen guard: group larger than {OWEN_MAX_GROUP_SIZE}")
    return groups


def _mask_dtype(n_atoms: int):
    """int64 while every mask fits in 63 bits, else exact Python ints."""
    return np.int64 if n_atoms <= 63 else object


def _unions(parts, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Bits and sizes of every union of the given disjoint bitsets, indexed
    by which parts it takes: entry q is the union of parts[h] for every
    set bit h of q."""
    bits = np.zeros(1, dtype=dtype)
    sizes = np.zeros(1, dtype=np.intp)
    for part in parts:
        bits = np.concatenate([bits, bits | part])
        sizes = np.concatenate([sizes, sizes + 1])
    return bits, sizes


def _ascending_unions(contexts, subsets, n_atoms: int) -> np.ndarray:
    """Order that sorts (contexts[:, None] | subsets[None, :]).reshape(-1)
    ascending. Each mask is cut into 64-bit words, which np.lexsort
    compares from the most significant down, so no Python int is compared
    past 63 atoms."""
    width = 8 * max(1, (n_atoms + 63) // 64)

    def words(masks):
        packed = b"".join([bits.to_bytes(width, "little") for bits in masks.tolist()])
        return np.frombuffer(packed, dtype="<u8").reshape(len(masks), -1)

    keys = words(contexts)[:, None] | words(subsets)[None, :]
    # lexsort's last key is its primary one: the most significant word.
    return np.lexsort(keys.reshape(-1, width // 8).T)


def _class_major(game, method: str, partition, engine) -> Attribution:
    """Attribution of game by engine(read, classes, n_atoms, groups), which
    returns (classes, n_atoms) values and (classes,) base values, reading
    the game only through read(masks) -> (classes, len(masks)).

    A ClassGame is read every class at once through its VectorGame, and
    the result is kept there under (method, groups): a later call for any
    class of that game returns a copy of its row and charges nothing. Any
    other game is one class, read through value_batch."""
    groups = check_partition(partition, game.n_atoms)
    before = game.evals_used
    if isinstance(game, ClassGame):
        vector_game, row = game.vector_game, game.class_index
        shared = vector_game._attributions
        key = (method, tuple(map(tuple, groups)))
        if key not in shared:
            shared[key] = engine(
                vector_game.values, vector_game.model.num_classes, game.n_atoms, groups)
        values, base = shared[key]
    else:
        def read(masks):
            return np.asarray(game.value_batch(masks), dtype=np.float64)[None, :]

        values, base = engine(read, 1, game.n_atoms, groups)
        row = 0
    return Attribution(
        values=values[row].copy(),
        base_value=float(base[row]),
        method=method,
        class_index=getattr(game, "class_index", None),
        evals_used=game.evals_used - before,
    )


def exact_owen(game, partition) -> Attribution:
    """Two-stage coalitional value: groups bargain first, members second.

    phi_i = sum over coalitions Q of other groups and subsets S of i's own
    group of w_m(|Q|) * w_g(|S|) * [v(U(Q) u S u {i}) - v(U(Q) u S)].
    Coincides with exact_shapley under singleton groups.
    """
    return _class_major(game, "exact_owen", partition, _owen_values)


def _owen_values(read, classes: int, n: int, groups) -> tuple[np.ndarray, np.ndarray]:
    """exact_owen's values and base value of every class read returns."""
    m = len(groups)
    dtype = _mask_dtype(n)
    group_bits = [sum(1 << i for i in g) for g in groups]
    outer_w = shapley_weights(m)
    phi = np.zeros((classes, n), dtype=np.float64)

    for gi, members in enumerate(groups):
        # Rows: unions of the other groups (contexts); columns: subsets of
        # this group.
        contexts, q_sizes = _unions([group_bits[h] for h in range(m) if h != gi], dtype)
        subsets, s_sizes = _unions([1 << atom for atom in members], dtype)
        masks = (contexts[:, None] | subsets[None, :]).reshape(-1)
        # Every mask is distinct; the game sees them in ascending order.
        order = _ascending_unions(contexts, subsets, n)
        values = np.empty((classes, masks.size), dtype=np.float64)
        values[:, order] = read(masks[order])
        # The whole group lacks no member, so its weight (0.0) is never read.
        inner_w = np.append(shapley_weights(len(members)), 0.0)
        weights = outer_w[q_sizes][:, None] * inner_w[s_sizes][None, :]
        for j, atom in enumerate(members):
            # Axis 3 splits the subsets by member j: [..., 0, :] lacks it,
            # [..., 1, :] holds it. Each class's terms run context by
            # context, subsets ascending, and are summed left to right from
            # 0.0: one cumsum along each class's row.
            split = values.reshape(classes, len(contexts), -1, 2, 1 << j)
            w = weights.reshape(len(contexts), -1, 2, 1 << j)[:, :, 0]
            terms = (w * (split[:, :, :, 1] - split[:, :, :, 0])).reshape(classes, -1)
            sums = np.cumsum(np.concatenate([np.zeros((classes, 1)), terms], axis=1), axis=1)
            phi[:, atom] = sums[:, -1]

    # v(empty) is the first value of every group's batch, so a memoized
    # game reads it without a charge.
    return phi, read(np.zeros(1, dtype=dtype))[:, 0]


def group_uniform_shapley(game, partition) -> Attribution:
    """Group-level exact Shapley, split uniformly across each group's atoms."""
    return _class_major(game, "group_uniform", partition, _group_uniform_values)


def _group_uniform_values(read, classes: int, n: int, groups) -> tuple[np.ndarray, np.ndarray]:
    """group_uniform_shapley's values and base value of every class read
    returns: one subset-table kernel call per class."""
    m = len(groups)
    masks, _ = _unions([sum(1 << i for i in g) for g in groups], _mask_dtype(n))
    table = read(masks)
    phi = np.zeros((classes, n), dtype=np.float64)
    for row, values in zip(phi, table):
        group_phi = _kernels.shapley_from_table(values, m)
        for gi, members in enumerate(groups):
            row[members] = group_phi[gi] / len(members)
    return phi, table[:, 0]


def masked_game(
    model: Model,
    x,
    masker: MaskerSpec,
    class_index: int,
    ledger: QueryLedger | None = None,
    tag: str = "oracle",
) -> ClassGame:
    """Scalar coalition game from (model, input, masker, class)."""
    game = ClassGame(VectorGame(model, x, masker, ledger, tag), class_index)
    return game
