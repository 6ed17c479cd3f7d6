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
beyond. The Owen engines plan their reads from the partition alone: each
distinct coalition is read once, in ascending chunks of _CHUNK masks, and
a coalition that two groups' batches share is taken from the first
group's values. The masked model game below builds all of it from a
model, an input and a masker and keeps no memo: value_batch evaluates
and charges every mask it is given, and the full table is a row of the
shared VectorGame's class-major dense table, filled once for every
class.

A ClassGame is read class-major instead. exact_shapley folds every class
of its VectorGame at once through _kernels.shapley_fold, streaming the
game's coalitions into the fold row pair by row pair
(VectorGame.shapley_pairs) with no table kept. exact_owen and
group_uniform_shapley read every class at once through
VectorGame.read. Each computes every class's attribution in one pass
and keeps the rows on that VectorGame, under the checked partition for
the Owen engines. A later call for any class of the same game (and
partition) returns a copy of its row, charges nothing and reports
evals_used 0. Any other game is the one-class case of the same
arithmetic.
"""

from __future__ import annotations

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
_CHUNK = 1 << _kernels.CHUNK_BITS  # masks per dense-fill, stream and Owen batch


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
    """Coalition -> probability-vector game, with no memo.

    Every coalition read is charged to the ledger and evaluated, once per
    read: the callers ask for each coalition once. One instance serves
    every class of an explanation, so multi-class attributions share a
    single evaluation stream. The dense table, once built, is kept for
    full_table; nothing else is cached but the class-major engines'
    attributions. evals_used counts every coalition evaluated.
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
        self.evals_used = 0
        # Always empty: only perfbench/tracing.py reads it, for
        # oracle.memo_entries.
        self.memo = ()
        self._dense: np.ndarray | None = None
        # (engine, partition), or (engine,) for exact_shapley -> (per-class
        # values, per-class base values) of the class-major engines, shared
        # by every ClassGame.
        self._attributions: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def read(self, masks, limit: int | None = None) -> np.ndarray:
        """(len(masks), num_classes) outputs of the coalitions masks,
        charged as one ledger charge and evaluated as one checked model
        batch.

        Raises BudgetExhausted, charging and evaluating nothing, if they
        number more than limit or than the ledger has left.
        """
        if limit is not None and len(masks) > limit:
            raise BudgetExhausted(f"{len(masks)} coalitions exceed the limit of {limit}")
        if self.ledger is not None:
            self.ledger.charge(len(masks), self.tag)
        outputs = self.evaluate_misses(masks)
        self.evals_used += len(masks)
        return outputs

    def evaluate_misses(self, masks) -> np.ndarray:
        """(len(masks), num_classes) outputs of the coalitions masks, as
        one checked model batch that the caller charges and counts. masks
        is a list or an array. perfbench/tracing.py patches it by name.

        Raises ModelOutputError if the model's outputs are mis-shaped or
        not finite.
        """
        return checked_outputs(self.model, self.masker.masked_batch(masks))

    def dense_table(self) -> np.ndarray:
        """(num_classes, 2**n_atoms) outputs of every coalition, class-major:
        column r is the coalition whose members are the set bits of r, so
        each class's values are one contiguous row. It serves full_table.

        Built once, on the caller's thread, in ascending chunks of _CHUNK
        masks, each charged and evaluated as one batch. _CHUNK and the
        table's size are powers of two, so every chunk is aligned to its
        length: the chunks are masked into one buffer through
        BoundMasker.chunk_batch, which rewrites only the cells of atoms
        whose bit changed since the last chunk, and each chunk's outputs
        are copied into the table before the buffer is rewritten. A
        softmax victim's outputs are the (rows, classes) view of a
        class-major array, so each class's copy is one contiguous row. If
        a chunk's charge or evaluation fails, the error is raised with the
        chunks below it charged, and no table is kept.
        """
        if self._dense is not None:
            return self._dense
        if self.n_atoms > SHAPLEY_MAX_ATOMS:
            raise ValueError(f"dense table guard: {self.n_atoms} atoms > {SHAPLEY_MAX_ATOMS}")
        size = 1 << self.n_atoms
        step = min(_CHUNK, size)
        table = np.empty((self.model.num_classes, size), dtype=np.float64)
        batch = None  # the chunk buffer
        for start in range(0, size, step):
            if self.ledger is not None:
                self.ledger.charge(step, self.tag)
            batch = self.masker.chunk_batch(start, step, batch, start - step)
            table[:, start : start + step] = checked_outputs(self.model, batch).T
            self.evals_used += step
        self._dense = table
        return table

    def shapley_pairs(self):
        """The Shapley fold's source (_kernels.shapley_fold) over every
        coalition of this game, for every class.

        Each call evaluates one row pair's coalitions in aligned chunks of
        _CHUNK masks (a row holds whole chunks, and below 13 atoms the pair
        is the whole table), masked into one buffer through
        BoundMasker.chunk_batch and each charged and evaluated as one
        batch. These are the dense fill's batches, in the fold's row order,
        and no table is kept, not even after a fill: a failure raises with
        every chunk fetched so far charged, and a later read evaluates
        again.
        """
        n = self.n_atoms
        col_bits = _kernels.row_split(n)[1]
        width = 1 << col_bits
        step = min(_CHUNK, 1 << n)
        outputs = np.empty((self.model.num_classes, 2 * width), dtype=np.float64)
        batch, held = None, 0  # the chunk buffer and the chunk it holds

        def pairs(r):
            nonlocal batch, held
            for j in range(0, 2 * width, step):
                # Column j of the pair is mask r * width + j of the lower
                # half, or from width on its twin in the upper half.
                start = (j >> col_bits << (n - 1)) | (r << col_bits) | (j & (width - 1))
                if self.ledger is not None:
                    self.ledger.charge(step, self.tag)
                batch = self.masker.chunk_batch(start, step, batch, held)
                held = start
                outputs[:, j : j + step] = checked_outputs(self.model, batch).T
                self.evals_used += step
            return outputs[:, :width], outputs[:, width:]

        return pairs


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

    def value_batch(self, masks) -> np.ndarray:
        """This class's value of the coalitions masks: one read of the
        VectorGame, charged and evaluated on every call."""
        return self.vector_game.read(masks)[:, self.class_index]

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
    """Exact Shapley values by full subset enumeration.

    A ClassGame's values come from one kernel fold over its VectorGame's
    shapley_pairs, every class at once, kept on that VectorGame as the Owen
    engines keep theirs (_class_major): a later call for any class of the
    game returns a copy of its row and charges nothing."""
    n = game.n_atoms
    if n > SHAPLEY_MAX_ATOMS:
        raise ValueError(f"exact_shapley guard: {n} atoms > {SHAPLEY_MAX_ATOMS}")
    before = game.evals_used
    if isinstance(game, ClassGame):
        vector_game, row = game.vector_game, game.class_index
        shared = vector_game._attributions
        if ("exact_shapley",) not in shared:
            shared[("exact_shapley",)] = _kernels.shapley_fold(
                vector_game.shapley_pairs(), n, vector_game.model.num_classes)
        values, base = shared[("exact_shapley",)]
    else:
        table = game.full_table()
        values, base, row = _kernels.shapley_from_table(table[None], n), table[:1], 0
    return Attribution(
        values=values[row].copy(),
        base_value=float(base[row]),
        method="exact_shapley",
        class_index=getattr(game, "class_index", None),
        evals_used=game.evals_used - before,
    )


def check_partition(partition, n: int) -> list[list[int]]:
    """The groups, each sorted; ValueError unless they partition range(n)
    into non-empty groups within the Owen guards."""
    groups = [sorted(int(i) for i in g) for g in partition]
    if not all(groups):
        raise ValueError("groups must not be empty")
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


def _class_major(game, method: str, partition, engine) -> Attribution:
    """Attribution of game by engine(read, classes, n_atoms, groups), which
    returns (classes, n_atoms) values and (classes,) base values, reading
    the game only through read(masks) -> (classes, len(masks)).

    A ClassGame is read every class at once through VectorGame.read, and
    the result is kept on its VectorGame under (method, groups): a later
    call for any class of that game returns a copy of its row and charges
    nothing. Any other game is one class, read through value_batch."""
    groups = check_partition(partition, game.n_atoms)
    before = game.evals_used
    if isinstance(game, ClassGame):
        vector_game, row = game.vector_game, game.class_index
        shared = vector_game._attributions
        key = (method, tuple(map(tuple, groups)))
        if key not in shared:
            shared[key] = engine(lambda masks: vector_game.read(masks).T,
                                 vector_game.model.num_classes, game.n_atoms, groups)
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
    """exact_owen's values and base value of every class read returns.

    Each group's batch is read in ascending chunks of _CHUNK masks, one
    read per chunk of the masks no earlier group read. Those are known
    from the partition: in group gi's batch every other group is wholly in
    or out, so only a union of whole groups can appear in two batches, and
    group 0's batch holds every such union. From group 1 on, the masks that
    take none or all of the group are those unions, and they are taken
    from group 0's values.
    """
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
        order = np.argsort(masks)
        ascending = masks[order]
        fresh = np.ones((len(contexts), len(subsets)), dtype=bool)
        fresh[:, [0, -1]] = gi == 0
        fresh = fresh.reshape(-1)[order]
        got = np.empty((classes, masks.size), dtype=np.float64)
        if gi == 0:
            first, first_got = ascending, got
        else:
            known = np.flatnonzero(~fresh)
            got[:, known] = first_got[:, np.searchsorted(first, ascending[known])]
        for start in range(0, masks.size, _CHUNK):
            chunk = np.flatnonzero(fresh[start : start + _CHUNK]) + start
            if chunk.size:
                got[:, chunk] = read(ascending[chunk])
        values = np.empty_like(got)
        values[:, order] = got
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

    # v(empty) is the smallest mask of group 0's batch, read there.
    return phi, first_got[:, 0]


def group_uniform_shapley(game, partition) -> Attribution:
    """Group-level exact Shapley, split uniformly across each group's atoms."""
    return _class_major(game, "group_uniform", partition, _group_uniform_values)


def _group_uniform_values(read, classes: int, n: int, groups) -> tuple[np.ndarray, np.ndarray]:
    """group_uniform_shapley's values and base value of every class read
    returns: one subset-table kernel call for every class."""
    masks, _ = _unions([sum(1 << i for i in g) for g in groups], _mask_dtype(n))
    table = read(masks)
    group_phi = _kernels.shapley_from_table(table, len(groups))
    phi = np.zeros((classes, n), dtype=np.float64)
    for gi, members in enumerate(groups):
        phi[:, members] = group_phi[:, gi, None] / len(members)
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
