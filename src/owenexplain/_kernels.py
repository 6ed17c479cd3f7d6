"""Hot numpy kernels: separable Gaussian blur, batch coalition masking
and subset-table Shapley accumulation.

The blur accumulates its taps in ascending-offset order. The Shapley
kernel is one O(2**n) fold on the caller's thread (shapley_fold): it
weights the centred table once by coalition size into a holding and a
lacking table and takes the bits from the top, reading each atom's value
off the two tables' halves and adding each table's upper half onto its
lower. The half table is read as rows of at least 2**CHUNK_BITS entries
(row_split; below 13 atoms one row is the whole half table), a row of the
lower half and its twin in the upper half at a time, from a source: a
table's rows (table_pairs, which shapley_from_table folds one class at a
time), or coalitions evaluated as the fold asks for them. The rows are
weighed in bit-reversed order and folded over the row bits depth-first,
each pair as soon as both rows exist, so the live state is a stack of
rows small enough to stay in cache (about 1 MB a class at n = 20), and
no buffer spans the table. Each reduction is numpy's own pairwise sum
along one class's row, and the row sums of a fold level are added as a
binary tree in ascending row order: numpy splits a power-of-two buffer at
exact halves down to 128-entry blocks, so with rows of at least 128
entries these are the operands and pairs of one sum over the whole
buffer, and its bits. They do not depend on BLAS or its thread count.
"""

from __future__ import annotations

import math

import numpy as np


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps truncated at 3*sigma (radius >= 1)."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    radius = max(1, int(math.ceil(3.0 * sigma)))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    weights = np.exp(-0.5 * (offsets / sigma) ** 2)
    return weights / weights.sum()


def gaussian_blur(data: np.ndarray, shape: tuple[int, ...], sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a flat row-major tensor, clamp-to-edge."""
    kernel = gaussian_kernel(sigma)
    radius = (len(kernel) - 1) // 2
    arr = np.asarray(data, dtype=np.float64).reshape(shape)
    for axis, dim in enumerate(shape):
        if dim == 1:
            continue
        base = np.arange(dim)
        acc = np.zeros_like(arr)
        for tap in range(len(kernel)):
            idx = np.clip(base + (tap - radius), 0, dim - 1)
            acc = acc + kernel[tap] * np.take(arr, idx, axis=axis)
        arr = acc
    return arr.reshape(-1)


def apply_masks(
    x: np.ndarray, fill: np.ndarray, cell_atom: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Masked inputs for a batch of coalitions.

    active is a (n_coalitions, n_atoms) uint8 matrix; cells of inactive
    atoms are replaced by the fill reference.

    The batch is Fortran-ordered (each cell's column contiguous), and the
    layout is part of the contract: a model's matmul can round differently
    on a C-ordered copy of the same bytes, and BoundMasker.chunk_batch
    rewrites the same layout in place.
    """
    active_cells = active[:, cell_atom].astype(bool)
    return np.where(active_cells, x[np.newaxis, :], fill[np.newaxis, :])


def popcounts(n: int) -> np.ndarray:
    """Population count of every mask in [0, 2**n) as uint8."""
    # Masks [2**k, 2**(k+1)) are masks [0, 2**k) plus bit k.
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        counts = np.concatenate([counts, counts + 1])
    return counts


def shapley_weights(n: int) -> np.ndarray:
    """w[s] = s!(n-s-1)!/n! via log-factorials (overflow-safe)."""
    lg = [math.lgamma(k + 1) for k in range(n + 1)]
    return np.array(
        [math.exp(lg[s] + lg[n - s - 1] - lg[n]) for s in range(n)], dtype=np.float64
    )


def bit_reversed(bits: int) -> np.ndarray:
    """Every index in [0, 2**bits), ordered by its bits read backwards."""
    # Reversed, indices [2**k, 2**(k+1)) are indices [0, 2**k) with their
    # new top bit, 2**(bits-1-k), set.
    order = np.zeros(1, dtype=np.intp)
    for k in range(bits):
        order = np.concatenate([order, order + (1 << (bits - 1 - k))])
    return order


def tree_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of a power-of-two number of terms, along the first axis, as a
    balanced binary tree in ascending order: the order numpy's pairwise sum
    gives a buffer whose blocks sum to these terms."""
    while len(terms) > 1:
        terms = terms[0::2] + terms[1::2]
    return terms[0]


# A row of the Shapley fold's half table keeps at least 2**CHUNK_BITS
# entries (the whole half table below 13 atoms), and the exact-Shapley
# stream evaluates its coalitions in aligned chunks of 2**CHUNK_BITS masks,
# so a row pair holds whole chunks.
CHUNK_BITS = 12


def row_split(n: int) -> tuple[int, int]:
    """(row_bits, col_bits) of an n-atom game's half table, n >= 1: its
    masks m < 2**(n-1) form 2**row_bits rows of 2**col_bits columns. A
    third of the bits as row bits keeps both the row loop and the weight
    rows short, but a row keeps at least 2**CHUNK_BITS columns, or all of
    them: at least 128, which the fold's sums need."""
    col_bits = max(n - 1 - (n - 1) // 3, min(n - 1, CHUNK_BITS))
    return n - 1 - col_bits, col_bits


def table_pairs(tables: np.ndarray, n: int):
    """shapley_fold's source over (classes, 2**n) tables: pairs(r) is row r
    of each table's lower half and its twin in the upper half."""
    row_bits, col_bits = row_split(n)
    halves = tables.reshape(len(tables), 2, 1 << row_bits, 1 << col_bits)
    return lambda r: (halves[:, 0, r], halves[:, 1, r])


def shapley_from_table(values: np.ndarray, n: int) -> np.ndarray:
    """Exact Shapley values from a dense 2**n game-value table.

    values[mask] is the game value of the coalition whose members are the
    set bits of mask. A (classes, 2**n) array of tables gives (classes, n)
    values: the tables are folded one at a time, each through table_pairs,
    so the fold's stack spans one class.
    """
    size = 1 << n
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2) or values.shape[-1] != size:
        raise ValueError("value table must have length 2**n")
    phi = np.empty(values.shape[:-1] + (n,), dtype=np.float64)
    if n == 0:
        return phi
    for table, out in zip(values.reshape(-1, size), phi.reshape(-1, n)):
        out[:] = shapley_fold(table_pairs(table[None], n), n, 1)[0][0]
    return phi


def shapley_fold(pairs, n: int, classes: int) -> tuple[np.ndarray, np.ndarray]:
    """(classes, n) exact Shapley values and (classes,) base values of
    n-atom games, n >= 1, read row pair by row pair from a source.

    With (row_bits, col_bits) = row_split(n), pairs(r) returns (lo, hi),
    each (classes, 2**col_bits): the values of the masks r * 2**col_bits +
    j and, in hi, those masks plus 2**(n-1). It is called once for each r
    in bit_reversed(row_bits), which starts at row 0, so the base value is
    lo[:, 0] of the first pair. The fold reads each pair before it asks for
    the next, so a source may reuse its buffers. Each class gets the bits
    it gets alone.
    """
    # With c = values - values[0] and w(s) = s!(n-s-1)!/n!, atom i gets
    #   sum over T holding i of H(T) - sum over S lacking i of L(S),
    # H(T) = w(|T|-1) c(T) and L(S) = w(|S|) c(S): each atom's weights sum
    # to 1 on both sides, so centring changes no value. Bits are taken
    # from the top: pairing T = m + 2**i with S = m gives
    # phi[i] = sum over m < 2**i of H(m + 2**i) - L(m), and then the upper
    # half of each table is added onto the lower, which sums both over bit
    # i for the bits below. A dead atom i has H(m + 2**i) == L(m) in every
    # bit, and both get the same adds, so its value is exactly 0.0.
    # Weights by size, shifted by one: padded[s + 1] = w(s), and 0 for the
    # empty holding coalition and the full lacking one.
    padded = np.concatenate(([0.0], shapley_weights(n), [0.0]))
    # A row whose index has p set bits takes the weights rows[p + shift],
    # so no weight array spans the half table.
    row_bits, col_bits = row_split(n)
    counts = popcounts(col_bits)
    rows = np.stack([padded[p + counts] for p in range(row_bits + 3)])
    row_counts = popcounts(row_bits)
    # The row bits are folded depth-first, so no buffer spans the half
    # table: rows are weighed in bit-reversed order, and two rows that
    # differ in row bit b are folded as soon as both are done. Held and
    # lacked rows of every class wait on a stack of row_bits + 1 slots,
    # the rows that differ in bit b one slot above the rows they fold
    # onto, and each slot keeps its fold in cache.
    held, lacked = np.empty((2, row_bits + 1, classes, 1 << col_bits))
    spare, scratch = np.empty((2, classes, 1 << col_bits))
    slot_rows = np.empty(row_bits + 1, dtype=np.intp)
    # sums[b, r] is row r's sums for bit col_bits + b (b = row_bits is bit
    # n-1), one per class, each numpy's pairwise sum along one class's
    # row. numpy's pairwise sum of a power-of-two buffer splits it at
    # exact halves down to 128-element blocks, so with rows of at least
    # 128 elements a whole-buffer sum is the tree of its row sums in
    # ascending order: tree_sum adds the same operands in the same pairs
    # as the whole-buffer sums of the unblocked fold, and gives its bits.
    sums = np.empty((row_bits + 1, 1 << row_bits, classes))
    phi = np.empty((classes, n), dtype=np.float64)
    for done, r in enumerate(bit_reversed(row_bits).tolist()):
        lo, hi = pairs(r)
        if not done:
            base = lo[:, :1].copy()
        # The rows done before this one wait folded in one slot per set
        # bit of done, so this one takes the slot above them.
        slot = done.bit_count()
        slot_rows[slot] = r
        p = row_counts[r]
        h, l = held[slot], lacked[slot]
        # Bit n-1 on the two halves: the lower half's mask m has as many
        # members as its row and column bits, the upper half's
        # m + 2**(n-1) one more.
        np.subtract(hi, base, out=l)
        np.multiply(l, rows[p + 1], out=h)  # H(m + 2**(n-1))
        l *= rows[p + 2]  # L(m + 2**(n-1))
        np.subtract(lo, base, out=scratch)
        np.multiply(scratch, rows[p + 1], out=spare)  # L(m)
        scratch *= rows[p]  # H(m)
        l += spare
        sums[row_bits, r] = np.subtract(h, spare, out=spare).sum(axis=1)
        h += scratch
        # Each trailing set bit of done is a slot below whose row differs
        # from this one in the next lower row bit.
        bit = row_bits
        while done & 1:
            done >>= 1
            slot -= 1
            bit -= 1
            sums[bit, slot_rows[slot]] = np.subtract(
                held[slot + 1], lacked[slot], out=spare).sum(axis=1)
            held[slot] += held[slot + 1]
            lacked[slot] += lacked[slot + 1]
    for b in range(row_bits + 1):
        phi[:, col_bits + b] = tree_sum(sums[b, : 1 << b])
    # Slot 0 now holds both tables summed over every row bit; the column
    # bits fold it in place.
    h, l = held[0], lacked[0]
    for i in range(col_bits - 1, -1, -1):
        step = 1 << i
        phi[:, i] = np.subtract(
            h[:, step : 2 * step], l[:, :step], out=spare[:, :step]).sum(axis=1)
        h[:, :step] += h[:, step : 2 * step]
        l[:, :step] += l[:, step : 2 * step]
    return phi, base[:, 0]
