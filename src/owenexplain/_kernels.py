"""Hot numpy kernels: separable Gaussian blur, batch coalition masking
and subset-table Shapley accumulation, and the rule that splits a job
over a large table between CPUs.

The blur accumulates its taps in ascending-offset order. The Shapley
kernel loops over atoms only: each atom's pass splits the table into the
masks without and with that atom by a reshape, writes their differences
into a gains buffer, and takes one dot product with one weight operand
shared by every atom. run_in_parts splits a job over a table of at least
_SPLIT_MIN_SIZE entries into up to _MAX_PARTS parts, one per CPU the
process may run on, the caller's thread running one part and a thread of
its own each other. The Shapley kernel deals its atoms over the parts,
one gains buffer per part; each atom gets the same operations either
way, so the values are byte-identical. The exact-Shapley dense fill
(oracle.VectorGame.dense_table) uses the same split for its model
batches, so the model is called from two threads at once.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable

import numpy as np

# Tables of at least this many entries split their work over the CPUs:
# the kernel its atoms, the dense fill its chunks.
# Kernel, median ms per call, serial against two parts, on a 2-vCPU VM
# with OpenBLAS held to one thread: n=16 2.24 / 2.25, n=17 4.86 / 3.63,
# n=18 10.1 / 6.9, n=19 20.5 / 15.0, n=20 48.6 / 25.8. With OpenBLAS's
# default two threads the split loses, because BLAS's worker busy-waits
# on the second CPU between calls: n=17 5.1 / 6.1, n=20 52.5 / 58.8, and
# four n=20 classes in a row 131 / 178-200 (BENCH_15.json). The dense
# fill of a 20-atom game, one part against two: 146 / 84 with BLAS on one
# thread, 101-108 / 98 with its default threads.
_SPLIT_MIN_SIZE = 1 << 17

# Parts at most: two is the only count measured. Each kernel part holds
# its own gains buffer of 2**(n-1) float64s (4 MB at n=20).
_MAX_PARTS = 2


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


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def run_in_parts(size: int, limit: int, run: Callable[[int, int], None]) -> None:
    """Call run(part, parts) for every part of a job over a table of size
    entries: min(CPUs, limit, _MAX_PARTS) parts from _SPLIT_MIN_SIZE
    entries on, else one. The caller runs part 0 and a thread of its own
    runs each other part. Every thread is joined before the caller's error,
    or else the first helper's, is raised."""
    parts = min(_cpu_count(), limit, _MAX_PARTS) if size >= _SPLIT_MIN_SIZE else 1
    errors: list[BaseException] = []

    def helper(part: int) -> None:
        try:
            run(part, parts)
        except BaseException as exc:
            errors.append(exc)

    threads = []
    try:
        for part in range(1, parts):
            thread = threading.Thread(target=helper, args=(part,))
            thread.start()
            threads.append(thread)
        run(0, parts)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def shapley_from_table(values: np.ndarray, n: int) -> np.ndarray:
    """Exact Shapley values from a dense 2**n game-value table.

    values[mask] is the game value of the coalition whose members are the
    set bits of mask.
    """
    size = 1 << n
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (size,):
        raise ValueError("value table must have length 2**n")
    phi = np.empty(n, dtype=np.float64)
    if n == 0:
        return phi
    # Deleting bit i maps the masks without atom i, ascending, onto
    # [0, 2**(n-1)) and keeps each mask's size, so one weight operand,
    # indexed by that compressed mask, serves every atom.
    without = shapley_weights(n)[popcounts(n - 1)]

    def run(part: int, parts: int) -> None:
        gains = np.empty(size >> 1, dtype=np.float64)
        for i in range(part, n, parts):
            # Axis 1 splits every mask by bit i: [:, 0] lacks atom i, [:, 1]
            # holds it, both in ascending mask order. The gains land in a
            # contiguous buffer: a strided dot operand takes another BLAS
            # path, which sums in another order.
            split = values.reshape(-1, 2, 1 << i)
            np.subtract(split[:, 1], split[:, 0], out=gains.reshape(-1, 1 << i))
            phi[i] = float(np.dot(without, gains))

    run_in_parts(size, n, run)
    return phi
