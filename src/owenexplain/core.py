"""Shared value types: atom grids, partition trees, the query ledger, and
deterministic seeding.

Shapes are plain tuples of positive ints; tensors are flat row-major
float64 numpy arrays whose length matches the shape product. A coalition
is a plain int mask over atom indices (bit i set means atom i is
present), which is what keys every memo table in the package.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

MAX_CELLS = 1 << 24


class BudgetExhausted(Exception):
    """Raised when an operation cannot proceed without exceeding the ledger
    budget. A control signal, not a failure: callers stop refining."""


class ConfigError(ValueError):
    """Invalid configuration (CLI exit code 2)."""


def check_shape(dims) -> tuple[int, ...]:
    """Validate a shape: positive dims, product bounded by MAX_CELLS."""
    shape = tuple(int(d) for d in dims)
    if not shape:
        raise ValueError("shape must have at least one dimension")
    if any(d < 1 for d in shape):
        raise ValueError(f"shape dims must be >= 1, got {shape}")
    if math.prod(shape) > MAX_CELLS:
        raise ValueError(f"shape product exceeds {MAX_CELLS}")
    return shape


def ensure_tensor(data, shape) -> np.ndarray:
    """Coerce to a flat float64 tensor for the given shape; reject
    non-finite entries and length mismatches."""
    shape = check_shape(shape)
    arr = np.ascontiguousarray(data, dtype=np.float64).reshape(-1)
    if arr.size != math.prod(shape):
        raise ValueError(f"data length {arr.size} does not match shape {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor entries must be finite")
    return arr


@dataclass(frozen=True)
class AtomGrid:
    """Tiling of the input into maskable blocks (atoms).

    Atoms are indexed row-major over per-axis block counts; edge blocks
    keep their remainder cells so the tiling is exact.
    """

    input_shape: tuple[int, ...]
    block: tuple[int, ...]
    atom_counts: tuple[int, ...]
    atom_count: int
    cell_atom: np.ndarray  # int32, cell index -> atom index

    @property
    def n_cells(self) -> int:
        return math.prod(self.input_shape)


def build_atom_grid(input_shape, block) -> AtomGrid:
    """Tile input_shape with blocks of the given per-axis extents."""
    shape = check_shape(input_shape)
    blk = tuple(int(b) for b in block)
    if len(blk) != len(shape):
        raise ValueError(f"block rank {len(blk)} != input rank {len(shape)}")
    if any(b < 1 for b in blk):
        raise ValueError("block entries must be >= 1")
    counts = tuple(-(-d // b) for d, b in zip(shape, blk))
    atom_count = math.prod(counts)
    coords = [np.minimum(np.arange(d) // b, c - 1) for d, b, c in zip(shape, blk, counts)]
    mesh = np.meshgrid(*coords, indexing="ij")
    atom_idx = mesh[0]
    for axis in range(1, len(shape)):
        atom_idx = atom_idx * counts[axis] + mesh[axis]
    cell_atom = np.ascontiguousarray(atom_idx.reshape(-1), dtype=np.int32)
    cell_atom.setflags(write=False)
    return AtomGrid(shape, blk, counts, atom_count, cell_atom)


@dataclass(frozen=True)
class TreeNode:
    """One partition node: its atoms as a mask (bits) and as ascending
    indices (atoms)."""

    id: int
    left: int | None
    right: int | None
    bits: int
    atoms: tuple[int, ...]
    depth: int

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class PartitionTree:
    """Binary hierarchy over atoms; node ids are preorder indices."""

    nodes: tuple[TreeNode, ...]
    leaf_ids: tuple[int, ...]

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    @property
    def atom_count(self) -> int:
        return len(self.root.atoms)


def build_partition_tree(grid: AtomGrid) -> PartitionTree:
    """Recursive axis-aligned bisection of the atom grid.

    Splits the longest box axis (ties: lowest axis index) at
    floor(extent/2) until every leaf holds one atom.
    """
    counts = grid.atom_counts

    def node(node_id, left, right, box, depth) -> TreeNode:
        # Row-major over the box, so the atom indices come out ascending.
        atoms = [0]
        for axis, (start, stop) in enumerate(box):
            atoms = [i * counts[axis] + k for i in atoms for k in range(start, stop)]
        bits = sum(1 << i for i in atoms)
        return TreeNode(node_id, left, right, bits, tuple(atoms), depth)

    nodes: list[TreeNode] = []
    leaf_ids: list[int] = []

    def recurse(box, depth: int) -> int:
        node_id = len(nodes)
        nodes.append(None)  # placeholder, preorder slot
        extents = [stop - start for start, stop in box]
        if all(e == 1 for e in extents):
            nodes[node_id] = node(node_id, None, None, box, depth)
            leaf_ids.append(node_id)
            return node_id
        axis = max(range(len(extents)), key=lambda a: (extents[a], -a))
        start, stop = box[axis]
        cut = start + (stop - start) // 2
        left_box = tuple(
            (s, cut) if a == axis else (s, e) for a, (s, e) in enumerate(box)
        )
        right_box = tuple(
            (cut, e) if a == axis else (s, e) for a, (s, e) in enumerate(box)
        )
        left_id = recurse(left_box, depth + 1)
        right_id = recurse(right_box, depth + 1)
        nodes[node_id] = node(node_id, left_id, right_id, box, depth)
        return node_id

    recurse(tuple((0, c) for c in counts), 0)
    return PartitionTree(tuple(nodes), tuple(leaf_ids))


@dataclass
class QueryLedger:
    """Monotone counter of black-box evaluations against a hard budget.

    budget=None means unlimited. Charging is atomic; a failed charge
    leaves the state unchanged and returns False. by_tag holds the
    evaluations charged under each tag.
    """

    budget: int | None = None
    evals_used: int = 0
    by_tag: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self):
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be positive or None")

    @property
    def remaining(self) -> int | None:
        if self.budget is None:
            return None
        return self.budget - self.evals_used

    def try_charge(self, n: int, tag: str) -> bool:
        if n < 1:
            raise ValueError("charge must be >= 1")
        with self._lock:
            if self.budget is not None and self.evals_used + n > self.budget:
                return False
            self.evals_used += n
            self.by_tag[tag] = self.by_tag.get(tag, 0) + n
            return True

    def charge(self, n: int, tag: str) -> None:
        if not self.try_charge(n, tag):
            raise BudgetExhausted(
                f"charge of {n} ({tag}) exceeds budget {self.budget} "
                f"with {self.evals_used} used"
            )


# Seed derivation: splitmix64 chain over the base seed and per-purpose
# labels hashed with FNV-1a. Both algorithms are fixed and documented so
# every stream is reproducible bit for bit across platforms.
_MASK64 = (1 << 64) - 1
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def splitmix64(state: int) -> int:
    z = (state + SPLITMIX64_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fnv1a(label: str) -> int:
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, *parts: str | int) -> int:
    """Sub-seed for a named purpose (plus optional integer indices)."""
    state = int(seed) & _MASK64
    for part in parts:
        mixed = _fnv1a(part) if isinstance(part, str) else (int(part) & _MASK64)
        state = splitmix64(state ^ mixed)
    return state


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; identical seed gives an identical stream
    everywhere."""
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))
