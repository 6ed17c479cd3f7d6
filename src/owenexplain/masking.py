"""Masking: turn a coalition, an int mask whose set bits are the present
atoms, into a concrete model input.

Cells of inactive atoms are replaced by a fill reference computed once
from the original input (Gaussian blur of the whole tensor, a fixed
baseline tensor, or the scalar mean). Computing the reference from the
original input, never from partially masked tensors, is what makes
coalition-keyed memoization sound.

The exact-Shapley dense fill masks every coalition in aligned chunks of
2**k masks, which share every bit from k up, so one chunk's batch differs
from another's only in the cells of atoms k and up, and there only where
the two chunks' bits differ. BoundMasker.chunk_batch masks a buffer's
first chunk in full, as masked_batch does. For each later chunk it
rewrites only the atoms whose bit differs, one atom at a time, setting
the atom's cells from x or from the fill. The bytes and the layout are
masked_batch's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .core import AtomGrid, ensure_tensor

FILL_KINDS = ("blur", "baseline", "mean")


@dataclass(frozen=True)
class MaskerSpec:
    """Fill rule plus the atom grid it masks over.

    sigma defaults to the largest block extent; the blur kernel is
    truncated at 3*sigma with clamp-to-edge handling.
    """

    grid: AtomGrid
    fill: str = "blur"
    sigma: float | None = None
    baseline: np.ndarray | None = None

    def __post_init__(self):
        if self.fill not in FILL_KINDS:
            raise ValueError(f"fill must be one of {FILL_KINDS}, got {self.fill!r}")
        if self.fill == "blur":
            sigma = self.sigma if self.sigma is not None else float(max(self.grid.block))
            if sigma <= 0:
                raise ValueError("sigma must be positive")
            object.__setattr__(self, "sigma", float(sigma))
        if self.fill == "baseline":
            if self.baseline is None:
                raise ValueError("baseline fill needs a baseline tensor")
            base = ensure_tensor(self.baseline, self.grid.input_shape)
            base.setflags(write=False)
            object.__setattr__(self, "baseline", base)


def blur_reference(x, shape, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a flat tensor (normalized kernel,
    truncated at 3*sigma, clamp-to-edge)."""
    flat = ensure_tensor(x, shape)
    return _kernels.gaussian_blur(flat, tuple(shape), float(sigma))


def fill_reference(x: np.ndarray, spec: MaskerSpec) -> np.ndarray:
    """The tensor that replaces masked-out cells."""
    flat = ensure_tensor(x, spec.grid.input_shape)
    if spec.fill == "blur":
        return blur_reference(flat, spec.grid.input_shape, spec.sigma)
    if spec.fill == "baseline":
        return spec.baseline.copy()
    return np.full_like(flat, float(flat.mean()))


class BoundMasker:
    """Masker bound to one input: the fill reference is computed once and
    reused for every coalition of the explanation."""

    def __init__(self, x, spec: MaskerSpec):
        self.spec = spec
        self.grid = spec.grid
        self.x = ensure_tensor(x, spec.grid.input_shape)
        self.x.setflags(write=False)
        self.fill = fill_reference(self.x, spec)
        self.fill.setflags(write=False)

    def active_rows(self, bits_list) -> np.ndarray:
        """(len(bits_list), n_atoms) uint8 rows; row r, column i is bit i
        of mask bits_list[r]. Masks are Python ints of any width, or an
        int64 array (up to 63 atoms). Up to 63 atoms, Python ints are
        read as int64 too."""
        n = self.grid.atom_count
        if n <= 63 and not isinstance(bits_list, np.ndarray):
            bits_list = np.fromiter(bits_list, np.int64, len(bits_list))
        if isinstance(bits_list, np.ndarray) and bits_list.dtype == np.int64:
            rows = np.ascontiguousarray(bits_list, dtype="<i8").view(np.uint8)
            rows = rows.reshape(len(bits_list), 8)
        else:
            width = (n + 7) // 8
            packed = b"".join([bits.to_bytes(width, "little") for bits in bits_list])
            rows = np.frombuffer(packed, dtype=np.uint8).reshape(len(bits_list), width)
        return np.unpackbits(rows, axis=1, count=n, bitorder="little")

    def masked_batch(self, bits_list) -> np.ndarray:
        """(len(bits_list), n_cells) masked inputs."""
        return _kernels.apply_masks(
            self.x, self.fill, self.grid.cell_atom, self.active_rows(bits_list)
        )

    def chunk_batch(self, start: int, rows: int, out: np.ndarray | None = None,
                    held: int = 0) -> np.ndarray:
        """masked_batch(range(start, start + rows)), for rows a power of two
        and start a multiple of it.

        Given out, the batch this method returned for the chunk at held (of
        the same rows), out is rewritten in place and returned: for each
        atom whose bit differs between start and held, that atom's cells
        are set from x if start holds it and from the fill if not. Without
        out the batch is a new masked_batch.
        """
        if out is None:
            return self.masked_batch(range(start, start + rows))
        changed = start ^ held
        for atom in range(changed.bit_length()):
            if changed >> atom & 1:
                cells = self._atom_cells[atom]
                out[:, cells] = (self.x if start >> atom & 1 else self.fill)[cells]
        return out

    @cached_property
    def _atom_cells(self) -> list[np.ndarray]:
        """Each atom's cell indices, ascending."""
        return [np.flatnonzero(self.grid.cell_atom == atom) for atom in range(self.grid.atom_count)]
