from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DictMemo

from owenexplain import (
    MaskerSpec, Model, blur_reference, build_atom_grid, make_rng, oracle)
from owenexplain.masking import BoundMasker, fill_reference
from owenexplain.oracle import VectorGame


def grid_2x2():
    return build_atom_grid((2, 2), (1, 1))


def masked(x, bits: int, spec: MaskerSpec) -> np.ndarray:
    """One coalition's masked input."""
    return BoundMasker(x, spec).masked_batch([bits])[0]


class TestApplyMask:
    def test_full_coalition_is_identity(self):
        grid = grid_2x2()
        x = np.array([1.0, 2.0, 3.0, 4.0])
        spec = MaskerSpec(grid=grid, fill="mean")
        out = masked(x, 0b1111, spec)
        assert np.array_equal(out, x)

    def test_empty_coalition_baseline(self):
        grid = grid_2x2()
        base = np.array([9.0, 8.0, 7.0, 6.0])
        spec = MaskerSpec(grid=grid, fill="baseline", baseline=base)
        out = masked(np.ones(4), 0, spec)
        assert np.array_equal(out, base)

    def test_empty_coalition_mean(self):
        grid = build_atom_grid((2,), (1,))
        spec = MaskerSpec(grid=grid, fill="mean")
        out = masked(np.array([1.0, 3.0]), 0, spec)
        assert np.array_equal(out, [2.0, 2.0])

    def test_partial_coalition_mixes(self):
        grid = build_atom_grid((4,), (2,))
        spec = MaskerSpec(grid=grid, fill="baseline", baseline=np.zeros(4))
        out = masked(np.array([1.0, 2.0, 3.0, 4.0]), 0b01, spec)
        assert np.array_equal(out, [1.0, 2.0, 0.0, 0.0])

    def test_idempotent_with_cached_reference(self):
        grid = build_atom_grid((4, 4), (2, 2))
        x = make_rng(0).uniform(0, 1, 16)
        spec = MaskerSpec(grid=grid, fill="blur")
        bound = BoundMasker(x, spec)
        bits = 0b0110
        once = bound.masked_batch([bits])[0]
        # re-mask the masked tensor with the same cached fill reference
        twice = np.where(bound.active_rows([bits])[0][grid.cell_atom].astype(bool), once, bound.fill)
        assert np.array_equal(once, twice)

    def test_refinement_touches_only_changed_atoms(self):
        grid = build_atom_grid((6,), (2,))
        x = make_rng(1).uniform(0, 1, 6)
        bound = BoundMasker(x, MaskerSpec(grid=grid, fill="mean"))
        a, b = bound.masked_batch([0b001, 0b011])  # atom 1 flipped on
        changed = np.flatnonzero(a != b)
        assert set(changed).issubset({2, 3})

    def test_pure_function_of_inputs(self):
        grid = build_atom_grid((3, 3), (2, 2))
        x = make_rng(2).uniform(0, 1, 9)
        spec = MaskerSpec(grid=grid, fill="blur", sigma=1.5)
        bits = 0b1001
        assert np.array_equal(masked(x, bits, spec), masked(x, bits, spec))


class TestActiveRows:
    @pytest.mark.parametrize("width", [1, 8, 9, 63, 64, 65, 256])
    def test_rows_match_coalition_indices(self, width):
        grid = build_atom_grid((width,), (1,))
        bound = BoundMasker(make_rng(width).uniform(0, 1, width), MaskerSpec(grid=grid, fill="mean"))
        rng = make_rng(100 + width)
        members = [[], list(range(width)), [width - 1]]
        members += [np.flatnonzero(rng.uniform(size=width) < 0.5).tolist() for _ in range(20)]
        rows = bound.active_rows([sum(1 << i for i in m) for m in members])
        assert rows.dtype == np.uint8
        assert rows.shape == (len(members), width)
        assert set(np.unique(rows).tolist()) <= {0, 1}
        for row, atoms in zip(rows, members):
            assert np.flatnonzero(row).tolist() == atoms

    @given(st.integers(min_value=1, max_value=63).flatmap(
        lambda width: st.tuples(st.just(width), st.lists(
            st.integers(min_value=0, max_value=(1 << width) - 1), max_size=40))))
    @settings(max_examples=200, deadline=None)
    def test_int64_masks_match_python_ints(self, case):
        width, masks = case
        grid = build_atom_grid((width,), (1,))
        bound = BoundMasker(np.zeros(width), MaskerSpec(grid=grid, fill="mean"))
        from_ints = bound.active_rows(masks)
        from_array = bound.active_rows(np.array(masks, dtype=np.int64))
        assert from_array.dtype == from_ints.dtype == np.uint8
        assert from_array.shape == from_ints.shape == (len(masks), width)
        assert np.array_equal(from_array, from_ints)

    @pytest.mark.parametrize("width", [1, 8, 48, 63, 72, 144])
    def test_python_ints_match_byte_packing(self, width):
        # Up to 63 atoms a list of Python ints takes the int64 path; past
        # it, the rows still come from packing each mask's bytes.
        grid = build_atom_grid((width,), (1,))
        bound = BoundMasker(np.zeros(width), MaskerSpec(grid=grid, fill="mean"))
        rng = make_rng(width)
        masks = [0, (1 << width) - 1, 1 << (width - 1)]
        masks += [sum(1 << i for i in np.flatnonzero(rng.uniform(size=width) < 0.5).tolist())
                  for _ in range(40)]
        nbytes = (width + 7) // 8
        packed = b"".join([m.to_bytes(nbytes, "little") for m in masks])
        expected = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(len(masks), nbytes),
                                 axis=1, count=width, bitorder="little")
        rows = bound.active_rows(masks)
        assert rows.dtype == np.uint8 and rows.shape == (len(masks), width)
        assert rows.tobytes() == expected.tobytes()
        if width <= 63:
            assert bound.active_rows(np.array(masks, dtype=np.int64)).tobytes() == rows.tobytes()


class TestBlur:
    def test_constant_tensor_unchanged(self):
        out = blur_reference(np.full(12, 3.5), (3, 4), sigma=2.0)
        assert np.allclose(out, 3.5, atol=1e-12)

    def test_sigma_to_zero_limit(self):
        x = make_rng(3).uniform(0, 1, 25)
        out = blur_reference(x, (5, 5), sigma=1e-6)
        assert np.max(np.abs(out - x)) < 1e-6

    def test_matches_dense_convolution_interior(self):
        # independent oracle: dense 2-D convolution with the outer-product
        # kernel, compared on interior cells where clamping is inactive
        sigma = 0.3  # radius 1
        x = make_rng(4).uniform(0, 1, 25).reshape(5, 5)
        out = blur_reference(x.reshape(-1), (5, 5), sigma=sigma).reshape(5, 5)
        from owenexplain._kernels import gaussian_kernel
        k1 = gaussian_kernel(sigma)
        dense = np.outer(k1, k1)
        for i in range(1, 4):
            for j in range(1, 4):
                window = x[i - 1 : i + 2, j - 1 : j + 2]
                assert abs(out[i, j] - float((window * dense).sum())) < 1e-12

    def test_kernel_normalized(self):
        from owenexplain._kernels import gaussian_kernel
        for sigma in (0.5, 1.0, 3.0, 7.7):
            assert abs(gaussian_kernel(sigma).sum() - 1.0) < 1e-12

    def test_default_sigma_is_block_extent(self):
        grid = build_atom_grid((9, 9), (3, 3))
        spec = MaskerSpec(grid=grid, fill="blur")
        assert spec.sigma == 3.0

    def test_fill_reference_kinds(self):
        grid = build_atom_grid((4,), (2,))
        x = np.array([0.0, 1.0, 2.0, 5.0])
        assert np.array_equal(
            fill_reference(x, MaskerSpec(grid=grid, fill="mean")), np.full(4, 2.0)
        )
        base = np.array([1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(
            fill_reference(x, MaskerSpec(grid=grid, fill="baseline", baseline=base)), base
        )


def chunk_masker(shape, block, seed=0):
    grid = build_atom_grid(shape, block)
    x = make_rng(seed).uniform(0, 1, grid.n_cells)
    return BoundMasker(x, MaskerSpec(grid=grid, fill="blur"))


def assert_same_batch(got, expected):
    # The layout too: a model's matmul can round differently on another one.
    assert got.tobytes() == expected.tobytes()
    assert got.strides == expected.strides


class TestChunkBatch:
    """chunk_batch against masked_batch of the same aligned chunk, on a
    fresh buffer and on one rewritten from earlier chunks."""

    @pytest.mark.parametrize("shape, block, rows", [
        ((3, 4), (1, 1), 4096),  # n = 12: one chunk
        ((13,), (1,), 4096),  # n = 13: two chunks
        ((4, 5), (1, 1), 4096),  # n = 20: the fill's 256 chunks
        ((12, 12), (3, 3), 4096),  # 16 block atoms of 9 cells
        ((2, 3), (1, 1), 64),  # n < 12: the whole table
        ((7,), (2,), 16),  # n = 4 with a short edge block
        ((5,), (1,), 1),  # one mask a chunk
    ])
    def test_ascending_chunks_match_masked_batch(self, shape, block, rows):
        bound = chunk_masker(shape, block)
        size = 1 << bound.grid.atom_count
        batch, held = None, 0
        for start in range(0, size, rows):
            expected = bound.masked_batch(range(start, start + rows))
            batch = bound.chunk_batch(start, rows, batch, held)
            held = start
            assert_same_batch(batch, expected)

    @pytest.mark.parametrize("shape, block, rows, seed", [
        ((4, 5), (1, 1), 4096, 1),
        ((12, 12), (3, 3), 1024, 2),
        ((9,), (1,), 8, 3),
    ])
    def test_buffer_from_any_earlier_chunk(self, shape, block, rows, seed):
        # Chunks in random order: the buffer may hold any other chunk, a
        # later one included.
        bound = chunk_masker(shape, block, seed)
        chunks = (1 << bound.grid.atom_count) // rows
        order = make_rng(seed).permutation(chunks)[:40]
        batch, held = None, 0
        for chunk in order.tolist():
            start = chunk * rows
            batch = bound.chunk_batch(start, rows, batch, held)
            held = start
            assert_same_batch(batch, bound.masked_batch(range(start, start + rows)))

    @pytest.mark.parametrize("shape, block, rows", [
        ((4, 5), (1, 1), 4096),
        ((12, 12), (3, 3), 1024),  # 16 block atoms of 9 cells
        ((7,), (2,), 2),  # a short edge block
    ])
    def test_walk_then_jump_back_without_building_masks(self, shape, block, rows):
        # Up the whole table, then back to chunk 0, the middle chunk and the
        # last; once the buffer exists no coalition mask is built.
        bound = chunk_masker(shape, block, seed=4)
        chunks = (1 << bound.grid.atom_count) // rows
        walk = [*range(chunks), 0, chunks // 2, chunks - 1]
        expected = {c: bound.masked_batch(range(c * rows, (c + 1) * rows)) for c in set(walk)}
        batch = bound.chunk_batch(0, rows)
        assert_same_batch(batch, expected[0])
        held = 0
        with mock.patch.object(BoundMasker, "active_rows", side_effect=AssertionError):
            for chunk in walk[1:]:
                batch = bound.chunk_batch(chunk * rows, rows, batch, held)
                held = chunk * rows
                assert_same_batch(batch, expected[chunk])


def reference_batch(bound, masks):
    """masked_batch's values, one coalition at a time."""
    return np.array([
        np.where([(bits >> int(a)) & 1 for a in bound.grid.cell_atom], bound.x, bound.fill)
        for bits in masks])


class TestBatchLayout:
    """masked_batch's batches are Fortran-ordered, whatever the masks' type,
    the batch's length or the atoms' sizes: the bytes a model returns can
    depend on its batch's layout, so the layout is pinned, not only the
    bytes."""

    @pytest.mark.parametrize("shape, block, masks", [
        ((4, 5), (1, 1), np.arange(0, 1 << 20, 9973, dtype=np.int64)),  # int64 masks
        ((9, 8), (1, 1), [0, (1 << 72) - 1, 1 << 71, (1 << 70) | 5, 2**64 + 3]),  # past 63
        ((4, 5), (1, 1), [12345]),  # one row
        ((4, 5), (1, 1), np.array([0, (1 << 20) - 1], dtype=np.int64)),  # two rows
        ((9, 8), (1, 1), [1 << 70, 3]),  # two rows past 63 atoms
        ((12, 12), (3, 3), list(range(0, 1 << 16, 257))),  # atoms of 9 cells
        ((7, 5), (2, 3), [0b101101, 0b010010]),  # short edge blocks, two rows
    ])
    def test_masked_batch_is_fortran_ordered(self, shape, block, masks):
        bound = chunk_masker(shape, block, seed=5)
        batch = bound.masked_batch(masks)
        assert batch.shape == (len(masks), bound.grid.n_cells)
        assert batch.flags.f_contiguous
        if len(masks) > 1:
            assert not batch.flags.c_contiguous
        assert batch.tobytes() == reference_batch(bound, [int(m) for m in masks]).tobytes()


class ViewModel(Model):
    """Returns a view of its input batch: its last num_classes columns, the
    cells of the atoms whose bits tell the dense fill's chunks apart."""

    num_classes = 3

    def __init__(self, n):
        self.input_shape = (n,)

    def evaluate(self, batch):
        return batch[:, -self.num_classes :]


def test_fill_copies_outputs_before_rewriting_the_buffer():
    n = 10
    spec = MaskerSpec(grid=build_atom_grid((n,), (1,)), fill="mean")
    x = make_rng(6).uniform(0, 1, n)
    expected = DictMemo(VectorGame(ViewModel(n), x, spec)).values(np.arange(1 << n))
    game = VectorGame(ViewModel(n), x, spec)
    # Sixteen chunks, so the fill rewrites its one buffer fifteen times.
    with mock.patch.object(oracle, "_CHUNK", 64):
        table = game.dense_table()
    assert table.tobytes() == expected.tobytes()
