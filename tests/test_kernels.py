"""The numpy kernels: blur, batch masking and subset-table Shapley."""

import gc
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from owenexplain import MaskerSpec, VictimSpec, _kernels, build_atom_grid, make_rng, make_victim
from owenexplain.oracle import ClassGame, VectorGame, exact_shapley


def rng():
    return np.random.default_rng(99)


def folded_shapley(table, n):
    """The kernel's order written plainly: the centred table weighted by
    full-length gathers of each mask's size weight, then one fold per bit
    from the top."""
    padded = np.concatenate(([0.0], _kernels.shapley_weights(n), [0.0]))
    counts = _kernels.popcounts(n).astype(np.intp)
    centred = table - table[0]
    held, lacked = padded[counts] * centred, padded[counts + 1] * centred
    phi = np.empty(n)
    for i in range(n - 1, -1, -1):
        step = 1 << i
        phi[i] = np.sum(held[step:] - lacked[:step])
        held, lacked = held[:step] + held[step:], lacked[:step] + lacked[step:]
    return phi


def whole_half_shapley(table, n):
    """The kernel before its row blocking: each weighting step run over a
    whole half before the next, then the same fold."""
    half = 1 << (n - 1)
    phi = np.empty(n)
    lo, hi = table[:half], table[half:]
    padded = np.concatenate(([0.0], _kernels.shapley_weights(n), [0.0]))
    row_bits = (n - 1) // 3
    col_bits = n - 1 - row_bits
    counts = _kernels.popcounts(col_bits)
    rows = np.stack([padded[p + counts] for p in range(row_bits + 3)])
    row_counts = _kernels.popcounts(row_bits)

    def weigh(src, shift, out):
        src2, out2 = src.reshape(-1, 1 << col_bits), out.reshape(-1, 1 << col_bits)
        for r, p in enumerate(row_counts):
            np.multiply(src2[r], rows[p + shift], out=out2[r])

    held = np.empty(half)
    lacked = np.subtract(hi, table[0])
    weigh(lacked, 1, held)
    weigh(lacked, 2, lacked)
    spare = np.subtract(lo, table[0])
    weigh(spare, 1, spare)
    lacked += spare
    phi[n - 1] = np.subtract(held, spare, out=spare).sum()
    np.subtract(lo, table[0], out=spare)
    weigh(spare, 0, spare)
    held += spare
    for i in range(n - 2, -1, -1):
        step = 1 << i
        phi[i] = np.subtract(held[step : 2 * step], lacked[:step], out=spare[:step]).sum()
        held[:step] += held[step : 2 * step]
        lacked[:step] += lacked[step : 2 * step]
    return phi


def dot_shapley(table, n):
    """The dot formula: per atom, the gains of adding it to each mask that
    lacks it, dotted with the masks' size weights."""
    phi = np.empty(n)
    without = _kernels.shapley_weights(n)[_kernels.popcounts(n - 1)]
    gains = np.empty(1 << (n - 1))
    for i in range(n):
        split = table.reshape(-1, 2, 1 << i)
        np.subtract(split[:, 1], split[:, 0], out=gains.reshape(-1, 1 << i))
        phi[i] = float(np.dot(without, gains))
    return phi


PINNED_PHI = [
    "0x1.01c7ec3453bfcp-4",
    "0x1.0f9ac7a33e110p-4",
    "0x1.f7c1a3aaab1f2p-4",
    "0x1.fc228ef6541c3p-5",
    "0x1.f60db4a49f594p-5",
    "0x1.fd711394bce6dp-4",
    "0x1.ce9c0a5a56f6ep-5",
    "0x1.17b27fd1ed0d6p-3",
    "0x1.6bddb93d821c6p-4",
    "0x1.8d26ca4d55fb0p-8",
    "0x1.19ea0eee5ebdfp-6",
    "0x1.b391eb2defa61p-6",
]


class TestPureKernels:
    def test_blur_preserves_constant(self):
        out = _kernels.gaussian_blur(np.full(20, 2.0), (4, 5), 1.5)
        assert np.allclose(out, 2.0, atol=1e-12)

    def test_shapley_table_additive(self):
        w = np.array([0.5, -0.2, 0.8])
        table = [sum(w[i] for i in range(3) if (b >> i) & 1) for b in range(8)]
        phi = _kernels.shapley_from_table(np.array(table), 3)
        assert np.allclose(phi, w, atol=1e-12)

    def test_shapley_table_matches_subset_enumeration(self):
        r = rng()
        for n in range(1, 13):
            table = r.uniform(-1, 1, 1 << n)
            expected = np.zeros(n)
            for i in range(n):
                for mask in range(1 << n):
                    if not (mask >> i) & 1:
                        s = mask.bit_count()
                        weight = math.factorial(s) * math.factorial(n - s - 1) / math.factorial(n)
                        expected[i] += weight * (table[mask | 1 << i] - table[mask])
            phi = _kernels.shapley_from_table(table, n)
            assert np.allclose(phi, expected, rtol=0.0, atol=1e-12)

    def test_shapley_table_bitwise_equal_to_mask_gathers(self):
        # Reference: gather every mask's holding and lacking weight at full
        # length, then fold from the top bit; the kernel's weighted halves
        # and folds must give the same operands in the same order, hence
        # the same bits.
        r = rng()
        for n in (1, 2, 7, 12, 16, 17, 20):
            for scale in (1.0, 1e-3, 1e6):
                table = scale * r.uniform(-1, 1, 1 << n)
                expected = folded_shapley(table, n)
                assert _kernels.shapley_from_table(table, n).tobytes() == expected.tobytes()

    def test_shapley_table_bitwise_equal_to_whole_half_weighting(self):
        r = rng()
        for n in range(1, 21):
            table = r.uniform(-1, 1, 1 << n)
            expected = whole_half_shapley(table, n)
            assert _kernels.shapley_from_table(table, n).tobytes() == expected.tobytes()

    def test_class_rows_match_one_table_at_a_time(self):
        r = rng()
        for n in (0, 1, 2, 5, 12, 20):
            tables = r.uniform(-1, 1, (3, 1 << n))
            phi = _kernels.shapley_from_table(tables, n)
            assert phi.shape == (3, n)
            expected = [_kernels.shapley_from_table(t, n).tobytes() for t in tables]
            assert [row.tobytes() for row in phi] == expected

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 8), (2, 4)])
    def test_shapley_table_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="length 2\\*\\*n"):
            _kernels.shapley_from_table(np.zeros(shape), 3)

    def test_shapley_table_close_to_dot_formula(self):
        r = rng()
        for n in (1, 2, 7, 12, 16, 17, 20):
            table = r.uniform(-1, 1, 1 << n)
            phi = _kernels.shapley_from_table(table, n)
            assert np.allclose(phi, dot_shapley(table, n), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [17, 20])
    def test_dead_atom_is_exactly_zero(self, n):
        table = rng().uniform(-1, 1, 1 << n)
        masks = np.arange(1 << n)
        for i in (0, n // 2, n - 1):
            dead = table[masks & ~(1 << i)]
            assert _kernels.shapley_from_table(dead, n)[i] == 0.0

    @pytest.mark.parametrize("n", [12, 17, 20])
    def test_offset_game_errs_no_more_than_dot_formula(self, n):
        # Adding 1e6 to every value leaves the Shapley values unchanged.
        # The kernel centres the table on the empty coalition, so its error
        # is the rounding of table + 1e6, as it is for the dot formula's
        # differences: the two agree to about 1e-5 of it.
        table = rng().uniform(-1, 1, 1 << n)
        exact = dot_shapley(table, n)
        err = np.abs(_kernels.shapley_from_table(table + 1e6, n) - exact).max()
        dot_err = np.abs(dot_shapley(table + 1e6, n) - exact).max()
        assert err <= dot_err * (1 + 1e-4)

    def test_shapley_table_works_in_row_buffers(self):
        # Four 20-atom tables in one call: the kernel's live state is a
        # stack of half-table rows and its weight rows, about 1.5 MB, and
        # no buffer spans a 4 MB half table.
        tables = rng().uniform(-1, 1, (4, 1 << 20))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _kernels.shapley_from_table(tables, 20)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_shapley_table_bits_are_pinned(self):
        # A table of exactly rounded quotients of integers, so it is the
        # same on every platform; the values then pin numpy's pairwise
        # summation order, which a SIMD or version change could move.
        n = 12
        masks = np.arange(1 << n, dtype=np.int64)
        table = (masks * 2654435761 % 1000003) / 1000003.0
        phi = _kernels.shapley_from_table(table, n)
        assert [float(v).hex() for v in phi] == PINNED_PHI

    def test_shapley_table_of_no_atoms_is_empty(self):
        phi = _kernels.shapley_from_table(np.array([0.75]), 0)
        assert phi.dtype == np.float64 and phi.shape == (0,)

    def test_popcounts_equal_bit_by_bit_count(self):
        # Reference: the count built one shift/mask pass per bit.
        for n in range(21):
            masks = np.arange(1 << n, dtype=np.uint32)
            expected = np.zeros(1 << n, dtype=np.uint8)
            for bit in range(n):
                expected += ((masks >> bit) & 1).astype(np.uint8)
            counts = _kernels.popcounts(n)
            assert counts.dtype == np.uint8
            assert counts.tobytes() == expected.tobytes()

    def test_apply_masks_selects_by_atom(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        fill = np.zeros(4)
        cell_atom = np.array([0, 0, 1, 1], dtype=np.int32)
        active = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        out = _kernels.apply_masks(x, fill, cell_atom, active)
        assert np.array_equal(out, [[1, 2, 0, 0], [0, 0, 3, 4]])


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPUs the process may run on."""
    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
    return set_count


def started_threads(call, *args):
    """call's result and the number of threads it started."""
    with mock.patch.object(threading, "Thread", wraps=threading.Thread) as made:
        result = call(*args)
    return result, made.call_count


class TestAtomSplit:
    """The Shapley kernel against the plain fold, on the caller's thread at
    any CPU count."""

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("n", [16, 17, 19, 20])
    def test_bitwise_equal_to_single_loop(self, cpus, n, count):
        cpus(count)
        table = rng().uniform(-1, 1, 1 << n)
        before = threading.active_count()
        phi, started = started_threads(_kernels.shapley_from_table, table, n)
        assert phi.tobytes() == folded_shapley(table, n).tobytes()
        assert started == 0
        assert threading.active_count() == before


def test_oracle_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The 20-atom oracle's file, written under BLAS's default threads, one
    # BLAS thread, and (where the platform has it) a one-CPU affinity set
    # before numpy loads.
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = path
    cli = "from owenexplain.cli import main; raise SystemExit(main(sys.argv[1:]))"
    one_cpu = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
    runs = [("default", env, ""), ("one-thread", dict(env, OPENBLAS_NUM_THREADS="1"), "")]
    if hasattr(os, "sched_setaffinity"):
        runs.append(("one-cpu", env, one_cpu))
    outputs = {}
    for name, run_env, prefix in runs:
        out = tmp_path / f"{name}.json"
        result = subprocess.run(
            [sys.executable, "-c", "import os, sys; " + prefix + cli, "oracle", "shapley",
             "--victim", "linear_softmax", "--seed", "3", "--random", "--input-shape", "4,5",
             "--block", "1,1", "--fill", "blur", "--out", str(out)],
            env=run_env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outputs[name] = out.read_bytes()
    assert len(set(outputs.values())) == 1, list(outputs)


def test_full_table_is_a_read_only_row_of_the_class_major_table():
    spec = VictimSpec(kind="linear_softmax", seed=4, num_classes=3, input_shape=(7,),
                      weight_scale=3.0)
    masker = MaskerSpec(grid=build_atom_grid((7,), (1,)), fill="mean")
    x = make_rng(4).uniform(0.0, 1.0, 7)
    game = VectorGame(make_victim(spec), x, masker)
    # Reference: every coalition through the memo, read out as the
    # per-class column copy the coalition-major table gave.
    memo_game = VectorGame(make_victim(spec), x, masker)
    masks = list(range(1 << 7))
    memo_game.values(masks)
    dense = game.dense_table()
    assert dense.shape == (3, 1 << 7)
    for c in range(3):
        table = ClassGame(game, c).full_table()
        assert table.flags.c_contiguous and not table.flags.writeable
        assert np.shares_memory(table, dense)
        assert table.tobytes() == memo_game.values(masks)[c].tobytes()
        with pytest.raises(ValueError):
            table[0] = 0.0
    assert dense.flags.writeable


def test_dense_table_dies_with_its_game():
    # With the cyclic collector off, only reference counts free the table:
    # a reference cycle through a view of it (say, a self-referring closure
    # in the kernel) would keep every table alive until a collection.
    spec = VictimSpec(kind="linear_softmax", seed=4, num_classes=3, input_shape=(12,))
    masker = MaskerSpec(grid=build_atom_grid((12,), (1,)), fill="mean")
    game = VectorGame(make_victim(spec), make_rng(4).uniform(0.0, 1.0, 12), masker)
    enabled = gc.isenabled()
    gc.disable()
    try:
        exact_shapley(ClassGame(game, 1))
        table = weakref.ref(game.dense_table())
        del game
        assert table() is None
    finally:
        if enabled:
            gc.enable()


def test_import_ignores_backend_variable():
    # No kernel backend is read from the environment, so a stale or unknown
    # value must not fail the import.
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OWEN_EXPLAIN_BACKEND="bogus", PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", "import owenexplain"], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
