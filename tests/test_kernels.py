"""The numpy kernels: blur, batch masking and subset-table Shapley."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from owenexplain import MaskerSpec, VictimSpec, _kernels, build_atom_grid, make_rng, make_victim
from owenexplain.oracle import ClassGame, VectorGame


def rng():
    return np.random.default_rng(99)


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
        # Reference: select each atom's masks by a boolean gather and take
        # the same weighted dot product; the table split must give the same
        # operands in the same order, hence the same bits.
        r = rng()
        cases = [(n, 1.0) for n in (1, 2, 7, 12, 16, 17, 20)]
        cases += [(n, scale) for n in (12, 20) for scale in (1e-3, 1e6)]
        for n, scale in cases:
            table = scale * r.uniform(-1, 1, 1 << n)
            lg = [math.lgamma(k + 1) for k in range(n + 1)]
            weights = np.array([math.exp(lg[s] + lg[n - s - 1] - lg[n]) for s in range(n)])
            masks = np.arange(1 << n, dtype=np.uint32)
            counts = _kernels.popcounts(n)
            expected = np.empty(n)
            for i in range(n):
                without = masks[(masks & np.uint32(1 << i)) == 0]
                gains = table[without | np.uint32(1 << i)] - table[without]
                expected[i] = float(np.dot(weights[counts[without]], gains))
            assert _kernels.shapley_from_table(table, n).tobytes() == expected.tobytes()

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


def serial_shapley(values, n):
    """The single-loop kernel before the atom split, as the reference: every
    atom's gains in one reused buffer, atoms in ascending order."""
    phi = np.empty(n)
    without = _kernels.shapley_weights(n)[_kernels.popcounts(n - 1)]
    gains = np.empty(1 << (n - 1))
    for i in range(n):
        split = values.reshape(-1, 2, 1 << i)
        np.subtract(split[:, 1], split[:, 0], out=gains.reshape(-1, 1 << i))
        phi[i] = float(np.dot(without, gains))
    return phi


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPUs the process may run on."""
    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
    return set_count


def helper_threads(table, n):
    """shapley_from_table's result and the number of threads it started."""
    with mock.patch.object(threading, "Thread", wraps=threading.Thread) as made:
        phi = _kernels.shapley_from_table(table, n)
    return phi, made.call_count


class TestAtomSplit:
    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("n", [16, 17, 19, 20])
    def test_bitwise_equal_to_single_loop(self, cpus, n, count):
        # Two parts deal 17 and 19 atoms unevenly; three CPUs still make
        # two parts; below 2**17 entries the kernel starts no thread.
        cpus(count)
        table = rng().uniform(-1, 1, 1 << n)
        before = threading.active_count()
        phi, started = helper_threads(table, n)
        assert phi.tobytes() == serial_shapley(table, n).tobytes()
        expected = min(count, _kernels._MAX_PARTS) - 1 if 1 << n >= _kernels._SPLIT_MIN_SIZE else 0
        assert started == expected
        assert threading.active_count() == before

    def test_more_parts_than_cores_with_frequent_switches(self, cpus, monkeypatch):
        # Every part writes its own atoms of phi; a lost or misplaced write
        # would change the bytes. Three and eight parts deal 17 atoms
        # unevenly.
        cpus(8)
        table = rng().uniform(-1, 1, 1 << 17)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for parts in (3, 8):
                monkeypatch.setattr(_kernels, "_MAX_PARTS", parts)
                phi, started = helper_threads(table, 17)
                assert started == parts - 1
                assert phi.tobytes() == serial_shapley(table, 17).tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    def test_parts_follow_the_real_affinity(self):
        # No patching: under a one-CPU affinity (taskset -c 0) the kernel
        # runs inline, on two CPUs or more it starts one helper thread.
        table = rng().uniform(-1, 1, 1 << 17)
        phi, started = helper_threads(table, 17)
        assert started == min(len(os.sched_getaffinity(0)), _kernels._MAX_PARTS) - 1
        assert phi.tobytes() == serial_shapley(table, 17).tobytes()

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _kernels._cpu_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _kernels._cpu_count() == 1

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_part_exception_reaches_caller(self, cpus, failing):
        cpus(3)
        dot = np.dot

        def failing_dot(a, b):
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller == (failing == "caller"):
                raise FloatingPointError(f"{failing} part")
            return dot(a, b)

        before = threading.active_count()
        with mock.patch.object(np, "dot", failing_dot):
            with pytest.raises(FloatingPointError, match=f"{failing} part"):
                _kernels.shapley_from_table(rng().uniform(-1, 1, 1 << 17), 17)
        assert threading.active_count() == before


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
    memo_game.fetch(masks)
    dense = game.dense_table()
    assert dense.shape == (3, 1 << 7)
    for c in range(3):
        table = ClassGame(game, c).full_table()
        assert table.flags.c_contiguous and not table.flags.writeable
        assert np.shares_memory(table, dense)
        assert table.tobytes() == memo_game.column(masks, c).tobytes()
        with pytest.raises(ValueError):
            table[0] = 0.0
    assert dense.flags.writeable


def test_import_ignores_backend_variable():
    # No kernel backend is read from the environment, so a stale or unknown
    # value must not fail the import.
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OWEN_EXPLAIN_BACKEND="bogus", PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", "import owenexplain"], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
