"""The numpy kernels: blur, batch masking and subset-table Shapley."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from owenexplain import _kernels


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


def test_import_ignores_backend_variable():
    # No kernel backend is read from the environment, so a stale or unknown
    # value must not fail the import.
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OWEN_EXPLAIN_BACKEND="bogus", PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", "import owenexplain"], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
