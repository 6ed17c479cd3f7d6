"""Cross-backend equivalence: the compiled core and the numpy fallback
must agree on every kernel."""

import math

import numpy as np
import pytest

from owenexplain._kernels import _pure

try:
    from owenexplain._kernels import _compiled
except ImportError:
    _compiled = None

needs_compiled = pytest.mark.skipif(_compiled is None, reason="compiled core not built")


def rng():
    return np.random.default_rng(99)


@needs_compiled
class TestBackendEquivalence:
    def test_blur_matches(self):
        r = rng()
        for shape in [(16,), (7, 9), (4, 5, 6)]:
            x = r.uniform(-2, 2, int(np.prod(shape)))
            for sigma in (0.4, 1.0, 3.0):
                a = _pure.gaussian_blur(x, shape, sigma)
                b = _compiled.gaussian_blur(x, shape, sigma)
                assert np.allclose(a, b, rtol=1e-13, atol=1e-15)

    def test_apply_masks_exact(self):
        r = rng()
        x = r.uniform(0, 1, 24)
        fill = r.uniform(0, 1, 24)
        cell_atom = np.repeat(np.arange(6), 4).astype(np.int32)
        active = (r.uniform(size=(10, 6)) > 0.5).astype(np.uint8)
        a = _pure.apply_masks(x, fill, cell_atom, active)
        b = _compiled.apply_masks(x, fill, cell_atom, active)
        assert np.array_equal(a, b)

    def test_shapley_table_matches(self):
        r = rng()
        for n in (1, 3, 6, 10):
            table = r.uniform(-1, 1, 1 << n)
            a = _pure.shapley_from_table(table, n)
            b = _compiled.shapley_from_table(table, n)
            assert np.allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_popcounts_match(self):
        assert np.array_equal(_pure.popcounts(10), _compiled.popcounts(10))

    def test_kernel_weights_match(self):
        for sigma in (0.3, 1.0, 2.5):
            assert np.allclose(_pure.gaussian_kernel(sigma),
                               _compiled.gaussian_kernel(sigma), rtol=1e-15)


class TestPureKernels:
    def test_blur_preserves_constant(self):
        out = _pure.gaussian_blur(np.full(20, 2.0), (4, 5), 1.5)
        assert np.allclose(out, 2.0, atol=1e-12)

    def test_shapley_table_additive(self):
        w = np.array([0.5, -0.2, 0.8])
        table = [sum(w[i] for i in range(3) if (b >> i) & 1) for b in range(8)]
        phi = _pure.shapley_from_table(np.array(table), 3)
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
            phi = _pure.shapley_from_table(table, n)
            assert np.allclose(phi, expected, rtol=0.0, atol=1e-12)

    def test_shapley_table_bitwise_equal_to_mask_gathers(self):
        # Reference: select each atom's masks by a boolean gather and take
        # the same weighted dot product; the table split must give the same
        # operands in the same order, hence the same bits.
        r = rng()
        for n in (1, 2, 7, 12, 16):
            table = r.uniform(-1, 1, 1 << n)
            lg = [math.lgamma(k + 1) for k in range(n + 1)]
            weights = np.array([math.exp(lg[s] + lg[n - s - 1] - lg[n]) for s in range(n)])
            masks = np.arange(1 << n, dtype=np.uint32)
            counts = _pure.popcounts(n)
            expected = np.empty(n)
            for i in range(n):
                without = masks[(masks & np.uint32(1 << i)) == 0]
                gains = table[without | np.uint32(1 << i)] - table[without]
                expected[i] = float(np.dot(weights[counts[without]], gains))
            assert _pure.shapley_from_table(table, n).tobytes() == expected.tobytes()

    def test_apply_masks_selects_by_atom(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        fill = np.zeros(4)
        cell_atom = np.array([0, 0, 1, 1], dtype=np.int32)
        active = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        out = _pure.apply_masks(x, fill, cell_atom, active)
        assert np.array_equal(out, [[1, 2, 0, 0], [0, 0, 3, 4]])


def test_backend_selection_env(monkeypatch):
    import importlib
    import owenexplain._kernels as kernels
    assert kernels.BACKEND in {"pure", "compiled"}
