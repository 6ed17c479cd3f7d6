import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owenexplain import (
    BudgetExhausted,
    QueryLedger,
    build_atom_grid,
    build_partition_tree,
    derive_seed,
    make_rng,
)


class TestAtomGrid:
    def test_exact_tiling_6x6(self):
        grid = build_atom_grid((6, 6), (3, 3))
        assert grid.atom_count == 4
        assert np.bincount(grid.cell_atom).tolist() == [9, 9, 9, 9]

    def test_remainder_blocks_5x5(self):
        grid = build_atom_grid((5, 5), (3, 3))
        assert grid.atom_count == 4
        assert np.bincount(grid.cell_atom).tolist() == [9, 6, 6, 4]

    def test_identity_granularity(self):
        grid = build_atom_grid((7,), (1,))
        assert grid.atom_count == 7
        assert list(grid.cell_atom) == list(range(7))

    def test_tiling_partitions_cells(self):
        grid = build_atom_grid((5, 7, 3), (2, 3, 2))
        counts = np.bincount(grid.cell_atom, minlength=grid.atom_count)
        assert counts.sum() == grid.n_cells
        # Each atom is a box of cells: interior blocks hold 2*3*2, and the
        # edge blocks of each axis keep the remainder (1, 1 and 1 cells).
        sizes = np.multiply.outer(np.multiply.outer([2, 2, 1], [3, 3, 1]), [2, 1])
        assert counts.tolist() == sizes.reshape(-1).tolist()

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_atom_grid((4, 4), (2,))

    def test_zero_block_rejected(self):
        with pytest.raises(ValueError):
            build_atom_grid((4,), (0,))


class TestPartitionTree:
    def test_2x2_grid_seven_nodes(self):
        tree = build_partition_tree(build_atom_grid((2, 2), (1, 1)))
        assert len(set(tree.nodes)) == 7  # nodes are hashable and distinct
        root = tree.root
        left, right = tree.nodes[root.left], tree.nodes[root.right]
        # root splits along axis 0 into two rows of two atoms
        assert (left.atoms, left.bits) == ((0, 1), 0b0011)
        assert (right.atoms, right.bits) == ((2, 3), 0b1100)
        assert [tree.nodes[i].atoms for i in tree.leaf_ids] == [(0,), (1,), (2,), (3,)]

    def test_single_atom_tree(self):
        tree = build_partition_tree(build_atom_grid((3, 3), (3, 3)))
        assert len(tree.nodes) == 1
        assert tree.root.is_leaf

    def test_row_of_eight_is_balanced(self):
        tree = build_partition_tree(build_atom_grid((8,), (1,)))
        assert len(tree.nodes) == 15
        assert max(node.depth for node in tree.nodes) == 3
        assert [tree.nodes[i].atoms for i in tree.leaf_ids] == [(a,) for a in range(8)]

    def test_internal_nodes_union_of_disjoint_children(self):
        tree = build_partition_tree(build_atom_grid((3, 5), (1, 1)))
        for node in tree.nodes:
            assert list(node.atoms) == sorted(node.atoms)
            assert node.bits == sum(1 << a for a in node.atoms)
            if node.is_leaf:
                assert len(node.atoms) == 1
                continue
            left = tree.nodes[node.left]
            right = tree.nodes[node.right]
            assert left.bits & right.bits == 0
            assert left.bits | right.bits == node.bits

    def test_preorder_ids(self):
        tree = build_partition_tree(build_atom_grid((4,), (1,)))
        for node in tree.nodes:
            if not node.is_leaf:
                assert node.left == node.id + 1
                assert node.left < node.right


class TestQueryLedger:
    def test_charge_within_budget(self):
        ledger = QueryLedger(budget=10, evals_used=8)
        assert ledger.try_charge(2, "t")
        assert ledger.evals_used == 10

    def test_exhaustion_leaves_state(self):
        ledger = QueryLedger(budget=10, evals_used=9)
        assert not ledger.try_charge(2, "t")
        assert ledger.evals_used == 9

    def test_unlimited(self):
        ledger = QueryLedger()
        assert ledger.try_charge(1000, "t")
        assert ledger.evals_used == 1000

    def test_charge_raises_signal(self):
        ledger = QueryLedger(budget=1)
        with pytest.raises(BudgetExhausted):
            ledger.charge(2, "t")

    @given(st.lists(st.integers(min_value=1, max_value=20), max_size=40),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=100)
    def test_never_exceeds_budget(self, charges, budget):
        ledger = QueryLedger(budget=budget)
        seen = [0]
        for n in charges:
            ledger.try_charge(n, "fuzz")
            assert ledger.evals_used <= budget
            assert ledger.evals_used >= seen[-1]
            seen.append(ledger.evals_used)

    def test_concurrent_charges_sum(self):
        ledger = QueryLedger(budget=8000)
        def worker():
            for _ in range(1000):
                ledger.try_charge(1, "w")
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ledger.evals_used == 8000

    def test_tag_accounting(self):
        ledger = QueryLedger()
        ledger.charge(3, "a")
        ledger.charge(2, "b")
        ledger.charge(4, "a")
        assert ledger.by_tag == {"a": 7, "b": 2}


class TestSeeding:
    def test_derive_seed_is_stable(self):
        # frozen values guard the documented splitmix64/FNV-1a chain
        assert derive_seed(0, "victim") == derive_seed(0, "victim")
        assert derive_seed(0, "victim") != derive_seed(0, "input")
        assert derive_seed(1, "victim") != derive_seed(0, "victim")
        assert derive_seed(5, "synth", 2, 3) != derive_seed(5, "synth", 3, 2)

    def test_rng_stream_reproducible(self):
        a = make_rng(42).uniform(0, 1, 8)
        b = make_rng(42).uniform(0, 1, 8)
        assert np.array_equal(a, b)
