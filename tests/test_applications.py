"""Matching, coloring, forest decomposition, matrix-vector product."""

import gc
import random

import pytest

from dynorient import (
    GraphUpdateError,
    OrientationConfig,
    OrientationStack,
)
from dynorient.oracles import audit_state

from conftest import Fuzzer, clique_edges


def _stack(n=32, preset="fast-additive", **apps):
    cfg = OrientationConfig.from_preset(preset, n)
    stack = OrientationStack(cfg)
    if apps.get("matching"):
        stack.attach_matching()
    if apps.get("coloring"):
        stack.attach_coloring()
    if apps.get("forests"):
        stack.attach_forests()
    if apps.get("matvec"):
        stack.attach_matvec()
    return stack


class TestMatching:
    def test_single_edge_is_matched(self):
        stack = _stack(matching=True)
        stack.insert(0, 1)
        assert stack.matching.matching() == [(0, 1)]

    def test_path_rematch_after_deletion(self):
        stack = _stack(matching=True)
        stack.insert(0, 1)   # a-b matched
        stack.insert(1, 2)   # b busy: maximal already
        assert stack.matching.matching() == [(0, 1)]
        stack.delete(0, 1)   # b frees up and rematches with c
        assert stack.matching.matching() == [(1, 2)]

    def test_fuzz_validity_and_maximality(self):
        stack = _stack(n=64, matching=True)
        fz = Fuzzer(stack, seed=61)
        for i in range(1, 2_001):
            fz.step()
            assert stack.matching.violations(stack.engine) == []


class TestColoring:
    def test_triangle_three_distinct_colors(self):
        stack = _stack(coloring=True)
        for u, v in clique_edges(3):
            stack.insert(u, v)
        colors = [stack.coloring.color_of(v) for v in range(3)]
        assert len(set(colors)) == 3
        assert all(c <= 2 for c in colors)

    def test_star_uses_two_colors_total(self):
        stack = _stack(coloring=True)
        for leaf in range(1, 21):
            stack.insert(0, leaf)
        colors = {stack.coloring.color_of(v) for v in range(21)}
        assert len(colors) == 2

    def test_fuzz_properness_and_degree_cap(self):
        stack = _stack(n=64, coloring=True)
        fz = Fuzzer(stack, seed=67)
        for i in range(1, 2_001):
            fz.step()
            assert stack.coloring.violations(stack.engine) == []

    def test_candidate_heaps_stay_within_twice_the_degree(self):
        # Inserts and freed colors push candidates that only a recolor
        # pops; without a bound, stale and repeated entries pile up with
        # the number of updates, not with the degrees.  A delete lowers
        # two degrees, so it must check both heaps too.
        stack = _stack(n=64, preset="simple-multiplicative", coloring=True)
        coloring = stack.coloring
        fz = Fuzzer(stack, seed=3)
        for i in range(12_000):
            fz.step()
            over = [v for v, heap in enumerate(coloring.free_heap)
                    if len(heap) > 2 * coloring.degree[v] + 2]
            assert over == [], f"update {i}: heaps over the bound at {over}"
        assert coloring.violations(stack.engine) == []


class TestForests:
    def test_tree_needs_at_most_two_forests(self):
        stack = _stack(forests=True)
        rng = random.Random(5)
        for v in range(1, 20):
            stack.insert(rng.randrange(v), v)
        assert stack.forests.violations() == []
        assert stack.forests.forest_count() <= 2

    def test_k4_bounded_by_twice_max_out(self):
        stack = _stack(forests=True)
        for u, v in clique_edges(4):
            stack.insert(u, v)
        assert stack.forests.violations() == []
        assert stack.forests.forest_count() \
            <= 2 * stack.max_simple_out_degree()

    def test_assignment_matches_records_and_count(self):
        stack = _stack(forests=True)
        Fuzzer(stack, seed=71).run(300)
        forests = stack.forests
        got = forests.assignment()
        assert set(got) == set(stack.rounding.edges())
        for (tail, head), slot_side in got.items():
            rec = forests.by_edge[forests._key(tail, head)]
            assert (rec[0], rec[1]) == (tail, head)
            assert (rec[2], rec[3]) == slot_side
        assert len(set(got.values())) == forests.forest_count()

    def test_cycle_splits_across_the_side_pair(self):
        # Force a simple directed cycle into one pseudoforest by hand and
        # check the side rule separates it.
        from dynorient.applications import ForestDecomposition
        from dynorient.rounding import RoundedOrientation

        r = RoundedOrientation(8)
        f = ForestDecomposition(r)
        k = 5
        for i in range(k):
            j = (i + 1) % k
            a, b = (i, j) if i < j else (j, i)
            counts = (3, 1) if a == i else (1, 3)
            r.simple_inserted(a, b, *counts)
        assert all(rec[2] == 0 for rec in f.by_edge.values())  # one slot each
        sides = {rec[3] for rec in f.by_edge.values()}
        assert sides == {0, 1}
        assert f.violations() == []

    def test_fuzz_acyclic_and_counted(self):
        stack = _stack(n=48, forests=True)
        fz = Fuzzer(stack, seed=71)
        for i in range(1, 1_501):
            fz.step()
            if i % 50 == 0:
                assert stack.forests.violations() == []
        assert stack.forests.forest_count() \
            <= 2 * stack.max_simple_out_degree()


class TestMatVec:
    def test_zero_matrix_all_queries_zero(self):
        stack = _stack(matvec=True)
        for i in range(8):
            assert stack.matvec.query(i) == 0

    def test_rejects_diagonal_writes(self):
        stack = _stack(matvec=True)
        with pytest.raises(GraphUpdateError):
            stack.matvec.set_entry(3, 3, 1)

    @pytest.mark.parametrize("i, j, exc", [
        (3, 12, GraphUpdateError), (-1, 2, GraphUpdateError),
        (1.0, 2, TypeError)])
    def test_rejected_entry_leaves_matrix_unchanged(self, i, j, exc):
        stack = _stack(n=10, matvec=True)
        mv = stack.matvec
        mv.set_entry(1, 2, 4)
        with pytest.raises(exc):
            mv.set_entry(i, j, 5)
        assert mv.a == {mv._key(1, 2): 4}
        assert audit_state(stack) == []

    def test_random_updates_match_dense_recomputation(self):
        n = 30
        stack = _stack(n=n, matvec=True)
        mv = stack.matvec
        rng = random.Random(73)
        a = {}
        x = [1] * n
        for step in range(1000):
            r = rng.random()
            if r < 0.45:
                i, j = rng.randrange(n), rng.randrange(n)
                if i == j:
                    continue
                key = (min(i, j), max(i, j))
                val = rng.choice([0, 1, 2, 3, -2, 5])
                if a.get(key, 0) == 0 and val == 0:
                    continue
                mv.set_entry(i, j, val)
                if val == 0:
                    a.pop(key, None)
                else:
                    a[key] = val
            elif r < 0.7:
                j = rng.randrange(n)
                val = rng.randrange(-4, 8)
                mv.set_x(j, val)
                x[j] = val
            else:
                i = rng.randrange(n)
                dense = sum(v * x[p[0] if p[1] == i else p[1]]
                            for p, v in a.items() if i in p)
                assert mv.query(i) == dense
        assert mv.violations(stack.engine) == []

    def test_vector_change_is_linear_in_the_entry(self):
        stack = _stack(matvec=True)
        mv = stack.matvec
        mv.set_entry(0, 1, 3)
        mv.set_entry(1, 2, 4)
        before = [mv.query(i) for i in range(8)]
        mv.set_x(1, mv.x[1] + 5)
        after = [mv.query(i) for i in range(8)]
        assert after[0] - before[0] == 3 * 5
        assert after[2] - before[2] == 4 * 5
        assert after[1] == before[1]
        assert after[3:] == before[3:]


def test_attach_only_while_the_graph_is_empty():
    # Listeners replay no history, so an attach after an insert is refused;
    # once every edge is gone again there is nothing to replay.
    stack = _stack()
    stack.insert(0, 1)
    with pytest.raises(RuntimeError, match="while the graph is empty"):
        stack.attach_matching()
    assert stack.attached_apps() == []
    stack.delete(0, 1)
    matching = stack.attach_matching()
    stack.insert(0, 1)
    assert matching.matching() == [(0, 1)]


def test_applications_compose_over_long_fuzz():
    stack = _stack(n=48, matching=True, coloring=True, forests=True,
                   matvec=True)
    fz = Fuzzer(stack, seed=79)
    for i in range(1, 1_001):
        fz.step()
        if i % 100 == 0:
            for app in stack.attached_apps():
                assert app.violations(stack.engine) == []


@pytest.mark.parametrize("app", [None, "matching", "coloring", "forests",
                                 "matvec"])
def test_dropped_stack_leaves_no_cycle(app):
    # An application holds the rounding layer's adjacency, not the layer
    # that lists it, and the matrix-vector product reaches its stack only
    # weakly; so reference counting alone frees a dropped stack.
    gc.collect()
    gc.disable()
    try:
        stack = _stack(n=200, preset="simple-multiplicative",
                       **({app: True} if app else {}))
        for v in range(1, 200):
            stack.insert(v - 1, v)
        if app == "matvec":
            stack.matvec.set_entry(0, 2, 5)
        del stack
        assert gc.collect() == 0
    finally:
        gc.enable()
