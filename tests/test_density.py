"""Density tracker, estimate sandwich, and threshold-set extraction."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from dynorient import (
    ConfigError,
    OrientationConfig,
    OrientationStack,
)
from dynorient.density import DensityTracker
from dynorient.events import OUT_DEGREE_CHANGED
from dynorient.oracles import exact_density, subgraph_density

from conftest import Fuzzer, clique_edges, path_edges


def test_first_degree_sets_delta():
    stack = OrientationStack(OrientationConfig.simple_additive(8))
    stack.insert(0, 1)
    assert stack.tracker.delta == 1


def test_decrement_of_unique_maximum_recomputes_delta():
    # The engine names the vertices whose degree changed; the tracker reads
    # their degrees from ``out_deg`` when a read syncs it.
    tracker = DensityTracker(OrientationConfig.simple_additive(8))
    deg = tracker.out_deg

    def move(u, d):
        deg[u] = d
        tracker.degree_changed((u,))

    move(0, 1)
    move(1, 3)
    move(2, 2)
    assert tracker.delta == 3
    move(1, 2)   # the unique maximum drops, into a tie
    assert tracker.delta == 2
    move(1, 0)   # two vertices drop several levels in one sync
    move(2, 0)
    assert tracker.delta == 1
    move(0, 0)
    assert tracker.delta == 0


def test_tracker_matches_true_maximum_under_churn(any_preset_cfg):
    stack = OrientationStack(any_preset_cfg)
    fz = Fuzzer(stack, seed=11)
    for i in range(1, 1_501):
        fz.step()
        if i % 250 == 0:
            tracker = stack.tracker
            deg = stack.engine.out_deg
            assert tracker.delta == max(deg)
            assert tracker.violations(stack.engine) == []
            d = tracker.delta
            for t in (-1, 0, 1, 2, Fraction(5, 2), Fraction(d, 2), d - 1, d,
                      d + Fraction(1, 3), d + 1, 10 * d + 7):
                assert tracker.count_at_least(t) == \
                    sum(x >= t for x in deg), t
                want = [v for v, x in enumerate(deg) if x >= t]
                assert tracker.vertices_at_least(t) == \
                    sorted(want, key=lambda v: (-deg[v], v)), t


class _SwapTracker:
    """Per-commit reference for ``DensityTracker``: each unit degree change
    is applied as it comes, one swap and one counter step, and ``report``
    builds the threshold sets straight from their definition."""

    def __init__(self, cfg):
        self.cfg = cfg
        n = cfg.capacity
        self.order = list(range(n))
        self.pos = list(range(n))
        self.ge = [n]
        self.delta = 0

    def degree_changed(self, u, d):
        """u's out-degree is now d, one step from its old one."""
        ge = self.ge
        if d == len(ge):
            ge.append(0)
        order, pos = self.order, self.pos
        i = pos[u]
        j = ge[d]
        if i >= j:
            ge[d] = j + 1
        else:
            j = ge[d + 1] - 1
            ge[d + 1] = j
        if j == 0:
            self.delta = d
        w = order[j]
        order[i], order[j] = w, u
        pos[w], pos[u] = i, j

    def emit(self, kind, u, v, payload=None):
        """Event-sink form: follow the engine's commits one by one."""
        if kind == OUT_DEGREE_CHANGED:
            self.degree_changed(u, payload)

    def count_at_least(self, t):
        t = max(math.ceil(t), 0)
        return self.ge[t] if t < len(self.ge) else 0

    def report(self):
        """(k, |T_(k+1)|, V_0 .. V_(k+1), T_(k+1) as a set)."""
        cfg, delta = self.cfg, self.delta
        if delta == 0:
            return 0, 0, [], set()
        power, offset = Fraction(1), Fraction(0)
        thresholds = [Fraction(delta)]
        sizes = [self.count_at_least(delta)]
        for i in range(1, 10_000):
            power /= 1 + cfg.slack
            offset += cfg.c * power
            thresholds.append(delta * power - offset)
            sizes.append(self.count_at_least(thresholds[i]))
            if sizes[i] < (1 + cfg.gamma) * sizes[i - 1]:
                k = i - 1
                break
        return (k, sizes[k + 1], thresholds[:k + 2],
                set(self.order[:sizes[k + 1]]))


def _check_report(tracker, reference, deg):
    """The tracker's report against the reference's: the same k, size,
    thresholds and vertex set, with the vertices by degree descending and
    ties by id ascending."""
    got = tracker.report()
    k, size, thresholds, vertices = reference.report()
    assert (got.k, got.subgraph_size, got.thresholds, set(got.vertices)) \
        == (k, size, thresholds, vertices)
    assert got.vertices == sorted(vertices, key=lambda v: (-deg[v], v))


@st.composite
def _walks(draw):
    """2 <= n <= 12 and moves (kind, vertex, k), 1 <= k <= 64: '+' and '-'
    move a vertex by k (not below 0); '0' drops a vertex to 0; 'T' moves
    every vertex of the top degree down by k; 'D' drops a unique top vertex
    to k below the lowest of the rest (not below 0); '?' reads the
    tracker."""
    n = draw(st.integers(2, 12))
    moves = draw(st.lists(st.tuples(st.sampled_from("+-0TD?"),
                                    st.integers(0, n - 1),
                                    st.integers(1, 64)), max_size=60))
    return n, moves


@settings(max_examples=300, deadline=None, database=None)
@example((3, [("+", 0, 2), ("+", 1, 1), ("T", 0, 1), ("?", 0, 1),
              ("T", 0, 1), ("+", 2, 1)]))
@example((2, [("+", 0, 1), ("+", 1, 2), ("0", 1, 1), ("0", 0, 1),
              ("+", 1, 1)]))
@example((4, [("+", 3, 5), ("?", 0, 1), ("-", 3, 5), ("+", 3, 4),
              ("-", 3, 1), ("?", 0, 1)]))
@example((5, [("+", 0, 3), ("+", 1, 2), ("+", 4, 64), ("?", 0, 1),
              ("D", 0, 1), ("?", 0, 1), ("+", 2, 60), ("+", 2, 60),
              ("?", 0, 1), ("D", 0, 64)]))
@given(_walks())
def test_tracker_follows_unit_walks(walk):
    # Degrees jump by several levels at once, some of them up and back
    # down between two reads; each jump is named to the tracker as the
    # engine names a committed vertex.  The per-commit reference follows
    # the same walk in unit steps.
    n, moves = walk
    cfg = OrientationConfig.simple_additive(n)
    tracker = DensityTracker(cfg)
    reference = _SwapTracker(cfg)
    deg = tracker.out_deg
    stub = SimpleNamespace(out_deg=deg)

    def move(u, d):
        step = 1 if d > deg[u] else -1
        while deg[u] != d:
            deg[u] += step
            reference.degree_changed(u, deg[u])
        tracker.degree_changed((u,))

    def read():
        # Counts change only at the degrees held, so probe those, the
        # levels just above them, and a few cuts off the levels.
        top = max(deg)
        assert tracker.delta == top
        probes = {-1, 0, top + 2, Fraction(top, 3), *deg}
        probes.update(x + 1 for x in deg)
        for t in probes:
            want = [v for v, x in enumerate(deg) if x >= t]
            assert tracker.count_at_least(t) == len(want), t
            assert tracker.vertices_at_least(t) == \
                sorted(want, key=lambda v: (-deg[v], v)), t
        assert tracker.violations(stub) == []
        _check_report(tracker, reference, deg)

    for kind, u, k in moves:
        if kind == "+":
            move(u, deg[u] + k)
        elif kind == "-":
            move(u, max(deg[u] - k, 0))
        elif kind == "0":
            move(u, 0)
        elif kind == "T":
            top = max(deg)
            for v in [v for v in range(n) if top and deg[v] == top]:
                move(v, max(top - k, 0))
        elif kind == "D":
            top = max(deg)
            if deg.count(top) == 1:
                v = deg.index(top)
                move(v, max(min(deg[:v] + deg[v + 1:]) - k, 0))
        else:
            read()
    read()


def test_unmarked_change_is_flagged():
    # A degree change the engine never named leaves the vertex where the
    # tracker last placed it, and the audit says so.
    tracker = DensityTracker(OrientationConfig.simple_additive(8))
    deg = tracker.out_deg
    stub = SimpleNamespace(out_deg=deg)
    deg[3] = 2
    tracker.degree_changed((3,))
    assert tracker.violations(stub) == []
    deg[5] = 1
    assert "density tracker missed a degree change" in \
        tracker.violations(stub)
    tracker.degree_changed((5,))
    assert tracker.violations(stub) == []


def test_one_tracker_call_per_deferring_update(any_preset_cfg):
    # The engine names an update's committed vertices to the tracker once,
    # at the flush; at fuzz sizes no ring outgrows the window, so every
    # update defers.
    stack = OrientationStack(any_preset_cfg)
    engine = stack.engine
    tracker = stack.tracker
    calls = []

    def counting(vertices):
        calls.append(list(vertices))
        tracker.degree_changed(vertices)

    engine.degree_listener = SimpleNamespace(degree_changed=counting)
    fz = Fuzzer(stack, seed=29)
    for i in range(1, 601):
        assert engine.long_rings == 0
        before = list(engine.out_deg)
        calls.clear()
        fz.step()
        assert len(calls) == 1
        changed = {v for v, d in enumerate(engine.out_deg) if d != before[v]}
        assert changed <= set(calls[0])
        if i % 100 == 0:
            assert tracker.violations(engine) == []


def test_report_matches_the_per_commit_reference(any_preset_cfg):
    # The reference follows every commit through the event stream; the
    # tracker syncs only when read.  Their answers agree but for the order
    # of tied vertices, which the tracker fixes by vertex id.
    reference = _SwapTracker(any_preset_cfg)
    stack = OrientationStack(any_preset_cfg, recorder=reference)
    fz = Fuzzer(stack, seed=31)
    deg = stack.engine.out_deg
    for i in range(1, 801):
        fz.step()
        if i % 7 == 0:
            assert stack.tracker.delta == reference.delta
            _check_report(stack.density, reference, deg)


def test_empty_graph_estimates_zero():
    stack = OrientationStack(OrientationConfig.eps_density(8, 0.5))
    assert stack.density_estimate() == 0
    report = stack.extract_densest()
    assert report.vertices == [] and report.subgraph_size == 0


def test_estimate_requires_eps_density_preset():
    stack = OrientationStack(OrientationConfig.fast_additive(8))
    stack.insert(0, 1)
    with pytest.raises(ConfigError):
        stack.density_estimate()
    with pytest.raises(ConfigError):
        stack.extract_densest()
    # the raw value and the structural report stay available
    assert stack.density_value() > 0
    assert stack.density.report().k >= 0


def test_k4_estimate_within_eps_envelope():
    stack = OrientationStack(OrientationConfig.eps_density(8, Fraction(1, 2)))
    for u, v in clique_edges(4):
        stack.insert(u, v)
    est = stack.density_estimate()
    assert Fraction(3, 2) <= est <= Fraction(9, 4)


def test_random_graph_estimate_sandwich():
    n = 24
    stack = OrientationStack(OrientationConfig.eps_density(n, Fraction(1, 2)))
    fz = Fuzzer(stack, seed=47, max_edges=70)
    for i in range(1, 301):
        fz.step()
        if i % 30 == 0:
            rho, _ = exact_density(n, sorted(fz.live_set))
            est = stack.density_value()
            assert rho <= est <= Fraction(3, 2) * rho or rho == 0


class TestExtraction:
    def test_single_edge(self):
        cfg = OrientationConfig.eps_density(8, Fraction(1, 2))
        stack = OrientationStack(cfg)
        stack.insert(3, 5)
        report = stack.extract_densest()
        s = subgraph_density(report.vertices, [(3, 5)])
        assert s >= report.estimate / (1 + cfg.epsilon)

    def test_clique_plus_long_path(self):
        cfg = OrientationConfig.eps_density(24, Fraction(1, 2))
        stack = OrientationStack(cfg)
        edges = clique_edges(4) + path_edges(4, 24)
        for u, v in edges:
            stack.insert(u, v)
        report = stack.extract_densest()
        got = subgraph_density(report.vertices, edges)
        # within (1+eps)^2 of the K4 core's 1.5
        assert got >= Fraction(3, 2) / (1 + cfg.epsilon) ** 2
        assert set(range(4)) <= set(report.vertices)

    def test_disjoint_k5_and_k3(self):
        cfg = OrientationConfig.eps_density(16, Fraction(1, 2))
        stack = OrientationStack(cfg)
        edges = clique_edges(5) + clique_edges(3, offset=5)
        for u, v in edges:
            stack.insert(u, v)
        report = stack.extract_densest()
        got = subgraph_density(report.vertices, edges)
        assert got >= Fraction(2) / (1 + cfg.epsilon)

    def test_threshold_sets_nest_and_bound_holds(self):
        cfg = OrientationConfig.eps_density(20, Fraction(1, 2))
        stack = OrientationStack(cfg)
        fz = Fuzzer(stack, seed=53, max_edges=60)
        for i in range(1, 201):
            fz.step()
            if i % 20 != 0 or not fz.live:
                continue
            report = stack.density.report()
            # monotone nesting: thresholds descend, so counts grow
            tr = stack.tracker
            sizes = [tr.count_at_least(t) for t in report.thresholds]
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))
            assert all(a >= b for a, b in
                       zip(report.thresholds, report.thresholds[1:]))
            # extracted-set quality with the exact constants
            got = subgraph_density(report.vertices, sorted(fz.live_set))
            bound = report.estimate / (
                (1 + cfg.gamma) * (1 + cfg.slack) ** report.k)
            assert got >= bound
            # no copy escapes T_k into non-T_(k+1)
            assert stack.density.no_escape_violations(
                report, stack.engine) == []
