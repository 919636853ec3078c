"""Density tracker, estimate sandwich, and threshold-set extraction."""

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
from dynorient.oracles import exact_density, subgraph_density

from conftest import Fuzzer, clique_edges, path_edges


def test_first_degree_sets_delta():
    stack = OrientationStack(OrientationConfig.simple_additive(8))
    stack.insert(0, 1)
    assert stack.tracker.delta == 1


def test_decrement_of_unique_maximum_recomputes_delta():
    from dynorient.density import DensityTracker

    # The engine commits one +1 or -1 at a time; feed the tracker the same.
    tracker = DensityTracker(OrientationConfig.simple_additive(8))
    deg = [0] * 8

    def step(u, d):
        assert abs(d - deg[u]) == 1
        deg[u] = d
        tracker.degree_changed(u, d)

    for u, top in ((0, 1), (1, 3), (2, 2)):
        for d in range(1, top + 1):
            step(u, d)
    assert tracker.delta == 3
    step(1, 2)   # the unique maximum drops
    assert tracker.delta == 2
    step(1, 1)
    step(1, 0)
    step(2, 1)
    step(2, 0)
    assert tracker.delta == 1
    step(0, 0)
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
                got = tracker.vertices_at_least(t)
                assert set(got) == {v for v, x in enumerate(deg) if x >= t}
                assert all(deg[a] >= deg[b] for a, b in zip(got, got[1:]))


@st.composite
def _walks(draw):
    """2 <= n <= 8 and moves: '+' and '-' step one vertex; '0' steps a vertex
    down to 0; 'T' steps every vertex of the top degree down by one."""
    n = draw(st.integers(2, 8))
    moves = draw(st.lists(st.tuples(st.sampled_from("+-0T"),
                                    st.integers(0, n - 1)), max_size=60))
    return n, moves


@settings(max_examples=300, deadline=None, database=None)
@example((3, [("+", 0), ("+", 0), ("+", 1), ("T", 0), ("T", 0), ("+", 2)]))
@example((2, [("+", 0), ("+", 1), ("+", 1), ("0", 1), ("0", 0), ("+", 1)]))
@given(_walks())
def test_tracker_follows_unit_walks(walk):
    from dynorient.density import DensityTracker

    n, moves = walk
    tracker = DensityTracker(OrientationConfig.simple_additive(n))
    deg = [0] * n
    stub = SimpleNamespace(out_deg=deg)

    def step(u, d):
        deg[u] = d
        tracker.degree_changed(u, d)
        top = max(deg)
        assert tracker.delta == top
        for t in list(range(-1, top + 3)) + [Fraction(top, 3)]:
            want = {v for v, x in enumerate(deg) if x >= t}
            assert tracker.count_at_least(t) == len(want), t
            assert set(tracker.vertices_at_least(t)) == want, t
        assert tracker.violations(stub) == []

    for kind, u in moves:
        if kind == "+" or (kind == "-" and deg[u] == 0):
            step(u, deg[u] + 1)
        elif kind == "-":
            step(u, deg[u] - 1)
        elif kind == "0":
            while deg[u]:
                step(u, deg[u] - 1)
        else:
            top = max(deg)
            for v in [v for v in range(n) if top and deg[v] == top]:
                step(v, top - 1)


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
