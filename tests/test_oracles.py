"""Exact oracles: flow vs enumeration, duality, witnesses, audits."""

import math
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynorient import (
    OracleLimitError,
    OrientationConfig,
    OrientationStack,
    oracles,
)
from dynorient.cli import main as cli_main
from dynorient.workload import generate, parse_workload
from dynorient.oracles import (
    FLOW_LIMIT_DEFAULT,
    audit_state,
    exact_arboricity,
    exact_density,
    exact_density_enum,
    exact_min_max_outdegree,
    subgraph_density,
)

from conftest import Fuzzer, clique_edges, path_edges


def _random_graph(rng, n, m_target):
    edges = set()
    while len(edges) < m_target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _record_flows(monkeypatch):
    """Patch the oracle's one max-flow step; returns the list of edge lists
    it is called on."""
    flows = []
    real = oracles._denser_set

    def counted(n, edges, g):
        flows.append(list(edges))
        return real(n, edges, g)

    monkeypatch.setattr(oracles, "_denser_set", counted)
    return flows


class TestExactDensity:
    def test_empty_graph(self):
        assert exact_density(5, []) == (0, [])

    def test_k4(self):
        rho, witness = exact_density(4, clique_edges(4))
        assert rho == Fraction(3, 2)
        assert witness == [0, 1, 2, 3]

    def test_k5_plus_path(self):
        edges = clique_edges(5) + path_edges(5, 15)
        rho, witness = exact_density(15, edges)
        assert rho == Fraction(2)
        assert set(witness) == set(range(5))

    def test_isolated_vertices(self):
        # A triangle among isolated vertices: the witness skips them.
        rho, witness = exact_density(7, [(1, 3), (3, 5), (1, 5)])
        assert rho == 1
        assert witness == [1, 3, 5]

    def test_two_k4s_plus_pendant_path(self, monkeypatch):
        # Two disjoint K4s tie at 3/2; the pendant path only dilutes.  The
        # peel finds 3/2 and one saturating flow certifies it.
        edges = (clique_edges(4) + [(u + 4, v + 4) for u, v in clique_edges(4)]
                 + path_edges(7, 11))
        flows = _record_flows(monkeypatch)
        rho, witness = exact_density(11, edges)
        assert len(flows) == 1
        assert rho == Fraction(3, 2) == exact_density_enum(11, edges)
        assert subgraph_density(witness, edges) == Fraction(3, 2)
        assert exact_min_max_outdegree(11, edges)[0] == 2

    def test_peel_not_optimal(self, monkeypatch):
        # The peel drops vertex 1 before 4 and keeps 2/3; the first flow
        # finds the path 1-6-5-7, and a second one certifies 3/4.
        edges = [(1, 6), (4, 9), (5, 6), (5, 7)]
        assert oracles._peel(10, edges)[0] == Fraction(2, 3)
        flows = _record_flows(monkeypatch)
        rho, witness = exact_density(10, edges)
        assert rho == Fraction(3, 4) == exact_density_enum(10, edges)
        assert subgraph_density(witness, edges) == rho
        assert len(flows) >= 2

    def test_k6_with_pendant_paths(self, monkeypatch):
        # Two 7-vertex paths hang off the clique; at guess 5/2 the core
        # (induced degrees >= 3) is the K6, so every flow runs on its 15
        # edges alone.
        k6 = clique_edges(6)
        edges = (k6 + [(0, 6)] + path_edges(6, 13) + [(1, 13)]
                 + path_edges(13, 20))
        flows = _record_flows(monkeypatch)
        rho, witness = exact_density(20, edges)
        assert rho == Fraction(5, 2) == exact_density_enum(20, edges)
        assert witness == list(range(6))
        assert subgraph_density(witness, edges) == rho
        assert flows and all(sorted(f) == k6 for f in flows)

    def test_limit_enforced(self):
        with pytest.raises(OracleLimitError):
            exact_density(FLOW_LIMIT_DEFAULT + 1, [])
        with pytest.raises(OracleLimitError):
            exact_min_max_outdegree(FLOW_LIMIT_DEFAULT + 1, [])
        with pytest.raises(OracleLimitError):
            exact_density_enum(21, [])
        with pytest.raises(OracleLimitError):
            exact_arboricity(21, [])


class TestExactOrientation:
    def test_empty_graph(self):
        assert exact_min_max_outdegree(6, []) == (0, [])

    def test_isolated_vertices(self):
        k, orientation = exact_min_max_outdegree(6, [(1, 4)])
        assert k == 1
        assert orientation in ([(1, 4)], [(4, 1)])

    def test_cycle_and_star(self):
        c5 = [(i, (i + 1) % 5) for i in range(5)]
        assert exact_min_max_outdegree(5, c5)[0] == 1
        star = [(0, i) for i in range(1, 9)]
        k, orientation = exact_min_max_outdegree(9, star)
        assert k == 1
        counts = [0] * 9
        for tail, _ in orientation:
            counts[tail] += 1
        assert max(counts) <= 1

    def test_k4(self, monkeypatch):
        # The peel finds 3/2, so the loop starts at k = 2 and its one flow
        # saturates.
        flows = _record_flows(monkeypatch)
        k, orientation = exact_min_max_outdegree(4, clique_edges(4))
        assert k == 2
        assert len(flows) == 1
        counts = [0] * 4
        for tail, _ in orientation:
            counts[tail] += 1
        assert max(counts) <= 2
        assert sorted((min(a, b), max(a, b)) for a, b in orientation) \
            == clique_edges(4)


    def test_weak_start_climbs_to_the_same_k(self, monkeypatch):
        # Started at k = 0 instead of the peel's bound, the loop's flows
        # climb to the same k and the witness reaches it.
        edges = clique_edges(5) + path_edges(5, 15)
        k, _ = exact_min_max_outdegree(15, edges)
        monkeypatch.setattr(oracles, "_peel",
                            lambda n, edges: (Fraction(0), [], [0] * n,
                                              list(edges)))
        flows = _record_flows(monkeypatch)
        weak_k, orientation = exact_min_max_outdegree(15, edges)
        assert weak_k == k == 2
        assert len(flows) >= 2
        counts = [0] * 15
        for tail, _ in orientation:
            counts[tail] += 1
        assert max(counts) == k


class TestArboricity:
    def test_named_graphs(self):
        assert exact_arboricity(6, path_edges(0, 6)) == 1
        assert exact_arboricity(4, clique_edges(4)) == 2
        assert exact_arboricity(5, clique_edges(5)) == 3  # ceil(10/4)
        assert exact_arboricity(5, []) == 0


def test_duality_and_oracle_agreement_sampled():
    # ceil(density) == min-max-outdegree, and flow == enumeration.
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randrange(4, 15)
        m = rng.randrange(0, min(30, n * (n - 1) // 2) + 1)
        edges = _random_graph(rng, n, m)
        rho, witness = exact_density(n, edges)
        assert rho == exact_density_enum(n, edges)
        k, _ = exact_min_max_outdegree(n, edges)
        assert k == -(-rho.numerator // rho.denominator)
        if edges:
            assert subgraph_density(witness, edges) == rho


def _quadratic_peel(n, edges):
    """The O(n^2) greedy peel ``oracles._peel`` replaced, kept as its
    reference: a linear scan for the least degree, least id among equals."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    alive = set(range(n))
    core = [0] * n
    order = []
    ordered = []
    m_left = len(edges)
    best_m, best_k, best_at = m_left, n, 0
    k = 0
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        if deg[v] > k:
            k = deg[v]
        core[v] = k
        alive.remove(v)
        order.append(v)
        m_left -= deg[v]
        for w in adj[v]:
            if w in alive:
                deg[w] -= 1
                ordered.append((v, w))
        if m_left * best_k > best_m * len(alive):
            best_m, best_k, best_at = m_left, len(alive), len(order)
    return Fraction(best_m, best_k), sorted(order[best_at:]), core, ordered


def test_heap_peel_matches_the_quadratic_reference():
    # Same (density, vertices, core) as the reference on seeded random
    # graphs from sparse to dense, and on the graph whose peel is not
    # optimal.
    rng = random.Random(2209)
    for _ in range(300):
        n = rng.randrange(3, 60)
        m = rng.randrange(0, min(6 * n, n * (n - 1) // 2) + 1)
        edges = _random_graph(rng, n, m)
        rng.shuffle(edges)
        assert oracles._peel(n, edges) == _quadratic_peel(n, edges)
    edges = [(1, 6), (4, 9), (5, 6), (5, 7)]
    assert oracles._peel(10, edges) == _quadratic_peel(10, edges)
    assert oracles._peel(10, edges)[0] == Fraction(2, 3)


def test_audit_fresh_stack_is_clean():
    stack = OrientationStack(OrientationConfig.fast_additive(16))
    assert audit_state(stack) == []


def test_audit_flags_injected_corruption():
    stack = OrientationStack(OrientationConfig.fast_additive(16))
    Fuzzer(stack, seed=83).run(100)
    assert audit_state(stack) == []
    # a stale maximum in the synced state (the audit synced the tracker)
    tracker = stack.tracker
    tracker._delta += 1
    bad = audit_state(stack)
    assert len(bad) == 1 and "stale" in bad[0]
    tracker._delta -= 1
    assert audit_state(stack) == []
    # a vertex filed under the wrong degree
    u = max(range(16), key=stack.engine.out_deg.__getitem__)
    home, wrong = tracker.at[tracker.deg[u]], tracker.at[0]
    home.remove(u)
    wrong.add(u)
    bad = audit_state(stack)
    assert len(bad) == 1 and "density tracker sets" in bad[0]
    wrong.remove(u)
    home.add(u)
    assert audit_state(stack) == []
    # a vertex dropped from every set
    home.remove(u)
    bad = audit_state(stack)
    assert len(bad) == 1 and "density tracker sets" in bad[0]
    home.add(u)
    assert audit_state(stack) == []
    # a corrupted recorded degree is caught by the structural sweep
    engine = stack.engine
    eid = next(e for v in range(16) for e in engine.out_entries(v))
    engine.e_perc[eid] += 1
    assert audit_state(stack)
    engine.e_perc[eid] -= 1
    assert audit_state(stack) == []
    # a recorded degree outside the key table, below or above it
    for bad_perc in (-1, len(engine.key_of)):
        saved, engine.e_perc[eid] = engine.e_perc[eid], bad_perc
        assert any("outside" in line for line in audit_state(stack))
        engine.e_perc[eid] = saved
    assert audit_state(stack) == []
    # a rounded edge reversed against its copies' majority
    out = stack.rounding.out
    tail = next(u for u in range(16) if out[u])
    head = next(iter(out[tail]))
    del out[tail][head]
    out[head][tail] = None
    assert audit_state(stack)
    del out[head][tail]
    out[tail][head] = None
    assert audit_state(stack) == []
    # a bucket node given its successor's key: two buckets share a key
    bn = next(engine.top_bucket[v] for v in range(16)
              if engine.top_bucket[v] >= 0
              and engine.bn_next[engine.top_bucket[v]] >= 0)
    key = engine.bn_key[bn]
    engine.bn_key[bn] = engine.bn_key[engine.bn_next[bn]]
    assert audit_state(stack)
    engine.bn_key[bn] = key
    assert audit_state(stack) == []
    # a pair entry's tail and head swapped
    eid = next(e for v in range(16) for e in engine.out_entries(v))
    e_tail, e_head = engine.e_tail, engine.e_head
    e_tail[eid], e_head[eid] = e_head[eid], e_tail[eid]
    assert any("does not match pair" in line for line in audit_state(stack))
    e_tail[eid], e_head[eid] = e_head[eid], e_tail[eid]
    assert audit_state(stack) == []
    # a copy count left on an entry of a deleted, freed pair
    u, v = next(iter(engine.edges()))
    eid = next(e for w in (u, v) for e in engine.out_entries(w)
               if {e_tail[e], e_head[e]} == {u, v})
    stack.delete(u, v)
    assert audit_state(stack) == []
    engine.e_cnt[eid] += 1
    assert any("freed pair id" in line for line in audit_state(stack))
    engine.e_cnt[eid] -= 1
    assert audit_state(stack) == []


def test_audit_after_fuzz_per_preset(any_preset_cfg):
    stack = OrientationStack(any_preset_cfg)
    Fuzzer(stack, seed=89).run(250)
    assert audit_state(stack) == []


# ----------------------------------------------------------------------
# Named shapes and the edge-node reference flow.
# ----------------------------------------------------------------------

def _shape(name, n):
    """Edge list of a named shape on n vertices (n even; a multiple of 40
    for the grid).  Each shape is densest as a whole."""
    half = n // 2
    if name == "path-descending":
        return [(i, i + 1) for i in range(n - 2, -1, -1)]
    if name == "path-ascending":
        return path_edges(0, n)
    if name == "path-shuffled":
        edges = path_edges(0, n)
        random.Random(n).shuffle(edges)
        return edges
    if name == "star":
        return [(0, i) for i in range(1, n)]
    if name == "cycle":
        return path_edges(0, n) + [(n - 1, 0)]
    if name == "ladder":
        return (path_edges(0, half) + path_edges(half, n)
                + [(i, half + i) for i in range(half)])
    assert name == "grid-40"
    rows = n // 40
    return ([(r * 40 + c, r * 40 + c + 1)
             for r in range(rows) for c in range(39)]
            + [(r * 40 + c, (r + 1) * 40 + c)
               for r in range(rows - 1) for c in range(40)])


SHAPES = ("path-descending", "path-ascending", "path-shuffled", "star",
          "cycle", "ladder", "grid-40")


def _check_orientation(n, edges, k, orientation):
    # The witness covers every edge once and its max out-degree is k.
    assert sorted((min(a, b), max(a, b)) for a, b in orientation) \
        == sorted((min(a, b), max(a, b)) for a, b in edges)
    counts = [0] * n
    for tail, _ in orientation:
        counts[tail] += 1
    assert max(counts, default=0) == k


@pytest.mark.parametrize("name", SHAPES)
def test_named_shapes_at_the_flow_limit(name):
    # The edge-node flow this oracle replaced recursed once per level of
    # its network and raised RecursionError from n = 500 on a path listed
    # backwards or shuffled; every shape now runs at the limit itself.
    n = FLOW_LIMIT_DEFAULT
    edges = _shape(name, n)
    rho, witness = exact_density(n, edges)
    assert rho == Fraction(len(edges), n)
    assert subgraph_density(witness, edges) == rho
    k, orientation = exact_min_max_outdegree(n, edges)
    assert k == math.ceil(rho)
    _check_orientation(n, edges, k, orientation)


def test_replay_audits_a_path_inserted_backwards(tmp_path, capsys):
    # The workload that used to end in RecursionError at its audit.
    lines = (["n 500"] + [f"+ {i} {i + 1}" for i in range(498, -1, -1)]
             + ["! audit"])
    wl = tmp_path / "w.txt"
    wl.write_text("\n".join(lines) + "\n")
    assert cli_main(["replay", str(wl)]) == 0
    assert "1 audits clean, 0 skipped" in capsys.readouterr().out


class _ReferenceDinic:
    """The edge-node max-flow the vertex-graph flow replaced, kept as its
    reference: integral Dinic with a recursive path search."""

    def __init__(self, n):
        self.n = n
        self.adj = [[] for _ in range(n)]

    def add_edge(self, u, v, cap):
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def max_flow(self, s, t):
        flow = 0
        adj = self.adj
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for e in adj[u]:
                    if e[1] > 0 and level[e[0]] < 0:
                        level[e[0]] = level[u] + 1
                        queue.append(e[0])
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u, pushed):
                if u == t:
                    return pushed
                while it[u] < len(adj[u]):
                    e = adj[u][it[u]]
                    v = e[0]
                    if e[1] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, e[1]))
                        if got:
                            e[1] -= got
                            adj[v][e[2]][1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 62)
                if not pushed:
                    break
                flow += pushed

    def source_side(self, s):
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                if e[1] > 0 and e[0] not in seen:
                    seen.add(e[0])
                    queue.append(e[0])
        return seen


def _reference_denser_set(n, edges, g):
    """Source -> edge nodes (q each) -> endpoints (2q) -> sink (p each):
    None when the flow saturates, else the vertices of the min cut."""
    m = len(edges)
    net = _ReferenceDinic(m + n + 2)
    for i, (u, v) in enumerate(edges):
        net.add_edge(0, 1 + i, g.denominator)
        net.add_edge(1 + i, 1 + m + u, 2 * g.denominator)
        net.add_edge(1 + i, 1 + m + v, 2 * g.denominator)
    for v in range(n):
        net.add_edge(1 + m + v, m + n + 1, g.numerator)
    if net.max_flow(0, m + n + 1) == m * g.denominator:
        return None
    side = net.source_side(0)
    return [v for v in range(n) if (1 + m + v) in side]


def _reference_density(n, edges):
    # Dinkelbach from 0 on the whole graph: no peel, no core.
    rho = Fraction(0)
    while True:
        found = _reference_denser_set(n, edges, rho)
        if found is None:
            return rho
        rho = subgraph_density(found, edges)


def _reference_min_max_outdegree(n, edges):
    k = 0
    while True:
        found = _reference_denser_set(n, edges, Fraction(k))
        if found is None:
            return k
        k = math.ceil(subgraph_density(found, edges))


def _agree_with_reference(n, edges):
    rho, witness = exact_density(n, edges)
    assert rho == _reference_density(n, edges)
    if edges:
        assert subgraph_density(witness, edges) == rho
    k, orientation = exact_min_max_outdegree(n, edges)
    assert k == _reference_min_max_outdegree(n, edges)
    _check_orientation(n, edges, k, orientation)


@st.composite
def _graphs(draw):
    """1 <= n <= 40 and a simple graph on it, each edge in the drawn
    direction and order."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=160))
    edges = {}
    for u, v in pairs:
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), (u, v))
    return n, list(edges.values())


@settings(max_examples=200, deadline=None, database=None)
@given(_graphs())
def test_flow_matches_the_edge_node_reference(graph):
    _agree_with_reference(*graph)


@pytest.mark.parametrize("name", SHAPES)
def test_named_shapes_match_the_edge_node_reference(name):
    _agree_with_reference(200, _shape(name, 200))


def test_drifting_density_states_match_the_edge_node_reference():
    # The graph after every 30th update of a drifting-density replay at
    # n = 60, the size and audit spacing of the density benchmark.
    lines = generate("drifting-density", 60, 6000, seed=101, clique=12)
    n, ops = parse_workload(lines)
    live = {}
    updates = 0
    for op in ops:
        if op.kind not in "+-":
            continue
        key = (min(op.u, op.v), max(op.u, op.v))
        if op.kind == "+":
            live[key] = (op.u, op.v)
        else:
            del live[key]
        updates += 1
        if updates % 30 == 0:
            _agree_with_reference(n, list(live.values()))
    assert updates >= 1000
