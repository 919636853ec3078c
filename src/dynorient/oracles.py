"""Exact ground truth at desk scale for everything the package approximates.

* ``exact_density``: maximum over nonempty S of |E[S]|/|S| by Dinkelbach /
  Goldberg iteration on an integral max-flow network (source -> edge nodes
  -> endpoints -> sink, capacities scaled by the guess's denominator, so
  every comparison is exact).  The min cut at guess g is a set S
  maximising |E[S]| - g|S|; its density is the next guess, strictly
  larger.  The first guess is not 0 but the densest set that a greedy
  peel of the edge list leaves behind (Charikar), which is often optimal
  already, so most calls run a single flow.  Each flow at guess g runs on
  the g-core only, the edges that survive repeated removal of vertices of
  degree < g.  Lemma: every maximiser S of |E[S]| - g|S| lies in the
  g-core, since dropping a vertex of induced degree d < g from S would
  raise the objective by g - d > 0.  So the loop still stops only on a
  saturating flow, and that flow still certifies the guess: it shows
  |E[S]| <= g|S| for every S inside the core, hence by the lemma for every
  S, so no set is denser than g (Hakimi), while the witness (the peel's
  set or the last cut's S) reaches g.  The peel reads only the edge list,
  so the oracle stays independent of the structures it checks.
* ``exact_min_max_outdegree``: least k admitting an orientation with all
  out-degrees <= k, by the same loop on integers (next k = ceil of the
  cut set's density) on the whole network; the saturated flow at the final
  k is the witness orientation.  The loop starts at the ceiling of the
  peel's density, a lower bound on k: some vertex of any set S holds at
  least |E[S]|/|S| of its edges.  Picard-Queyranne duality makes this
  ceil(exact_density), which the acceptance suite cross-checks.
* ``exact_density_enum`` / ``exact_arboricity``: full subset enumeration
  with an O(2^n) shared edge-count table; cross-checks the flow oracle and
  anchors the arboricity-based bounds.
* ``audit_state``: recomputes every layer's invariants from scratch.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from fractions import Fraction

from .errors import OracleLimitError

# The largest n at which one exact_density call on a random graph with 2n
# edges stays under about 100 ms (a planted K20 makes it faster: the peel
# finds it and one flow runs on its core).
FLOW_LIMIT_DEFAULT = 800
ENUM_LIMIT = 20


class _Dinic:
    """Integral max-flow on a small static network."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def max_flow(self, s: int, t: int) -> int:
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

            def dfs(u: int, pushed: int) -> int:
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

    def source_side(self, s: int) -> set:
        """Vertices reachable from s in the residual network."""
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                if e[1] > 0 and e[0] not in seen:
                    seen.add(e[0])
                    queue.append(e[0])
        return seen


def _orientation_network(n: int, edges, p: int, q: int) -> _Dinic:
    # source 0, edge nodes 1..m, vertices m+1..m+n, sink m+n+1.
    m = len(edges)
    net = _Dinic(m + n + 2)
    t = m + n + 1
    for i, (u, v) in enumerate(edges):
        net.add_edge(0, 1 + i, q)
        net.add_edge(1 + i, 1 + m + u, 2 * q)
        net.add_edge(1 + i, 1 + m + v, 2 * q)
    for v in range(n):
        net.add_edge(1 + m + v, t, p)
    return net


def _denser_set(n: int, edges, g: Fraction):
    """One max-flow at guess g; returns (net, S) with S maximising
    |E[S]| - g|S|, or (net, None) when the flow saturates, i.e. no subgraph
    is denser than g (Hakimi)."""
    m = len(edges)
    net = _orientation_network(n, edges, g.numerator, g.denominator)
    if net.max_flow(0, m + n + 1) == m * g.denominator:
        return net, None
    side = net.source_side(0)
    return net, [v for v in range(n) if (1 + m + v) in side]


def _peel(n: int, edges):
    """Greedy peel (Charikar): repeatedly drop a vertex of least degree,
    the least id among equals, in O(m log n) with a heap of (degree, id)
    whose stale items are skipped when popped.

    Returns (density, vertices, core) for the densest set the peel leaves
    behind, compared exactly, with core[v] the core number of v: the
    largest least degree seen up to v's removal.  The k-core, the largest
    set whose induced degrees are all >= k, is {v : core[v] >= k}.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    alive = [True] * n
    left = n
    core = [0] * n
    order = []
    m_left = len(edges)
    best_m, best_k, best_at = m_left, n, 0
    k = 0
    while left:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != deg[v]:
            continue
        if d > k:
            k = d
        core[v] = k
        alive[v] = False
        left -= 1
        order.append(v)
        m_left -= d
        for w in adj[v]:
            if alive[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
        if m_left * best_k > best_m * left:
            best_m, best_k, best_at = m_left, left, len(order)
    return Fraction(best_m, best_k), sorted(order[best_at:]), core


def exact_density(n: int, edges, limit: int = FLOW_LIMIT_DEFAULT):
    """Maximum subgraph density with a witness set.

    Returns (rho, witness) where rho = max over nonempty S of |E[S]|/|S| as
    an exact Fraction and witness is a vertex list realizing it (empty for
    an edgeless graph).
    """
    if n > limit:
        raise OracleLimitError(
            f"flow density oracle capped at n <= {limit}, got {n}")
    edges = list(edges)
    if not edges:
        return Fraction(0), []
    rho, witness, core = _peel(n, edges)
    while True:
        k = math.ceil(rho)
        in_core = [e for e in edges if core[e[0]] >= k and core[e[1]] >= k]
        found = _denser_set(n, in_core, rho)[1]
        if found is None:
            return rho, witness
        witness = found
        rho = subgraph_density(witness, edges)


def subgraph_density(vertices, edges) -> Fraction:
    """|E[S]|/|S| for a vertex list S (0 for empty S)."""
    s = set(vertices)
    if not s:
        return Fraction(0)
    inside = sum(1 for u, v in edges if u in s and v in s)
    return Fraction(inside, len(s))


def exact_min_max_outdegree(n: int, edges, limit: int = FLOW_LIMIT_DEFAULT):
    """Smallest k orientable with all out-degrees <= k, plus a witness.

    Returns (k, orientation) with orientation a list of (tail, head) pairs
    covering every edge.
    """
    if n > limit:
        raise OracleLimitError(
            f"flow orientation oracle capped at n <= {limit}, got {n}")
    edges = list(edges)
    m = len(edges)
    k = math.ceil(_peel(n, edges)[0]) if edges else 0
    net, found = _denser_set(n, edges, Fraction(k))
    while found is not None:
        k = math.ceil(subgraph_density(found, edges))
        net, found = _denser_set(n, edges, Fraction(k))
    orientation = []
    for i, (u, v) in enumerate(edges):
        # The edge node's unit went to exactly one endpoint: that endpoint
        # pays sink capacity, i.e. it is the tail.
        tail = None
        for arc in net.adj[1 + i]:
            if arc[0] == 1 + m + u and arc[1] < 2:
                tail = u
                break
            if arc[0] == 1 + m + v and arc[1] < 2:
                tail = v
                break
        if tail is None:
            raise AssertionError("orientation witness extraction failed")
        orientation.append((tail, v if tail == u else u))
    counts = [0] * n
    for tail, _ in orientation:
        counts[tail] += 1
    if max(counts, default=0) > k:
        raise AssertionError("witness orientation exceeds k")
    return k, orientation


def _subset_edge_counts(n: int, edges) -> list[int]:
    """count[S] = number of edges inside vertex-bitmask S, for all S."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    count = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        count[s] = count[rest] + (adj[low] & rest).bit_count()
    return count


def exact_density_enum(n: int, edges):
    """Subset-enumeration density oracle (n <= 20); cross-checks the flow."""
    if n > ENUM_LIMIT:
        raise OracleLimitError(
            f"enumeration oracle capped at n <= {ENUM_LIMIT}, got {n}")
    edges = list(edges)
    if not edges:
        return Fraction(0)
    count = _subset_edge_counts(n, edges)
    # Best c/k so far, compared by integer cross-multiplication.
    best_c, best_k = 0, 1
    for s, c in enumerate(count):
        if c * best_k > best_c * s.bit_count():
            best_c, best_k = c, s.bit_count()
    return Fraction(best_c, best_k)


def exact_arboricity(n: int, edges) -> int:
    """max over subgraphs H (|V(H)| >= 2) of ceil(|E(H)|/(|V(H)|-1))."""
    if n > ENUM_LIMIT:
        raise OracleLimitError(
            f"enumeration oracle capped at n <= {ENUM_LIMIT}, got {n}")
    edges = list(edges)
    if not edges:
        return 0
    count = _subset_edge_counts(n, edges)
    best = 0
    for s in range(1, 1 << n):
        k = s.bit_count()
        if k >= 2:
            c = count[s]
            if c:
                a = -(-c // (k - 1))
                if a > best:
                    best = a
    return best


def audit_state(stack) -> list[str]:
    """Recompute every layer's invariants from scratch.

    Violations are returned as data (expected empty), never raised.
    """
    engine = stack.engine
    bad = []
    bad += engine.structural_violations()
    bad += engine.invariant_violations()
    bad += stack.rounding.violations(engine)
    bad += stack.tracker.violations(engine)
    for app in stack.attached_apps():
        bad += app.violations(engine)
    return bad
