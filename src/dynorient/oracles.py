"""Exact ground truth at desk scale for everything the package approximates.

* ``exact_density``: maximum over nonempty S of |E[S]|/|S| by Dinkelbach /
  Goldberg iteration; each guess g = p/q is tested by one integral
  re-orientation flow on the vertex graph, so every comparison is exact.
  - Network: every edge holds q units split between its endpoints, and a
    vertex may hold at most p.  A unit moves along a -> b when a's edge
    with b has units at a; there are no edge nodes.  All vertices fit iff
    no set is denser than g (Hakimi): q|E[S]| <= units held in S <= p|S|.
  - Start: each edge comes as (endpoint peeled first, other), in the
    order of a greedy min-degree peel (Charikar).  The first endpoint
    fills up to p and the second takes the rest, so most vertices fit
    before any unit moves.  In plain edge order, or filling the endpoint
    of smaller degree first, long tight graphs (a path listed backwards,
    a ladder) start with chains of overloads that the flow then drains
    one level per phase, in quadratic time.
  - Flow: Dinic phases.  A BFS from every overloaded vertex labels levels
    up to the first level with a vertex below p, and a blocking flow
    moves units along level paths.  The path search keeps its own stack
    and current-arc pointers: a level path can be as long as the graph,
    past Python's recursion limit of about 1000 frames.
  - Witness: when no vertex below p is reachable, the set R that the
    overloaded vertices reach is denser than g.  Every edge leaving R has
    all its units outside R (else its far end would be reached), and every
    vertex of R holds at least p, some more, so q|E[R]| > p|R|.  R
    is the source side of a minimum cut, so it maximises |E[S]| - g|S|;
    its density is the next guess.
  - The first guess is the densest set the peel leaves behind, often
    optimal already, so most calls run one flow, and each flow runs on
    the g-core only: the edges whose endpoints have core number >=
    ceil(g).  Every maximiser S of |E[S]| - g|S| lies in the g-core, since
    dropping a vertex of induced degree d < g from S raises the objective
    by g - d > 0; so a flow in which every vertex fits still certifies g
    for every S.  The peel reads only the edge list, so the oracle stays
    independent of the structures it checks.
* ``exact_min_max_outdegree``: least k admitting an orientation with all
  out-degrees <= k, by the same loop on integers (q = 1, next k = ceil of
  R's density) on the whole graph; each edge's one unit sits at its tail,
  so the final flow is the witness orientation.  The loop starts at the
  ceiling of the peel's density, a lower bound on k: some vertex of any
  set S holds at least |E[S]|/|S| of its edges.  Picard-Queyranne duality
  makes this ceil(exact_density), which the acceptance suite cross-checks.
* ``exact_density_enum`` / ``exact_arboricity``: full subset enumeration
  with an O(2^n) shared edge-count table; cross-checks the flow oracle and
  anchors the arboricity-based bounds.
* ``audit_state``: recomputes every layer's invariants from scratch.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .errors import OracleLimitError

# The largest n at which one exact_density call on a random graph with 2n
# edges stays under about 100 ms, capped so that no named shape at the
# limit is slower than the edge-node Dinic this flow replaced was on the
# ladder at n = 800 (1.0-1.5 s).  Best of 3 calls, ms, density / min-max
# out-degree, python 3.11 on a shared 2-CPU host (edge-node Dinic at 800):
#   n     random, 2n edges   ladder      40-wide grid   paths, star, cycle
#   800   10-32 (48-135)     113 / 2     34 / 2         1-2 / 1-2
#   1600  36-57              765 / 4     127 / 7        5 / 3-6
#   2400  89-143             1642 / 8    307 / 12       4-7 / 4-7
FLOW_LIMIT_DEFAULT = 1600
ENUM_LIMIT = 20


def _denser_set(n: int, edges, g: Fraction):
    """One re-orientation flow at guess g = p/q on the vertex graph.

    ``edges`` lists each edge as (endpoint peeled first, other), in peel
    order.  Returns (hold, S): hold[2i] and hold[2i + 1] are the units edge
    i keeps at its first and its second endpoint, and S is None when every
    vertex fits within p, i.e. no subgraph is denser than g, or else the
    sorted set that the overloaded vertices reach, whose density is > g.
    """
    p, q = g.numerator, g.denominator
    # Half 2i of edge i sits at its first endpoint, half 2i + 1 at the
    # other; a unit on half h moves to head[h], onto half h ^ 1.
    head = [x for a, b in edges for x in (b, a)]
    hold = []
    adj = [[] for _ in range(n)]
    load = [0] * n
    for a, b in edges:
        take = p - load[a]
        if take > q:
            take = q
        elif take < 0:
            take = 0
        load[a] += take
        load[b] += q - take
        adj[a].append(len(hold))
        adj[b].append(len(hold) + 1)
        hold += (take, q - take)
    while True:
        sources = [v for v in range(n) if load[v] > p]
        if not sources:
            return hold, None
        # Levels from the overloaded vertices, up to the first level that
        # holds a vertex with room.
        level = [-1] * n
        for v in sources:
            level[v] = 0
        reached = list(sources)
        frontier = sources
        depth = 0
        while frontier and all(load[v] >= p for v in frontier):
            depth += 1
            nxt = []
            for x in frontier:
                for h in adj[x]:
                    if hold[h]:
                        y = head[h]
                        if level[y] < 0:
                            level[y] = depth
                            nxt.append(y)
            reached += nxt
            frontier = nxt
        if not frontier:
            return hold, sorted(reached)
        # Blocking flow along level paths, with a path stack and
        # current-arc pointers; a dead end leaves the level graph.
        ptr = [0] * n
        for s in sources:
            path = []
            x = s
            while load[s] > p:
                if load[x] < p:
                    d = min(load[s] - p, p - load[x],
                            min(hold[h] for h in path))
                    load[s] -= d
                    load[x] += d
                    for h in path:
                        hold[h] -= d
                        hold[h ^ 1] += d
                    for j, h in enumerate(path):
                        if not hold[h]:
                            x = head[h ^ 1]
                            del path[j:]
                            break
                    continue
                arcs = adj[x]
                want = level[x] + 1
                for i in range(ptr[x], len(arcs)):
                    h = arcs[i]
                    if hold[h] and level[head[h]] == want:
                        ptr[x] = i
                        path.append(h)
                        x = head[h]
                        break
                else:
                    if not path:
                        break
                    level[x] = -1
                    x = head[path.pop() ^ 1]


def _peel(n: int, edges):
    """Greedy peel (Charikar): repeatedly drop a vertex of least degree,
    the least id among equals, in O(m log n) with a heap of keys
    degree * n + id, which order as (degree, id) pairs do; stale keys are
    skipped when popped.

    Returns (density, vertices, core, ordered): the densest set the peel
    leaves behind, compared exactly; core[v], the core number of v, i.e.
    the largest least degree seen up to v's removal (the k-core, the
    largest set whose induced degrees are all >= k, is {v : core[v] >= k});
    and every edge as (endpoint peeled first, other), in peel order, the
    list the flow starts from.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    heap = [d * n + v for v, d in enumerate(deg)]
    heapq.heapify(heap)
    alive = [True] * n
    left = n
    core = [0] * n
    order = []
    ordered = []
    m_left = len(edges)
    best_m, best_k, best_at = m_left, n, 0
    k = 0
    while left:
        d, v = divmod(heapq.heappop(heap), n)
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
                heapq.heappush(heap, deg[w] * n + w)
                ordered.append((v, w))
        if m_left * best_k > best_m * left:
            best_m, best_k, best_at = m_left, left, len(order)
    return Fraction(best_m, best_k), sorted(order[best_at:]), core, ordered


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
    rho, witness, core, ordered = _peel(n, edges)
    while True:
        k = math.ceil(rho)
        # Core numbers never fall along the peel, so an edge is in the
        # k-core when its first-peeled endpoint is.
        in_core = [e for e in ordered if core[e[0]] >= k]
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
    if not edges:
        return 0, []
    rho, _, _, edges = _peel(n, edges)
    k = math.ceil(rho)
    hold, found = _denser_set(n, edges, Fraction(k))
    while found is not None:
        k = math.ceil(subgraph_density(found, edges))
        hold, found = _denser_set(n, edges, Fraction(k))
    # Each edge's one unit sits at its tail.
    orientation = [(a, b) if hold[2 * i] else (b, a)
                   for i, (a, b) in enumerate(edges)]
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
