"""Reductions riding on the rounded orientation's event stream.

Each application registers as a listener on a RoundedOrientation and keeps
per-vertex bookkeeping whose update cost is dominated by the orientation's
max out-degree: a maximal matching, a proper coloring with every color at
most the vertex degree, a decomposition of the oriented edges into
2 * max-out-degree forests, and an exactly-maintained symmetric
matrix-vector product.  The listener base class wires each one up: it keeps
the layer's ``out`` lists, not the layer, which holds it as a listener; so
a dropped stack is freed by reference counting, with no cycle.

Ordered dicts play the role of the doubly-linked neighbor lists: first
element, insertion, and deletion are all O(1).
"""

from __future__ import annotations

import heapq
import weakref

from .errors import GraphUpdateError
from .rounding import OrientationListener, RoundedOrientation


class _UnionFind:
    """Path-halving union-find; used by the forest acyclicity audits."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


class MaximalMatching(OrientationListener):
    """Maintains a maximal matching under inserts, deletes, and flips.

    Every vertex keeps its free in-neighbors in an available list; a
    vertex freed by a deletion first grabs the head of its available
    in-list and otherwise proposes to its out-neighbors, so the work per
    update is bounded by the orientation's out-degree.
    """

    def __init__(self, rounding: RoundedOrientation):
        super().__init__(rounding)
        self.mate = [-1] * self.n
        self.in_avail = [dict() for _ in range(self.n)]

    # -- listener hooks -------------------------------------------------

    def on_insert(self, tail: int, head: int) -> None:
        if self.mate[tail] < 0:
            self.in_avail[head][tail] = None
            if self.mate[head] < 0:
                self._match(tail, head)

    def on_delete(self, tail: int, head: int) -> None:
        if self.mate[tail] < 0:
            del self.in_avail[head][tail]
        elif self.mate[tail] == head:
            self.mate[tail] = -1
            self.mate[head] = -1
            self._notify(tail)
            self._notify(head)
            self._rematch(tail)
            self._rematch(head)

    def on_flip(self, tail: int, head: int) -> None:
        # Edge was head->tail: a free endpoint moves to the other in-list.
        if self.mate[head] < 0:
            del self.in_avail[tail][head]
        if self.mate[tail] < 0:
            self.in_avail[head][tail] = None

    # -- internals ------------------------------------------------------

    def _match(self, u: int, w: int) -> None:
        self.mate[u] = w
        self.mate[w] = u
        self._notify(u)
        self._notify(w)

    def _notify(self, v: int) -> None:
        """v was matched or freed: take it out of, or add it to, the
        available in-list of every out-neighbor."""
        in_avail = self.in_avail
        if self.mate[v] >= 0:
            for h in self.out[v]:
                del in_avail[h][v]
        else:
            for h in self.out[v]:
                in_avail[h][v] = None

    def _rematch(self, u: int) -> None:
        if self.mate[u] >= 0:
            return
        avail = self.in_avail[u]
        if avail:
            self._match(u, next(iter(avail)))
            return
        for w in self.out[u]:
            if self.mate[w] < 0:
                self._match(u, w)
                return

    # -- queries and audit ----------------------------------------------

    def matching(self) -> list:
        return sorted((u, w) for u, w in enumerate(self.mate) if 0 <= u < w)

    def violations(self, engine) -> list[str]:
        bad = []
        mate = self.mate
        for u, w in enumerate(mate):
            if w >= 0:
                if mate[w] != u:
                    bad.append(f"mate asymmetry at ({u},{w})")
                elif u < w and not engine.has_edge(u, w):
                    bad.append(f"matched pair ({u},{w}) is not an edge")
        for u, v in engine.edges():
            if mate[u] < 0 and mate[v] < 0:
                bad.append(f"edge ({u},{v}) has both endpoints free")
        return bad


class GreedyColoring(OrientationListener):
    """Proper coloring with color(v) <= degree(v) at all times.

    Per vertex: counts of in-neighbor colors and a lazy min-heap of in-free
    candidates.  A recolor pops the smallest candidate that is neither
    in-taken nor used by an out-neighbor; at most the out-degree plus one
    pops survive validation per recolor.  A heap longer than twice the
    degree plus two is rebuilt from its live entries.
    """

    def __init__(self, rounding: RoundedOrientation):
        super().__init__(rounding)
        n = self.n
        self.color = [0] * n
        self.degree = [0] * n
        self.taken = [dict() for _ in range(n)]
        self.free_heap = [[0] for _ in range(n)]

    # -- listener hooks -------------------------------------------------

    def on_insert(self, tail: int, head: int) -> None:
        self._grow(tail)
        self._grow(head)
        self._in_add(head, self.color[tail])
        if self.color[tail] == self.color[head]:
            # Recolor the endpoint with the smaller degree (tie: the head);
            # its palette carries fewer constraints.
            if self.degree[tail] < self.degree[head]:
                self._recolor(tail)
            else:
                self._recolor(head)

    def on_delete(self, tail: int, head: int) -> None:
        self._in_remove(head, self.color[tail])
        degree, free_heap = self.degree, self.free_heap
        degree[tail] -= 1
        degree[head] -= 1
        if len(free_heap[tail]) > 2 * degree[tail] + 2:
            self._prune(tail)
        if len(free_heap[head]) > 2 * degree[head] + 2:
            self._prune(head)
        if self.color[tail] > degree[tail]:
            self._recolor(tail)
        if self.color[head] > degree[head]:
            self._recolor(head)

    def on_flip(self, tail: int, head: int) -> None:
        self._in_remove(tail, self.color[head])
        self._in_add(head, self.color[tail])

    # -- internals ------------------------------------------------------

    def _grow(self, v: int) -> None:
        d = self.degree[v] + 1
        self.degree[v] = d
        if not self.taken[v].get(d):
            heap = self.free_heap[v]
            heapq.heappush(heap, d)
            if len(heap) > 2 * d + 2:
                self._prune(v)

    def _in_add(self, v: int, c: int) -> None:
        self.taken[v][c] = self.taken[v].get(c, 0) + 1

    def _in_remove(self, v: int, c: int) -> None:
        cnt = self.taken[v][c] - 1
        if cnt:
            self.taken[v][c] = cnt
        else:
            del self.taken[v][c]
            if c <= self.degree[v]:
                heap = self.free_heap[v]
                heapq.heappush(heap, c)
                if len(heap) > 2 * self.degree[v] + 2:
                    self._prune(v)

    def _prune(self, v: int) -> None:
        """Rebuild v's heap, sorted, from its live entries once each; all
        of them are in it already, so a recolor picks the same color."""
        deg, taken, heap = self.degree[v], self.taken[v], self.free_heap[v]
        heap[:] = sorted({c for c in heap if c <= deg and not taken.get(c)})

    def _recolor(self, v: int) -> None:
        out = self.out[v]
        out_taken = {self.color[w] for w in out}
        heap = self.free_heap[v]
        taken = self.taken[v]
        deg = self.degree[v]
        stash = []
        while True:
            c = heapq.heappop(heap)
            if c > deg or taken.get(c):
                continue  # stale entry
            if c in out_taken:
                stash.append(c)
                continue
            break
        stash.append(c)  # c stays in-free: v is not its own in-neighbor
        for s in stash:
            heapq.heappush(heap, s)
        old = self.color[v]
        self.color[v] = c
        for w in out:
            self._in_remove(w, old)
            self._in_add(w, c)

    # -- queries and audit ----------------------------------------------

    def color_of(self, v: int) -> int:
        return self.color[v]

    def violations(self, engine) -> list[str]:
        bad = []
        deg = [0] * len(self.color)
        for u, v in engine.edges():
            deg[u] += 1
            deg[v] += 1
            if self.color[u] == self.color[v]:
                bad.append(f"edge ({u},{v}) is monochromatic")
        for v, d in enumerate(deg):
            if self.color[v] > d:
                bad.append(f"vertex {v} wears color {self.color[v]} > degree {d}")
            if d != self.degree[v]:
                bad.append(f"vertex {v} degree bookkeeping is stale")
        return bad


class ForestDecomposition(OrientationListener):
    """Partitions the oriented edges into at most 2 * max-out-degree forests.

    The i-th out-edge of each vertex belongs to pseudoforest i; within a
    pseudoforest any cycle is directed, so an edge placed on the side its
    head's same-slot out-edge does not occupy can never close one.  Slot
    vacancies left by deletions and flips are compacted by moving the
    tail's last out-edge in, re-placing it under the same rule.
    """

    def __init__(self, rounding: RoundedOrientation):
        super().__init__(rounding)
        self.slots: list[list] = [[] for _ in range(self.n)]
        self.by_edge: dict[int, list] = {}   # key -> [tail, head, slot, side]

    # -- listener hooks -------------------------------------------------

    def on_insert(self, tail: int, head: int) -> None:
        rec = [tail, head, len(self.slots[tail]), 0]
        self.slots[tail].append(rec)
        self._pick_side(rec)
        self.by_edge[self._key(tail, head)] = rec

    def on_delete(self, tail: int, head: int) -> None:
        rec = self.by_edge.pop(self._key(tail, head))
        self._vacate(rec)

    def on_flip(self, tail: int, head: int) -> None:
        rec = self.by_edge[self._key(tail, head)]
        self._vacate(rec)
        rec[0], rec[1] = tail, head
        rec[2] = len(self.slots[tail])
        self.slots[tail].append(rec)
        self._pick_side(rec)

    # -- internals ------------------------------------------------------

    def _pick_side(self, rec: list) -> None:
        # The only cycle the new edge could close runs through its head's
        # out-edge in the same pseudoforest; take the other side of it.
        head_slots = self.slots[rec[1]]
        i = rec[2]
        if i < len(head_slots):
            rec[3] = 1 - head_slots[i][3]
        else:
            rec[3] = 0

    def _vacate(self, rec: list) -> None:
        lst = self.slots[rec[0]]
        last = lst.pop()
        if last is not rec:
            last[2] = rec[2]
            lst[rec[2]] = last
            self._pick_side(last)

    # -- queries and audit ----------------------------------------------

    def assignment(self) -> dict:
        """{(tail, head): (pseudoforest, side)} for every oriented edge."""
        return {(r[0], r[1]): (r[2], r[3]) for r in self.by_edge.values()}

    def forest_count(self) -> int:
        used = {(r[2], r[3]) for r in self.by_edge.values()}
        return len(used)

    def violations(self, engine=None) -> list[str]:
        bad = []
        n = self.n
        groups: dict[tuple, list] = {}
        for rec in self.by_edge.values():
            groups.setdefault((rec[2], rec[3]), []).append(rec)
        for (i, side), recs in groups.items():
            uf = _UnionFind(n)
            for rec in recs:
                if not uf.union(rec[0], rec[1]):
                    bad.append(f"forest ({i},{side}) contains a cycle")
                    break
        limit = 2 * max(map(len, self.out), default=0)
        if len(groups) > limit:
            bad.append(f"{len(groups)} forests exceed the 2*max-out bound {limit}")
        for v, lst in enumerate(self.slots):
            for i, rec in enumerate(lst):
                if rec[0] != v or rec[2] != i:
                    bad.append(f"slot table corrupt at vertex {v} slot {i}")
        return bad


class MatVecProduct(OrientationListener):
    """Entry queries into A @ x for a symmetric A with zero diagonal.

    The nonzero pattern of A is the graph itself: setting a zero entry
    nonzero inserts the edge, zeroing it deletes the edge.  Each vertex
    caches the partial sum over its in-neighbors, so a vector entry change
    touches only the out-neighborhood and queries scan it once.

    In passive mode (driven purely by graph updates, e.g. from the CLI)
    unseen entries default to 1.
    """

    def __init__(self, stack):
        # set_entry drives the stack's updates; the stack holds this
        # application, so the link back is weak.
        self.stack = weakref.proxy(stack)
        super().__init__(stack.rounding)
        self.a: dict[int, int] = {}
        self.x = [1] * self.n
        self.s = [0] * self.n

    # -- listener hooks -------------------------------------------------

    def on_insert(self, tail: int, head: int) -> None:
        val = self.a.setdefault(self._key(tail, head), 1)
        self.s[head] += val * self.x[tail]

    def on_delete(self, tail: int, head: int) -> None:
        val = self.a.pop(self._key(tail, head))
        self.s[head] -= val * self.x[tail]

    def on_flip(self, tail: int, head: int) -> None:
        val = self.a[self._key(tail, head)]
        self.s[tail] -= val * self.x[head]
        self.s[head] += val * self.x[tail]

    # -- matrix/vector surface -------------------------------------------

    def set_entry(self, i: int, j: int, val: int) -> None:
        """Set A[i,j] = A[j,i] = val (integers; zero diagonal enforced)."""
        if i == j:
            raise GraphUpdateError("diagonal entries must stay zero")
        self.stack.engine._check_pair(i, j)   # before self.a is written
        key = self._key(i, j)
        old = self.a.get(key, 0)
        if old == 0 and val != 0:
            self.a[key] = val
            self.stack.insert(i, j)       # on_insert sees the value
        elif old != 0 and val == 0:
            self.stack.delete(i, j)       # on_delete pops the value
        elif old != val and val != 0:
            tail, head = (i, j) if j in self.out[i] else (j, i)
            self.s[head] += (val - old) * self.x[tail]
            self.a[key] = val

    def set_x(self, j: int, val: int) -> None:
        delta = val - self.x[j]
        if delta:
            for h in self.out[j]:
                self.s[h] += self.a[self._key(j, h)] * delta
            self.x[j] = val

    def query(self, i: int) -> int:
        total = self.s[i]
        x = self.x
        for h in self.out[i]:
            total += self.a[self._key(i, h)] * x[h]
        return total

    # -- audit ------------------------------------------------------------

    def violations(self, engine) -> list[str]:
        bad = []
        n = self.n
        dense = [0] * n
        for u, v in engine.edges():
            val = self.a[self._key(u, v)]
            dense[u] += val * self.x[v]
            dense[v] += val * self.x[u]
        for i in range(n):
            if self.query(i) != dense[i]:
                bad.append(
                    f"query({i}) = {self.query(i)} != dense {dense[i]}")
        return bad
