"""Majority rounding of the oriented multigraph into a simple orientation.

Every simple edge points the way the majority of its b copies point, ties
toward the lexicographically smaller endpoint.  Only copy flips are reported,
once each with the final counts (one copy changing sides crosses the majority
at most once); a visible pair whose majority crosses gets reoriented and the
change is pushed to registered application listeners.  The copies a simple
insert places and a simple delete drains are not reported: the pair is
invisible while they are placed (the engine announces it once they settle)
and from the moment the deletion starts draining them, so applications always
observe a consistent simple graph.  ``counts_changed`` still ignores an
invisible pair, because a flip chain may in principle reverse a copy of the
pair being placed or drained.

Listener contract (synchronous, dispatch in registration order): on_insert,
on_delete, on_flip all receive (tail, head) in the current orientation;
on_degree receives (vertex, new simple out-degree).
"""

from __future__ import annotations

from .errors import CorruptionError, MissingEdgeError


class OrientationListener:
    """Base class for application listeners; override what you need."""

    def on_insert(self, tail: int, head: int) -> None:
        pass

    def on_delete(self, tail: int, head: int) -> None:
        pass

    def on_flip(self, tail: int, head: int) -> None:
        pass

    def on_degree(self, u: int, out_degree: int) -> None:
        pass


class RoundedOrientation:

    def __init__(self, capacity: int):
        n = capacity
        self.n = n
        self._dir: dict[int, bool] = {}   # key a*n+b (a<b) -> True iff a->b
        self.out: list[dict] = [dict() for _ in range(n)]
        self.simple_out = [0] * n
        self._hist = [n]                  # vertices per simple out-degree
        self._max = 0
        self.listeners: list[OrientationListener] = []
        self.total_simple_flips = 0

    # ------------------------------------------------------------------
    # Query surface.
    # ------------------------------------------------------------------

    def max_simple_out_degree(self) -> int:
        return self._max

    def direction(self, u: int, v: int) -> tuple:
        """(tail, head) for a live edge {u, v}."""
        a, b = (u, v) if u < v else (v, u)
        d = self._dir.get(a * self.n + b)
        if d is None:
            raise MissingEdgeError(f"edge ({u}, {v}) not present")
        return (a, b) if d else (b, a)

    def has_edge(self, u: int, v: int) -> bool:
        a, b = (u, v) if u < v else (v, u)
        return (a * self.n + b) in self._dir

    def edges(self):
        n = self.n
        for key, d in self._dir.items():
            a, b = divmod(key, n)
            yield (a, b) if d else (b, a)

    def register(self, listener: OrientationListener) -> None:
        self.listeners.append(listener)

    # ------------------------------------------------------------------
    # Engine-facing hooks.
    # ------------------------------------------------------------------

    def counts_changed(self, a: int, b: int, cab: int, cba: int) -> None:
        """One copy of pair (a, b) flipped; reorient on a majority crossing."""
        key = a * self.n + b
        old = self._dir.get(key)
        if old is None:
            return  # pending insert or draining delete
        new = cab > cba or (cab == cba)
        if new == old:
            return
        self._dir[key] = new
        tail, head = (a, b) if new else (b, a)
        del self.out[head][tail]
        self.out[tail][head] = None
        self._deg_down(head)
        self._deg_up(tail)
        self.total_simple_flips += 1
        for ls in self.listeners:
            ls.on_flip(tail, head)
            ls.on_degree(head, self.simple_out[head])
            ls.on_degree(tail, self.simple_out[tail])

    def simple_inserted(self, a: int, b: int, cab: int, cba: int) -> None:
        key = a * self.n + b
        if key in self._dir:
            raise CorruptionError(f"pair ({a},{b}) announced twice")
        new = cab > cba or (cab == cba)
        self._dir[key] = new
        tail, head = (a, b) if new else (b, a)
        self.out[tail][head] = None
        self._deg_up(tail)
        for ls in self.listeners:
            ls.on_insert(tail, head)
            ls.on_degree(tail, self.simple_out[tail])

    def simple_deleted(self, a: int, b: int) -> None:
        key = a * self.n + b
        old = self._dir.pop(key, None)
        if old is None:
            raise CorruptionError(f"pair ({a},{b}) deleted while invisible")
        tail, head = (a, b) if old else (b, a)
        del self.out[tail][head]
        self._deg_down(tail)
        for ls in self.listeners:
            ls.on_delete(tail, head)
            ls.on_degree(tail, self.simple_out[tail])

    # ------------------------------------------------------------------
    # Degree histogram and its maximum; degrees move by one at a time.
    # ------------------------------------------------------------------

    def _deg_up(self, u: int) -> None:
        d = self.simple_out[u]
        hist = self._hist
        hist[d] -= 1
        if d + 1 >= len(hist):
            hist.append(0)
        hist[d + 1] += 1
        self.simple_out[u] = d + 1
        if d + 1 > self._max:
            self._max = d + 1

    def _deg_down(self, u: int) -> None:
        d = self.simple_out[u]
        hist = self._hist
        hist[d] -= 1
        hist[d - 1] += 1
        self.simple_out[u] = d - 1
        if d == self._max and hist[d] == 0:
            self._max = d - 1             # where u now sits

    # ------------------------------------------------------------------
    # Audit.
    # ------------------------------------------------------------------

    def violations(self, engine) -> list[str]:
        """Check directions against a majority recount of the engine's copy
        counts, and the degree bookkeeping against the adjacency."""
        bad = []
        n = self.n
        live = {}
        for pid in engine.pairs.values():
            a, b = engine.p_a[pid], engine.p_b[pid]
            eab, eba = engine.p_eab[pid], engine.p_eba[pid]
            cab = engine.e_cnt[eab] if eab >= 0 else 0
            cba = engine.e_cnt[eba] if eba >= 0 else 0
            live[a * n + b] = cab > cba or (cab == cba)
        if set(live) != set(self._dir):
            bad.append("rounded edge set differs from the engine's pairs")
        for key, want in live.items():
            got = self._dir.get(key)
            if got is not None and got != want:
                a, b = divmod(key, n)
                bad.append(f"direction of ({a},{b}) disagrees with majority")
        deg = [0] * n
        for key, d in self._dir.items():
            a, b = divmod(key, n)
            tail, head = (a, b) if d else (b, a)
            if head not in self.out[tail]:
                bad.append(f"adjacency missing {tail}->{head}")
            deg[tail] += 1
        if deg != self.simple_out:
            bad.append("simple out-degrees disagree with directions")
        if self._max != max(deg, default=0):
            bad.append("max simple out-degree tracker is stale")
        return bad
