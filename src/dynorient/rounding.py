"""Majority rounding of the oriented multigraph into a simple orientation.

Every simple edge points the way the majority of its b copies point, ties
toward the lexicographically smaller endpoint.  The simple adjacency ``out``
is the one record of directions: a visible edge {a, b} points a->b exactly
when ``out[a]`` holds b, and then ``out[b]`` does not hold a.  The engine
reports only copy flips that cross the majority, once each with the final
counts (one copy changing sides crosses it at most once); a visible pair
whose majority crosses gets reoriented and the change is pushed to
registered application listeners.  A flip that keeps the majority is not
reported: a visible pair already points its majority's way.  The copies a
simple insert places and a simple delete drains are not reported either:
the pair is invisible while they are placed (the engine announces it once
they settle) and from the moment the deletion starts draining them, so
applications always observe a consistent simple graph.  ``counts_changed``
acts only on a pair that is visible and points against its majority.

Listener contract (synchronous, dispatch in registration order): on_insert,
on_delete, on_flip all receive (tail, head) in the current orientation, and
on_flip fires once per reported crossing, that is once per copy flip that
crosses the majority of a visible pair.
"""

from __future__ import annotations

from .errors import CorruptionError


class OrientationListener:
    """Base class for application listeners; override the hooks you need.
    It keeps the layer's ``n`` and ``out``, not the layer, and registers
    itself on the layer."""

    def __init__(self, rounding: RoundedOrientation):
        self.n = rounding.n
        self.out = rounding.out
        rounding.register(self)

    def _key(self, u: int, v: int) -> int:
        a, b = (u, v) if u < v else (v, u)
        return a * self.n + b

    def on_insert(self, tail: int, head: int) -> None:
        pass

    def on_delete(self, tail: int, head: int) -> None:
        pass

    def on_flip(self, tail: int, head: int) -> None:
        pass

    def on_degree(self, u: int, out_degree: int) -> None:
        pass  # never called; perfbench's tracer still looks the name up


class RoundedOrientation:
    """The simple orientation: ``out[u]`` holds u's simple out-neighbors as
    dict keys (insertion-ordered, values unused), so ``len(out[u])`` is u's
    simple out-degree, and a histogram of those degrees keeps the
    maximum."""

    def __init__(self, capacity: int):
        n = capacity
        self.n = n
        self.out: list[dict] = [dict() for _ in range(n)]
        self._hist = [n]                  # vertices per simple out-degree
        self._max = 0
        self.listeners: list[OrientationListener] = []
        self.total_simple_flips = 0

    # ------------------------------------------------------------------
    # Query surface.
    # ------------------------------------------------------------------

    def max_simple_out_degree(self) -> int:
        return self._max

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.out[u] or u in self.out[v]

    def edges(self):
        """Visible edges as (tail, head), grouped by tail."""
        for tail, heads in enumerate(self.out):
            for head in heads:
                yield tail, head

    def register(self, listener: OrientationListener) -> None:
        self.listeners.append(listener)

    # ------------------------------------------------------------------
    # Engine-facing hooks.
    # ------------------------------------------------------------------

    def counts_changed(self, a: int, b: int, cab: int, cba: int) -> None:
        """A copy of pair (a, b) flipped across its majority; reorient the
        pair if it is visible and not yet pointing the majority's way."""
        tail, head = (a, b) if cab >= cba else (b, a)
        out = self.out
        if tail not in out[head]:
            return  # no crossing, pending insert or draining delete
        del out[head][tail]
        out[tail][head] = None
        self._deg_down(head)
        self._deg_up(tail)
        self.total_simple_flips += 1
        for ls in self.listeners:
            ls.on_flip(tail, head)

    def simple_inserted(self, a: int, b: int, cab: int, cba: int) -> None:
        if self.has_edge(a, b):
            raise CorruptionError(f"pair ({a},{b}) announced twice")
        tail, head = (a, b) if cab >= cba else (b, a)
        self.out[tail][head] = None
        self._deg_up(tail)
        for ls in self.listeners:
            ls.on_insert(tail, head)

    def simple_deleted(self, a: int, b: int) -> None:
        if b in self.out[a]:
            tail, head = a, b
        elif a in self.out[b]:
            tail, head = b, a
        else:
            raise CorruptionError(f"pair ({a},{b}) deleted while invisible")
        del self.out[tail][head]
        self._deg_down(tail)
        for ls in self.listeners:
            ls.on_delete(tail, head)

    # ------------------------------------------------------------------
    # Degree histogram and its maximum; degrees move by one at a time.
    # Both run after ``out[u]`` gained or lost its entry.
    # ------------------------------------------------------------------

    def _deg_up(self, u: int) -> None:
        d = len(self.out[u])
        hist = self._hist
        hist[d - 1] -= 1
        if d >= len(hist):
            hist.append(0)
        hist[d] += 1
        if d > self._max:
            self._max = d

    def _deg_down(self, u: int) -> None:
        d = len(self.out[u])
        hist = self._hist
        hist[d + 1] -= 1
        hist[d] += 1
        if d + 1 == self._max and hist[d + 1] == 0:
            self._max = d                 # where u now sits

    # ------------------------------------------------------------------
    # Audit.
    # ------------------------------------------------------------------

    def violations(self, engine) -> list[str]:
        """Check directions against a majority recount of the engine's copy
        counts, and the maximum out-degree against the adjacency."""
        bad = []
        live = {}
        for a, b in engine.edges():
            cab, cba = engine.copy_counts(a, b)
            live[a, b] = (a, b) if cab >= cba else (b, a)
        got = {}
        for tail, head in self.edges():
            pair = (tail, head) if tail < head else (head, tail)
            if pair in got:
                bad.append(f"edge {pair} oriented both ways")
            got[pair] = (tail, head)
        if set(live) != set(got):
            bad.append("rounded edge set differs from the engine's pairs")
        for pair, want in live.items():
            if got.get(pair, want) != want:
                bad.append(f"direction of {pair} disagrees with majority")
        deg = [len(heads) for heads in self.out]
        if self._max != max(deg, default=0):
            bad.append("max simple out-degree tracker is stale")
        return bad
