"""Exact-degree orientation engine.

Maintains the local invariant d+(u) <= (1 + eta/b) * d+(v) + 2*theta over
every directed copy u->v by greedy flip chains.  Insertion routes the new
copy and, while the chain head would violate the invariant against its
minimum-degree out-neighbor, flips that edge and carries the +1 pulse
onward; deletion symmetrically walks toward the maximum-degree in-neighbor
read off the bucket heads.

This module holds only the insert scan, a full argmin over the ring.  The
chains, flips and commits run in ``EngineCore``.  In exact mode in-buckets
are keyed by the exact out-degree of the in-neighbor, and a refresh tells
the whole ring (the window is n, so no ring outgrows it), so a degree change
re-files the vertex in all of its out-neighbors' bucket lists: once per
committed vertex at the end of an insertion or a deletion, in last-commit
order.  A deletion chain re-files early only the stale entry on top of the
in-buckets it reads; see ``EngineCore._insert_chain`` and
``EngineCore._delete_chain``.

A flip only happens when it strictly advances the chain (insert: toward a
smaller degree, delete: toward a larger one).  The guards already imply
this whenever every non-isolated vertex holds its steady-state share of
copies; the explicit check suppresses flip ping-pong in the brief
low-degree windows while an edge's b copies are being placed or drained,
where no orientation can satisfy the multiplicative invariant at all.
Suppressions are counted on the engine.
"""

from __future__ import annotations

from .state import EngineCore


class BasicEngine(EngineCore):

    fast_mode = False

    def _scan(self, t: int, dt: int) -> int:
        # x <- argmin d+ over N+(t); first hit in ring order wins ties.
        out_deg = self.out_deg
        e_head = self.e_head
        rn_next = self.rn_next
        sz = self.out_sz[t]
        best = -1
        best_d = 0
        e = self.cursor[t]
        for _ in range(sz):
            d = out_deg[e_head[e]]
            if best < 0 or d < best_d:
                best = e
                best_d = d
            e = rn_next[e]
        self.last_scan += sz
        lhs, rhs, add = self.guard
        if best >= 0 and (dt + 1) * lhs > rhs * best_d + add:
            if best_d < dt:
                return best
            self.last_suppressed += 1
            self.total_suppressed += 1
        return -1
