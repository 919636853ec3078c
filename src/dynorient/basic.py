"""Exact-degree orientation engine.

Maintains the local invariant d+(u) <= (1 + eta/b) * d+(v) + 2*theta over
every directed copy u->v by greedy flip chains.  Insertion routes the new
copy and, while the chain head would violate the invariant against its
minimum-degree out-neighbor, flips that edge and carries the +1 pulse
onward; deletion symmetrically walks toward the maximum-degree in-neighbor
read off the bucket heads.

This module holds only the scan policy (a full argmin over the ring on
insert).  Flips go through ``EngineCore._flip_copy`` and a committed degree
change through ``EngineCore._refresh`` over the whole ring: in-buckets here
are keyed by the exact out-degree of the in-neighbor, so every degree change
re-files the vertex in all of its out-neighbors' bucket lists.

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

    def _insert_chain(self, t: int) -> None:
        cfg = self.cfg
        g_lhs = cfg._g_lhs
        g_rhs = cfg._g_rhs
        g_add = cfg._g_add
        out_deg = self.out_deg
        e_head = self.e_head
        rn_next = self.rn_next
        chain = 0
        while True:
            dt = out_deg[t]
            # x <- argmin d+ over N+(t); first hit in ring order wins ties.
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
            if best >= 0 and (dt + 1) * g_lhs > g_rhs * best_d + g_add:
                if best_d < dt:
                    x = e_head[best]
                    self._flip_copy(best)
                    chain += 1
                    t = x
                    continue
                self.last_suppressed += 1
                self.total_suppressed += 1
            # No violation: commit the increment and re-file t in every
            # out-neighbor's bucket list.
            self._degree_change(t, dt + 1)
            self._refresh(t, dt + 1, self.out_sz[t])
            break
        if chain > self.last_chain:
            self.last_chain = chain

    def _delete_chain(self, u: int) -> None:
        cfg = self.cfg
        g_lhs = cfg._g_lhs
        g_rhs = cfg._g_rhs
        g_add = cfg._g_add
        out_deg = self.out_deg
        chain = 0
        while True:
            x_ent = self.first_in_entry(u)
            if x_ent >= 0:
                du = out_deg[u]
                dx = self.e_perc[x_ent]  # exact in this engine
                if dx * g_lhs > g_rhs * (du - 1) + g_add:
                    x = self.e_tail[x_ent]
                    if out_deg[x] > du:
                        self._flip_copy(x_ent)
                        chain += 1
                        u = x
                        continue
                    self.last_suppressed += 1
                    self.total_suppressed += 1
            d = out_deg[u] - 1
            self._degree_change(u, d)
            self._refresh(u, d, self.out_sz[u])
            break
        if chain > self.last_chain:
            self.last_chain = chain
