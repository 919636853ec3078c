"""Perceived-degree orientation engine.

Differences from the exact engine:

* Insertion scans at most ceil(128/(eta/b)) out-neighbors from the
  round-robin cursor instead of taking a full argmin, flipping at the first
  violation it sees (checked against *exact* degrees) and refreshing the
  recorded degree of the chain head at every scanned neighbor.
* After a committed increment or decrement, the vertex informs the next
  ceil(128/(eta/b)) out-neighbors of its new degree; everyone else keeps a
  stale *perceived* value.
* In-buckets are keyed geometrically: an in-neighbor with perceived degree p
  sits in bucket j iff (1 + slack/64)^j <= p < (1 + slack/64)^(j+1), so a
  refresh moves it by O(1) buckets.  Deletion reads its flip candidate and
  its guard from these perceived values.
* The guards use half the invariant slack and a +theta additive term; the
  slack budget left over absorbs the staleness, so the terminal invariant
  with the full slack and +2*theta still holds at update boundaries.

The same strict-progress condition as the exact engine gates flips (exact
degrees on both sides); see that module's docstring.  As there, this module
holds only the scan policy: flips go through ``EngineCore._flip_copy`` and
the round-robin news through ``EngineCore._refresh`` with a window of
rr_width entries.
"""

from __future__ import annotations

from .errors import CorruptionError
from .state import EngineCore


class FastEngine(EngineCore):

    fast_mode = True

    def _insert_chain(self, t: int) -> None:
        cfg = self.cfg
        f_lhs = cfg._f_lhs
        f_rhs = cfg._f_rhs
        f_add = cfg._f_add
        rr = cfg.rr_width
        out_deg = self.out_deg
        out_sz = self.out_sz
        e_head = self.e_head
        e_perc = self.e_perc
        rn_next = self.rn_next
        chain = 0
        while True:
            dt = out_deg[t]
            lhs = (dt + 1) * f_lhs
            sz = out_sz[t]
            k = rr if rr < sz else sz
            self.last_scan += k
            flip_e = -1
            e = self.cursor[t]
            for _ in range(k):
                nxt = rn_next[e]
                dx = out_deg[e_head[e]]
                if lhs > f_rhs * dx + f_add:
                    if dx < dt:
                        self.cursor[t] = nxt
                        flip_e = e
                        break
                    self.last_suppressed += 1
                    self.total_suppressed += 1
                if e_perc[e] != dt:
                    self.move_bucket(e, dt)
                e = nxt
            else:
                self.cursor[t] = e
            if flip_e >= 0:
                x = e_head[flip_e]
                self._flip_copy(flip_e)
                chain += 1
                t = x
                continue
            # Scan clean: commit the increment and round-robin the news.
            dt += 1
            self._degree_change(t, dt)
            sz = out_sz[t]
            self._refresh(t, dt, rr if rr < sz else sz)
            if self.audit_hooks:
                self._audit_post_increment(t)
            break
        if chain > self.last_chain:
            self.last_chain = chain

    def _delete_chain(self, u: int) -> None:
        cfg = self.cfg
        f_lhs = cfg._f_lhs
        f_rhs = cfg._f_rhs
        f_add = cfg._f_add
        rr = cfg.rr_width
        out_deg = self.out_deg
        e_perc = self.e_perc
        chain = 0
        while True:
            x_ent = self.first_in_entry(u)
            if x_ent >= 0:
                du = out_deg[u]
                # Guard on the perceived degree of the top in-neighbor.
                if e_perc[x_ent] * f_lhs > f_rhs * (du - 1) + f_add:
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
            sz = self.out_sz[u]
            self._refresh(u, d, rr if rr < sz else sz)
            if self.audit_hooks:
                self._audit_post_decrement(u)
            break
        if chain > self.last_chain:
            self.last_chain = chain

    # ------------------------------------------------------------------
    # Staleness lemma hooks (audit builds only).  Skipped on updates where
    # a transient flip suppression fired: the lemmas' preconditions assume
    # the steady-state degree floor that those windows lack.
    # ------------------------------------------------------------------

    def _audit_post_increment(self, u: int) -> None:
        if self.last_suppressed:
            return
        s = self.cfg.slack
        theta = self.cfg.theta
        du = self.out_deg[u]
        for e in self.out_entries(u):
            p = self.e_perc[e]
            if not du < p + p * (s / 64) + theta:
                raise CorruptionError(
                    f"post-increment staleness bound failed at {u}: "
                    f"d+={du}, recorded {p}")
            v = self.e_head[e]
            if not self.cfg.invariant_ok(du, self.out_deg[v]):
                raise CorruptionError(
                    f"post-increment invariant failed on {u}->{v}")

    def _audit_post_decrement(self, v: int) -> None:
        if self.last_suppressed:
            return
        s = self.cfg.slack
        theta = self.cfg.theta
        bound = (1 + 3 * s / 4) * self.out_deg[v] + theta
        for e in self.in_entries(v):
            if not self.e_perc[e] <= bound:
                raise CorruptionError(
                    f"post-decrement perceived bound failed at {v}: "
                    f"recorded {self.e_perc[e]} > {bound}")
