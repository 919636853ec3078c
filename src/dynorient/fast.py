"""Perceived-degree orientation engine.

Differences from the exact engine:

* Insertion scans at most ceil(128/(eta/b)) out-neighbors from the
  round-robin cursor instead of taking a full argmin, flipping at the first
  violation it sees (checked against *exact* degrees) and refreshing the
  recorded degree of the chain head at every scanned neighbor, unless the
  head waits for an end-of-insert refresh (below), which covers them.
* Once some ring is longer than ceil(128/(eta/b)), a vertex informs the
  next that many out-neighbors of each committed degree change; everyone
  else keeps a stale *perceived* value.  Until then every window covers the
  whole ring, and the core refreshes each ring once, after the update's
  last copy, as in the exact engine; a deletion chain re-keys the stale
  entry it reads.
* In-buckets are keyed geometrically: an in-neighbor with perceived degree p
  sits in bucket j iff (1 + slack/64)^j <= p < (1 + slack/64)^(j+1), so a
  refresh moves it by O(1) buckets.  Deletion reads its flip candidate and
  its guard from these perceived values.
* The guards use half the invariant slack and a +theta additive term; the
  slack budget left over absorbs the staleness, so the terminal invariant
  with the full slack and +2*theta still holds at update boundaries.

The same strict-progress condition as the exact engine gates flips (exact
degrees on both sides); see that module's docstring.  As there, this module
holds only the insert scan, plus the staleness-lemma audits the core calls
after each commit in audit builds (after the refresh, for a deferred one).
The core picks the halved guard and the rr_width window in fast mode, and
runs the chains, flips and commits.
"""

from __future__ import annotations

from .errors import CorruptionError
from .state import EngineCore


class FastEngine(EngineCore):

    fast_mode = True

    def _scan(self, t: int, dt: int) -> int:
        # First violation within the window from the cursor, checked against
        # exact degrees; every entry passed over learns t's degree, unless t
        # waits for the flush, which re-keys its whole ring.
        pending = self.pending
        rekey = pending is None or t not in pending
        lhs, rhs, add = self.guard
        lhs *= dt + 1
        out_deg = self.out_deg
        e_head = self.e_head
        e_perc = self.e_perc
        rn_next = self.rn_next
        k = self.out_sz[t]
        if self.window < k:
            k = self.window
        self.last_scan += k
        e = self.cursor[t]
        for _ in range(k):
            nxt = rn_next[e]
            dx = out_deg[e_head[e]]
            if lhs > rhs * dx + add:
                if dx < dt:
                    self.cursor[t] = nxt
                    return e
                self.last_suppressed += 1
                self.total_suppressed += 1
            if rekey and e_perc[e] != dt:
                self.move_bucket(e, dt)
            e = nxt
        self.cursor[t] = e
        return -1

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
