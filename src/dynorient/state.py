"""The orientation engine: multigraph state and the flip chains of both modes.

The maintained object is an orientation of G^b, the input graph with every
edge duplicated b times.  Copies between the same ordered vertex pair are
interchangeable, so the adjacency stores one *entry* per direction of a
pair, carrying a copy count; copy-level operations (insert, remove, flip one
copy) act on the counts.  Pair p = {a, c} with a < c owns entries 2p (a->c)
and 2p+1 (c->a) for as long as the edge lives, so a copy's reverse entry is
``eid ^ 1``.  An entry holding copies lives in two intrusive structures; an
empty one is in neither:

* the tail's circular *out-ring* (the round-robin order in which the tail
  notifies out-neighbors of its degree), and
* one of the head's *in-buckets*, a doubly-linked chain of buckets sorted by
  key descending, so the head can read off its in-neighbor with the largest
  recorded (exact or perceived) out-degree in O(1).  The chain is the only
  index of its buckets: a new entry finds its bucket by walking down from
  the top, and a re-key walks from the entry's current bucket, which a
  refresh moves across O(1) buckets.  Only ``_bn_splice`` links a new
  bucket node into a chain and only ``_bn_unlink`` takes an emptied one
  out; ``move_bucket`` relinks the node of an entry alone in its bucket
  itself, so a re-key that would empty one node to fill another keeps it.

Insertion routes each new copy and, while the chain head would violate the
invariant against the out-neighbor its scan picks, flips that copy and
carries the +1 onward; deletion walks toward the in-neighbor with the
largest recorded degree, read off the bucket heads.  The exact-degree and
the perceived-degree mode share these chains and differ in four places,
all fixed when the engine is built:

* The insert scan.  Exact mode takes the argmin of d+ over the whole ring
  (first hit in ring order from the cursor wins ties).  Perceived mode
  scans at most the window from the round-robin cursor and flips at the
  first violation it sees, checked against *exact* degrees, leaving the
  cursor just after it; every entry it passes over learns the head's
  degree.
* The refresh window.  A committed degree change is told to the next
  ``window`` out-neighbors from the cursor.  In exact mode the window is n,
  so no ring outgrows it and every out-neighbor hears of each change.  In
  perceived mode it is rr_width = ceil(128/(eta/b)); once a ring is longer,
  the out-neighbors outside the window keep a stale *perceived* value.  A
  ring that shrinks back to the window is refreshed whole at the end of
  the update, so a ring that fits records exact degrees between updates.
* The bucket key.  Exact mode keys an in-entry by its recorded degree
  itself.  Perceived mode keys it geometrically: perceived degree p sits in
  bucket j iff (1 + slack/64)^j <= p < (1 + slack/64)^(j+1), so a refresh
  moves it by O(1) buckets.  Either way the key of degree d is
  ``key_of[d]``, a table the engine builds once over every degree a vertex
  can reach.  Deletion reads its flip candidate and its guard from these
  recorded values in both modes.
* The guard.  Exact mode flips on the invariant itself.  Perceived mode
  uses half the slack and +theta instead of +2*theta; the slack budget left
  over absorbs the staleness, so the terminal invariant with the full slack
  and +2*theta still holds at update boundaries.  Audit builds check the
  staleness lemmas behind this after each commit.

In both modes a flip happens only when it strictly advances the chain
(insert: toward a smaller exact degree, delete: toward a larger one).  The
guards already imply this whenever every non-isolated vertex holds its
steady-state share of copies; the explicit check suppresses flip ping-pong
in the brief low-degree windows while an edge's b copies are being placed
or drained, where no orientation can satisfy the multiplicative invariant
at all.  Suppressions are counted.

Every commit moves ``out_deg``, files the vertex last in ``pending`` and,
unless the update is ``deferring``, flushes at once.  Only ``_flush`` names
committed vertices to the degree listener (which reads their degrees when
it next needs them), refreshes their rings and runs their post-commit
audits.  An update defers while every ring fits the window, so a recorded
degree can lag inside it, and only two things re-key there: a deletion
chain, which re-keys the one entry it reads, the top of a head's
in-buckets, when stale (``OrientationEngine.delete`` says why that is
enough), and the flush.  That loses nothing: every recorded degree was
exact when the update began; only a commit changes ``out_deg``, and it
files the vertex in ``pending``; and every re-key writes the tail's exact
degree.  So an entry that records another degree than its tail's has its
tail in ``pending``, and the flush re-keys it.  ``OrientationEngine.insert``
says why waiting changes no outcome and keeps the bucket sibling order.

Everything is flat parallel lists indexed by small integer ids; these are the
hottest loops in the package.
"""

from __future__ import annotations

import operator

from .config import OrientationConfig
from . import events as ev
from .errors import (
    CorruptionError,
    DuplicateEdgeError,
    GraphUpdateError,
    MissingEdgeError,
)


class OrientationEngine:
    """The orientation of G^b under simple-edge inserts and deletes.

    ``insert`` and ``delete`` each run one loop over the edge's b copies:
    place or drain the copy, then walk its flip chain.  After a copy is
    added the chain flips toward the out-neighbor that its inline ring scan
    picks until the scan finds none; after a copy is removed it flips
    toward the in-neighbor with the largest recorded degree while the guard
    holds.  Flips go through ``_flip_copy``, the ring update through
    ``_refresh`` and every re-key through ``move_bucket``.  Each final ±1
    is committed inline and filed in ``pending``, and ``_flush`` refreshes
    the pending rings: once at the end of a ``deferring`` update, which is
    any update while every ring fits in the window (always in exact mode),
    and after every commit otherwise.  A deletion chain re-keys the one
    stale entry it reads.  ``cfg.is_fast()`` picks the mode once, here:
    the scan, the window, the bucket key (exact degree, or its geometric
    index) and the guard.  The engine also owns the pair registry (a pair
    id p names entries 2p and 2p+1; no other module relies on that layout),
    the ring/bucket mechanics, event emission, the per-update counters and,
    for audit builds (``audit_hooks``), the audits run after each flip and
    each commit.  It is built with its ``rounding`` and ``degree_listener``
    layers and an optional event ``recorder``; see ``OrientationStack``.
    The degree listener is not told of each commit: ``degree_changed``
    receives the dict of vertices committed since the last flush, at the
    flush, and the engine does not write to that dict again.  It reads the
    degrees from ``out_deg``.

    An exception that escapes an update once it has started to change state
    marks the engine ``broken``; every later update then raises
    ``CorruptionError`` without touching anything, and so does every
    query of ``OrientationStack``.
    """

    def __init__(self, cfg: OrientationConfig, rounding, degree_listener,
                 recorder=None, audit_hooks: bool = False):
        n = cfg.capacity
        self.cfg = cfg
        self.n = n
        self.b = cfg.b
        # True in perceived-degree mode, False in exact-degree mode.
        self.fast_mode = fast = cfg.is_fast()
        # key_of[d]: the bucket key of recorded degree d, for every degree
        # 0..(N-1)*b a vertex can reach.  Exact mode keys by the degree
        # itself; perceived mode by cfg.bucket_index(d), tabulated by one
        # walk over the sorted thresholds (a degree below thresholds[j],
        # and not below those before it, has key j - 1).  Each run of
        # degrees is filled by one slice, so the table holds one int object
        # per key, not a fresh one per degree above 256; low thresholds
        # repeat, and a repeat fills nothing.
        size = (n - 1) * cfg.b + 1
        if fast:
            key_of = []
            d = 0
            for j, t in enumerate(cfg.bucket_thresholds() + [size]):
                if d < t:
                    key_of += [j - 1] * (t - d)
                    d = t
        else:
            key_of = list(range(size))
        self.key_of = key_of
        # Flip guard (lhs, rhs, add): flip when d * lhs > rhs * d' + add.
        # Perceived mode halves the exact guard's slack and theta.
        lhs, rhs, add = cfg._g_lhs, cfg._g_rhs, cfg._g_add
        self.guard = (2 * lhs, lhs + rhs, add) if fast else (lhs, rhs, add)
        # Round-robin width of a committed degree change; no ring outgrows
        # n, so in exact mode every out-neighbor hears of it.
        self.window = cfg.rr_width if fast else n
        # Rings longer than the window; always 0 in exact mode.
        self.long_rings = 0
        # The vertices committed since the last flush, as dict keys in
        # last-commit order; _flush hands them on and starts a fresh dict.
        self.pending: dict = {}
        # True while the update now running defers its refreshes to its
        # end (see insert and delete); _flush ends the deferral.
        self.deferring = False
        # Vertices whose ring shrank back to the window during the update
        # now running; see _refresh_regained.
        self._regained: list = []
        # Audit builds: (post-commit hook, vertex) of each deferred commit,
        # run at the flush.
        self._audits_due: list = []

        self.out_deg = [0] * n
        self.out_sz = [0] * n          # ring length = distinct out-neighbors
        self.cursor = [-1] * n         # round-robin position (entry id)
        self.top_bucket = [-1] * n     # bucket node with the largest key

        # Directed adjacency entries, two per pair id p: 2p for a->c and
        # 2p+1 for c->a, where a < c.
        self.e_tail: list[int] = []
        self.e_head: list[int] = []
        self.e_cnt: list[int] = []
        self.rn_next: list[int] = []   # ring links at the tail
        self.rn_prev: list[int] = []
        self.bk_next: list[int] = []   # sibling links inside a bucket
        self.bk_prev: list[int] = []
        self.e_bnode: list[int] = []   # bucket node holding this entry
        self.e_perc: list[int] = []    # tail out-degree as recorded at the head

        # Bucket nodes, chained per head vertex by key descending.
        self.bn_key: list[int] = []
        self.bn_prev: list[int] = []
        self.bn_next: list[int] = []
        self.bn_head: list[int] = []   # first entry in the bucket
        self._bn_free: list[int] = []

        # Pair registry: key a*n + c with a < c -> pair id.  Freed ids, and
        # with them both entries, are recycled.
        self.pairs: dict[int, int] = {}
        self._p_free: list[int] = []

        # Collaborators, read at each call so that they can be swapped.
        self.rounding = rounding
        self.degree_listener = degree_listener
        self.recorder = recorder

        # (op index, repr of the exception) of the update that raised after
        # it started to change state; None while the engine is sound.
        self.broken = None

        # Per-update and cumulative instrumentation.
        self.updates = 0
        self.last_copy_flips = 0
        self.last_chain = 0
        self.last_suppressed = 0
        self.last_scan = 0
        self.total_copy_flips = 0
        self.total_suppressed = 0
        self.audit_hooks = audit_hooks
        self.audits_skipped = 0

    # ------------------------------------------------------------------
    # Public update surface.
    # ------------------------------------------------------------------

    def insert(self, u: int, v: int) -> None:
        """Insert simple edge {u, v}: b copies, each routed to the endpoint
        t with the smaller current out-degree (ties toward u), and after
        each the insertion chain: flip toward the out-neighbor that the
        scan picks until it picks none, then commit the +1 where the chain
        stopped.  A copy that fills its entry links it into t's ring and
        the head's in-buckets; one joining a live entry re-keys it to t's
        degree unless the update defers.

        While no ring is longer than the window (always, in exact mode) the
        update is ``deferring``: ``_flush`` refreshes the ring of each
        vertex that committed once, after the last copy, in last-commit
        order.  Otherwise every commit flushes at once.  ``delete`` defers
        under the same rule.  Nothing inside an insert reads a recorded degree
        (scans compare exact degrees), and while every ring fits in the
        window a refresh walks the whole ring and leaves the cursor where it
        was, so waiting changes no recorded degree and no cursor.

        Last-commit order is the order of each entry's last bucket move had
        every commit refreshed at once, so the bucket sibling order, which
        picks a later deletion's flip candidate among equal keys, stays the
        same; first-commit order would change it.  One case differs: an
        entry created during the insert is attached at once, below the
        entries the flush then moves into its bucket, where refreshing at
        once would have put it above those whose last move came first.
        Either order is a valid tie-break.

        The scan runs inline, by its mode's rule (see the module
        docstring), and so does the commit, which then flushes unless the
        update is ``deferring``.  The engine's
        ``_flip_copy`` and ``move_bucket`` are looked up once per update,
        like its lists, so a wrapper set on the instance between updates
        sees every flip and re-key of the next one.  The recorder hears of
        each commit as an ``OUT_DEGREE_CHANGED`` event, emitted once the
        vertex is filed in ``pending``."""
        self.check_sound()
        self._check_pair(u, v)
        a, c = (u, v) if u < v else (v, u)
        key = a * self.n + c
        if key in self.pairs:
            raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
        try:
            pid = self._pair_alloc(a, c)
            self.last_copy_flips = self.last_chain = 0
            self.last_suppressed = self.last_scan = 0
            fast = self.fast_mode
            lhs, rhs, add = self.guard
            window = self.window
            out_deg = self.out_deg
            out_sz = self.out_sz
            cursor = self.cursor
            e_cnt = self.e_cnt
            e_head = self.e_head
            e_perc = self.e_perc
            rn_next = self.rn_next
            flip = self._flip_copy
            move = self.move_bucket
            rec = self.recorder
            audit = self._audit_post_increment if self.audit_hooks else None
            audits_due = self._audits_due
            longest = scanned = 0
            self.deferring = not self.long_rings
            for _ in range(self.b):
                t, h = (u, v) if out_deg[u] <= out_deg[v] else (v, u)
                e = 2 * pid + (t != a)
                dt = out_deg[t]
                cnt = e_cnt[e]
                e_cnt[e] = cnt + 1
                if cnt == 0:
                    self._ring_insert(e, t)
                    self._bucket_attach(h, e, dt)
                elif not self.deferring and e_perc[e] != dt:
                    move(e, dt)
                if rec is not None:
                    rec.emit(ev.COPY_ADDED, t, h)
                chain = 0
                while True:
                    # Scan t's ring (t at degree dt, before the +1) for the
                    # entry x to flip next; x < 0 commits at t.
                    x = -1
                    k = out_sz[t]
                    e = cursor[t]
                    bound = lhs * (dt + 1)
                    if fast:
                        if window < k:
                            k = window
                        rekey = not self.deferring
                        for _ in range(k):
                            nxt = rn_next[e]
                            dx = out_deg[e_head[e]]
                            if bound > rhs * dx + add:
                                if dx < dt:
                                    x = e
                                    e = nxt
                                    break
                                self.last_suppressed += 1
                                self.total_suppressed += 1
                            if rekey and e_perc[e] != dt:
                                move(e, dt)
                            e = nxt
                        cursor[t] = e
                    else:
                        best = -1
                        best_d = 0
                        for _ in range(k):
                            dx = out_deg[e_head[e]]
                            if best < 0 or dx < best_d:
                                best = e
                                best_d = dx
                            e = rn_next[e]
                        if best >= 0 and bound > rhs * best_d + add:
                            if best_d < dt:
                                x = best
                            else:
                                self.last_suppressed += 1
                                self.total_suppressed += 1
                    scanned += k
                    if x < 0:
                        break
                    t = e_head[x]
                    flip(x)
                    chain += 1
                    dt = out_deg[t]
                if chain > longest:
                    longest = chain
                dt += 1
                out_deg[t] = dt
                pending = self.pending
                pending.pop(t, None)
                pending[t] = None
                if rec is not None:
                    rec.emit(ev.OUT_DEGREE_CHANGED, t, t, dt)
                if audit is not None:
                    audits_due.append((audit, t))
                if not self.deferring:
                    self._flush()
            self.last_chain = longest
            self.last_scan = scanned
            if self.deferring:
                self._flush()
            if self._regained:
                self._refresh_regained()
            if rec is not None:
                rec.emit(ev.SIMPLE_INSERTED, a, c)
            e = 2 * pid
            self.rounding.simple_inserted(a, c, self.e_cnt[e],
                                          self.e_cnt[e + 1])
            self.updates += 1
        except BaseException as exc:
            self._break(exc)
            raise

    def delete(self, u: int, v: int) -> None:
        """Delete simple edge {u, v}: drain its b copies one at a time, each
        taken out of the endpoint t with the larger current out-degree (ties
        toward u), or out of the other one when t has no copies of the edge
        left; the last copy of an entry unlinks it from its ring and its
        bucket.  After each removal the deletion chain: while the in-neighbor
        with the largest recorded degree violates the guard against t, flip
        its copy, then commit the -1 where the chain stopped.

        Refreshes are deferred, and commits made, as in ``insert``.  While
        the update defers, the chain reads only the top entry of each
        head's in-buckets, and re-keys it first if it records another
        degree than its tail's.  That is enough: every recorded degree was
        exact when the update began and only -1s have been committed since,
        so a stale one is too high and its key is at or above the true one.
        A fresh top entry therefore has the largest true key.  Other entries
        wait for the flush.  A flip can push a ring past the window, which
        flushes and ends the deferral mid-delete, so the chain reads
        ``self.deferring`` at every read and every commit rather than once.
        Without a deferral the recorded degrees are the perceived ones and
        are read as they stand.
        """
        self.check_sound()
        self._check_pair(u, v)
        a, c = (u, v) if u < v else (v, u)
        key = a * self.n + c
        pid = self.pairs.get(key, -1)
        if pid < 0:
            raise MissingEdgeError(f"edge ({u}, {v}) not present")
        self.last_copy_flips = self.last_chain = 0
        self.last_suppressed = self.last_scan = 0
        rec = self.recorder
        try:
            if rec is not None:
                rec.emit(ev.SIMPLE_DELETED, a, c)
            self.rounding.simple_deleted(a, c)
            lhs, rhs, add = self.guard
            out_deg = self.out_deg
            e_cnt = self.e_cnt
            e_tail = self.e_tail
            e_perc = self.e_perc
            top_bucket = self.top_bucket
            bn_head = self.bn_head
            flip = self._flip_copy
            move = self.move_bucket
            audit = self._audit_post_decrement if self.audit_hooks else None
            audits_due = self._audits_due
            longest = 0
            self.deferring = not self.long_rings
            for _ in range(self.b):
                t, h = (u, v) if out_deg[u] >= out_deg[v] else (v, u)
                e = 2 * pid + (t != a)
                cnt = e_cnt[e]
                if cnt == 0:
                    t, h = h, t
                    e ^= 1
                    cnt = e_cnt[e]
                    if cnt == 0:
                        raise CorruptionError("pair drained early")
                cnt -= 1
                e_cnt[e] = cnt
                if cnt == 0:
                    self._ring_remove(e, t)
                    self._bucket_detach(h, e)
                if rec is not None:
                    rec.emit(ev.COPY_REMOVED, t, h)
                chain = 0
                while True:
                    top = top_bucket[t]
                    if top < 0:
                        break
                    e = bn_head[top]
                    x = e_tail[e]
                    dx = out_deg[x]
                    if e_perc[e] != dx and self.deferring:
                        move(e, dx)
                        continue
                    dt = out_deg[t]
                    if e_perc[e] * lhs <= rhs * (dt - 1) + add:
                        break
                    if dx <= dt:
                        self.last_suppressed += 1
                        self.total_suppressed += 1
                        break
                    flip(e)
                    chain += 1
                    t = x
                if chain > longest:
                    longest = chain
                dt = out_deg[t] - 1
                out_deg[t] = dt
                pending = self.pending
                pending.pop(t, None)
                pending[t] = None
                if rec is not None:
                    rec.emit(ev.OUT_DEGREE_CHANGED, t, t, dt)
                if audit is not None:
                    audits_due.append((audit, t))
                if not self.deferring:
                    self._flush()
            self.last_chain = longest
            if self.deferring:
                self._flush()
            if self._regained:
                self._refresh_regained()
            if e_cnt[2 * pid] or e_cnt[2 * pid + 1]:
                raise CorruptionError("copies survived a simple-edge drain")
            del self.pairs[key]
            self._p_free.append(pid)
            self.updates += 1
        except BaseException as exc:
            self._break(exc)
            raise

    def _break(self, exc: BaseException) -> None:
        """Mark the engine broken by the update now running, which raised
        ``exc`` after it started to change state, and drop the deferral it
        leaves behind; it is not rolled back."""
        self.broken = (self.updates, repr(exc))
        self.deferring = False
        self.pending = {}
        self._regained.clear()
        self._audits_due.clear()

    def check_sound(self) -> None:
        """Raise ``CorruptionError`` naming the update that broke the
        engine, if one did."""
        if self.broken is None:
            return
        op, exc = self.broken
        raise CorruptionError(
            f"op {op} raised {exc} part-way; the engine is inconsistent "
            "and takes no further updates or queries")

    def has_edge(self, u: int, v: int) -> bool:
        a, c = (u, v) if u < v else (v, u)
        return (a * self.n + c) in self.pairs

    def edges(self):
        """Live simple edges as (a, b) with a < b, insertion-ordered."""
        n = self.n
        for key in self.pairs:
            yield divmod(key, n)

    def copy_counts(self, u: int, v: int) -> tuple:
        """(copies u->v, copies v->u) for a live pair."""
        a, c = (u, v) if u < v else (v, u)
        pid = self.pairs.get(a * self.n + c, -1)
        if pid < 0:
            raise MissingEdgeError(f"edge ({u}, {v}) not present")
        cab, cba = self.e_cnt[2 * pid], self.e_cnt[2 * pid + 1]
        return (cab, cba) if u == a else (cba, cab)

    # ------------------------------------------------------------------
    # Round-robin ring mechanics.
    # ------------------------------------------------------------------

    def _ring_insert(self, eid: int, u: int) -> None:
        sz = self.out_sz[u]
        if sz == self.window:
            # u's ring outgrows the window.  From here on a refresh walks
            # part of it and moves the cursor, so refreshes cannot wait: the
            # pending ones run now, before the ring changes, and the rest of
            # the update flushes after every commit.  In a delete, a flip
            # gets here; the chain reads ``self.deferring`` again afterwards.
            # Never in exact mode, where no ring reaches the window n.
            self.long_rings += 1
            if self.deferring:
                self._flush()
        cur = self.cursor[u]
        if cur < 0:
            self.rn_next[eid] = eid
            self.rn_prev[eid] = eid
            self.cursor[u] = eid
        else:
            prev = self.rn_prev[cur]
            self.rn_next[prev] = eid
            self.rn_prev[eid] = prev
            self.rn_next[eid] = cur
            self.rn_prev[cur] = eid
        self.out_sz[u] = sz + 1

    def _ring_remove(self, eid: int, u: int) -> None:
        sz = self.out_sz[u] - 1
        if sz == 0:
            self.cursor[u] = -1
        else:
            nxt = self.rn_next[eid]
            prv = self.rn_prev[eid]
            self.rn_next[prv] = nxt
            self.rn_prev[nxt] = prv
            if self.cursor[u] == eid:
                self.cursor[u] = nxt
        self.out_sz[u] = sz
        if sz == self.window:
            self.long_rings -= 1
            self._regained.append(u)

    # ------------------------------------------------------------------
    # In-bucket mechanics.
    # ------------------------------------------------------------------

    def _bn_splice(self, v: int, key: int, above: int, below: int) -> int:
        """Link a fresh bucket node keyed ``key`` into v's chain between the
        nodes ``above`` and ``below`` (-1 past either end), reusing a freed
        node if there is one; return it."""
        bn_key = self.bn_key
        bn_prev = self.bn_prev
        bn_next = self.bn_next
        free = self._bn_free
        if free:
            bn = free.pop()
            bn_key[bn] = key
            bn_prev[bn] = above
            bn_next[bn] = below
            self.bn_head[bn] = -1
        else:
            bn = len(bn_key)
            bn_key.append(key)
            bn_prev.append(above)
            bn_next.append(below)
            self.bn_head.append(-1)
        if above >= 0:
            bn_next[above] = bn
        else:
            self.top_bucket[v] = bn
        if below >= 0:
            bn_prev[below] = bn
        return bn

    def _bn_unlink(self, v: int, bn: int) -> None:
        """Unlink the emptied bucket node bn from v's chain and free it."""
        bn_prev = self.bn_prev
        bn_next = self.bn_next
        bp = bn_prev[bn]
        bq = bn_next[bn]
        if bp >= 0:
            bn_next[bp] = bq
        else:
            self.top_bucket[v] = bq
        if bq >= 0:
            bn_prev[bq] = bp
        self._bn_free.append(bn)

    def _bucket_attach(self, v: int, eid: int, perceived: int) -> None:
        """Place entry eid (an in-neighbor record of v) at the front of the
        bucket for its key: walk v's descending chain down from the top to
        the bucket holding the key, or splice a new one into the slot."""
        self.e_perc[eid] = perceived
        key = self.key_of[perceived]
        bn_key = self.bn_key
        bn_next = self.bn_next
        above = -1
        bn = self.top_bucket[v]
        while bn >= 0 and bn_key[bn] > key:
            above = bn
            bn = bn_next[bn]
        if bn < 0 or bn_key[bn] != key:
            bn = self._bn_splice(v, key, above, bn)
        head = self.bn_head[bn]
        self.bk_prev[eid] = -1
        self.bk_next[eid] = head
        if head >= 0:
            self.bk_prev[head] = eid
        self.bn_head[bn] = eid
        self.e_bnode[eid] = bn

    def _bucket_detach(self, v: int, eid: int) -> None:
        bn = self.e_bnode[eid]
        if bn < 0:
            raise CorruptionError("entry not present in any bucket")
        nxt = self.bk_next[eid]
        prv = self.bk_prev[eid]
        if prv >= 0:
            self.bk_next[prv] = nxt
        else:
            self.bn_head[bn] = nxt
        if nxt >= 0:
            self.bk_prev[nxt] = prv
        self.e_bnode[eid] = -1
        if self.bn_head[bn] < 0:
            self._bn_unlink(v, bn)

    def move_bucket(self, eid: int, new_perceived: int) -> None:
        """Re-key an in-neighbor entry after its recorded degree changed.

        Same-bucket moves only store the value.  Cross-bucket moves walk
        the chain from the entry's current bucket toward the new key and
        stop at the bucket holding it or at the slot for it; a refresh moves
        a key across O(1) buckets, so the walk is short.  An entry alone in
        its bucket, moving to a key no bucket holds yet, keeps its node: the
        node is re-keyed, and relinked into the slot if a bucket lies
        between the two keys (with none, the chain order is already right).
        Otherwise a new node is spliced into the slot before the entry
        leaves its old one, which is unlinked if that empties it.
        """
        e_bnode = self.e_bnode
        bn = e_bnode[eid]
        if bn < 0:
            raise CorruptionError("move_bucket on an unattached entry")
        self.e_perc[eid] = new_perceived
        key = self.key_of[new_perceived]
        bn_key = self.bn_key
        old_key = bn_key[bn]
        if key == old_key:
            return
        v = self.e_head[eid]
        bn_prev = self.bn_prev
        bn_next = self.bn_next
        bn_head = self.bn_head
        bk_next = self.bk_next
        bk_prev = self.bk_prev
        nxt = bk_next[eid]
        prv = bk_prev[eid]
        # Walk from the current bucket toward the new key while the next
        # bucket lies strictly between; the key's slot is then (above,
        # below), and that next bucket, ``target``, holds the key if any
        # bucket does.
        p = bn
        if key > old_key:
            while bn_prev[p] >= 0 and bn_key[bn_prev[p]] < key:
                p = bn_prev[p]
            above, below = bn_prev[p], p
            target = above
        else:
            while bn_next[p] >= 0 and bn_key[bn_next[p]] > key:
                p = bn_next[p]
            above, below = p, bn_next[p]
            target = below
        if target < 0 or bn_key[target] != key:
            if prv < 0 and nxt < 0:
                bn_key[bn] = key
                if p != bn:
                    top_bucket = self.top_bucket
                    bp = bn_prev[bn]
                    bq = bn_next[bn]
                    if bp >= 0:
                        bn_next[bp] = bq
                    else:
                        top_bucket[v] = bq
                    if bq >= 0:
                        bn_prev[bq] = bp
                    bn_prev[bn] = above
                    bn_next[bn] = below
                    if above >= 0:
                        bn_next[above] = bn
                    else:
                        top_bucket[v] = bn
                    if below >= 0:
                        bn_prev[below] = bn
                return
            # Splice before the detach below can recycle the current node.
            target = self._bn_splice(v, key, above, below)
        if prv >= 0:
            bk_next[prv] = nxt
        else:
            bn_head[bn] = nxt
        if nxt >= 0:
            bk_prev[nxt] = prv
        elif prv < 0:
            self._bn_unlink(v, bn)
        head = bn_head[target]
        bk_prev[eid] = -1
        bk_next[eid] = head
        if head >= 0:
            bk_prev[head] = eid
        bn_head[target] = eid
        e_bnode[eid] = target

    def in_entries(self, v: int):
        """All in-neighbor entries of v, bucket order (key descending)."""
        bn = self.top_bucket[v]
        while bn >= 0:
            e = self.bn_head[bn]
            while e >= 0:
                yield e
                e = self.bk_next[e]
            bn = self.bn_next[bn]

    def out_entries(self, u: int):
        """All out-neighbor entries of u in ring order from the cursor."""
        e = self.cursor[u]
        for _ in range(self.out_sz[u]):
            yield e
            e = self.rn_next[e]

    # ------------------------------------------------------------------
    # Copy-level primitives.  insert and delete place and drain an edge's
    # copies themselves and emit COPY_ADDED/COPY_REMOVED; rounding never
    # hears of those, since a pair is invisible to it while its copies are
    # placed or drained.  _flip_copy is the one way a copy changes sides;
    # it keeps the counts of both entries itself and links or unlinks an
    # entry only when it fills or empties.  A chain's commit is the one way
    # an out-degree changes, and the flush's _refresh tells it to the
    # out-neighbors.
    # ------------------------------------------------------------------

    def _flip_copy(self, eid: int) -> None:
        """Reverse one copy held by entry eid (t->h becomes h->t).

        The copy leaves eid, which is unlinked if it empties, and joins the
        reverse entry eid ^ 1, which is linked if it fills and otherwise
        re-keyed to h's degree unless the update defers, as a copy joining a
        live entry in ``insert`` is.  Rounding hears of the flip, with the
        final counts, only when it crosses the pair's majority: the flip
        moves the difference (copies a->c) - (copies c->a) by 2, and the
        majority, ties toward a, crosses exactly when the larger of the
        difference before and after the flip is 0 or 1.  A flip that keeps
        the majority cannot reorient a visible pair, whose simple direction
        is its majority.  Then the flip is emitted and counted, and audit
        builds check the critical inequality.
        """
        e_cnt = self.e_cnt
        t = self.e_tail[eid]
        h = self.e_head[eid]
        cnt = e_cnt[eid] - 1
        e_cnt[eid] = cnt
        if cnt == 0:
            self._ring_remove(eid, t)
            self._bucket_detach(h, eid)
        rev = eid ^ 1
        cnt = e_cnt[rev]
        e_cnt[rev] = cnt + 1
        dh = self.out_deg[h]
        if cnt == 0:
            self._ring_insert(rev, h)
            self._bucket_attach(t, rev, dh)
        elif not self.deferring and self.e_perc[rev] != dh:
            self.move_bucket(rev, dh)
        e = eid & -2
        d = e_cnt[e] - e_cnt[e + 1]
        if eid == e:
            d += 2       # an a->c copy flipped: the difference before
        if 0 <= d <= 1:
            self.rounding.counts_changed(self.e_tail[e], self.e_head[e],
                                         e_cnt[e], e_cnt[e + 1])
        rec = self.recorder
        if rec is not None:
            rec.emit(ev.COPY_FLIPPED, t, h)
        self.last_copy_flips += 1
        self.total_copy_flips += 1
        if self.audit_hooks:
            self._audit_critical_ineq(t, h)

    def _refresh(self, vertices) -> None:
        """Tell the next ``window`` out-neighbors of each vertex u in
        ``vertices``, from u's cursor, u's current out-degree, leaving the
        cursor after the last one told.  Only entries whose recorded degree
        differs are moved, each through ``self.move_bucket``.
        """
        window = self.window
        out_deg = self.out_deg
        out_sz = self.out_sz
        cursor = self.cursor
        e_perc = self.e_perc
        rn_next = self.rn_next
        move = self.move_bucket
        for u in vertices:
            d = out_deg[u]
            k = out_sz[u]
            if window < k:
                k = window
            e = cursor[u]
            for _ in range(k):
                if e_perc[e] != d:
                    move(e, d)
                e = rn_next[e]
            cursor[u] = e

    def _refresh_regained(self) -> None:
        """Refresh the whole ring of each vertex whose ring shrank back to
        the window during the update.  While it was longer its refreshes
        reached only the window, so entries behind it may be stale, yet at
        an update boundary a ring that fits the window records exact
        degrees.  A ring that outgrew the window again is left as it is.
        Never in exact mode, where no ring reaches the window n."""
        regained = self._regained
        out_sz = self.out_sz
        self._refresh([u for u in regained if out_sz[u] <= self.window])
        regained.clear()

    def _flush(self) -> None:
        """End any deferral and act on the commits made since the last
        flush: hand the degree listener the pending vertices in one call,
        as a dict the engine then leaves alone, refresh each pending ring
        once with its vertex's latest degree, in last-commit order (see
        ``insert`` for why that order), in one ``_refresh`` call, and run
        the commits' post-commit audits.  Entries a deletion chain already
        re-keyed record that degree and are not moved again."""
        pending = self.pending
        self.pending = {}
        self.deferring = False
        self.degree_listener.degree_changed(pending)
        self._refresh(pending)
        if self.audit_hooks:
            for audit, w in self._audits_due:
                audit(w)
            self._audits_due.clear()

    # ------------------------------------------------------------------
    # Pair registry plumbing.
    # ------------------------------------------------------------------

    def _pair_alloc(self, a: int, c: int) -> int:
        """Register pair {a, c}, a < c, with its two empty entries; a freed
        pair id's entries are empty and unlinked, and only renamed."""
        free = self._p_free
        if free:
            pid = free.pop()
            e = 2 * pid
            self.e_tail[e] = self.e_head[e + 1] = a
            self.e_head[e] = self.e_tail[e + 1] = c
        else:
            pid = len(self.e_tail) >> 1
            self.e_tail += (a, c)
            self.e_head += (c, a)
            self.e_cnt += (0, 0)
            self.rn_next += (-1, -1)
            self.rn_prev += (-1, -1)
            self.bk_next += (-1, -1)
            self.bk_prev += (-1, -1)
            self.e_bnode += (-1, -1)
            self.e_perc += (0, 0)
        self.pairs[a * self.n + c] = pid
        return pid

    def _check_pair(self, u: int, v: int) -> None:
        """Reject a bad vertex pair before anything is mutated."""
        operator.index(u)
        operator.index(v)
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            raise GraphUpdateError(
                f"vertex ids must lie in [0, {n}); got ({u}, {v})")
        if u == v:
            raise GraphUpdateError("self-loops are not supported")

    # ------------------------------------------------------------------
    # Audits.
    # ------------------------------------------------------------------

    def invariant_violations(self) -> list[str]:
        """Terminal invariant over every directed copy group:
        d+(tail) <= (1 + eta/b) * d+(head) + 2*theta, exact arithmetic."""
        bad = []
        cfg = self.cfg
        out_deg = self.out_deg
        for pid in self.pairs.values():
            for eid in (2 * pid, 2 * pid + 1):
                if not self.e_cnt[eid]:
                    continue
                t, h = self.e_tail[eid], self.e_head[eid]
                if not cfg.invariant_ok(out_deg[t], out_deg[h]):
                    bad.append(
                        f"invariant violated on {t}->{h}: "
                        f"d+({t})={out_deg[t]}, d+({h})={out_deg[h]}")
        return bad

    def structural_violations(self) -> list[str]:
        """Recompute every structural invariant of the state from scratch;
        a broken engine names the update that broke it first."""
        bad = []
        if self.broken is not None:
            op, exc = self.broken
            bad.append(f"op {op} raised {exc} part-way; state not rolled back")
        n = self.n
        e_tail, e_head, e_cnt = self.e_tail, self.e_head, self.e_cnt
        # Degrees from the pair registry; entries holding copies are live.
        deg = [0] * n
        seen_entries = set()
        for key, pid in self.pairs.items():
            a, c = divmod(key, n)
            total = 0
            for eid, tail, head in ((2 * pid, a, c), (2 * pid + 1, c, a)):
                if e_tail[eid] != tail or e_head[eid] != head or a >= c:
                    bad.append(f"entry {eid} does not match pair ({a},{c})")
                cnt = e_cnt[eid]
                if cnt < 0:
                    bad.append(f"entry {eid} holds count {cnt}")
                elif cnt:
                    seen_entries.add(eid)
                deg[tail] += cnt
                total += cnt
            if total != self.b:
                bad.append(f"pair ({a},{c}) holds {total} copies, not b={self.b}")
        free = self._p_free
        for pid in free:
            if e_cnt[2 * pid] or e_cnt[2 * pid + 1]:
                bad.append(f"freed pair id {pid} still holds copies")
        ids = len(self.pairs) + len(free)
        if len(set(free).union(self.pairs.values())) != ids:
            bad.append("a pair id is both live and free, or twice either")
        if len(e_tail) != 2 * ids:
            bad.append(f"{len(e_tail)} entries for {ids} pair ids")
        for eid, bn in enumerate(self.e_bnode):
            if bn != -1 and eid not in seen_entries:
                bad.append(f"entry {eid} holds no copies but sits in a bucket")
        for u in range(n):
            if deg[u] != self.out_deg[u]:
                bad.append(f"out_deg[{u}]={self.out_deg[u]} but copies say {deg[u]}")
        # Ring integrity.
        ring_seen = set()
        for u in range(n):
            sz = self.out_sz[u]
            cur = self.cursor[u]
            if sz == 0:
                if cur != -1:
                    bad.append(f"vertex {u}: empty ring with a cursor")
                continue
            if cur < 0:
                bad.append(f"vertex {u}: ring of {sz} without cursor")
                continue
            e = cur
            count = 0
            ok = True
            while count < sz:
                if self.e_tail[e] != u or e not in seen_entries:
                    bad.append(f"vertex {u}: foreign entry {e} in ring")
                    ok = False
                    break
                if e in ring_seen:
                    bad.append(f"entry {e} linked into two rings")
                    ok = False
                    break
                ring_seen.add(e)
                if self.rn_prev[self.rn_next[e]] != e:
                    bad.append(f"vertex {u}: broken ring links at entry {e}")
                    ok = False
                    break
                e = self.rn_next[e]
                count += 1
            if ok and e != cur:
                bad.append(f"vertex {u}: ring does not close after {sz} steps")
        if len(ring_seen) != len(seen_entries):
            bad.append("some live entries are missing from rings")
        if self.long_rings != sum(sz > self.window for sz in self.out_sz):
            bad.append(f"long-ring count {self.long_rings} is stale")
        # Bucket integrity.  A recorded degree outside the key table would
        # read a wrong key (a negative index) or none.
        key_of = self.key_of
        bucket_seen = set()
        for v in range(n):
            bn = self.top_bucket[v]
            prev_key = None
            prev_bn = -1
            while bn >= 0:
                key = self.bn_key[bn]
                if prev_key is not None and key >= prev_key:
                    bad.append(f"vertex {v}: bucket keys not descending")
                if self.bn_prev[bn] != prev_bn:
                    bad.append(f"vertex {v}: bucket chain backlink broken")
                e = self.bn_head[bn]
                if e < 0:
                    bad.append(f"vertex {v}: empty bucket {key} kept alive")
                prev_e = -1
                while e >= 0:
                    if e in bucket_seen:
                        bad.append(f"entry {e} present in two buckets")
                        break
                    bucket_seen.add(e)
                    if self.e_head[e] != v:
                        bad.append(f"vertex {v}: foreign entry {e} in bucket")
                    if self.e_bnode[e] != bn:
                        bad.append(f"entry {e} bucket backlink broken")
                    if self.bk_prev[e] != prev_e:
                        bad.append(f"entry {e} sibling backlink broken")
                    p = self.e_perc[e]
                    if not 0 <= p < len(key_of):
                        bad.append(f"entry {e} records degree {p}, outside "
                                   f"0..{len(key_of) - 1}")
                    elif key_of[p] != key:
                        bad.append(
                            f"entry {e} in bucket {key}, expected {key_of[p]}")
                    prev_e = e
                    e = self.bk_next[e]
                prev_key = key
                prev_bn = bn
                bn = self.bn_next[bn]
        if len(bucket_seen) != len(seen_entries):
            bad.append("some live entries are missing from buckets")
        # At update boundaries recorded degrees are exact whenever the ring
        # fits in the refresh window: always in exact mode (window n), up to
        # rr_width in perceived mode.  Inside an update that defers its
        # refreshes they lag until the flush, or in a delete until a chain
        # reads the entry; see insert and delete.
        for eid in seen_entries:
            t = self.e_tail[eid]
            if self.out_sz[t] <= self.window:
                if self.e_perc[eid] != self.out_deg[t]:
                    bad.append(
                        f"entry {eid}: recorded degree {self.e_perc[eid]} "
                        f"!= exact {self.out_deg[t]}")
        return bad

    def _audit_skipped(self) -> bool:
        """Skip, and count, an audit on an update where a flip suppression
        fired: the audits assume a steady-state degree floor it lacks."""
        if self.last_suppressed:
            self.audits_skipped += 1
        return self.last_suppressed > 0

    def _audit_critical_ineq(self, t: int, h: int) -> None:
        """After any reorientation of a copy t->h:
        d+(t) > (1 + slack/4)(d+(h) - 1) + theta(1 - slack/128)."""
        if self._audit_skipped():
            return
        s = self.cfg.slack
        lhs = self.out_deg[t]
        rhs = (1 + s / 4) * (self.out_deg[h] - 1) \
            + self.cfg.theta * (1 - s / 128)
        if not lhs > rhs:
            raise CorruptionError(
                f"critical inequality failed on flip {t}->{h}: "
                f"{lhs} <= {rhs}")

    # Staleness lemma hooks, run after each commit in audit builds; perceived
    # mode only, since under the exact guard the lemmas do not hold.

    def _audit_post_increment(self, u: int) -> None:
        if not self.fast_mode or self._audit_skipped():
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
        if not self.fast_mode or self._audit_skipped():
            return
        s = self.cfg.slack
        theta = self.cfg.theta
        bound = (1 + 3 * s / 4) * self.out_deg[v] + theta
        for e in self.in_entries(v):
            if not self.e_perc[e] <= bound:
                raise CorruptionError(
                    f"post-decrement perceived bound failed at {v}: "
                    f"recorded {self.e_perc[e]} > {bound}")
