"""Ring mechanics, bucket moves, structural audits, event reconstruction."""

import tracemalloc
from fractions import Fraction

import pytest

from dynorient import (
    CorruptionError,
    DuplicateEdgeError,
    EventHasher,
    EventRecorder,
    GraphUpdateError,
    MissingEdgeError,
    OrientationConfig,
    OrientationStack,
)
from dynorient import events as ev
from dynorient.oracles import audit_state

from conftest import ALL_PRESETS, Fuzzer, OnCommit


def _base_101_cfg():
    """A perceived-mode config with bucket base 1.01."""
    return OrientationConfig(capacity=1200, eta=Fraction(16, 5), b=5,
                             gamma=1, theta=1)


def _stack32():
    return OrientationStack(OrientationConfig.simple_additive(32))


def _bump_degree(stack, v, aux):
    """Give v out-degree 1 via a fresh helper (tie routes the first arg)."""
    stack.insert(v, next(aux))


def _ring_of_three(stack):
    """Vertex 0 with out-ring [1, 2, 3] in insertion order, no flips.

    Hub degrees (1, 1, 2) keep the additive guard quiet while vertex 0
    climbs to out-degree 3, and the lower-degree tie rule keeps routing
    vertex 0 as the tail.
    """
    aux = iter(range(10, 32))
    for h in (1, 2, 3):
        _bump_degree(stack, h, aux)
    _bump_degree(stack, 4, aux)
    stack.insert(3, 4)  # hub 3 reaches out-degree 2
    for h in (1, 2, 3):
        stack.insert(0, h)
    assert stack.engine.out_deg[0] == 3
    assert stack.engine.last_copy_flips == 0


def _ring(engine, u):
    """Heads of u's out-ring in ring order from the cursor."""
    return [engine.e_head[e] for e in engine.out_entries(u)]


def test_ring_order_from_the_cursor():
    """Ring order from the cursor, which is the round-robin order."""
    stack = _stack32()
    _ring_of_three(stack)
    engine = stack.engine
    assert _ring(engine, 0) == [1, 2, 3]
    # the ring is circular: advancing the cursor rotates the order
    engine.cursor[0] = engine.rn_next[engine.rn_next[engine.cursor[0]]]
    assert _ring(engine, 0) == [3, 1, 2]
    # one round visits each entry once
    assert len(set(engine.out_entries(0))) == engine.out_sz[0] == 3


def test_ring_of_a_single_entry():
    stack = _stack32()
    aux = iter(range(10, 32))
    _bump_degree(stack, 1, aux)
    stack.insert(0, 1)
    engine = stack.engine
    assert _ring(engine, 0) == [1]
    e = engine.cursor[0]
    assert engine.rn_next[e] == e == engine.rn_prev[e]


def test_empty_ring_has_no_cursor():
    stack = _stack32()
    assert _ring(stack.engine, 5) == []
    assert stack.engine.cursor[5] == -1


def test_new_entry_visited_before_cursor_completes_its_round():
    stack = _stack32()
    aux = iter(range(10, 32))
    for h in (1, 2):
        _bump_degree(stack, h, aux)
    # vertex 3 needs out-degree 2 so the third edge still routes out of 0
    _bump_degree(stack, 3, aux)
    _bump_degree(stack, 4, aux)
    stack.insert(3, 4)
    assert stack.engine.out_deg[3] == 2

    stack.insert(0, 1)
    stack.insert(0, 2)
    engine = stack.engine
    assert _ring(engine, 0) == [1, 2]
    engine.cursor[0] = engine.rn_next[engine.cursor[0]]  # park at 2
    assert _ring(engine, 0) == [2, 1]
    stack.insert(0, 3)  # enters the ring immediately before the cursor
    assert engine.out_deg[0] == 3
    # the full round from the cursor reaches the newcomer last, and before
    # the cursor returns to where it rested when the entry was added
    assert _ring(engine, 0) == [2, 1, 3]


class TestMoveBucket:
    def _entry(self, stack):
        engine = stack.engine
        return next(e for v in range(stack.cfg.capacity)
                    for e in engine.out_entries(v))

    def test_same_bucket_updates_value_only(self):
        stack = OrientationStack(OrientationConfig.fast_additive(16))
        stack.insert(0, 1)
        engine = stack.engine
        eid = self._entry(stack)
        node_before = engine.e_bnode[eid]
        engine.move_bucket(eid, engine.e_perc[eid])
        assert engine.e_bnode[eid] == node_before

    def test_cross_bucket_move_and_sentinel(self):
        stack = OrientationStack(OrientationConfig.fast_additive(16))
        stack.insert(0, 1)
        engine = stack.engine
        eid = self._entry(stack)
        head = engine.e_head[eid]
        engine.move_bucket(eid, 50)
        assert engine.bn_key[engine.e_bnode[eid]] == stack.cfg.bucket_index(50)
        engine.move_bucket(eid, 0)  # degenerate degree: sentinel bucket
        assert engine.bn_key[engine.e_bnode[eid]] == -1
        assert engine.top_bucket[head] >= 0

    def test_geometric_refresh_moves_few_buckets(self):
        # A perceived value growing by at most the bucket base crosses O(1)
        # boundaries, which is what keeps refresh splices constant-time.
        cfg = _base_101_cfg()
        base = 1 + cfg.slack / 64
        # Degrees large enough that one bucket spans at least one integer;
        # below that, integer steps hop across empty buckets and the splice
        # walk skips them (only nonempty buckets are linked).
        for p in (120, 500, 2500):
            bumped = -((-p * base.numerator) // base.denominator)
            assert cfg.bucket_index(bumped) - cfg.bucket_index(p) <= 2

    @staticmethod
    def _chain_keys(engine, v):
        keys = []
        bn = engine.top_bucket[v]
        while bn >= 0:
            keys.append(engine.bn_key[bn])
            bn = engine.bn_next[bn]
        return keys

    @staticmethod
    def _bucket_violations(engine):
        # A forced move leaves the recorded degree deliberately stale; every
        # other structural invariant, bucket keys included, must hold.
        return [b for b in engine.structural_violations()
                if "recorded degree" not in b]

    def test_singleton_rekeyed_in_place_only_without_bucket_between(self):
        stack = _stack32()
        for t in (1, 2, 3):
            stack.insert(t, 0)     # three in-entries of 0, all at degree 1
        engine = stack.engine
        ent = {engine.e_tail[e]: e for e in engine.in_entries(0)}
        shared = engine.e_bnode[ent[1]]
        check = self._bucket_violations

        # Out of a shared bucket: a fresh node, the old one stays.
        engine.move_bucket(ent[1], 5)
        assert engine.e_bnode[ent[1]] != shared
        assert self._chain_keys(engine, 0) == [5, 1]
        assert check(engine) == []

        # Alone, nothing between old and new key: the node is re-keyed.
        node = engine.e_bnode[ent[1]]
        nodes = len(engine.bn_key)
        engine.move_bucket(ent[1], 6)
        engine.move_bucket(ent[1], 4)
        assert engine.e_bnode[ent[1]] == node
        assert self._chain_keys(engine, 0) == [4, 1]
        assert len(engine.bn_key) == nodes
        assert check(engine) == []

        # Alone, but a bucket lies between: the node is re-keyed and
        # relinked into the right slot, and no node is taken or freed.
        def relink(eid, degree, keys, top):
            node = engine.e_bnode[eid]
            sizes = (len(engine.bn_key), len(engine._bn_free))
            engine.move_bucket(eid, degree)
            assert engine.e_bnode[eid] == node
            assert self._chain_keys(engine, 0) == keys
            assert (len(engine.bn_key), len(engine._bn_free)) == sizes
            assert engine.top_bucket[0] == engine.e_bnode[top]
            assert next(engine.in_entries(0), -1) == top
            assert check(engine) == []

        engine.move_bucket(ent[2], 3)
        assert self._chain_keys(engine, 0) == [4, 3, 1]
        relink(ent[1], 2, [3, 2, 1], top=ent[2])   # top node down one
        relink(ent[3], 5, [5, 3, 2], top=ent[3])   # bottom node to the top
        relink(ent[3], 1, [3, 2, 1], top=ent[2])   # top node to the bottom

        for e in ent.values():
            engine.move_bucket(e, 1)
        assert self._chain_keys(engine, 0) == [1]
        assert audit_state(stack) == []

    def test_move_past_a_bucket_joins_existing_key_without_allocating(self):
        stack = _stack32()
        for t in (1, 2, 3, 4):
            stack.insert(t, 0)     # four in-entries of 0, all at degree 1
        engine = stack.engine
        ent = {engine.e_tail[e]: e for e in engine.in_entries(0)}
        engine.move_bucket(ent[1], 5)
        engine.move_bucket(ent[2], 3)
        assert self._chain_keys(engine, 0) == [5, 3, 1]
        nodes = len(engine.bn_key)
        free = len(engine._bn_free)

        # Up from a shared bucket, past 3, into the bucket of key 5.
        engine.move_bucket(ent[3], 5)
        assert engine.e_bnode[ent[3]] == engine.e_bnode[ent[1]]
        assert next(engine.in_entries(0), -1) == ent[3]
        # Down from a shared bucket, past 3, into the bucket of key 1.
        engine.move_bucket(ent[1], 1)
        assert engine.e_bnode[ent[1]] == engine.e_bnode[ent[4]]
        assert self._chain_keys(engine, 0) == [5, 3, 1]
        assert (len(engine.bn_key), len(engine._bn_free)) == (nodes, free)
        assert self._bucket_violations(engine) == []

    def test_detached_entry_is_corruption(self):
        stack = OrientationStack(OrientationConfig.fast_additive(16))
        stack.insert(0, 1)
        engine = stack.engine
        eid = self._entry(stack)
        engine._bucket_detach(engine.e_head[eid], eid)
        with pytest.raises(CorruptionError):
            engine.move_bucket(eid, 3)


def _check_key_table(cfg):
    # One key per degree 0..(N-1)*b: the degree itself in exact mode, the
    # reference cfg.bucket_index in perceived mode.
    engine = OrientationStack(cfg).engine
    size = (cfg.capacity - 1) * cfg.b + 1
    assert len(engine.key_of) == size
    if cfg.is_fast():
        assert engine.key_of == [cfg.bucket_index(d) for d in range(size)]
    else:
        assert engine.key_of == list(range(size))


def test_key_table_matches_bucket_index(any_preset_cfg):
    _check_key_table(any_preset_cfg)


def test_key_table_with_repeated_thresholds():
    # Base 1.01: many low thresholds repeat, so their degrees take the key
    # of the last threshold of each run.
    cfg = _base_101_cfg()
    ts = cfg.bucket_thresholds()
    assert len(set(ts)) < len(ts)
    _check_key_table(cfg)


def test_stack_build_allocation_is_bounded():
    # eps-density at n = 100,000 tabulates 8.0 M keys.  Filled a run of
    # degrees at a time, the table holds one int object per key, and the
    # build's traced peak stays near the list itself (about 90 MB); a fresh
    # int per degree would add some 240 MB.
    cfg = OrientationConfig.eps_density(100_000, Fraction(1, 2))
    tracemalloc.start()
    try:
        stack = OrientationStack(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stack.engine.key_of) == (cfg.capacity - 1) * cfg.b + 1
    assert peak < 150 * 2**20, peak


def test_full_state_audit_clean_after_fuzz(any_preset_cfg):
    stack = OrientationStack(any_preset_cfg)
    Fuzzer(stack, seed=42).run(350)
    assert audit_state(stack) == []


@pytest.mark.parametrize("preset", ["simple-multiplicative",
                                    "fast-multiplicative"])
def test_wrappers_set_between_updates_see_the_next_ones(preset):
    # insert and delete look up _flip_copy, move_bucket and the recorder on
    # the instance once per update, so wrappers and a recorder set after
    # the engine has run see every flip, re-key and commit (its
    # OUT_DEGREE_CHANGED event) of each later update.  A re-key made while
    # the update still defers is a deletion chain's own re-key of a stale
    # top entry.
    stack = OrientationStack(OrientationConfig.from_preset(preset, 24))
    engine = stack.engine
    fz = Fuzzer(stack, seed=5)
    fz.run(100)
    seen = {"flips": 0, "commits": 0, "moves": 0, "deferred": 0}
    flip_copy, move_bucket = engine._flip_copy, engine.move_bucket

    def flip(eid):
        seen["flips"] += 1
        flip_copy(eid)

    def counted_commit(u):
        seen["commits"] += 1

    def move(eid, degree):
        seen["moves"] += 1
        seen["deferred"] += engine.deferring
        move_bucket(eid, degree)

    engine._flip_copy = flip
    engine.recorder = OnCommit(counted_commit)
    engine.move_bucket = move
    totals = {True: dict.fromkeys(seen, 0), False: dict.fromkeys(seen, 0)}
    for _ in range(200):
        before = dict(seen)
        live = len(fz.live)
        fz.step()
        delta = {k: seen[k] - before[k] for k in seen}
        assert delta["commits"] == engine.b
        assert delta["flips"] == engine.last_copy_flips
        for k, d in delta.items():
            totals[len(fz.live) > live][k] += d
    inserts, deletes = totals[True], totals[False]
    assert inserts["flips"] > 0 and inserts["moves"] > 0
    assert deletes["flips"] > 0 and deletes["deferred"] > 0


class _ScanModel:
    """Checks every insertion-chain scan against a reference scan.

    The model is the engine's recorder and wraps its ``_flip_copy``, so it
    sees the ring of each chain vertex c just before its scan (right after
    the copy was added at c or flipped to c) and the scan's outcome just
    after: the flip of the chosen entry, or the commit at c.  Exact mode
    takes the argmin of the head degrees over the whole ring, the first in
    ring order from the cursor winning ties.  Perceived mode takes the
    first violation within the window from the cursor and leaves the
    cursor right after it, or after the window.  A violation that would not
    lower the chain's degree counts as a suppression."""

    def __init__(self, engine):
        self.engine = engine
        cfg = engine.cfg
        s, theta = cfg.slack, cfg.theta
        if cfg.is_fast():
            self.fires = lambda dt, dx: dt + 1 > (1 + s / 2) * dx + theta
        else:
            self.fires = lambda dt, dx: not cfg.invariant_ok(dt + 1, dx)
        self.at = None
        self.seen = dict.fromkeys(("flips", "ties", "suppressed", "cut"), 0)
        flip_copy = engine._flip_copy

        def flip(eid):
            chain = self.at is not None
            if chain:
                self.check(eid)
            flip_copy(eid)
            if chain:
                self.look(engine.e_head[eid])

        engine._flip_copy = flip
        engine.recorder = self

    def emit(self, kind, u, v, payload=None):
        if kind == ev.COPY_ADDED:
            self.look(u)
        elif kind == ev.COPY_REMOVED:
            self.at = None
        elif kind == ev.OUT_DEGREE_CHANGED and self.at is not None:
            assert self.at[0] == u
            self.check(-1)
            self.at = None

    def look(self, c):
        engine = self.engine
        self.at = (c, engine.out_deg[c], list(engine.out_entries(c)),
                   engine.last_suppressed)

    def check(self, eid):
        engine = self.engine
        c, dt, ring, suppressed = self.at
        degs = [engine.out_deg[engine.e_head[e]] for e in ring]
        want = -1
        if engine.fast_mode:
            k = min(len(ring), engine.window)
            stop = k
            for i in range(k):
                if self.fires(dt, degs[i]):
                    if degs[i] < dt:
                        want, stop = ring[i], i + 1
                        break
                    suppressed += 1
            assert engine.cursor[c] == ring[stop % len(ring)]
            self.seen["cut"] += k < len(ring)
        else:
            best = min(degs)
            if self.fires(dt, best):
                if best < dt:
                    want = ring[degs.index(best)]
                    self.seen["ties"] += degs.count(best) > 1
                else:
                    suppressed += 1
        assert eid == want, (c, ring, degs)
        self.seen["suppressed"] += suppressed - self.at[3]
        assert engine.last_suppressed == suppressed
        self.seen["flips"] += eid >= 0


# (preset, window override, what the run must have seen at least once):
# exact-mode ties and suppressions, perceived-mode suppressions, and scans
# cut short by a window smaller than the ring.
SCAN_CASES = [
    ("simple-additive", None, ("flips",)),
    ("simple-multiplicative", None, ("flips", "ties", "suppressed")),
    ("fast-additive", None, ("flips",)),
    ("fast-multiplicative", None, ("flips", "suppressed")),
    ("fast-additive", 4, ("flips", "cut")),
    ("fast-multiplicative", 4, ("flips", "suppressed", "cut")),
]


@pytest.mark.parametrize("preset,width,seen", SCAN_CASES,
                         ids=[f"{p}-{w}" for p, w, _ in SCAN_CASES])
def test_insert_scan_matches_the_reference(preset, width, seen):
    cfg = dict(ALL_PRESETS)[preset](24)
    if width is not None:
        cfg.rr_width = width
    stack = OrientationStack(cfg)
    model = _ScanModel(stack.engine)
    Fuzzer(stack, seed=13).run(400)
    assert [k for k in seen if not model.seen[k]] == []
    assert audit_state(stack) == []


def _replay_counts(events) -> dict:
    """Per-pair copy counts (low->high, high->low) rebuilt from a stream."""
    counts: dict = {}
    for e in events:
        if e.kind not in ("copy_added", "copy_removed", "copy_flipped"):
            continue
        c = counts.setdefault((min(e.u, e.v), max(e.u, e.v)), [0, 0])
        side = 0 if e.u < e.v else 1    # the copy's (old) direction
        if e.kind == "copy_added":
            c[side] += 1
        else:
            c[side] -= 1
            if e.kind == "copy_flipped":
                c[1 - side] += 1
    return {k: tuple(c) for k, c in counts.items() if c != [0, 0]}


def test_event_stream_reconstructs_copy_counts():
    rec = EventRecorder()
    cfg = OrientationConfig.fast_multiplicative(24)
    stack = OrientationStack(cfg, recorder=rec)
    Fuzzer(stack, seed=7).run(120)
    counts = _replay_counts(rec.events)
    engine = stack.engine
    live = {(a, b): engine.copy_counts(a, b) for a, b in engine.edges()}
    assert counts == live


def test_insert_and_delete_return_their_events():
    rec = EventRecorder()
    cfg = OrientationConfig.fast_additive(8)
    stack = OrientationStack(cfg, recorder=rec)
    assert stack.insert(0, 1) is None
    kinds = [e.kind for e in rec.events]
    assert kinds.count("copy_added") == cfg.b
    assert kinds[-1] == "simple_inserted"
    mark = len(rec.events)
    assert stack.delete(0, 1) is None
    kinds = [e.kind for e in rec.events[mark:]]
    assert kinds[0] == "simple_deleted"
    assert kinds.count("copy_removed") == cfg.b


@pytest.mark.parametrize("u, v", [(0, 2), (2, 0), (1, 2)])
def test_copy_counts_rejects_a_missing_pair(u, v):
    stack = OrientationStack(OrientationConfig.fast_additive(8))
    stack.insert(0, 1)
    stack.insert(1, 2)
    stack.delete(1, 2)
    assert sum(stack.engine.copy_counts(1, 0)) == stack.cfg.b
    with pytest.raises(MissingEdgeError, match=rf"edge \({u}, {v}\) not"):
        stack.engine.copy_counts(u, v)


@pytest.mark.parametrize("op, u, v, exc", [
    ("insert", 1.0, 2, TypeError),
    ("insert", 0, "5", TypeError),
    ("insert", 0, 16, GraphUpdateError),
    ("insert", -1, 5, GraphUpdateError),
    ("insert", 4, 4, GraphUpdateError),
    ("insert", 2, 1, DuplicateEdgeError),
    ("delete", 1.0, 2, TypeError),
    ("delete", 0, 16, GraphUpdateError),
    ("delete", 4, 4, GraphUpdateError),
    ("delete", 2, 5, MissingEdgeError),
])
def test_rejected_update_changes_nothing(op, u, v, exc):
    hasher = EventHasher()
    stack = OrientationStack(OrientationConfig.fast_multiplicative(16),
                             recorder=hasher)
    stack.attach_matching()
    stack.attach_coloring()
    stack.attach_forests()
    stack.attach_matvec()
    for e in ((0, 1), (1, 2), (2, 3), (3, 0)):
        stack.insert(*e)
    engine = stack.engine

    def snapshot():
        # No pair id or entry is allocated or freed by a rejected update.
        return (hasher.digest, hasher.count, sorted(engine.edges()),
                len(engine.e_tail), dict(engine.pairs), list(engine._p_free))

    before = snapshot()
    with pytest.raises(exc):
        getattr(stack, op)(u, v)
    assert audit_state(stack) == []
    assert snapshot() == before
    # A rejected update touched nothing, so the engine is not broken.
    assert engine.broken is None
