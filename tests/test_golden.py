"""Golden digests: two pinned workloads per preset, full stack.

Each run attaches all four applications and an EventHasher and replays a
seeded ``random`` or ``drifting-density`` workload.  The pinned values are
the event digest and count, the engine's flip and suppression totals, the
rounding's simple-flip total, SHA-256 digests of the final engine, rounding
and application state, and the numbers of bucket re-keys and of bucket
nodes allocated.  A refactor or optimisation of the update path must leave
every digest unchanged; an optimisation that saves re-keys or nodes, or a
deliberate behaviour change, re-pins what it moves and says why.  ``replay``'s query answers are pinned too, on
one eps-density workload with queries.
"""

import csv
import hashlib
import io
import random
from fractions import Fraction

import pytest

from dynorient import EventHasher, OrientationConfig, OrientationStack
from dynorient.harness import EventLogWriter, replay
from dynorient.oracles import audit_state
from dynorient.workload import generate, parse_workload

N = 64
STEPS = 1500
SEED = 2209

BUILDERS = {
    "simple-additive": OrientationConfig.simple_additive,
    "simple-multiplicative": OrientationConfig.simple_multiplicative,
    "fast-additive": OrientationConfig.fast_additive,
    "fast-multiplicative": OrientationConfig.fast_multiplicative,
    "eps-density": lambda n: OrientationConfig.eps_density(n, 0.5),
}

# preset -> (event digest, event count, copy flips, suppressed,
#            simple flips, engine/rounding state hash, application hash)
GOLDEN = {
    "simple-additive": ("af05a44f7f4d6180", 4554, 54, 0, 54,
                        "25154d753e3b9a2d", "dce5dbdbb0b2f0f0"),
    "simple-multiplicative": ("ddc30444302c10d3", 34327, 2827, 336, 375,
                              "6c84c386a5c02038", "4f34c44952009dd5"),
    "fast-additive": ("f94f52977fa9fef9", 22660, 3160, 0, 596,
                      "51c589849c240152", "42c2777c546afdab"),
    "fast-multiplicative": ("44ba19618aa527cb", 44191, 6691, 686, 659,
                            "4b3f7e6c92e0487f", "ad61b72d39a2e691"),
    "eps-density": ("218c9d051901c90a", 340594, 99094, 4494, 1303,
                    "e62495f452a0ec77", "bd962e1f52d225d6"),
}

# Bucket re-keys (``engine.move_bucket`` calls) on the pinned workload: the
# work a refresh does, which the digests cannot see.  Inserts and deletes
# refresh each ring once, after the last copy, and skip the scan's and the
# join's re-keys of a vertex waiting for that refresh; with b = 1
# (simple-additive) there is nothing to defer.  A deletion chain re-keys
# early only the stale entry on top of the in-buckets it reads.
MOVES = {
    "simple-additive": 2428,
    "simple-multiplicative": 14301,
    "fast-additive": 14970,
    "fast-multiplicative": 21386,
    "eps-density": 107790,
}

# Bucket nodes ever allocated (``len(engine.bn_key)``) on the pinned
# workload.  A node is allocated only when a splice finds the free list
# empty; a re-key of an entry alone in its bucket to a key no bucket holds
# moves that node itself, so it neither frees nor takes one.
BUCKET_NODES = {
    "simple-additive": 98,
    "simple-multiplicative": 210,
    "fast-additive": 156,
    "fast-multiplicative": 188,
    "eps-density": 194,
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def snapshot(preset: str, audit_hooks: bool = False, lines=None) -> tuple:
    """Replay workload ``lines`` under ``preset`` (by default the pinned
    ``random`` one); return the digests, the number of ``counts_changed``
    notifications rounding received and the number of ``move_bucket``
    calls the engine made, and the number of bucket nodes it allocated."""
    if lines is None:
        lines = generate("random", N, STEPS, seed=SEED, max_edges=2 * N)
    n, ops = parse_workload(lines)
    hasher = EventHasher()
    stack = OrientationStack(BUILDERS[preset](n), recorder=hasher,
                             audit_hooks=audit_hooks)
    notified = 0
    moves = 0
    counts_changed = stack.rounding.counts_changed
    move_bucket = stack.engine.move_bucket

    def counting(*args):
        nonlocal notified
        notified += 1
        counts_changed(*args)

    def counting_moves(*args):
        nonlocal moves
        moves += 1
        move_bucket(*args)

    stack.rounding.counts_changed = counting
    stack.engine.move_bucket = counting_moves
    matching = stack.attach_matching()
    coloring = stack.attach_coloring()
    forests = stack.attach_forests()
    matvec = stack.attach_matvec()
    for op in ops:
        if op.kind == "+":
            stack.insert(op.u, op.v)
        else:
            stack.delete(op.u, op.v)
    assert audit_state(stack) == []
    engine = stack.engine
    state = _sha((engine.out_deg, sorted(stack.rounding.edges())))
    apps = _sha((matching.mate, coloring.color,
                 sorted(forests.by_edge.items()), matvec.s))
    return (f"{hasher.digest:016x}", hasher.count, engine.total_copy_flips,
            engine.total_suppressed, stack.rounding.total_simple_flips,
            state, apps), notified, moves, len(engine.bn_key)


@pytest.mark.parametrize("preset", sorted(BUILDERS))
def test_golden_digest(preset):
    digests, notified, moves, nodes = snapshot(preset)
    assert digests == GOLDEN[preset]
    # Rounding hears of each majority crossing once, which reorients a
    # visible pair, and of no other copy change.
    assert notified == digests[4]
    assert moves == MOVES[preset]
    assert nodes == BUCKET_NODES[preset]


@pytest.mark.parametrize("preset",
                         ["simple-multiplicative", "fast-multiplicative"])
def test_golden_digest_with_audit_hooks(preset):
    # The in-flight audits only read state: the same digests, and none of
    # them fails on the pinned workload.
    digests, _, _, _ = snapshot(preset, audit_hooks=True)
    assert digests == GOLDEN[preset]


# The text event log of the pinned ``random`` workload, as ``replay
# --event-log`` writes it: SHA-256 prefix and line count.  Pins the log
# format, which the event digests above do not see.
EVENT_LOG_GOLDEN = {
    "simple-multiplicative": ("e2e2e2e39c960b18", 34327),
    "fast-multiplicative": ("715048d3cf2e37a3", 44191),
}


@pytest.mark.parametrize("preset", sorted(EVENT_LOG_GOLDEN))
def test_golden_event_log(preset):
    n, ops = parse_workload(generate("random", N, STEPS, seed=SEED,
                                     max_edges=2 * N))
    log = io.StringIO()
    replay(n, ops, BUILDERS[preset](n), recorder=EventLogWriter(log))
    text = log.getvalue()
    assert (hashlib.sha256(text.encode()).hexdigest()[:16],
            text.count("\n")) == EVENT_LOG_GOLDEN[preset]


# The per-op CSV that ``replay`` writes for the pinned ``random`` workload,
# with the ``wall_nanos`` column blanked: SHA-256 prefix of the re-written
# CSV and the number of data rows.  Pins the columns and every per-op
# counter in them, which the digests above see only as totals: among them
# each update's scan steps and flip suppressions.
CSV_GOLDEN = {
    "simple-additive": ("f4b855ad1fecfe75", 1500),
    "simple-multiplicative": ("902fa2478698b12b", 1500),
    "fast-additive": ("0d810a4a26bf2a2a", 1500),
    "fast-multiplicative": ("556d8cc54cd8b126", 1500),
    "eps-density": ("d9ef202ea9c95e51", 1500),
}


@pytest.mark.parametrize("preset", sorted(BUILDERS))
def test_golden_replay_csv(preset):
    n, ops = parse_workload(generate("random", N, STEPS, seed=SEED,
                                     max_edges=2 * N))
    out = io.StringIO()
    replay(n, ops, BUILDERS[preset](n), csv_out=out)
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    wall = rows[0].index("wall_nanos")
    assert all(int(row[wall]) > 0
               for row in rows[1:] if row[1] in ("+", "-"))
    suppressed = rows[0].index("suppressed")
    assert sum(int(row[suppressed]) for row in rows[1:]) == GOLDEN[preset][3]
    for row in rows[1:]:
        row[wall] = ""
    blanked = io.StringIO()
    csv.writer(blanked).writerows(rows)
    assert (hashlib.sha256(blanked.getvalue().encode()).hexdigest()[:16],
            len(rows) - 1) == CSV_GOLDEN[preset]


# Dense churn in exact-degree mode (6n edge cap, twice the steps): many
# inserts re-commit a vertex after another vertex committed, so the order in
# which an insert refreshes rings shows in the bucket sibling order, and
# through it in which in-neighbour each later deletion flips toward.
DENSE_GOLDEN = ("321305b053ec08e7", 66105, 3105, 327, 416,
                "c5abf0d379d41716", "8ac98cee55621c05")


def test_golden_digest_dense_churn():
    digests, notified, _, _ = snapshot(
        "simple-multiplicative",
        lines=generate("random", N, 2 * STEPS, seed=SEED, max_edges=6 * N))
    assert digests == DENSE_GOLDEN
    assert notified == digests[4]


# Drifting density: sparse churn on n=48 while a 16-clique grows and then
# dissolves (1,168 ops).  The clique's vertices hold the longest in-bucket
# chains of any pinned workload, so bucket moves cross and join buckets far
# more often than under sparse churn.  Same fields as GOLDEN and MOVES.
DRIFT_N = 48
DRIFT_GOLDEN = {
    "simple-additive": ("c01d28154b5c63c2", 3593, 89, 0, 89,
                        "674b849f65e9b00b", "cc45073c17cf6504"),
    "simple-multiplicative": ("7d1af81c2e174357", 26767, 2239, 24, 267,
                              "c01b7904d5a09f17", "6926fbd28b184ea6"),
    "fast-additive": ("867fcaf4f76c6ac5", 17781, 2597, 0, 492,
                      "2f6c88e92e9a5a0a", "5f158412410173b9"),
    "fast-multiplicative": ("aeb7e3fe39e0ff1c", 34711, 5511, 48, 545,
                            "8bd9dfed6cc76ce3", "898e76d482cde484"),
    "eps-density": ("7648c62c61458321", 271214, 83166, 320, 1088,
                    "1cea439457d64fbc", "6855c6a3e0394207"),
}
DRIFT_MOVES = {
    "simple-additive": 2686,
    "simple-multiplicative": 17474,
    "fast-additive": 17320,
    "fast-multiplicative": 26921,
    "eps-density": 109177,
}


@pytest.mark.parametrize("preset", sorted(BUILDERS))
def test_golden_digest_drifting_density(preset):
    lines = generate("drifting-density", DRIFT_N, 4000, seed=SEED, clique=16)
    digests, notified, moves, _ = snapshot(preset, lines=lines)
    assert digests == DRIFT_GOLDEN[preset]
    assert notified == digests[4]
    assert moves == DRIFT_MOVES[preset]


# Stale-degree regime: with b=1 and eta=99/100 the round-robin window is
# rr_width=130, so rings of K_300 outgrow it and recorded degrees go stale;
# the presets never get there at test sizes.  Pinned: event digest and count,
# copy flips, a hash of the final out-degrees, the number of stale recorded
# degrees and a hash of every recorded degree (which entries the round-robin
# refreshes reached).
STALE_N = 300
STALE_SEED = 2209
STALE_GOLDEN = ("d630db37b540bfd6", 148213, 208, "3e70ff2877679890",
                1435, "a2894235a1e8c734")


def _live_entries(engine) -> list:
    return [eid for u in range(engine.n) for eid in engine.out_entries(u)]


def _stale_count(engine) -> int:
    """Live entries whose recorded degree differs from the tail's exact one."""
    return sum(1 for eid in _live_entries(engine)
               if engine.e_perc[eid] != engine.out_deg[engine.e_tail[eid]])


def test_golden_digest_stale_regime():
    cfg = OrientationConfig(STALE_N, Fraction(99, 100), 1, 1, theta=1)
    assert cfg.rr_width == 130
    hasher = EventHasher()
    stack = OrientationStack(cfg, recorder=hasher)
    edges = [(i, j) for i in range(STALE_N) for j in range(i + 1, STALE_N)]
    rng = random.Random(STALE_SEED)
    rng.shuffle(edges)
    for u, v in edges:
        stack.insert(u, v)
    for u, v in rng.sample(edges, len(edges) // 10):
        stack.delete(u, v)
    assert audit_state(stack) == []
    engine = stack.engine
    assert max(engine.out_sz) > cfg.rr_width
    live = _live_entries(engine)
    stale = _stale_count(engine)
    assert stale > 0
    recorded = sorted((engine.e_tail[eid], engine.e_head[eid],
                       engine.e_perc[eid]) for eid in live)
    assert (f"{hasher.digest:016x}", hasher.count, engine.total_copy_flips,
            _sha(engine.out_deg), stale, _sha(recorded)) == STALE_GOLDEN


# Stale regime with b > 1: fast-multiplicative (b=12) with the window cut to
# 4, so rings outgrow it and an update's copies commit while some ring is
# longer than the window; at least one delete's flip pushes a ring past the
# window while the delete defers, and flushes mid-chain; rings that shrink
# back into the window mid-update are refreshed whole at its end.  Pinned:
# event digest and count, copy flips and the number of stale recorded
# degrees.
SMALL_WINDOW_N = 48
SMALL_WINDOW_GOLDEN = ("443c7596c297c6d9", 59582, 9582, 7)


def test_golden_digest_small_window():
    cfg = OrientationConfig.fast_multiplicative(SMALL_WINDOW_N)
    cfg.rr_width = 4
    hasher = EventHasher()
    stack = OrientationStack(cfg, recorder=hasher)
    engine = stack.engine
    ring_insert = engine._ring_insert
    deleting = False
    delete_flushes = 0

    def counting(eid, u):
        # _ring_insert flushes when a deferring update outgrows the window.
        nonlocal delete_flushes
        if (deleting and engine.deferring
                and engine.out_sz[u] == engine.window):
            delete_flushes += 1
        ring_insert(eid, u)

    engine._ring_insert = counting
    _, ops = parse_workload(generate("random", SMALL_WINDOW_N, 2000, seed=2,
                                     max_edges=2 * SMALL_WINDOW_N))
    for op in ops:
        deleting = op.kind != "+"
        if deleting:
            stack.delete(op.u, op.v)
        else:
            stack.insert(op.u, op.v)
    assert audit_state(stack) == []
    assert delete_flushes >= 1
    assert max(engine.out_sz) == 6 > engine.window
    assert (f"{hasher.digest:016x}", hasher.count, engine.total_copy_flips,
            _stale_count(engine)) == SMALL_WINDOW_GOLDEN


# ``replay``'s query answers under eps-density on the drifting-density
# workload, with a ``? density`` and a ``? densest`` line after every third
# update: SHA-256 prefix of the answer lines and their number.  A densest
# answer lists its vertices by degree descending and ties by id, so it
# depends on the degrees alone, not on the order in which the tracker was
# told of them.
QUERY_GOLDEN = ("eb02c7cc9dfd2c92", 778)


def test_golden_query_answers():
    lines = generate("drifting-density", DRIFT_N, 4000, seed=SEED, clique=16)
    with_queries = [lines[0]]
    for i, line in enumerate(lines[1:], start=1):
        with_queries.append(line)
        if i % 3 == 0:
            with_queries += ["? density", "? densest"]
    n, ops = parse_workload(with_queries)
    result = replay(n, ops, BUILDERS["eps-density"](n))
    text = "".join(line + "\n" for line in result.query_lines)
    assert (hashlib.sha256(text.encode()).hexdigest()[:16],
            len(result.query_lines)) == QUERY_GOLDEN
