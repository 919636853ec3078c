"""Golden digests: one pinned random workload per preset, full stack.

Each run attaches all four applications and an EventHasher and replays a
seeded ``random`` workload.  The pinned values are the event digest and
count, the engine's flip and suppression totals, the rounding's simple-flip
total, and SHA-256 digests of the final engine, rounding and application
state.  A refactor or optimisation of the update path must leave every one
of them unchanged; a deliberate behaviour change re-pins them and says why.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from dynorient import EventHasher, OrientationConfig, OrientationStack
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
    "fast-multiplicative": ("372c15802741addb", 44191, 6691, 686, 659,
                            "4b3f7e6c92e0487f", "ad61b72d39a2e691"),
    "eps-density": ("704c37fc0150766a", 340607, 99107, 4494, 1287,
                    "87d5da1a73742e46", "33adda7d5305bb09"),
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def snapshot(preset: str, audit_hooks: bool = False) -> tuple:
    """Replay the pinned workload under ``preset``; return the digests and
    the number of ``counts_changed`` notifications rounding received."""
    hasher = EventHasher()
    stack = OrientationStack(BUILDERS[preset](N), recorder=hasher,
                             audit_hooks=audit_hooks)
    notified = 0
    counts_changed = stack.rounding.counts_changed

    def counting(*args):
        nonlocal notified
        notified += 1
        counts_changed(*args)

    stack.rounding.counts_changed = counting
    matching = stack.attach_matching()
    coloring = stack.attach_coloring()
    forests = stack.attach_forests()
    matvec = stack.attach_matvec()
    _, ops = parse_workload(generate("random", N, STEPS, seed=SEED))
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
            state, apps), notified


@pytest.mark.parametrize("preset", sorted(BUILDERS))
def test_golden_digest(preset):
    digests, notified = snapshot(preset)
    assert digests == GOLDEN[preset]
    # Rounding hears of each copy flip once, and of no other copy change:
    # a pair being placed or drained is invisible to it.
    assert notified == digests[2]


@pytest.mark.parametrize("preset",
                         ["simple-multiplicative", "fast-multiplicative"])
def test_golden_digest_with_audit_hooks(preset):
    # The in-flight audits only read state: the same digests, and none of
    # them fails on the pinned workload.
    digests, _ = snapshot(preset, audit_hooks=True)
    assert digests == GOLDEN[preset]


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
    live = [eid for pid in engine.pairs.values()
            for eid in (engine.p_eab[pid], engine.p_eba[pid]) if eid >= 0]
    stale = sum(1 for eid in live
                if engine.e_perc[eid] != engine.out_deg[engine.e_tail[eid]])
    assert stale > 0
    recorded = sorted((engine.e_tail[eid], engine.e_head[eid],
                       engine.e_perc[eid]) for eid in live)
    assert (f"{hasher.digest:016x}", hasher.count, engine.total_copy_flips,
            _sha(engine.out_deg), stale, _sha(recorded)) == STALE_GOLDEN
