"""Golden digests: one pinned random workload per preset, full stack.

Each run attaches all four applications and an EventHasher and replays a
seeded ``random`` workload.  The pinned values are the event digest and
count, the engine's flip and suppression totals, the rounding's simple-flip
total, and SHA-256 digests of the final engine, rounding and application
state.  A refactor or optimisation of the update path must leave every one
of them unchanged; a deliberate behaviour change re-pins them and says why.
"""

import hashlib

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


def snapshot(preset: str) -> tuple:
    """Replay the pinned workload under ``preset`` and return the digests."""
    hasher = EventHasher()
    stack = OrientationStack(BUILDERS[preset](N), recorder=hasher)
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
            state, apps)


@pytest.mark.parametrize("preset", sorted(BUILDERS))
def test_golden_digest(preset):
    assert snapshot(preset) == GOLDEN[preset]
