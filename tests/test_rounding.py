"""Majority rounding: crossings, ties, degree tracking, arboricity bound."""

from fractions import Fraction

import pytest

from dynorient import (
    CorruptionError,
    EventRecorder,
    OrientationConfig,
    OrientationStack,
    RoundedOrientation,
)
from dynorient.oracles import audit_state, exact_arboricity

from conftest import Fuzzer, clique_edges


def _points(r, tail, head):
    """Whether the simple adjacency orients the edge tail->head."""
    return head in r.out[tail] and tail not in r.out[head]


def test_unit_b_every_visible_copy_flip_reorients():
    # With b = 1 a majority is a single copy, so every flip of a visible
    # pair reorients it; only flips landing on the pair currently being
    # placed or drained stay silent.  Visibility is replayed off the
    # event stream itself.
    rec = EventRecorder()
    stack = OrientationStack(OrientationConfig.simple_additive(32),
                             recorder=rec)
    Fuzzer(stack, seed=2, max_edges=100).run(1500)
    live = set()
    visible = 0
    for e in rec.events:
        key = (min(e.u, e.v), max(e.u, e.v))
        if e.kind == "simple_inserted":
            live.add(key)
        elif e.kind == "simple_deleted":
            live.discard(key)
        elif e.kind == "copy_flipped" and key in live:
            visible += 1
    assert visible > 0
    assert stack.rounding.total_simple_flips == visible


def test_majority_crossing_direction_change():
    r = RoundedOrientation(8)
    seen = []

    class Probe:
        def on_flip(self, tail, head):
            seen.append((tail, head))

        def on_insert(self, tail, head):
            pass

        def on_delete(self, tail, head):
            pass

        def on_degree(self, u, d):
            pass

    r.register(Probe())
    r.simple_inserted(1, 5, 4, 2)           # majority 1->5
    assert _points(r, 1, 5)
    r.counts_changed(1, 5, 3, 3)            # tie: lexicographic tail keeps 1
    assert _points(r, 1, 5) and seen == []
    r.counts_changed(1, 5, 2, 4)            # crossing: flips exactly here
    assert _points(r, 5, 1) and seen == [(5, 1)]
    r.counts_changed(1, 5, 1, 5)
    assert seen == [(5, 1)]                 # no further change


def _hearing(stack, busy=None):
    """Record, and forward, every ``counts_changed`` call the engine makes,
    with the pair ``busy[0]`` names at the time of the call."""
    heard = []
    real = stack.rounding.counts_changed

    def hear(*args):
        heard.append(args if busy is None else (args, busy[0]))
        real(*args)

    stack.rounding.counts_changed = hear
    return heard


@pytest.mark.parametrize("b", [4, 5])
def test_engine_tells_rounding_exactly_the_majority_crossings(b):
    # Pair {2, 5} is driven copy by copy, through its ties, to all copies
    # 5->2, then to all 2->5, then back to the counts the insert left.
    # Rounding hears each flip that moves the majority (ties toward 2),
    # with the final counts, and no other flip; placing and draining the
    # copies make no call.
    stack = OrientationStack(OrientationConfig(8, 1, b, 1, 1))
    engine = stack.engine
    heard = _hearing(stack)
    stack.insert(2, 5)
    start = engine.copy_counts(2, 5)
    assert heard == [] and sum(start) == b
    pid = engine.pairs[2 * 8 + 5]
    want = []
    for target in (0, b, start[0]):
        while engine.copy_counts(2, 5)[0] != target:
            cab, cba = engine.copy_counts(2, 5)
            engine._flip_copy(2 * pid + (cab < target))
            after = engine.copy_counts(2, 5)
            if (cab >= cba) != (after[0] >= after[1]):
                want.append((2, 5) + after)
            assert heard == want
            assert _points(stack.rounding, *(
                (2, 5) if after[0] >= after[1] else (5, 2)))
    assert len(want) == 2
    stack.delete(2, 5)
    assert heard == want
    assert audit_state(stack) == []


def test_every_call_reorients_and_none_names_the_pair_in_update(
        any_preset_cfg):
    # Each call the engine makes is a majority crossing of a visible pair,
    # so it reorients the pair; no call names the pair whose copies the
    # running insert places or the running delete drains.
    stack = OrientationStack(any_preset_cfg)
    busy = [None]
    heard = _hearing(stack, busy)
    for name in ("insert", "delete"):
        def update(u, v, real=getattr(stack, name)):
            busy[0] = (min(u, v), max(u, v))
            real(u, v)
            busy[0] = None
        setattr(stack, name, update)
    Fuzzer(stack, seed=61).run(400)
    assert heard and len(heard) == stack.rounding.total_simple_flips
    assert all(args[:2] != pair for args, pair in heard)


def test_tie_breaks_toward_lexicographic_tail():
    r = RoundedOrientation(4)
    r.simple_inserted(2, 3, 1, 1)
    assert _points(r, 2, 3)


def test_pending_and_draining_pairs_stay_silent():
    r = RoundedOrientation(4)
    r.counts_changed(0, 1, 3, 0)  # never announced: ignored
    assert not r.has_edge(0, 1)
    r.simple_inserted(0, 1, 3, 3)
    r.simple_deleted(0, 1)
    r.counts_changed(0, 1, 0, 1)  # draining: ignored
    assert not r.has_edge(0, 1)


def test_announcing_a_pair_twice_or_deleting_it_unseen_is_corruption():
    r = RoundedOrientation(4)
    r.simple_inserted(0, 1, 2, 1)
    with pytest.raises(CorruptionError, match=r"pair \(0,1\) announced twice"):
        r.simple_inserted(0, 1, 2, 1)
    with pytest.raises(CorruptionError, match="deleted while invisible"):
        r.simple_deleted(2, 3)
    assert _points(r, 0, 1) and not r.has_edge(2, 3)


def test_max_simple_out_degree_small_cases():
    r = RoundedOrientation(8)
    assert r.max_simple_out_degree() == 0  # empty graph
    # directed 5-cycle: one out-edge per vertex
    for i in range(5):
        j = (i + 1) % 5
        a, b = (i, j) if i < j else (j, i)
        cab = (3, 1) if a == i else (1, 3)
        r.simple_inserted(a, b, *cab)
    assert r.max_simple_out_degree() == 1
    assert sorted(len(r.out[v]) for v in range(5)) == [1, 1, 1, 1, 1]


def test_each_copy_flip_changes_at_most_one_simple_direction():
    stack = OrientationStack(OrientationConfig.fast_multiplicative(32))
    Fuzzer(stack, seed=19).run(2000)
    assert stack.rounding.total_simple_flips <= stack.engine.total_copy_flips


def test_k4_rounded_out_degree_within_arboricity_bound():
    eps = Fraction(1, 2)
    stack = OrientationStack(OrientationConfig.eps_density(8, eps))
    for u, v in clique_edges(4):
        stack.insert(u, v)
    alpha = exact_arboricity(4, clique_edges(4))
    assert alpha == 2
    assert stack.max_simple_out_degree() <= (2 + eps) * alpha + 1


def test_rounding_guarantee_over_random_churn():
    # (2+eps) * arboricity + 1 under the eps-density preset, audited
    # against the enumeration oracle at checkpoints.
    eps = Fraction(1, 2)
    n = 14
    stack = OrientationStack(OrientationConfig.eps_density(n, eps))
    fz = Fuzzer(stack, seed=29, max_edges=40)
    for i in range(1, 401):
        fz.step()
        if i % 25 == 0:
            edges = sorted(fz.live_set)
            alpha = exact_arboricity(n, edges)
            bound = (2 + eps) * alpha + 1
            assert stack.max_simple_out_degree() <= bound


def test_simple_out_degree_tracks_multigraph_share():
    # Each simple out-edge of v pins at least floor(b/2) multigraph copies
    # out of v, which is the rounding's factor-two degree guarantee.
    stack = OrientationStack(OrientationConfig.fast_multiplicative(24))
    Fuzzer(stack, seed=43).run(800)
    engine = stack.engine
    b = stack.cfg.b
    for v in range(24):
        assert len(stack.rounding.out[v]) * (b // 2) <= engine.out_deg[v]
