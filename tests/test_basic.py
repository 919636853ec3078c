"""Exact-degree mode: spec examples, invariant audits, chain behavior."""

import itertools
import math
import random

import pytest

from dynorient import (
    DuplicateEdgeError,
    MissingEdgeError,
    OrientationConfig,
    OrientationStack,
)
from dynorient.oracles import audit_state, exact_density

from conftest import Fuzzer, clique_edges


def test_first_edge_ever_single_copy_no_flip():
    stack = OrientationStack(OrientationConfig.simple_additive(8))
    stack.insert(0, 1)
    engine = stack.engine
    assert engine.copy_counts(0, 1) == (1, 0)
    assert engine.out_deg[0] == 1 and engine.out_deg[1] == 0
    assert engine.total_copy_flips == 0


def test_star_all_leaves_point_inward():
    # leaf -> center never violates the additive invariant: 1 <= (1+s)*0 + 2
    stack = OrientationStack(OrientationConfig.simple_additive(12))
    for leaf in range(1, 11):
        stack.insert(leaf, 0)
    engine = stack.engine
    assert all(engine.out_deg[leaf] == 1 for leaf in range(1, 11))
    assert engine.out_deg[0] == 0
    assert engine.total_copy_flips == 0


def test_duplicate_edge_rejected_distinctly():
    stack = OrientationStack(OrientationConfig.simple_additive(8))
    stack.insert(0, 1)
    with pytest.raises(DuplicateEdgeError):
        stack.insert(1, 0)
    with pytest.raises(MissingEdgeError):
        stack.delete(2, 3)


def test_k4_any_insertion_order_respects_structural_bound():
    cfg = OrientationConfig.simple_additive(8)
    slack = cfg.slack
    k_cap = math.ceil(math.log(cfg.capacity) / math.log(1 + float(cfg.gamma)))
    bound = (1 + cfg.gamma) * 1.5 * float((1 + slack) ** k_cap) \
        + 2 * (1 / float(cfg.eta) + 1)
    edges = clique_edges(4)
    for perm in itertools.permutations(edges):
        stack = OrientationStack(cfg)
        for u, v in perm:
            stack.insert(u, v)
        assert stack.engine.invariant_violations() == []
        assert max(stack.engine.out_deg) <= bound


def test_delete_only_edge_returns_to_zero_without_recursion():
    stack = OrientationStack(OrientationConfig.simple_additive(8))
    stack.insert(0, 1)
    stack.delete(0, 1)
    engine = stack.engine
    assert engine.out_deg == [0] * 8
    assert engine.last_chain == 0
    assert not engine.pairs


def test_deletion_cascade_climbs_toward_larger_degrees():
    # A hub pointed at by its whole neighborhood: deleting hub edges walks
    # the cascade toward in-neighbors with strictly larger out-degree.
    cfg = OrientationConfig.simple_multiplicative(32)
    stack = OrientationStack(cfg, audit_hooks=True)
    fz = Fuzzer(stack, seed=13, max_edges=90)
    fz.run(500)
    # force deletions of a random half of the live edges, auditing as we go
    rng = random.Random(99)
    live = sorted(fz.live_set)
    rng.shuffle(live)
    for e in live[: len(live) // 2]:
        stack.delete(*e)
        assert stack.engine.invariant_violations() == []


@pytest.mark.parametrize("preset", ["simple-additive", "simple-multiplicative"])
def test_random_mix_10k_invariant_audit(preset):
    cfg = OrientationConfig.from_preset(preset, 100)
    stack = OrientationStack(cfg)
    fz = Fuzzer(stack, seed=3)
    for i in range(1, 10_001):
        fz.step()
        if i % 500 == 0:
            assert stack.engine.invariant_violations() == []
    assert audit_state(stack) == []


def test_chain_length_tracks_logarithmic_budget():
    # Chains shorten multiplicatively; allow the analysis' slack on top.
    n = 50
    cfg = OrientationConfig.simple_additive(n)
    stack = OrientationStack(cfg)
    fz = Fuzzer(stack, seed=21, max_edges=4 * n)
    worst = 0
    for _ in range(4000):
        fz.step()
        worst = max(worst, stack.engine.last_chain)
    delta = stack.tracker.delta
    budget = (1 / float(cfg.slack)) * math.log(max(2, delta)) \
        + 4 * math.log(n) + 4
    assert worst <= budget


def test_flips_strictly_reduce_head_degree_terminates():
    # The progress rule guarantees termination even on the adversarial
    # fresh-pair case for the multiplicative invariant.
    cfg = OrientationConfig.simple_multiplicative(8)
    stack = OrientationStack(cfg)
    # Both endpoints fresh: mid-insert states admit no valid orientation,
    # so unguarded greedy flipping would ping-pong forever here.
    stack.insert(0, 1)
    counts = stack.engine.copy_counts(0, 1)
    assert sum(counts) == cfg.b
    assert abs(counts[0] - counts[1]) <= 1
    assert stack.engine.invariant_violations() == []


def test_density_stays_honest_on_small_random_graph():
    cfg = OrientationConfig.simple_multiplicative(20)
    stack = OrientationStack(cfg)
    fz = Fuzzer(stack, seed=8, max_edges=50)
    fz.run(300)
    rho, _ = exact_density(20, sorted(fz.live_set))
    # any orientation of the duplicated graph has max degree >= b * rho
    assert stack.tracker.delta >= cfg.b * rho


@pytest.mark.parametrize("builder", [OrientationConfig.simple_additive,
                                     OrientationConfig.simple_multiplicative,
                                     OrientationConfig.fast_additive,
                                     OrientationConfig.fast_multiplicative],
                         ids=["simple-additive", "simple-multiplicative",
                              "fast-additive", "fast-multiplicative"])
def test_recorded_degrees_exact_after_every_update(builder):
    # Recorded degrees may lag inside an insert, never at an update
    # boundary: structural_violations checks each against the exact degree
    # (in fast mode, of every ring that fits in the window; all do here).
    n = 24
    stack = OrientationStack(builder(n))
    fz = Fuzzer(stack, seed=31, delete_bias=0.3, max_edges=6 * n)
    for _ in range(600):
        fz.step()
        assert stack.engine.structural_violations() == []


@pytest.mark.parametrize("preset", ["simple-additive", "simple-multiplicative",
                                    "fast-additive", "fast-multiplicative"])
def test_delete_chain_flips_toward_a_true_maximum(preset):
    # Whatever the engine defers, every copy a deletion chain flips comes
    # from an in-entry that records its tail's exact out-degree, and no
    # in-entry of the chain head has a larger bucket key by its tail's
    # exact out-degree.  Other in-entries may record a stale degree.
    n = 40
    stack = OrientationStack(OrientationConfig.from_preset(preset, n))
    engine = stack.engine
    out_deg = engine.out_deg
    e_tail = engine.e_tail
    flip_copy = engine._flip_copy
    delete = stack.delete
    deleting = False
    flips = 0

    def deleting_edge(u, v):
        nonlocal deleting
        deleting = True
        try:
            delete(u, v)
        finally:
            deleting = False

    def checked(eid):
        nonlocal flips
        if deleting:
            flips += 1
            x = e_tail[eid]
            assert engine.e_perc[eid] == out_deg[x]
            top = engine.key_of[out_deg[x]]
            assert all(engine.key_of[out_deg[e_tail[e]]] <= top
                       for e in engine.in_entries(engine.e_head[eid]))
        flip_copy(eid)

    stack.delete = deleting_edge
    engine._flip_copy = checked
    Fuzzer(stack, seed=47, max_edges=6 * n).run(800)
    assert flips > 20
