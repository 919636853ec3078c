"""Acceptance suite: one test per criterion, tolerances pinned inline.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
PASS lines and the measured margins.
"""

import io
import math
import random
import time
from fractions import Fraction

import pytest

from dynorient import (
    EventHasher,
    OrientationConfig,
    OrientationStack,
)
from dynorient.harness import replay
from dynorient.oracles import (
    audit_state,
    exact_density,
    exact_density_enum,
    exact_min_max_outdegree,
    subgraph_density,
)
from dynorient.workload import generate, parse_workload

from conftest import Fuzzer

RECOURSE_BUDGET_FACTOR = 10  # test budget, not a theory constant


def _recourse_ratio(stack):
    flips = stack.engine.last_copy_flips
    if not flips:
        return 0.0
    budget = RECOURSE_BUDGET_FACTOR * stack.cfg.b * math.log(
        2 + stack.cfg.b * stack.tracker.delta)
    return flips / budget


# ----------------------------------------------------------------------
# Criterion 1: terminal invariant over 1e5 updates per engine preset,
# audits sampled every 100 ops, engine time under 60 s per preset.
# ----------------------------------------------------------------------

_C1_PRESETS = ["simple-additive", "simple-multiplicative", "fast-additive",
               "fast-multiplicative"]
_c1_recourse_peaks = {}


@pytest.mark.parametrize("preset", _C1_PRESETS)
def test_criterion_1_invariant_maintenance(preset):
    n = 500
    lines = generate("random", n, 100_000, seed=7)
    _, ops = parse_workload(lines)
    cfg = OrientationConfig.from_preset(preset, n)
    stack = OrientationStack(cfg)
    insert, delete = stack.insert, stack.delete
    engine_time = 0.0
    peak_ratio = 0.0
    for i, op in enumerate(ops, start=1):
        start = time.perf_counter()
        if op.kind == "+":
            insert(op.u, op.v)
        else:
            delete(op.u, op.v)
        engine_time += time.perf_counter() - start
        peak_ratio = max(peak_ratio, _recourse_ratio(stack))
        if i % 100 == 0:
            assert stack.engine.invariant_violations(limit=1) == [], \
                f"{preset}: invariant violated at op {i}"
    assert audit_state(stack) == []
    _c1_recourse_peaks[preset] = peak_ratio
    print(f"\n[criterion 1] {preset}: PASS  "
          f"({len(ops)} ops, engine time {engine_time:.1f}s < 60s, "
          f"peak recourse ratio {peak_ratio:.3f})")
    assert engine_time < 60.0


# ----------------------------------------------------------------------
# Criteria 2 + 3: density sandwich and extraction quality over a shared
# corpus of 100 random graphs under the eps-density preset, exact
# rational comparisons, zero tolerance.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def density_corpus():
    eps = Fraction(1, 2)
    states = []  # (cfg, edges, estimate, report, rho)
    rng = random.Random(2024)
    for g in range(100):
        n = rng.randrange(8, 41)
        m_cap = min(200, 2 * n)
        cfg = OrientationConfig.eps_density(n, eps)
        stack = OrientationStack(cfg)
        fz = Fuzzer(stack, seed=5000 + g, max_edges=m_cap)
        steps = rng.randrange(60, 140)
        audit_at = rng.randrange(10, 20)
        for i in range(1, steps + 1):
            fz.step()
            if i % audit_at == 0 or i == steps:
                edges = sorted(fz.live_set)
                rho, _ = exact_density(n, edges)
                report = stack.density.report()
                no_escape = stack.density.no_escape_violations(report,
                                                                stack.engine)
                states.append((cfg, edges, stack.density_value(), report,
                               rho, no_escape))
    return states


def test_criterion_2_density_sandwich(density_corpus):
    eps = Fraction(1, 2)
    worst = Fraction(0)
    for cfg, edges, estimate, report, rho, _ in density_corpus:
        assert rho <= estimate, f"estimate {estimate} below density {rho}"
        if rho:
            assert estimate <= (1 + eps) * rho, \
                f"estimate {estimate} above (1+eps) * {rho}"
            worst = max(worst, estimate / rho)
        else:
            assert estimate == 0
    print(f"\n[criterion 2] PASS  ({len(density_corpus)} audited states, "
          f"worst estimate/rho = {float(worst):.4f} <= 1.5)")


def test_criterion_3_extraction_quality(density_corpus):
    checked = 0
    for cfg, edges, estimate, report, rho, no_escape in density_corpus:
        assert no_escape == [], no_escape[:3]
        if not edges:
            continue
        got = subgraph_density(report.vertices, edges)
        bound = report.estimate / (
            (1 + cfg.gamma) * (1 + cfg.slack) ** report.k)
        assert got >= bound, \
            f"extracted density {got} under bound {bound} (k={report.k})"
        checked += 1
    print(f"\n[criterion 3] PASS  ({checked} extractions met the exact "
          f"threshold-set bound; no copy escaped T_k)")


# ----------------------------------------------------------------------
# Criterion 4: structural out-degree bound on a drifting-density workload,
# re-tightening as the density falls.
# ----------------------------------------------------------------------

def test_criterion_4_structural_bound_and_adaptivity():
    n = 256
    lines = generate("drifting-density", n, 4000, seed=11, clique=20)
    _, ops = parse_workload(lines)
    cfg = OrientationConfig.fast_additive(n)
    stack = OrientationStack(cfg)
    checkpoints = []
    stride = max(1, len(ops) // 50)
    for i, op in enumerate(ops):
        (stack.insert if op.kind == "+" else stack.delete)(op.u, op.v)
        if i % stride == 0 or i == len(ops) - 1:
            edges = sorted(stack.engine.edges())
            rho, _ = exact_density(n, edges)
            k = stack.density.report().k
            bound = (1 + cfg.gamma) * rho * (1 + cfg.slack) ** k \
                + 2 * (cfg.b / cfg.eta + 1)
            checkpoints.append((rho, stack.max_simple_out_degree(), bound))
    assert len(checkpoints) >= 50
    for rho, max_out, bound in checkpoints:
        assert max_out <= bound, f"max out {max_out} > bound {float(bound)}"
    peak_i = max(range(len(checkpoints)), key=lambda i: checkpoints[i][0])
    peak_rho, peak_out, peak_bound = checkpoints[peak_i]
    end_rho, end_out, end_bound = checkpoints[-1]
    # adaptivity: the density fell, and both the bound and the maintained
    # out-degree came down with it within the same run
    assert end_rho < peak_rho / 2
    assert end_bound < peak_bound
    assert end_out < peak_out
    print(f"\n[criterion 4] PASS  ({len(checkpoints)} checkpoints; rho "
          f"{float(peak_rho):.2f}->{float(end_rho):.2f}, max out-degree "
          f"{peak_out}->{end_out}, bound {float(peak_bound):.1f}->"
          f"{float(end_bound):.1f})")


# ----------------------------------------------------------------------
# Criterion 5: Picard-Queyranne duality and flow/enumeration agreement
# on 200 random graphs.
# ----------------------------------------------------------------------

def test_criterion_5_duality_self_test():
    rng = random.Random(404)
    for g in range(200):
        n = rng.randrange(4, 21)
        m_cap = n * (n - 1) // 2
        m = rng.randrange(0, min(40, m_cap) + 1)
        edges = set()
        while len(edges) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        edges = sorted(edges)
        rho, witness = exact_density(n, edges)
        rho_enum = exact_density_enum(n, edges)
        assert rho == rho_enum, f"flow {rho} != enumeration {rho_enum}"
        k, orientation = exact_min_max_outdegree(n, edges)
        assert k == math.ceil(rho), f"ceil({rho}) != {k}"
        if edges:
            assert subgraph_density(witness, edges) == rho
            counts = [0] * n
            for tail, _ in orientation:
                counts[tail] += 1
            assert max(counts) == k or (k == 0 and not edges)
    print("\n[criterion 5] PASS  (200 graphs: ceil(density) == min-max "
          "out-degree, flow == enumeration, witnesses verified)")


# ----------------------------------------------------------------------
# Criterion 6: recourse stays within the logarithmic test budget.
# Exceedances are reported for investigation, never auto-failed.
# ----------------------------------------------------------------------

def test_criterion_6_recourse_budget():
    peaks = dict(_c1_recourse_peaks)
    # a fresh campaign in case criterion 1 ran in another process
    for preset in _C1_PRESETS:
        if preset in peaks:
            continue
        cfg = OrientationConfig.from_preset(preset, 128)
        stack = OrientationStack(cfg)
        fz = Fuzzer(stack, seed=77)
        peak = 0.0
        for _ in range(8000):
            fz.step()
            peak = max(peak, _recourse_ratio(stack))
        peaks[preset] = peak
    over = {p: r for p, r in peaks.items() if r > 1.0}
    for preset, ratio in sorted(peaks.items()):
        flag = "  <-- investigate" if ratio > 1.0 else ""
        print(f"\n[criterion 6] {preset}: peak flips / "
              f"(10*b*ln(2+b*Delta)) = {ratio:.3f}{flag}")
    print(f"[criterion 6] PASS  (budget exceedances: {sorted(over) or 'none'})")


# ----------------------------------------------------------------------
# Criterion 7: applications stay correct after every update of a
# 10k-op fuzz on n=200 under fast-additive.
# ----------------------------------------------------------------------

def test_criterion_7_applications():
    n = 200
    cfg = OrientationConfig.fast_additive(n)
    stack = OrientationStack(cfg)
    matching = stack.attach_matching()
    coloring = stack.attach_coloring()
    forests = stack.attach_forests()
    matvec = stack.attach_matvec()
    rng = random.Random(880)
    for j in range(n):
        matvec.set_x(j, rng.randrange(-3, 7))
    fz = Fuzzer(stack, seed=881)
    engine = stack.engine
    queries = 0
    for i in range(1, 10_001):
        fz.step()
        assert matching.violations(engine) == []
        assert coloring.violations(engine) == []
        assert forests.violations(engine) == []
        assert forests.forest_count() <= 2 * stack.max_simple_out_degree()
        if i % 10 == 0:
            v = rng.randrange(n)
            dense = 0
            for a, b in engine.edges():
                if a == v:
                    dense += matvec.a[matvec._key(a, b)] * matvec.x[b]
                elif b == v:
                    dense += matvec.a[matvec._key(a, b)] * matvec.x[a]
            assert matvec.query(v) == dense
            queries += 1
    assert queries >= 1000
    print(f"\n[criterion 7] PASS  (10000 updates on n={n}: matching "
          f"maximal+valid, coloring proper and <= degree, forests acyclic "
          f"within 2*max-out, {queries} matvec queries exact)")


# ----------------------------------------------------------------------
# Criterion 8: replay determinism, event stream and CSV byte-identical
# up to the timing column.
# ----------------------------------------------------------------------

def test_criterion_8_replay_determinism():
    lines = generate("drifting-density", 64, 800, seed=33, clique=10)
    n, ops = parse_workload(lines)
    outputs = []
    for _ in range(2):
        cfg = OrientationConfig.eps_density(n, 0.5)
        hasher = EventHasher()
        csv_out = io.StringIO()
        result = replay(n, ops, cfg, audit_every=200, oracle_limit=64,
                        csv_out=csv_out, recorder=hasher)
        rows = [row.rsplit(",", 1)[0]  # strip wall_nanos
                for row in csv_out.getvalue().splitlines()]
        outputs.append((hasher.digest, hasher.count, rows,
                        tuple(result.query_lines)))
    assert outputs[0] == outputs[1]
    print(f"\n[criterion 8] PASS  (two replays: {outputs[0][1]} events, "
          f"identical digests {outputs[0][0]:#x}, identical CSV)")
