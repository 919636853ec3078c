"""Seeded workloads, timed passes and metrics for the dynorient benchmark.

A run generates one workload from its seed, then repeats *passes* over it
until the time budget is spent.  Each pass parses the workload, builds a
fresh configuration and stack, drives every op through the public API and
audits the final state.  Passes over the same ops must agree exactly on
every digest and work counter.  A traced run alternates untraced and traced
passes: the traced ones give the per-layer spans, and must agree with the
untraced ones exactly.

Every time is reported at a reference speed.  Between ops, at least every
``CAL_INTERVAL_NS``, a pass times a fixed piece of pure Python; an op's time
is multiplied by ``REF_CAL_NS`` over the mean of the loop times just before
and just after it (set-up and spans: over the pass's median loop time).  On
a shared host the speed of the whole machine drifts by tens of percent, in
phases of seconds to minutes, and the loop slows with it, so the scaled
times track the program's own cost.  Rates, medians and set-up are taken
per pass, then the median over passes is reported.  A tail percentile is
taken over each op's least latency in the first ``LATENCY_PASSES`` passes:
a burst of load from outside, which hits an op in one pass only, would
otherwise set it.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from dynorient import EventHasher, OrientationConfig, OrientationStack
from dynorient.oracles import audit_state, exact_density
from dynorient.workload import generate, parse_workload

import tracing


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # generator kind
    n: int
    updates: int               # least number of update ops a pass holds
    preset: str
    epsilon: Optional[Fraction] = None
    max_edges: Optional[int] = None
    clique: int = 0
    apps: bool = False         # attach all four applications
    hasher: bool = False       # attach an EventHasher as the event sink
    query_every: int = 0       # `? density` + `? densest` after every k-th update
    audit_every: int = 0       # `! audit` after every k-th update


# Why these three: churn-fast is the fast engine's hot path with nothing
# attached, so changes to queries, oracles, events or applications must leave
# it unchanged.  churn-basic-apps is the only exact-degree workload and the
# only one where rounding fans out to applications and an event sink.
# density-audit is the only one with reads: tracker queries and the flow
# oracle; n <= 60 keeps exact_density within FLOW_LIMIT_DEFAULT.
WORKLOADS = {w.name: w for w in (
    Workload("churn-fast", "random", n=500, updates=20000,
             preset="fast-multiplicative"),
    Workload("churn-basic-apps", "random", n=256, updates=20000,
             preset="simple-multiplicative", max_edges=6 * 256,
             apps=True, hasher=True),
    Workload("density-audit", "drifting-density", n=60, updates=3000,
             preset="eps-density", epsilon=Fraction(1, 2), clique=12,
             query_every=3, audit_every=30),
)}

# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

# Reported times are those of a machine that runs _calibrate() in 1 ms.
REF_CAL_NS = 1_000_000
CAL_INTERVAL_NS = 50_000_000


class _CalNode:
    __slots__ = ("key", "kids", "val")

    def __init__(self, key):
        self.key = key
        self.kids = []
        self.val = 0

    def add(self, x):
        self.val += x
        return self.val


def _cal_walk(node, depth):
    if depth == 0:
        return node.add(1)
    total = 0
    for kid in node.kids:
        total += _cal_walk(kid, depth - 1)
    return total


def _calibrate() -> int:
    """Time a fixed piece of pure Python that touches no program state.

    It mixes what the program spends its time on: calls, attribute reads and
    writes on slotted objects, list iteration and dict lookups.  The cyclic
    collector is paused, since its cost grows with the program's heap.
    """
    gc.disable()
    start = time.perf_counter_ns()
    root = _CalNode(0)
    level, registry = [root], {}
    for _ in range(3):
        below = []
        for node in level:
            for j in range(6):
                kid = _CalNode(node.key * 6 + j)
                node.kids.append(kid)
                below.append(kid)
                registry[kid.key] = kid
        level = below
    acc = 0
    for r in range(12):
        acc += _cal_walk(root, 3)
        for key in range(0, 258, 7):
            node = registry.get(key)
            if node is not None:
                acc += node.add(r)
    elapsed = time.perf_counter_ns() - start
    gc.enable()
    return elapsed


# Passes whose per-op latencies are kept for the tail percentiles; a fixed
# count keeps the per-op least latency free of a bias that depends on how
# many passes fit in a run.  Every run makes at least this many passes.
LATENCY_PASSES = 2
# Set-ups per pass; set-up is short, so one sample per pass is too few.
SETUP_REPEATS = 3


def workload_lines(w: Workload, seed: int) -> list[str]:
    """The workload text for one seed, sized by the update ops it emits.

    ``drifting-density`` emits far fewer ops than its ``steps`` once its
    background pool saturates, so ``steps`` grows until the generator
    yields at least ``w.updates`` updates.
    """
    params = {}
    if w.max_edges is not None:
        params["max_edges"] = w.max_edges
    if w.clique:
        params["clique"] = w.clique
    steps = w.updates
    while True:
        lines = generate(w.kind, w.n, steps, seed=seed, **params)
        if len(lines) - 1 >= w.updates:
            break
        steps += steps // 4
    out = [lines[0]]
    for i, line in enumerate(lines[1:], start=1):
        out.append(line)
        if w.query_every and i % w.query_every == 0:
            out += ["? density", "? densest"]
        if w.audit_every and i % w.audit_every == 0:
            out.append("! audit")
    return out


def sample_shortfalls(w: Workload, lines: list[str]) -> list[str]:
    """Percentiles the workload cannot support with TAIL_SAMPLES beyond."""
    updates = sum(1 for ln in lines if ln[0] in "+-")
    queries = lines.count("? densest")
    audits = lines.count("! audit")
    need = [("update p99", updates, 0.99)]
    if w.query_every:
        need.append(("query p99", queries, 0.99))
    if w.audit_every:
        need.append(("audit p90", audits, 0.90))
    return [f"{what}: {have} samples leave fewer than {TAIL_SAMPLES} beyond"
            for what, have, q in need
            if have * (1 - q) < TAIL_SAMPLES - 1e-9]


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


@dataclass
class PassResult:
    setup_ns: list = field(default_factory=list)     # one per set-up
    parse_ns: list = field(default_factory=list)
    thresholds_ns: list = field(default_factory=list)
    update_ns: list = field(default_factory=list)
    query_ns: list = field(default_factory=list)
    audit_ns: list = field(default_factory=list)
    cal_ns: list = field(default_factory=list)
    #: Per loop timing: how many update, query and audit samples preceded it.
    cal_at: list = field(default_factory=list)
    attempted: int = 0
    #: Reference ns per measured ns over the whole pass (for set-up and
    #: spans), and the pass's scaled times; both set by _summarize().
    scale: float = 1.0
    times: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    #: Deterministic outcome: digests and work counters.
    fingerprint: dict = field(default_factory=dict)
    tracer: Optional[tracing.Tracer] = None


def _direct(_name, fn, *args):
    return fn(*args)


def run_pass(w: Workload, lines: list[str],
             tracer: Optional[tracing.Tracer] = None) -> PassResult:
    """Set up from the workload text, replay it, audit, fingerprint."""
    res = PassResult(tracer=tracer)
    gc.collect()  # start every pass from the same collector state
    clock = time.perf_counter_ns
    res.cal_ns.append(_calibrate())
    for _ in range(SETUP_REPEATS):  # the last set-up is the one replayed
        t0 = clock()
        n, ops = parse_workload(lines)
        t1 = clock()
        cfg = OrientationConfig.from_preset(w.preset, n, epsilon=w.epsilon)
        t2 = clock()
        if cfg.is_fast():
            # Built lazily by the first bucket_index call otherwise, which
            # would hide its cost in the first update.
            cfg.bucket_thresholds()
        t3 = clock()
        hasher = EventHasher() if w.hasher else None
        stack = OrientationStack(cfg, recorder=hasher)
        if w.apps:
            stack.attach_matching()
            stack.attach_coloring()
            stack.attach_forests()
            stack.attach_matvec()
        t4 = clock()
        res.setup_ns.append(t4 - t0)
        res.parse_ns.append(t1 - t0)
        res.thresholds_ns.append(t3 - t2)

    if tracer is not None:
        tracing.install(tracer, stack)
    span = tracer.span if tracer is not None else None
    call = span or _direct
    engine = stack.engine
    eps = cfg.epsilon
    query_hash = hashlib.sha256()
    pending_query = 0
    scan_steps = chain_max = outdeg_sum = outdeg_peak = 0
    ratio_max = Fraction(0)
    last_cal = clock()

    for i, op in enumerate(ops):
        if clock() - last_cal >= CAL_INTERVAL_NS:
            res.cal_ns.append(_calibrate())
            res.cal_at.append((len(res.update_ns), len(res.query_ns),
                               len(res.audit_ns)))
            last_cal = clock()
        kind = op.kind
        res.attempted += 1
        try:
            if kind == "+" or kind == "-":
                fn = stack.insert if kind == "+" else stack.delete
                if span is None:
                    start = clock()
                    fn(op.u, op.v)
                    res.update_ns.append(clock() - start)
                else:
                    span("update", fn, op.u, op.v)
                scan_steps += engine.last_scan
                if engine.last_chain > chain_max:
                    chain_max = engine.last_chain
                d = stack.max_simple_out_degree()
                outdeg_sum += d
                if d > outdeg_peak:
                    outdeg_peak = d
            elif kind == "audit":
                start = clock()
                bad, rho, est = call("audit", _audit, stack, n, call)
                res.audit_ns.append(clock() - start)
                if bad:
                    raise AssertionError("audit: " + "; ".join(bad[:3]))
                if est < rho:
                    raise AssertionError(f"estimate {est} below density {rho}")
                if rho > 0:
                    if eps is not None and est > (1 + eps) * rho:
                        raise AssertionError(
                            f"estimate {est} above (1+eps) * density {rho}")
                    ratio_max = max(ratio_max, est / rho)
            elif kind == "density":
                start = clock()
                est = call("query", stack.density_estimate)
                pending_query = clock() - start
                query_hash.update(f"density {est}\n".encode())
            elif kind == "densest":
                start = clock()
                report = call("query", stack.extract_densest)
                res.query_ns.append(pending_query + clock() - start)
                query_hash.update(
                    ("densest " + " ".join(map(str, report.vertices))
                     + "\n").encode())
            else:
                raise AssertionError(f"unexpected op kind {kind!r}")
        except Exception as exc:  # a failed op is counted, never fatal
            res.failures.append(f"op {i} ({kind}): {exc!r}")

    res.cal_ns.append(_calibrate())
    bad = audit_state(stack)
    if bad:
        res.failures.append("final audit: " + "; ".join(bad[:3]))
    state_hash = hashlib.sha256(repr(
        (engine.out_deg, sorted(stack.rounding.edges()))).encode())
    res.fingerprint = {
        "updates": len(res.update_ns) if span is None else
        tracer.calls[("update", "update")],
        "copy_flips": engine.total_copy_flips,
        "simple_flips": stack.rounding.total_simple_flips,
        "suppressed": engine.total_suppressed,
        "scan_steps": scan_steps,
        "chain_max": chain_max,
        "bucket_nodes": len(engine.bn_key),
        "entries": len(engine.e_tail),
        "outdeg_sum": outdeg_sum,
        "outdeg_peak": outdeg_peak,
        "density_ratio_max": ratio_max,
        "events": (hasher.digest, hasher.count) if hasher else None,
        "queries": query_hash.hexdigest(),
        "state": state_hash.hexdigest(),
    }
    return res


def _audit(stack, n, call):
    """``! audit`` as the replay harness runs it: full state audit, then
    the exact density for the sandwich check."""
    bad = call("oracles.audit_state", audit_state, stack)
    rho, _ = call("oracles.exact_density", exact_density, n,
                  list(stack.engine.edges()))
    return bad, rho, stack.density_value()


@dataclass
class RunResult:
    attempted: int
    failures: list
    metrics: dict
    fingerprint: dict      # of the first pass; every other pass matched it

    @property
    def correct(self) -> bool:
        return not self.failures


_SAMPLES = ("update_ns", "query_ns", "audit_ns")


def run(w: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    """Repeat passes over the seed's workload for about ``seconds``."""
    lines = workload_lines(w, seed)
    failures = sample_shortfalls(w, lines)
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    latencies = {k: [] for k in _SAMPLES}    # scaled, per kept pass
    start = time.perf_counter()
    while True:
        p = run_pass(w, lines)
        scaled = _summarize(p)
        if len(plain) < LATENCY_PASSES:
            for k in _SAMPLES:
                latencies[k].append(scaled[k])
        _log_pass(len(plain), p)
        plain.append(p)
        if trace:
            t = run_pass(w, lines, tracing.Tracer())
            _summarize(t)
            traced.append(t)
        elapsed = time.perf_counter() - start
        if (len(plain) >= LATENCY_PASSES
                and elapsed + elapsed / len(plain) > seconds):
            break
    passes = plain + traced
    first = plain[0].fingerprint
    for k, p in enumerate(passes):
        failures += p.failures
        diff = sorted(key for key in first if p.fingerprint[key] != first[key])
        if diff:
            failures.append(f"pass {k} differs from pass 0 in {diff}")
    if failures:
        metrics = {}    # a failed run reports no numbers
    else:
        per_op = {k: list(map(min, zip(*latencies[k])))
                  for k in _SAMPLES}
        metrics = (_layer_metrics(plain, traced, per_op) if trace else
                   _end_to_end_metrics(plain, per_op))
    return RunResult(sum(p.attempted for p in passes), failures, metrics,
                     first)


def _summarize(p: PassResult) -> dict:
    """Scale a pass's times, keep its rates, medians and set-up times, and
    return its op latencies as scaled arrays; the lists are released, so
    memory does not grow with the pass count.

    The ops between two loop timings are scaled by the mean of the two, so
    that a change of machine speed within the pass is followed; set-up is
    scaled by the pass's median loop time.
    """
    cal = p.cal_ns
    p.scale = REF_CAL_NS / statistics.median(cal)
    local = [2 * REF_CAL_NS / (a + b) for a, b in zip(cal, cal[1:])]
    scaled = {}
    for k, name in enumerate(_SAMPLES):
        xs = getattr(p, name)
        ends = [at[k] for at in p.cal_at] + [len(xs)]
        out, start = array("d"), 0
        for factor, end in zip(local, ends):
            out.extend(x * factor for x in xs[start:end])
            start = end
        scaled[name] = out
    ups, qs, aus = (scaled[k] for k in _SAMPLES)
    p.times = {
        "setup_s": statistics.median(p.setup_ns) * p.scale / 1e9,
        "parse_ms": statistics.median(p.parse_ns) * p.scale / 1e6,
        "thresholds_ms": statistics.median(p.thresholds_ns) * p.scale / 1e6,
        "update_total_ns": sum(ups),
    }
    if ups:
        p.times["update_ops_per_s"] = len(ups) * 1e9 / sum(ups)
        p.times["update_us_p50"] = statistics.median(ups) / 1e3
        p.times["ops_per_s"] = p.attempted * 1e9 / (
            sum(ups) + sum(qs) + sum(aus))
    if qs:
        p.times["query_us_p50"] = statistics.median(qs) / 1e3
    if aus:
        p.times["audit_ms_p50"] = statistics.median(aus) / 1e6
    p.update_ns = p.query_ns = p.audit_ns = []
    return scaled


def _log_pass(k: int, p: PassResult) -> None:
    print(f"pass {k}: setup {p.times['setup_s']:.4f} s, "
          f"{p.times.get('update_ops_per_s', 0.0):.1f} updates/s, "
          f"scale {p.scale:.3f}, failures {len(p.failures)}",
          file=sys.stderr)


def _median_time(passes: list[PassResult], name: str) -> float:
    """Median over passes of one scaled time."""
    return statistics.median(p.times[name] for p in passes)


def _end_to_end_metrics(plain: list[PassResult], per_op: dict) -> dict:
    fp = plain[0].fingerprint
    updates = per_op["update_ns"]
    metrics = {name: _median_time(plain, name) for name in (
        "setup_s", "update_ops_per_s", "update_us_p50")}
    metrics.update({
        "update_us_p99": percentile(updates, 99) / 1e3,
        "ops_per_s": _median_time(plain, "ops_per_s"),
        "copy_flips_per_update": fp["copy_flips"] / fp["updates"],
        "simple_flips_per_update": fp["simple_flips"] / fp["updates"],
        "max_simple_outdeg_mean": fp["outdeg_sum"] / fp["updates"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    return metrics


def _layer_metrics(plain: list[PassResult], traced: list[PassResult],
                   per_op: dict) -> dict:
    fp = plain[0].fingerprint
    queries, audits = per_op["query_ns"], per_op["audit_ns"]
    per_root = {"update": fp["updates"], "query": len(queries),
                "audit": len(audits)}

    def per(root, prefix, what, unit_ns=1e3):
        """Median over traced passes of a layer's calls, total or self time
        (scaled), per op of the root kind (0 when the workload has none)."""
        count = per_root[root]
        if not count:
            return 0.0
        idx = ("calls", "total", "self").index(what)
        if what == "calls":
            return statistics.median(
                p.tracer.layer(root, prefix)[idx] for p in traced) / count
        return statistics.median(
            p.tracer.layer(root, prefix)[idx] * p.scale
            for p in traced) / unit_ns / count

    rounding_calls = statistics.median(
        p.tracer.calls[("update", "rounding.counts_changed")] for p in traced)
    traced_update_ns = statistics.median(
        p.tracer.total_ns[("update", "update")] * p.scale for p in traced)
    metrics = {
        "state.self_us": per("update", "update", "self"),
        "state.move_bucket_calls": per("update", "state.move_bucket", "calls"),
        "state.move_bucket_us": per("update", "state.move_bucket", "total"),
        "state.copy_flips": fp["copy_flips"] / fp["updates"],
        "state.chain_max": fp["chain_max"],
        "state.scan_steps": fp["scan_steps"] / fp["updates"],
        "state.suppressed": fp["suppressed"] / fp["updates"],
        "state.bucket_nodes": fp["bucket_nodes"],
        "state.entries": fp["entries"],
        "rounding.calls": per("update", "rounding", "calls"),
        "rounding.self_us": per("update", "rounding", "self"),
        "rounding.useful_ratio": fp["simple_flips"] / rounding_calls
        if rounding_calls else 0.0,
        "density.calls": per("update", "density", "calls"),
        "density.self_us": per("update", "density", "self"),
        "density.report_us": per("query", "density.report", "total"),
        "density.count_at_least_calls": per(
            "query", "density.count_at_least", "calls"),
        "applications.calls": per("update", "applications", "calls"),
        "events.calls": per("update", "events", "calls"),
        "events.self_us": per("update", "events", "self"),
        "oracles.audit_state_ms": per(
            "audit", "oracles.audit_state", "total", 1e6),
        "oracles.exact_density_ms": per(
            "audit", "oracles.exact_density", "total", 1e6),
        "config.bucket_thresholds_ms": _median_time(plain, "thresholds_ms"),
        "workload.parse_ms": _median_time(plain, "parse_ms"),
        "trace.overhead_pct": 100 * (
            traced_update_ns / _median_time(plain, "update_total_ns") - 1),
        "query_us_p50": _median_time(plain, "query_us_p50")
        if queries else 0.0,
        "query_us_p99": percentile(queries, 99) / 1e3 if queries else 0.0,
        "audit_ms_p50": _median_time(plain, "audit_ms_p50")
        if audits else 0.0,
        "audit_ms_p90": percentile(audits, 90) / 1e6 if audits else 0.0,
        "density_ratio_max": float(fp["density_ratio_max"]),
        "max_simple_outdeg": fp["outdeg_peak"],
    }
    for app in tracing.APP_NAMES:
        metrics[f"applications.{app}.self_us"] = per(
            "update", f"applications.{app}", "self")
    return metrics
