"""Replay, metrics, and bench: the driver behind the CLI.

Replay runs a workload against a configured stack, emits one metrics row
per op (fixed CSV column order), answers queries on stdout-style sinks, and
runs the full audit at every ``! audit`` line and every ``audit_every`` ops.
When the capacity is within the flow oracle's limit, audits also compare
the maintained estimate against the exact density (asserting the sandwich
under the eps-density preset); above it the comparison is skipped and
counted.
"""

from __future__ import annotations

import csv
import math
import time
from typing import Optional

from .config import OrientationConfig, PRESET_EPS_DENSITY
from .errors import ConfigError, GraphUpdateError, WorkloadError
from .events import KIND_NAMES
from .oracles import FLOW_LIMIT_DEFAULT, audit_state, exact_density
from .stack import OrientationStack
from .workload import WorkloadOp

CSV_COLUMNS = [
    "op_index", "op_kind", "copy_flips", "simple_flips", "chain_length",
    "scan_steps", "suppressed", "max_outdeg_simple", "delta_Gb",
    "density_estimate", "oracle_density", "wall_nanos",
]


class EventLogWriter:
    """Recorder-compatible sink streaming events to a text file."""

    def __init__(self, fh):
        self.fh = fh

    def emit(self, kind: int, u: int, v: int, payload=None) -> None:
        if payload is None:
            self.fh.write(f"{KIND_NAMES[kind]} {u} {v}\n")
        else:
            self.fh.write(f"{KIND_NAMES[kind]} {u} {v} {payload}\n")


class ReplayResult:
    def __init__(self):
        self.rows: list[list] = []
        self.query_lines: list[str] = []
        self.audits = 0
        # Audits that skipped the exact-density comparison because the
        # capacity exceeds the oracle limit.
        self.oracle_skipped = 0
        self.max_recourse_ratio = 0.0

    def summary(self) -> dict:
        return {
            "ops": len(self.rows),
            "audits": self.audits,
            "oracle_skipped": self.oracle_skipped,
            "max_recourse_ratio": self.max_recourse_ratio,
        }


def replay(capacity: int, ops: list[WorkloadOp], cfg: OrientationConfig,
           audit_every: int = 0, oracle_limit: int = FLOW_LIMIT_DEFAULT,
           csv_out=None, query_out=None, recorder=None) -> ReplayResult:
    """Drive a stack through parsed ops.  Raises WorkloadError (with the
    op's line number) on rejected updates, audit violations, or failed
    oracle comparisons."""
    if cfg.capacity != capacity:
        raise WorkloadError(1, f"workload capacity {capacity} differs from "
                                f"config capacity {cfg.capacity}")
    stack = OrientationStack(cfg, recorder=recorder)
    need = {op.kind for op in ops}
    if "matching" in need:
        stack.attach_matching()
    if "color" in need:
        stack.attach_coloring()
    if "matvec" in need:
        stack.attach_matvec()
    result = ReplayResult()
    writer = csv.writer(csv_out) if csv_out is not None else None
    if writer is not None:
        writer.writerow(CSV_COLUMNS)

    engine = stack.engine
    rounding = stack.rounding
    tracker = stack.tracker
    b = cfg.b
    prev_simple_flips = 0
    mutation_count = 0

    def run_audit(op: WorkloadOp) -> Optional[float]:
        result.audits += 1
        bad = audit_state(stack)
        if bad:
            raise WorkloadError(
                op.line_no, "audit failed: " + "; ".join(bad[:5]))
        if capacity <= oracle_limit:
            rho, _ = exact_density(capacity, list(engine.edges()),
                                   limit=oracle_limit)
            est = stack.density_value()
            if est < rho:
                raise WorkloadError(
                    op.line_no, f"estimate {est} below exact density {rho}")
            if cfg.preset == PRESET_EPS_DENSITY and rho > 0:
                if est > (1 + cfg.epsilon) * rho:
                    raise WorkloadError(
                        op.line_no,
                        f"estimate {est} above (1+eps) * density {rho}")
            return float(rho)
        result.oracle_skipped += 1
        return None

    for op in ops:
        kind = op.kind
        oracle_value: Optional[float] = None
        wall = 0
        copy_flips = chain = scan = suppressed = 0
        if kind == "+" or kind == "-":
            start = time.perf_counter_ns()
            try:
                if kind == "+":
                    stack.insert(op.u, op.v)
                else:
                    stack.delete(op.u, op.v)
            except GraphUpdateError as exc:
                raise WorkloadError(op.line_no, str(exc))
            wall = time.perf_counter_ns() - start
            copy_flips = engine.last_copy_flips
            chain = engine.last_chain
            scan = engine.last_scan
            suppressed = engine.last_suppressed
            mutation_count += 1
            if engine.last_copy_flips:
                budget = 10 * b * math.log(2 + b * tracker.delta)
                ratio = engine.last_copy_flips / budget
                if ratio > result.max_recourse_ratio:
                    result.max_recourse_ratio = ratio
            if audit_every and mutation_count % audit_every == 0:
                oracle_value = run_audit(op)
        elif kind == "audit":
            oracle_value = run_audit(op)
        else:
            line = _answer_query(stack, op)
            result.query_lines.append(line)
            if query_out is not None:
                query_out.write(line + "\n")

        flips_total = rounding.total_simple_flips
        row = [
            len(result.rows), kind, copy_flips,
            flips_total - prev_simple_flips, chain, scan, suppressed,
            rounding.max_simple_out_degree(), tracker.delta,
            repr(tracker.delta / b),
            "" if oracle_value is None else repr(oracle_value),
            wall,
        ]
        prev_simple_flips = flips_total
        result.rows.append(row)
        if writer is not None:
            writer.writerow(row)
    return result


def _answer_query(stack: OrientationStack, op: WorkloadOp) -> str:
    try:
        if op.kind == "density":
            return f"density {stack.density_estimate()}"
        if op.kind == "densest":
            report = stack.extract_densest()
            return "densest " + " ".join(map(str, report.vertices))
        if op.kind == "matching":
            pairs = stack.matching.matching()
            return "matching " + " ".join(f"{u}-{v}" for u, v in pairs)
        if op.kind == "color":
            return f"color {op.u} = {stack.coloring.color_of(op.u)}"
        if op.kind == "matvec":
            return f"matvec {op.u} = {stack.matvec.query(op.u)}"
    except ConfigError as exc:
        raise WorkloadError(op.line_no, str(exc))
    raise WorkloadError(op.line_no, f"unhandled query {op.kind!r}")


def bench(capacity: int, ops: list[WorkloadOp], presets: list[str],
          epsilon=None, csv_out=None) -> dict:
    """Replay the same workload under several presets; combined per-op CSV
    with recourse and max out-degree columns per preset."""
    if not presets:
        raise ConfigError("bench needs at least one preset")
    runs = {}
    for preset in presets:
        cfg = OrientationConfig.from_preset(preset, capacity, epsilon=epsilon)
        runs[preset] = replay(capacity, ops, cfg)
    if csv_out is not None:
        writer = csv.writer(csv_out)
        header = ["op_index", "op_kind"]
        for preset in presets:
            header += [f"copy_flips_{preset}", f"max_outdeg_{preset}"]
        writer.writerow(header)
        flips = CSV_COLUMNS.index("copy_flips")
        outdeg = CSV_COLUMNS.index("max_outdeg_simple")
        first = presets[0]
        for i, base_row in enumerate(runs[first].rows):
            row = [base_row[0], base_row[1]]
            for preset in presets:
                r = runs[preset].rows[i]
                row += [r[flips], r[outdeg]]
            writer.writerow(row)
    return runs
