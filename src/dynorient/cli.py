"""Command-line entry points: generate, replay, bench, oracle."""

from __future__ import annotations

import argparse
import sys

from .config import PRESETS, OrientationConfig
from .errors import ConfigError, OracleLimitError, WorkloadError
from .harness import EventLogWriter, bench, replay
from .oracles import (
    FLOW_LIMIT_DEFAULT,
    exact_arboricity,
    exact_density,
    exact_min_max_outdegree,
)
from .workload import GENERATOR_KINDS, generate, load_workload, write_workload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynorient",
        description="Dynamic bounded-out-degree edge orientation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a deterministic workload")
    gen.add_argument("--kind", choices=GENERATOR_KINDS, default="random")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--steps", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--audit-every", type=int, default=0)
    gen.add_argument("--clique", type=int, default=0,
                     help="clique size for the drifting/clique kinds")
    gen.add_argument("--out", required=True)

    rep = sub.add_parser("replay", help="drive a workload through a preset")
    rep.add_argument("workload")
    rep.add_argument("--preset", choices=PRESETS, default="fast-additive")
    rep.add_argument("--epsilon", type=float, default=None)
    rep.add_argument("--audit-every", type=int, default=0)
    rep.add_argument("--oracle-limit", type=int, default=FLOW_LIMIT_DEFAULT)
    rep.add_argument("--out", default=None, help="metrics CSV path")
    rep.add_argument("--event-log", default=None,
                     help="stream the engine event log to this file")

    ben = sub.add_parser("bench", help="replay one workload under presets")
    ben.add_argument("workload")
    ben.add_argument("--presets", default="simple-additive,fast-additive")
    ben.add_argument("--epsilon", type=float, default=None)
    ben.add_argument("--out", default=None)

    ora = sub.add_parser("oracle", help="exact computations on a final graph")
    ora.add_argument("quantity", choices=["density", "orient", "arboricity"])
    ora.add_argument("workload")
    ora.add_argument("--limit", type=int, default=FLOW_LIMIT_DEFAULT)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            kwargs = {}
            if args.kind in ("drifting-density", "clique-plus-path") \
                    and args.clique:
                kwargs["clique"] = args.clique
            lines = generate(args.kind, args.n, args.steps, seed=args.seed,
                             audit_every=args.audit_every, **kwargs)
            write_workload(args.out, lines)
            print(f"wrote {len(lines)} lines to {args.out}")
            return 0

        if args.command == "replay":
            n, ops = load_workload(args.workload)
            cfg = OrientationConfig.from_preset(args.preset, n,
                                                epsilon=args.epsilon)
            csv_fh = open(args.out, "w", newline="") if args.out else None
            log_fh = open(args.event_log, "w") if args.event_log else None
            try:
                result = replay(
                    n, ops, cfg,
                    audit_every=args.audit_every,
                    oracle_limit=args.oracle_limit,
                    csv_out=csv_fh,
                    query_out=sys.stdout,
                    recorder=EventLogWriter(log_fh) if log_fh else None,
                )
            finally:
                if csv_fh:
                    csv_fh.close()
                if log_fh:
                    log_fh.close()
            s = result.summary()
            print(f"replayed {s['ops']} ops, {s['audits']} audits clean, "
                  f"{s['oracle_skipped']} skipped the exact-density check "
                  f"(oracle limit {args.oracle_limit}), "
                  f"peak recourse ratio {s['max_recourse_ratio']:.3f}")
            return 0

        if args.command == "bench":
            n, ops = load_workload(args.workload)
            presets = [p.strip() for p in args.presets.split(",") if p.strip()]
            csv_fh = open(args.out, "w", newline="") if args.out else sys.stdout
            try:
                runs = bench(n, ops, presets, epsilon=args.epsilon,
                             csv_out=csv_fh)
            finally:
                if args.out:
                    csv_fh.close()
            for preset, res in runs.items():
                print(f"{preset}: {res.summary()}", file=sys.stderr)
            return 0

        if args.command == "oracle":
            n, ops = load_workload(args.workload)
            edges = set()
            for op in ops:
                if op.kind == "+":
                    edges.add((min(op.u, op.v), max(op.u, op.v)))
                elif op.kind == "-":
                    edges.discard((min(op.u, op.v), max(op.u, op.v)))
            edges = sorted(edges)
            if args.quantity == "density":
                rho, witness = exact_density(n, edges, limit=args.limit)
                print(f"density {rho} witness {' '.join(map(str, witness))}")
            elif args.quantity == "orient":
                k, _ = exact_min_max_outdegree(n, edges, limit=args.limit)
                print(f"min-max-outdegree {k}")
            else:
                alpha = exact_arboricity(n, edges)
                print(f"arboricity {alpha}")
            return 0
    except (WorkloadError, ConfigError, OracleLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
