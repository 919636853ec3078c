"""Workload files: line format, parsing, and deterministic generators.

A workload is UTF-8, LF-terminated, one op per line, with a mandatory
header declaring the vertex capacity:

    n <N>
    + u v          insert simple edge
    - u v          delete simple edge
    ? density      query the density estimate
    ? densest      query the extracted densest vertex set
    ? matching     query the maintained matching
    ? color u      query a vertex color
    ? matvec i     query entry i of the maintained matrix-vector product
    ! audit        run the full state audit (and oracle checks when small)

Blank lines and lines starting with '#' are ignored.  Generators are pure
functions of their parameters: the same seed yields a byte-identical file.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .errors import WorkloadError

QUERY_KINDS = ("density", "densest", "matching", "color", "matvec")


class WorkloadOp(NamedTuple):
    line_no: int
    kind: str                 # '+', '-', 'audit', or a query kind
    u: int = -1
    v: int = -1


def parse_workload(lines) -> tuple[int, list[WorkloadOp]]:
    """Parse an iterable of lines into (capacity, ops).

    Raises WorkloadError with the offending line number on any structural
    problem; graph-state validity (inserting a present edge, ...) is
    enforced during replay instead, where the same line numbers are used.

    Each line is split once; '+ u v' and '- u v' lines are taken first.  A
    vertex token is converted and range-checked by ``_vertex`` the first
    time it appears and looked up in ``ids`` after that, so a bad token
    still fails on its first line, with that line's number.
    """
    numbered = enumerate(map(str.split, lines), start=1)
    for line_no, parts in numbered:
        if not parts or parts[0][0] == "#":
            continue
        if parts[0] != "n" or len(parts) != 2:
            raise WorkloadError(line_no, "expected header 'n <N>'")
        try:
            n = int(parts[1])
        except ValueError:
            raise WorkloadError(line_no, f"bad capacity {parts[1]!r}")
        if n < 2:
            raise WorkloadError(line_no, "capacity must be at least 2")
        break
    else:
        raise WorkloadError(1, "missing header 'n <N>'")

    ops: list[WorkloadOp] = []
    append = ops.append
    new_op = tuple.__new__
    ids: dict[str, int] = {}
    for line_no, parts in numbered:
        if len(parts) == 3:
            kind, a, b = parts
            if kind == "+" or kind == "-":
                u = ids.get(a)
                if u is None:
                    u = ids[a] = _vertex(a, n, line_no)
                v = ids.get(b)
                if v is None:
                    v = ids[b] = _vertex(b, n, line_no)
                if u == v:
                    raise WorkloadError(line_no, "self-loops are not allowed")
                append(new_op(WorkloadOp, (line_no, kind, u, v)))
                continue
        elif not parts:
            continue
        kind = parts[0]
        if kind[0] == "#":
            continue
        if kind in ("+", "-"):
            raise WorkloadError(line_no, f"expected '{kind} u v'")
        elif kind == "?":
            if len(parts) < 2 or parts[1] not in QUERY_KINDS:
                raise WorkloadError(
                    line_no, f"unknown query {' '.join(parts[1:2])!r}")
            q = parts[1]
            if q in ("color", "matvec"):
                if len(parts) != 3:
                    raise WorkloadError(line_no, f"expected '? {q} <vertex>'")
                append(WorkloadOp(line_no, q, _vertex(parts[2], n, line_no)))
            else:
                if len(parts) != 2:
                    raise WorkloadError(line_no, f"expected '? {q}'")
                append(WorkloadOp(line_no, q))
        elif kind == "!":
            if len(parts) != 2 or parts[1] != "audit":
                raise WorkloadError(line_no, "expected '! audit'")
            append(WorkloadOp(line_no, "audit"))
        else:
            raise WorkloadError(line_no, f"unknown op {kind!r}")
    return n, ops


def load_workload(path) -> tuple[int, list[WorkloadOp]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_workload(fh)


def _vertex(token: str, n: int, line_no: int) -> int:
    try:
        v = int(token)
    except ValueError:
        raise WorkloadError(line_no, f"bad vertex id {token!r}")
    if not 0 <= v < n:
        raise WorkloadError(line_no, f"vertex {v} outside [0, {n})")
    return v


# ----------------------------------------------------------------------
# Generators.
# ----------------------------------------------------------------------

def generate(kind: str, n: int, steps: int, seed: int = 0,
             audit_every: int = 0, **params) -> list[str]:
    """Produce workload lines for one of the named generator kinds."""
    gen = _GENERATORS.get(kind)
    if gen is None:
        raise ValueError(f"unknown generator kind {kind!r}")
    if n < 2:
        raise WorkloadError(1, "capacity must be at least 2")
    ops = gen(n, steps, seed, **params)
    lines = [f"n {n}"]
    for i, op in enumerate(ops, start=1):
        lines.append(op)
        if audit_every and i % audit_every == 0:
            lines.append("! audit")
    return lines


def write_workload(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class _EdgePool:
    """Live edge set with O(1) deterministic random sampling."""

    def __init__(self):
        self.order: list[tuple] = []
        self.index: dict[tuple, int] = {}

    def __len__(self):
        return len(self.order)

    def __contains__(self, e):
        return e in self.index

    def add(self, e) -> None:
        self.index[e] = len(self.order)
        self.order.append(e)

    def remove(self, e) -> None:
        i = self.index.pop(e)
        last = self.order.pop()
        if i < len(self.order):
            self.order[i] = last
            self.index[last] = i

    def sample(self, rng: random.Random):
        return self.order[rng.randrange(len(self.order))]


def _edge(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


def _gen_random(n: int, steps: int, seed: int,
                max_edges: Optional[int] = None):
    """Insert/delete mix keeping the graph sparse (default cap 2n edges):
    below the cap, a step inserts with probability 0.6."""
    rng = random.Random(seed)
    cap = max_edges if max_edges is not None else 2 * n
    pool = _EdgePool()
    ops = []
    for _ in range(steps):
        do_insert = len(pool) == 0 or (
            len(pool) < cap and rng.random() < 0.6)
        if do_insert:
            for _ in range(32):
                e = _edge(rng.randrange(n), rng.randrange(n))
                if e[0] != e[1] and e not in pool:
                    pool.add(e)
                    ops.append(f"+ {e[0]} {e[1]}")
                    break
            else:
                e = pool.sample(rng)
                pool.remove(e)
                ops.append(f"- {e[0]} {e[1]}")
        else:
            e = pool.sample(rng)
            pool.remove(e)
            ops.append(f"- {e[0]} {e[1]}")
    return ops


def _gen_drifting(n: int, steps: int, seed: int, clique: int = 0):
    """Sparse background churn while a clique grows and then dissolves, so
    the maximum subgraph density rises and falls inside one run.  The
    clique size is clamped into [2, n].

    ``steps`` is a length target; the emitted op count tracks it closely.
    """
    rng = random.Random(seed)
    k = max(2, min(clique or max(4, min(20, n // 8)), n))
    clique_edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    phase = clique_edges + list(reversed(clique_edges))
    stride = max(1, (steps - len(phase)) // len(phase))
    pool = set()
    built = set()
    ops = []
    for step_edge in phase:
        for _ in range(stride):
            if n > k + 1:
                u = k + rng.randrange(n - k)
                v = k + rng.randrange(n - k)
                if u == v:
                    continue
                e = _edge(u, v)
                if e in pool:
                    pool.remove(e)
                    ops.append(f"- {e[0]} {e[1]}")
                elif len(pool) < 2 * (n - k):
                    pool.add(e)
                    ops.append(f"+ {e[0]} {e[1]}")
        u, v = step_edge
        if step_edge in built:
            built.remove(step_edge)
            ops.append(f"- {u} {v}")
        else:
            built.add(step_edge)
            ops.append(f"+ {u} {v}")
    return ops


def _gen_clique_path(n: int, steps: int, seed: int, clique: int = 4):
    """A k-clique plus a long path, then random churn on extra path chords;
    k is clamped into [0, n - 1]."""
    rng = random.Random(seed)
    k = max(0, min(clique, n - 1))
    ops = [f"+ {i} {j}" for i in range(k) for j in range(i + 1, k)]
    for v in range(k, n - 1):
        ops.append(f"+ {v} {v + 1}")
    pool = set()
    for _ in range(steps):
        u = k + rng.randrange(max(1, n - k))
        v = k + rng.randrange(max(1, n - k))
        if u == v or abs(u - v) == 1:
            continue
        e = _edge(u, v)
        if e in pool:
            pool.remove(e)
            ops.append(f"- {e[0]} {e[1]}")
        else:
            pool.add(e)
            ops.append(f"+ {e[0]} {e[1]}")
    return ops


def _gen_star_churn(n: int, steps: int, seed: int):
    """Leaf edges of a star appearing and disappearing; arboricity stays 1."""
    rng = random.Random(seed)
    live = set()
    ops = []
    for _ in range(steps):
        leaf = 1 + rng.randrange(n - 1)
        e = (0, leaf)
        if e in live:
            live.remove(e)
            ops.append(f"- 0 {leaf}")
        else:
            live.add(e)
            ops.append(f"+ 0 {leaf}")
    return ops


_GENERATORS = {
    "random": _gen_random,
    "drifting-density": _gen_drifting,
    "clique-plus-path": _gen_clique_path,
    "star-churn": _gen_star_churn,
}
GENERATOR_KINDS = tuple(_GENERATORS)
