"""Shared helpers for the suite: deterministic fuzz drivers and graph builders."""

from __future__ import annotations

import random

import pytest

from dynorient import OrientationConfig, OrientationStack
from dynorient.events import OUT_DEGREE_CHANGED
from dynorient.oracles import audit_state


def clique_edges(k, offset=0):
    return [(offset + i, offset + j) for i in range(k) for j in range(i + 1, k)]


def path_edges(lo, hi):
    return [(v, v + 1) for v in range(lo, hi - 1)]


class OnCommit:
    """An event recorder that calls ``fn(u)`` on each ``OUT_DEGREE_CHANGED``
    event, which the engine emits once per commit, after moving u's
    out-degree and filing u in ``pending``, and before any flush the commit
    makes when the update is not ``deferring``."""

    def __init__(self, fn):
        self.fn = fn

    def emit(self, kind, u, v, payload=None):
        if kind == OUT_DEGREE_CHANGED:
            self.fn(u)


class Fuzzer:
    """Random insert/delete mix mirroring the workload generator, driving a
    stack directly so tests can interleave assertions."""

    def __init__(self, stack: OrientationStack, seed: int, n: int = None,
                 delete_bias: float = 0.4, max_edges: int = None):
        self.stack = stack
        self.n = n or stack.cfg.capacity
        self.rng = random.Random(seed)
        self.delete_bias = delete_bias
        self.max_edges = max_edges if max_edges is not None else 2 * self.n
        self.live: list = []
        self.live_set: set = set()

    def step(self) -> None:
        rng = self.rng
        if self.live and (rng.random() < self.delete_bias
                          or len(self.live) >= self.max_edges):
            i = rng.randrange(len(self.live))
            e = self.live[i]
            last = self.live.pop()
            if i < len(self.live):
                self.live[i] = last
            self.live_set.discard(e)
            self.stack.delete(*e)
            return
        for _ in range(64):
            u, v = rng.randrange(self.n), rng.randrange(self.n)
            if u == v:
                continue
            e = (u, v) if u < v else (v, u)
            if e not in self.live_set:
                self.live.append(e)
                self.live_set.add(e)
                self.stack.insert(u, v)
                return

    def run(self, steps: int, audit_every: int = 0) -> None:
        for i in range(1, steps + 1):
            self.step()
            if audit_every and i % audit_every == 0:
                bad = audit_state(self.stack)
                assert not bad, bad[:5]


ALL_PRESETS = [
    ("simple-additive", lambda n: OrientationConfig.simple_additive(n)),
    ("simple-multiplicative",
     lambda n: OrientationConfig.simple_multiplicative(n)),
    ("fast-additive", lambda n: OrientationConfig.fast_additive(n)),
    ("fast-multiplicative",
     lambda n: OrientationConfig.fast_multiplicative(n)),
    ("eps-density", lambda n: OrientationConfig.eps_density(n, 0.5)),
]


@pytest.fixture(params=ALL_PRESETS, ids=[p[0] for p in ALL_PRESETS])
def any_preset_cfg(request):
    name, builder = request.param
    return builder(48)
