"""Density estimation and densest-subgraph extraction from the orientation.

The estimate is the max out-degree of the oriented multigraph divided by the
duplication count b; under the eps-density preset it sandwiches the true
maximum subgraph density within (1+epsilon).  Extraction builds the nested
threshold sets

    T_i = { v : d+(v) >= Delta * (1+eta/b)^(-i) - c * sum_j<=i (1+eta/b)^(-j) }

(c = 2*theta; the sum vanishes for the multiplicative presets), finds the
smallest k whose next set grows by less than a (1+gamma) factor, and returns
T_(k+1); the density of that set is at least estimate/((1+gamma)(1+eta/b)^k)
because no vertex of T_k can orient a copy outside T_(k+1).

One ``DensityTracker`` does both jobs: it listens to the engine's degree
stream, indexing degrees by per-degree vertex sets and the tracked maximum
so a ±1 degree change costs O(1), and it answers the density and
densest-subgraph queries.  Threshold counting and extraction both walk the
degree range down from the maximum; that cost falls on queries, not on
updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .config import OrientationConfig, PRESET_EPS_DENSITY
from .errors import ConfigError, CorruptionError


@dataclass
class DensityReport:
    """Result of one densest-subgraph extraction."""

    estimate: Fraction          # max out-degree of the multigraph over b
    k: int                      # realized threshold index
    subgraph_size: int          # |T_(k+1)|
    thresholds: list = field(default_factory=list)   # V_0 .. V_(k+1)
    vertices: list = field(default_factory=list)     # T_(k+1), degree-descending


class DensityTracker:
    """Per-degree index over exact multigraph out-degrees, and the density
    queries read off it.

    Subscribed to the engine's degree stream; tracks the maximum and answers
    "how many / which vertices have out-degree >= t" by walking the degrees
    from the maximum down to t.
    """

    def __init__(self, cfg: OrientationConfig):
        self.cfg = cfg
        n = cfg.capacity
        self.n = n
        self.deg = [0] * n
        self.delta = 0
        # Per-degree vertex sets for counting and traversal, insertion-ordered.
        self.members: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Engine hook.
    # ------------------------------------------------------------------

    def degree_changed(self, u: int, d: int) -> None:
        old = self.deg[u]
        self.deg[u] = d
        if old > 0:
            bucket = self.members[old]
            del bucket[u]
            if not bucket:
                del self.members[old]
        if d > 0:
            self.members.setdefault(d, {})[u] = None
        if d > self.delta:
            self.delta = d
        elif old == self.delta and d < old:
            m = self.delta
            members = self.members
            while m > 0 and m not in members:
                m -= 1
            self.delta = m

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def count_at_least(self, t) -> int:
        """Number of vertices with out-degree >= t (t may be a Fraction);
        linear in the degree range walked."""
        if t <= 0:
            return self.n
        t = math.ceil(t)
        members = self.members
        return sum(len(members[d]) for d in range(self.delta, t - 1, -1)
                   if d in members)

    def vertices_at_least(self, t) -> list[int]:
        """Vertices with out-degree >= t, degree descending; linear in the
        output plus the degree range walked."""
        if t <= 0:
            return list(range(self.n))
        t = math.ceil(t)
        out = []
        members = self.members
        for d in range(self.delta, t - 1, -1):
            bucket = members.get(d)
            if bucket:
                out.extend(bucket)
        return out

    def value(self) -> Fraction:
        """Raw estimate Delta(multigraph)/b, defined for every preset."""
        return Fraction(self.delta, self.cfg.b)

    def estimate(self) -> Fraction:
        """The (1+epsilon)-sandwich estimate; eps-density preset only."""
        if self.cfg.preset != PRESET_EPS_DENSITY:
            raise ConfigError(
                "density estimate is only guaranteed under the eps-density "
                f"preset (engine runs {self.cfg.preset!r})")
        return self.value()

    def extract(self) -> DensityReport:
        """Extract an approximately densest vertex set (see module docs)."""
        if self.cfg.preset != PRESET_EPS_DENSITY:
            raise ConfigError(
                "densest-subgraph extraction requires the eps-density preset "
                f"(engine runs {self.cfg.preset!r})")
        return self.report()

    def report(self) -> DensityReport:
        """Threshold-set construction at the current state, any preset."""
        cfg = self.cfg
        delta = self.delta
        if delta == 0:
            return DensityReport(Fraction(0), 0, 0, [], [])
        ratio = 1 / (1 + cfg.slack)        # (1+eta/b)^(-1), exact
        c = cfg.c
        k_cap = math.ceil(math.log(cfg.capacity) / math.log(1 + cfg.gamma)) + 1
        one_plus_gamma = 1 + cfg.gamma

        thresholds = [Fraction(delta)]
        sizes = [self.count_at_least(delta)]
        power = Fraction(1)
        csum = Fraction(0)
        k = -1
        for i in range(1, k_cap + 2):
            power *= ratio
            csum += power
            v_i = delta * power - c * csum
            thresholds.append(v_i)
            sizes.append(self.count_at_least(v_i))
            if sizes[i] < one_plus_gamma * sizes[i - 1]:
                k = i - 1
                break
        if k < 0:
            raise CorruptionError(
                "no qualifying threshold index within the growth cap; "
                "the (1+gamma)^k <= n argument excludes this")
        vertices = self.vertices_at_least(thresholds[k + 1])
        return DensityReport(
            estimate=Fraction(delta, cfg.b),
            k=k,
            subgraph_size=sizes[k + 1],
            thresholds=thresholds[:k + 2],
            vertices=vertices,
        )

    # ------------------------------------------------------------------
    # Audits.
    # ------------------------------------------------------------------

    def violations(self, engine) -> list[str]:
        bad = []
        if self.deg != engine.out_deg:
            bad.append("density tracker degrees diverge from the engine")
        if self.delta != max(engine.out_deg, default=0):
            bad.append("density tracker max degree is stale")
        for d, bucket in self.members.items():
            for u in bucket:
                if self.deg[u] != d:
                    bad.append(f"vertex {u} filed under degree {d}")
        total = sum(len(b) for b in self.members.values())
        if total != self.count_at_least(1):
            bad.append("density tracker counts are inconsistent")
        return bad

    def no_escape_violations(self, report: DensityReport,
                             engine) -> list[str]:
        """Audit: every copy oriented out of T_k stays inside T_(k+1)."""
        bad = []
        if not report.thresholds:
            return bad  # empty graph
        deg = self.deg
        t_k = report.thresholds[report.k]
        t_k1 = report.thresholds[report.k + 1]
        for u in self.vertices_at_least(t_k):
            for e in engine.out_entries(u):
                h = engine.e_head[e]
                if deg[h] < t_k1:
                    bad.append(
                        f"copy {u}->{h} escapes T_k (d+({h})={deg[h]} "
                        f"< {t_k1})")
        return bad
