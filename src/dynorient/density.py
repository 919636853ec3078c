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

One ``DensityTracker`` answers the queries from the engine's degrees, filed
in per-degree sets.  At each flush (once per update, once per commit while
an update does not defer its refreshes) the engine names the vertices whose
degree changed, and the tracker only marks them stale.  A read first moves
each stale vertex to the set of its current degree in O(1), then walks from
the maximum Delta down to its last cut, sorting each non-empty level by id:
the vertices come by degree descending, ties by id ascending, whatever the
history.  A read costs O(|stale| + Delta + |T_(k+1)| log |T_(k+1)|) in the
worst case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .config import OrientationConfig
from .errors import CorruptionError


@dataclass
class DensityReport:
    """Result of one densest-subgraph extraction."""

    estimate: Fraction          # max out-degree of the multigraph over b
    k: int                      # realized threshold index
    thresholds: list = field(default_factory=list)   # V_0 .. V_(k+1)
    vertices: list = field(default_factory=list)     # T_(k+1), see report()


class DensityTracker:
    """The vertices filed by exact multigraph out-degree, and the density
    queries read off them.

    ``out_deg`` is the engine's own out-degree list, read at each sync; the
    stack hands it over once the engine is built.  ``deg[u]`` is the degree
    the tracker last placed u at, and ``at[d]`` the set of vertices placed
    at d; ``at`` grows when the maximum first reaches a degree and never
    shrinks.  ``_stale`` holds the vertices named since the last sync, as
    dict keys in first-named order.  Every read (``delta``, ``value``,
    ``count_at_least``, ``vertices_at_least``, ``report``, ``violations``)
    syncs first.
    """

    def __init__(self, cfg: OrientationConfig):
        self.cfg = cfg
        self.n = n = cfg.capacity
        self.out_deg = [0] * n
        self.deg = [0] * n
        self.at = [set(range(n))]
        self._delta = 0
        self._stale: dict[int, None] = {}
        # The thresholds depend only on delta and the config.  Per delta:
        # V_0, V_1, ... and their integer cut-offs max(ceil(V_i), 0),
        # extended as far as a report has needed.  ``_steps[i]`` holds
        # (1+eta/b)^(-i) and c * sum_{j<=i} (1+eta/b)^(-j), so
        # V_i = delta * first - second.
        self._levels: dict[int, tuple[list, list[int]]] = {}
        self._steps = [(Fraction(1), Fraction(0))]
        self._k_cap = math.ceil(math.log(cfg.capacity)
                                / math.log(1 + cfg.gamma)) + 1
        # sizes[i] < (1 + gamma) * sizes[i-1] as grow[1] * sizes[i] <
        # grow[0] * sizes[i-1], in integers.
        g = cfg.gamma
        self._grow = (g.denominator + g.numerator, g.denominator)

    # ------------------------------------------------------------------
    # Engine hook.
    # ------------------------------------------------------------------

    def degree_changed(self, vertices) -> None:
        """The out-degrees of ``vertices`` may have changed: mark each one
        stale, once, for the next sync to place."""
        stale = self._stale
        for u in vertices:
            stale[u] = None

    def _sync(self) -> None:
        """Move each stale vertex from ``at[deg[u]]`` to ``at[out_deg[u]]``.
        The maximum rises to the largest new degree, then walks down past
        the levels left empty."""
        out_deg, deg, at = self.out_deg, self.deg, self.at
        top = self._delta
        for u in self._stale:
            new = out_deg[u]
            if new == deg[u]:
                continue
            at[deg[u]].remove(u)
            deg[u] = new
            if new >= len(at):
                at.extend(set() for _ in range(new + 1 - len(at)))
            at[new].add(u)
            if new > top:
                top = new
        self._stale.clear()
        while top and not at[top]:
            top -= 1
        self._delta = top

    @property
    def delta(self) -> int:
        """The maximum out-degree of the multigraph."""
        if self._stale:
            self._sync()
        return self._delta

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def count_at_least(self, t) -> int:
        """Number of vertices with out-degree >= t (t may be a Fraction)."""
        delta = self.delta
        return sum(map(len, self.at[max(math.ceil(t), 0):delta + 1]))

    def vertices_at_least(self, t) -> list[int]:
        """Vertices with out-degree >= t, degree descending, ties by id
        ascending."""
        delta = self.delta
        levels = self.at[max(math.ceil(t), 0):delta + 1]
        return [u for level in reversed(levels) for u in sorted(level)]

    def value(self) -> Fraction:
        """Raw estimate Delta(multigraph)/b, defined for every preset."""
        return Fraction(self.delta, self.cfg.b)

    def report(self) -> DensityReport:
        """Threshold-set construction at the current state, any preset.
        The vertices come by degree descending, ties by id ascending."""
        cfg = self.cfg
        delta = self.delta
        if delta == 0:
            return DensityReport(Fraction(0), 0, [], [])
        levels = self._levels.get(delta)
        if levels is None:
            levels = self._levels[delta] = ([Fraction(delta)], [delta])
        thresholds, cuts = levels
        grow, base = self._grow
        # One walk from delta down: after step i, ``vertices`` is T_i, level
        # by level, each sorted by id, and ``size`` is |T_i|.
        at = self.at
        vertices = []
        size = prev = 0
        d = delta
        for i in range(self._k_cap + 2):
            if i == len(cuts):
                self._extend(delta, thresholds, cuts)
            while d >= cuts[i]:
                if at[d]:
                    size += len(at[d])
                    vertices += sorted(at[d])
                d -= 1
            if i and base * size < grow * prev:
                break
            prev = size
        else:
            raise CorruptionError(
                "no qualifying threshold index within the growth cap; "
                "the (1+gamma)^k <= n argument excludes this")
        k = i - 1
        return DensityReport(
            estimate=Fraction(delta, cfg.b),
            k=k,
            thresholds=thresholds[:k + 2],
            vertices=vertices,
        )

    def _extend(self, delta: int, thresholds: list, cuts: list) -> None:
        """Append V_i and max(ceil(V_i), 0), i = len(thresholds), to
        delta's lists."""
        i = len(thresholds)
        steps = self._steps
        if i == len(steps):
            power, offset = steps[-1]
            power /= 1 + self.cfg.slack
            steps.append((power, offset + self.cfg.c * power))
        power, offset = steps[i]
        v = delta * power - offset
        thresholds.append(v)
        cuts.append(max(math.ceil(v), 0))

    # ------------------------------------------------------------------
    # Audits.
    # ------------------------------------------------------------------

    def violations(self, engine) -> list[str]:
        """Recount from ``engine.out_deg``, after a sync: the placed degrees,
        each u in ``at[deg[u]]`` with the set sizes summing to n, ``delta``."""
        bad = []
        delta = self.delta
        deg = engine.out_deg
        if self.deg != deg:
            bad.append("density tracker missed a degree change")
        at = self.at
        if sum(map(len, at)) != self.n or any(
                d >= len(at) or u not in at[d]
                for u, d in enumerate(self.deg)):
            bad.append("density tracker sets do not file each vertex once, "
                       "at its placed degree")
        if delta != max(deg, default=0):
            bad.append("density tracker max degree is stale")
        return bad

    def no_escape_violations(self, report: DensityReport,
                             engine) -> list[str]:
        """Audit: every copy oriented out of T_k stays inside T_(k+1)."""
        bad = []
        if not report.thresholds:
            return bad  # empty graph
        deg = engine.out_deg
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
