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

One ``DensityTracker`` answers the queries from the engine's degrees.  It
keeps the vertices in one permutation sorted by out-degree and counts, per
degree, the vertices that reach it (Batagelj-Zaversnik bin sort); a
threshold count is one lookup and the vertices above it a prefix of the
permutation.  The engine does not report each +1 and -1: once per update
(once per commit while an update does not defer its refreshes) it names the
vertices whose degree changed, and the tracker only marks them stale.  Every read first syncs: each stale vertex walks from the degree the
tracker last placed it at to its current one, one swap and one counter step
per level crossed.  A vertex crosses each level at most once per sync, so a
sync costs no more swaps than applying every unit change as it came would,
and usually far fewer, since an update's b commits land on few vertices and
partly cancel.  Tied vertices sit in the order the swaps left them, which
depends on history; ``report`` sorts its vertices by degree descending and
vertex id ascending, so its answer depends on the degrees alone.
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
    subgraph_size: int          # |T_(k+1)|
    thresholds: list = field(default_factory=list)   # V_0 .. V_(k+1)
    vertices: list = field(default_factory=list)     # T_(k+1), see report()


class DensityTracker:
    """The vertices sorted by exact multigraph out-degree, and the density
    queries read off them.

    ``out_deg`` is the engine's own out-degree list, read at each sync; the
    stack hands it over once the engine is built.  ``deg[u]`` is the degree
    the tracker last placed u at.  ``order`` lists every vertex by ``deg``,
    descending; ``pos`` is its inverse.  ``ge[d]`` counts the vertices with
    ``deg`` >= d; it grows when the maximum first reaches a degree and never
    shrinks.  ``_stale`` lists, once each, the vertices named since the last
    sync, and ``_marked`` flags them.  Every read (``delta``, ``value``,
    ``count_at_least``, ``vertices_at_least``, ``report``, ``violations``)
    syncs first.
    """

    def __init__(self, cfg: OrientationConfig):
        self.cfg = cfg
        self.n = n = cfg.capacity
        self.out_deg = [0] * n
        self.deg = [0] * n
        self.order = list(range(n))
        self.pos = list(range(n))
        self.ge = [n]
        self._delta = 0
        self._stale: list[int] = []
        self._marked = bytearray(n)
        # The thresholds depend only on delta and the config.  Per delta:
        # V_0, V_1, ... and their integer cut-offs ceil(V_i), extended as far
        # as a report has needed.  ``_steps[i]`` holds (1+eta/b)^(-i) and
        # c * sum_{j<=i} (1+eta/b)^(-j), so V_i = delta * first - second.
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
        marked = self._marked
        stale = self._stale
        for u in vertices:
            if not marked[u]:
                marked[u] = 1
                stale.append(u)

    def _sync(self) -> None:
        """Move each stale vertex from ``deg[u]`` to ``out_deg[u]``, one
        level at a time: going up, u swaps with the first vertex of its
        level, which then starts one place later; going down, with the last
        vertex of its level, which then ends one place earlier.  Each step
        is one swap and one counter step.  Then the maximum is the degree of
        the first vertex."""
        out_deg, deg = self.out_deg, self.deg
        order, pos, ge = self.order, self.pos, self.ge
        marked = self._marked
        for u in self._stale:
            marked[u] = 0
            d = deg[u]
            new = out_deg[u]
            if new == d:
                continue
            deg[u] = new
            if new >= len(ge):
                ge.extend([0] * (new + 1 - len(ge)))
            i = pos[u]
            while d < new:
                d += 1
                j = ge[d]
                ge[d] = j + 1
                w = order[j]
                order[i], order[j] = w, u
                pos[w], pos[u] = i, j
                i = j
            while d > new:
                j = ge[d] - 1
                ge[d] = j
                d -= 1
                w = order[j]
                order[i], order[j] = w, u
                pos[w], pos[u] = i, j
                i = j
        self._stale.clear()
        self._delta = deg[order[0]]

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
        if self._stale:
            self._sync()
        t = max(math.ceil(t), 0)
        return self.ge[t] if t < len(self.ge) else 0

    def vertices_at_least(self, t) -> list[int]:
        """Vertices with out-degree >= t, degree descending; tied vertices
        in no set order."""
        return self.order[:self.count_at_least(t)]

    def value(self) -> Fraction:
        """Raw estimate Delta(multigraph)/b, defined for every preset."""
        return Fraction(self.delta, self.cfg.b)

    def report(self) -> DensityReport:
        """Threshold-set construction at the current state, any preset.
        The vertices come by degree descending, ties by id ascending."""
        cfg = self.cfg
        delta = self.delta
        if delta == 0:
            return DensityReport(Fraction(0), 0, 0, [], [])
        levels = self._levels.get(delta)
        if levels is None:
            levels = self._levels[delta] = ([Fraction(delta)], [delta])
        thresholds, cuts = levels
        grow, base = self._grow
        sizes = [self.count_at_least(delta)]
        k = -1
        for i in range(1, self._k_cap + 2):
            if i == len(cuts):
                self._extend(delta, thresholds, cuts)
            sizes.append(self.count_at_least(cuts[i]))
            if base * sizes[i] < grow * sizes[i - 1]:
                k = i - 1
                break
        if k < 0:
            raise CorruptionError(
                "no qualifying threshold index within the growth cap; "
                "the (1+gamma)^k <= n argument excludes this")
        vertices = sorted(self.vertices_at_least(cuts[k + 1]))
        vertices.sort(key=self.deg.__getitem__, reverse=True)
        return DensityReport(
            estimate=Fraction(delta, cfg.b),
            k=k,
            subgraph_size=sizes[k + 1],
            thresholds=thresholds[:k + 2],
            vertices=vertices,
        )

    def _extend(self, delta: int, thresholds: list, cuts: list) -> None:
        """Append V_i and ceil(V_i), i = len(thresholds), to delta's lists."""
        i = len(thresholds)
        steps = self._steps
        if i == len(steps):
            power, offset = steps[-1]
            power /= 1 + self.cfg.slack
            steps.append((power, offset + self.cfg.c * power))
        power, offset = steps[i]
        v = delta * power - offset
        thresholds.append(v)
        cuts.append(math.ceil(v))

    # ------------------------------------------------------------------
    # Audits.
    # ------------------------------------------------------------------

    def violations(self, engine) -> list[str]:
        """Recount from ``engine.out_deg``, after a sync: every vertex placed
        at its degree, permutation and inverse, degrees non-increasing along
        ``order``, ``ge`` by counting sort, ``delta``."""
        bad = []
        delta = self.delta
        deg = engine.out_deg
        if self.deg != deg:
            bad.append("density tracker missed a degree change")
        order = self.order
        if sorted(order) != list(range(self.n)) \
                or any(self.pos[u] != i for i, u in enumerate(order)):
            bad.append("density tracker order/pos is not a permutation")
        elif any(deg[u] < deg[w] for u, w in zip(order, order[1:])):
            bad.append("density tracker order is not degree-descending")
        top = max(deg, default=0)
        if delta != top:
            bad.append("density tracker max degree is stale")
        ge = self.ge
        want = [0] * (max(top + 1, len(ge)) + 1)
        for x in deg:
            want[x] += 1
        for d in range(len(want) - 2, -1, -1):
            want[d] += want[d + 1]
        if top >= len(ge) or ge != want[:len(ge)]:
            bad.append("density tracker counts disagree with a recount")
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
