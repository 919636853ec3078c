"""Facade wiring one engine to its rounding, density, and application layers."""

from __future__ import annotations

from fractions import Fraction

from .applications import (
    ForestDecomposition,
    GreedyColoring,
    MatVecProduct,
    MaximalMatching,
)
from .config import OrientationConfig, PRESET_EPS_DENSITY
from .density import DensityReport, DensityTracker
from .errors import ConfigError
from .rounding import RoundedOrientation
from .state import OrientationEngine


class OrientationStack:
    """A configured engine plus everything listening to it.

    It builds the rounding layer and the density tracker, then the engine
    with both, the optional event ``recorder`` and ``audit_hooks``.

    Updates go through ``insert``/``delete``, which are the engine's own
    bound methods, so a wrapper set on ``stack.engine`` after the build is
    not seen through them.  Queries are read-only and must run between
    updates (single-writer discipline; the structure may move between
    threads at update boundaries).
    """

    def __init__(self, cfg: OrientationConfig, recorder=None,
                 audit_hooks: bool = False):
        self.cfg = cfg
        self.rounding = RoundedOrientation(cfg.capacity)
        # One object answers the density queries; callers read it as
        # ``tracker`` or as ``density``.  The engine names the vertices whose
        # degree changed to it once per update, and it reads their degrees
        # from the engine's own list when a query syncs it.
        self.tracker = self.density = DensityTracker(cfg)
        self.engine = OrientationEngine(cfg, self.rounding, self.tracker,
                                        recorder, audit_hooks)
        self.tracker.out_deg = self.engine.out_deg
        self.insert = self.engine.insert
        self.delete = self.engine.delete
        self.matching = None
        self.coloring = None
        self.forests = None
        self.matvec = None

    # -- queries -------------------------------------------------------------

    # A broken engine (an update raised part-way) answers no query: its
    # layers may disagree, so any answer could be wrong.

    def density_value(self) -> Fraction:
        self.engine.check_sound()
        return self.density.value()

    def density_estimate(self) -> Fraction:
        """The (1+epsilon)-sandwich estimate; eps-density preset only."""
        self._require_eps_density("density estimate is only guaranteed "
                                  "under the eps-density preset")
        return self.density.value()

    def extract_densest(self) -> DensityReport:
        """An approximately densest vertex set; eps-density preset only."""
        self._require_eps_density("densest-subgraph extraction requires "
                                  "the eps-density preset")
        return self.density.report()

    def _require_eps_density(self, what: str) -> None:
        self.engine.check_sound()
        if self.cfg.preset != PRESET_EPS_DENSITY:
            raise ConfigError(f"{what} (engine runs {self.cfg.preset!r})")

    def max_simple_out_degree(self) -> int:
        self.engine.check_sound()
        return self.rounding.max_simple_out_degree()

    # -- applications ---------------------------------------------------------
    # Listeners replay nothing: attach them while the graph is empty.

    def attach_matching(self) -> MaximalMatching:
        if self.matching is None:
            self._check_attachable("matching")
            self.matching = MaximalMatching(self.rounding)
        return self.matching

    def attach_coloring(self) -> GreedyColoring:
        if self.coloring is None:
            self._check_attachable("coloring")
            self.coloring = GreedyColoring(self.rounding)
        return self.coloring

    def attach_forests(self) -> ForestDecomposition:
        if self.forests is None:
            self._check_attachable("forests")
            self.forests = ForestDecomposition(self.rounding)
        return self.forests

    def attach_matvec(self) -> MatVecProduct:
        if self.matvec is None:
            self._check_attachable("matvec")
            self.matvec = MatVecProduct(self)
        return self.matvec

    def _check_attachable(self, name: str) -> None:
        if self.engine.pairs:
            raise RuntimeError(
                f"attach {name} while the graph is empty; listeners do not "
                "replay history")

    def attached_apps(self) -> list:
        return [a for a in (self.matching, self.coloring, self.forests,
                            self.matvec) if a is not None]
