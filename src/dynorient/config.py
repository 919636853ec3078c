"""Engine configuration: tunables, named presets, and exact guard arithmetic.

Every runtime comparison the engine makes is integer arithmetic derived from
the slack ratio eta/b, which is stored as an exact ``Fraction``.  Presets whose
published formulas involve ln N rationalize it once at construction; after
that nothing in the package touches floating point on a decision path.

The named presets trade orientation quality against work per update.  Each
fixes its constants, so a preset's name says which regime a config runs;
``OrientationConfig(capacity, eta, b, gamma, theta, epsilon)`` is the one
path to other values:

===================== ===== ==== =========== ===== =========================
preset                theta b    eta         gamma character
===================== ===== ==== =========== ===== =========================
simple-additive       1     1    1/(2 ln N)  1     exact degrees, additive
simple-multiplicative 0     10   4           1     exact, multiplicative
fast-additive         1     6    5.94/ln N   1     perceived, additive
fast-multiplicative   0     12   4           1     perceived, multiplicative
eps-density           0     f(ε) 4           ε/10  density within (1+ε)
===================== ===== ==== =========== ===== =========================

f(ε) is the smallest even b with 4/b <= ε/10.

The theory behind the multiplicative presets permits far larger eta and b
than these; those values cost orders of magnitude more work per update for
no observable gain at the scales this artifact targets, so the presets are
chosen for practical replay speed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Optional

from .errors import ConfigError

PRESET_SIMPLE_ADDITIVE = "simple-additive"
PRESET_SIMPLE_MULTIPLICATIVE = "simple-multiplicative"
PRESET_FAST_ADDITIVE = "fast-additive"
PRESET_FAST_MULTIPLICATIVE = "fast-multiplicative"
PRESET_EPS_DENSITY = "eps-density"
PRESET_CUSTOM = "custom"

PRESETS = (
    PRESET_SIMPLE_ADDITIVE,
    PRESET_SIMPLE_MULTIPLICATIVE,
    PRESET_FAST_ADDITIVE,
    PRESET_FAST_MULTIPLICATIVE,
    PRESET_EPS_DENSITY,
)

#: Presets that run the engine in exact-degree mode.
BASIC_PRESETS = (PRESET_SIMPLE_ADDITIVE, PRESET_SIMPLE_MULTIPLICATIVE)


def _rationalize(x, name: str) -> Fraction:
    """Turn the parameter called ``name`` into an exact Fraction.

    Floats (e.g. 1/(2 ln N)) are snapped to a nearby rational once; from then
    on all comparisons involving the value are exact.  A value with no
    rational form (NaN, an infinity) is a ConfigError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    try:
        return Fraction(x).limit_denominator(10**6)
    except (ValueError, OverflowError):
        raise ConfigError(f"{name} must be a finite number (got {x})") \
            from None


def _check_capacity(capacity: int) -> None:
    # The additive presets take ln N before they construct the config, and
    # ln N is 0 at N = 1 and undefined below.
    if capacity < 2:
        raise ConfigError("capacity must be at least 2")


def _log_bound(capacity: int) -> Fraction:
    """1/ln N, rationalized: the additive presets keep eta/b below it."""
    _check_capacity(capacity)
    return 1 / _rationalize(math.log(capacity), "ln N")


def _power_bounds(num: int, den: int, j: int, shift: int) -> tuple:
    """Integers lo <= (num/den)^j * 2^shift <= hi, for num >= den, by
    squaring in fixed point: lo rounds every product down, hi up."""
    lo = hi = 1 << shift
    b_lo = (num << shift) // den
    b_hi = -((-num << shift) // den)
    while j:
        if j & 1:
            lo = lo * b_lo >> shift
            hi = -(-hi * b_hi >> shift)
        j >>= 1
        b_lo = b_lo * b_lo >> shift
        b_hi = -(-b_hi * b_hi >> shift)
    return lo, hi


class OrientationConfig:
    """All tunables for one engine instance, frozen at construction.

    Parameters
    ----------
    capacity:
        Fixed number of vertices N.  Vertex ids are 0..N-1; the vertex set
        never grows (parameter formulas depend on ln N).
    eta:
        Invariant slack numerator; eta/b is the multiplicative slack.
    b:
        Edge duplication count: every simple edge is maintained as b
        oriented copies.
    gamma:
        Growth parameter for the threshold-set construction used by the
        density layer and the structural out-degree bound.
    theta:
        0 for the purely multiplicative invariant, 1 for the additive one.
        The additive constant in the maintained invariant is c = 2*theta.
    epsilon:
        Target density approximation; only set by the eps-density preset.
    """

    __slots__ = (
        "capacity", "eta", "b", "gamma", "theta", "epsilon", "preset",
        "slack", "rr_width", "c",
        "_g_lhs", "_g_rhs", "_g_add",
        "_bucket_thresholds",
    )

    def __init__(self, capacity: int, eta, b: int, gamma, theta: int,
                 epsilon=None, preset: str = PRESET_CUSTOM):
        _check_capacity(capacity)
        if theta not in (0, 1):
            raise ConfigError("theta must be 0 or 1")
        if b < 1:
            raise ConfigError("b must be a positive integer")
        eta = _rationalize(eta, "eta")
        gamma = _rationalize(gamma, "gamma")
        if eta <= 0:
            raise ConfigError("eta must be positive")
        if gamma <= 0:
            raise ConfigError("gamma must be positive")
        slack = eta / b
        if slack >= 1:
            raise ConfigError(f"eta/b must be < 1 (got {slack})")
        if theta == 0:
            # Multiplicative invariant: a single edge between fresh vertices
            # forces a ceil(b/2)/floor(b/2) copy split, which only satisfies
            # the invariant when eta exceeds 2 and b is even.
            if eta <= 2:
                raise ConfigError("theta=0 requires eta > 2")
            if b < 2 or b % 2:
                raise ConfigError("theta=0 requires an even b >= 2")
        if epsilon is not None:
            epsilon = _rationalize(epsilon, "epsilon")
            if not (0 < epsilon < 1):
                raise ConfigError("epsilon must lie in (0, 1)")

        self.capacity = capacity
        self.eta = eta
        self.b = b
        self.gamma = gamma
        self.theta = theta
        self.epsilon = epsilon
        self.preset = preset
        self.slack = slack
        self.c = 2 * theta
        # Round-robin width: ceil(128 / (eta/b)).
        p, q = slack.numerator, slack.denominator
        self.rr_width = -((-128 * q) // p)

        # Integer guard constants.  Exact-degree mode tests
        #   d(u)+1 > (1 + eta/b) * d(x) + 2*theta
        # which with slack = p/q becomes
        #   (d(u)+1)*q > (q+p)*d(x) + 2*theta*q.
        self._g_lhs = q
        self._g_rhs = q + p
        self._g_add = 2 * theta * q

        self._bucket_thresholds: Optional[list] = None

    # ------------------------------------------------------------------
    # Invariant checks shared by audits (exact rational comparisons).
    # ------------------------------------------------------------------

    def invariant_ok(self, d_tail: int, d_head: int) -> bool:
        """Terminal invariant for a directed copy tail->head:
        d(tail) <= (1 + eta/b) * d(head) + 2*theta."""
        return d_tail * self._g_lhs <= self._g_rhs * d_head + self._g_add

    # ------------------------------------------------------------------
    # Geometric bucketing (perceived-degree mode only).
    # ------------------------------------------------------------------

    def bucket_thresholds(self) -> list:
        """Integer lower boundaries of the geometric degree buckets.

        thresholds[j] is the smallest integer d with d >= (1 + slack/64)^j,
        exact, so bucket boundaries never flicker.  The table covers every
        degree reachable under the fixed capacity (d <= (N-1)*b), repeats
        included.  The perceived-degree engine walks it once, when it is
        built, into its per-degree key table.

        base = num/den is in lowest terms with den > 1, so base^j is never an
        integer for j >= 1 and its ceiling is its floor plus one: threshold
        t stands for the powers in (t-1, t).  The table is built at a cost
        per distinct threshold, in two regions.

        Dense region, t - 1 < 64/slack: consecutive powers there differ by
        less than 1, so every integer t appears, repeated
        floor(log_base t) - floor(log_base(t-1)) times.  The floor comes
        from float logs; when a log lies within 1e-9 (relative) of an
        integer k it is settled exactly, by num^k <= t * den^k.

        Sparse region, beyond: powers are taken one at a time, and each is
        a distinct threshold.  The floor comes from integer bounds
        lo <= base^j * 2^128 <= hi, carried from one power to the next: when
        lo and hi share a floor it is exact; otherwise it is taken from the
        exact power num^j / den^j, which also re-seeds the bounds.
        """
        if self._bucket_thresholds is None:
            base = 1 + self.slack / 64
            num, den = base.numerator, base.denominator
            limit = (self.capacity - 1) * self.b + 1
            thresholds = [1]
            # Dense region: t runs over 2 .. min(limit, floor(64/slack) + 1).
            # The repeat count is exact for any t, so a last t whose count is
            # 0 only adds nothing.
            dense_end = min(limit, den // (num - den) + 1)
            log = math.log
            per_log = 1 / math.log1p((num - den) / den)
            below = 0  # floor(log_base(t - 1))
            for t in range(2, dense_end + 1):
                x = log(t) * per_log
                at = int(x)
                slop = 1e-9 * x
                if not slop < x - at < 1 - slop:
                    k = round(x)
                    at = k if num ** k <= t * den ** k else k - 1
                thresholds += [t] * (at - below)
                below = at
            # Sparse region: from the first power above dense_end.
            shift = 128
            j = len(thresholds)
            lo, hi = _power_bounds(num, den, j, shift)
            while True:
                f = lo >> shift
                if f != hi >> shift:
                    pn, pd = num ** j, den ** j
                    f = pn // pd
                    lo = (pn << shift) // pd
                    hi = -((-pn << shift) // pd)
                if f + 1 > limit:
                    break
                thresholds.append(f + 1)
                j += 1
                lo = lo * num // den
                hi = -((-hi * num) // den)
            self._bucket_thresholds = thresholds
        return self._bucket_thresholds

    def bucket_index(self, d: int) -> int:
        """Bucket j with (1+slack/64)^j <= d < (1+slack/64)^(j+1).

        The rightmost threshold <= d, found by ``bisect_right`` on the
        sorted table.  Zero (and anything below it) maps to the reserved
        sentinel index -1, because the geometric buckets start at
        thresholds[0] = 1.  This is the definition; the engine reads the
        same key from the table it builds once per degree, and never calls
        this on an update.
        """
        return bisect_right(self.bucket_thresholds(), d) - 1

    # ------------------------------------------------------------------
    # Presets.
    # ------------------------------------------------------------------

    @classmethod
    def simple_additive(cls, capacity: int) -> "OrientationConfig":
        """Additive invariant on the plain graph: b = 1, eta = 1/(2 ln N)."""
        _check_capacity(capacity)
        eta = _rationalize(1.0 / (2.0 * math.log(capacity)), "eta")
        cfg = cls(capacity, eta, 1, 1, theta=1, preset=PRESET_SIMPLE_ADDITIVE)
        cfg._check_log_bound()
        return cfg

    @classmethod
    def simple_multiplicative(cls, capacity: int) -> "OrientationConfig":
        """Multiplicative invariant with exact degrees: eta = 4, b = 10.

        These keep replay practical; the published analysis allows any
        eta > 2 with eta/b inversely proportional to ln N.
        """
        return cls(capacity, 4, 10, 1, theta=0,
                   preset=PRESET_SIMPLE_MULTIPLICATIVE)

    @classmethod
    def fast_additive(cls, capacity: int) -> "OrientationConfig":
        """Additive invariant with perceived degrees: b = 6 and eta at 99/100
        of the bound eta/b < 1/ln N."""
        b = 6
        eta = b * _log_bound(capacity) * Fraction(99, 100)
        cfg = cls(capacity, eta, b, 1, theta=1, preset=PRESET_FAST_ADDITIVE)
        cfg._check_log_bound()
        return cfg

    @classmethod
    def fast_multiplicative(cls, capacity: int) -> "OrientationConfig":
        """Multiplicative invariant with perceived degrees: eta = 4, b = 12."""
        return cls(capacity, 4, 12, 1, theta=0,
                   preset=PRESET_FAST_MULTIPLICATIVE)

    @classmethod
    def eps_density(cls, capacity: int, epsilon) -> "OrientationConfig":
        """Fast-multiplicative tuned so b * max-out-degree tracks the maximum
        subgraph density within a factor (1+epsilon).

        With eps' = epsilon/10 we take eta = 4, gamma = eps' and the smallest
        even b with eta/b <= eps'.  The resulting estimate ratio is at most
        (1+gamma)*(1+eta/b)^k <= (1+eps')^(k+1) where k is the realized
        threshold index of the extraction, so the (1+epsilon) envelope holds
        whenever k+1 <= ln(1+eps)/ln(1+eps'); the density layer asserts the
        envelope directly.
        """
        epsilon = _rationalize(epsilon, "epsilon")
        if not (0 < epsilon < 1):
            raise ConfigError("epsilon must lie in (0, 1)")
        eps_prime = epsilon / 10
        b = math.ceil(4 / eps_prime)
        if b % 2:
            b += 1
        return cls(capacity, 4, b, eps_prime, theta=0, epsilon=epsilon,
                   preset=PRESET_EPS_DENSITY)

    @classmethod
    def from_preset(cls, preset: str, capacity: int,
                    epsilon=None) -> "OrientationConfig":
        """Build a preset by name (CLI entry point)."""
        if preset == PRESET_SIMPLE_ADDITIVE:
            return cls.simple_additive(capacity)
        if preset == PRESET_SIMPLE_MULTIPLICATIVE:
            return cls.simple_multiplicative(capacity)
        if preset == PRESET_FAST_ADDITIVE:
            return cls.fast_additive(capacity)
        if preset == PRESET_FAST_MULTIPLICATIVE:
            return cls.fast_multiplicative(capacity)
        if preset == PRESET_EPS_DENSITY:
            if epsilon is None:
                raise ConfigError("eps-density requires epsilon")
            return cls.eps_density(capacity, epsilon)
        raise ConfigError(f"unknown preset {preset!r}")

    def _check_log_bound(self) -> None:
        # Additive presets keep eta/b < 1/ln N.
        bound = _log_bound(self.capacity)
        if not self.slack < bound:
            raise ConfigError(
                f"eta/b = {self.slack} violates the {self.preset} bound {bound}")

    def is_fast(self) -> bool:
        return self.preset not in BASIC_PRESETS

    def __repr__(self) -> str:
        return (f"OrientationConfig(preset={self.preset!r}, N={self.capacity}, "
                f"eta={self.eta}, b={self.b}, gamma={self.gamma}, "
                f"theta={self.theta}, epsilon={self.epsilon})")
