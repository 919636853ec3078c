import math
from fractions import Fraction

import pytest

from dynorient import ConfigError, OrientationConfig
from dynorient.config import PRESETS


def test_simple_additive_formula():
    cfg = OrientationConfig.simple_additive(500)
    assert cfg.theta == 1
    assert cfg.b == 1
    assert abs(float(cfg.eta) - 1 / (2 * math.log(500))) < 1e-9
    # spec bound: eta/b < 1/(ln N * max(1/gamma, 1))
    assert cfg.slack < Fraction(1) / Fraction(math.log(500)).limit_denominator(10**6)


def test_fast_additive_respects_log_bound():
    cfg = OrientationConfig.fast_additive(256)
    assert cfg.theta == 1 and cfg.b == 6
    assert float(cfg.slack) < 1 / math.log(256)


def test_multiplicative_presets_require_eta_above_two():
    with pytest.raises(ConfigError):
        OrientationConfig(capacity=16, eta=2, b=10, gamma=1, theta=0)
    with pytest.raises(ConfigError):
        OrientationConfig(capacity=16, eta=3, b=9, gamma=1, theta=0)  # odd b
    cfg = OrientationConfig.simple_multiplicative(64)
    assert cfg.theta == 0 and cfg.eta > 2 and cfg.b % 2 == 0


def test_slack_must_stay_below_one():
    with pytest.raises(ConfigError):
        OrientationConfig(capacity=8, eta=3, b=2, gamma=1, theta=1)


def test_eps_density_parameterisation():
    cfg = OrientationConfig.eps_density(256, Fraction(1, 2))
    assert cfg.theta == 0
    assert cfg.gamma == Fraction(1, 20)  # eps/10
    assert cfg.b % 2 == 0
    assert cfg.slack <= cfg.gamma
    # eta=4, eps'=1/20 -> b = 80
    assert cfg.b == 80
    with pytest.raises(ConfigError):
        OrientationConfig.eps_density(64, 1.5)


def test_derived_constant_c():
    assert OrientationConfig.simple_additive(32).c == 2
    assert OrientationConfig.fast_multiplicative(32).c == 0


def test_rr_width_formula():
    cfg = OrientationConfig(capacity=32, eta=Fraction(1, 2), b=1, gamma=1,
                            theta=1)
    # ceil(128 / (1/2)) = 256
    assert cfg.rr_width == 256


class TestBucketIndex:
    def _cfg(self):
        # slack 16/5 / 5 = 0.64, so the bucket base is exactly 1.01.
        return OrientationConfig(capacity=1200, eta=Fraction(16, 5), b=5,
                                 gamma=1, theta=1)

    def test_degree_one_is_bucket_zero(self):
        assert self._cfg().bucket_index(1) == 0

    def test_degree_zero_is_sentinel(self):
        assert self._cfg().bucket_index(0) == -1

    def test_large_degree_against_exact_powers(self):
        cfg = self._cfg()
        j = cfg.bucket_index(1000)
        assert j == 694  # floor(ln 1000 / ln 1.01)
        # independent oracle: exact integer powers of 101/100
        assert 101 ** j <= 1000 * 100 ** j
        assert 1000 * 100 ** (j + 1) < 101 ** (j + 1)

    def test_thresholds_partition_the_range(self):
        cfg = OrientationConfig.fast_additive(40)
        ts = cfg.bucket_thresholds()
        assert ts[0] == 1
        assert all(a <= b for a, b in zip(ts, ts[1:]))
        limit = (cfg.capacity - 1) * cfg.b
        for d in range(1, limit + 1):
            j = cfg.bucket_index(d)
            assert ts[j] <= d
            if j + 1 < len(ts):
                assert d < ts[j + 1] or ts[j + 1] == ts[j]
        # every degree maps into the table
        assert cfg.bucket_index(limit) < len(ts)


def _thresholds_by_exact_powers(cfg):
    """Reference table: ceil((1 + slack/64)^j) from exact rational powers."""
    base = 1 + cfg.slack / 64
    num, den = base.numerator, base.denominator
    limit = (cfg.capacity - 1) * cfg.b + 1
    thresholds = [1]
    pn, pd = num, den
    while True:
        t = -((-pn) // pd)
        if t > limit:
            break
        thresholds.append(t)
        pn *= num
        pd *= den
    return thresholds


def _thresholds_by_power_walk(cfg):
    """Reference table for long tables, where exact powers take minutes:
    floor((1 + slack/64)^j) one power at a time, from integer bounds
    lo <= base^j * 2^128 <= hi carried from power to power and settled by
    the exact power whenever they straddle an integer."""
    base = 1 + cfg.slack / 64
    num, den = base.numerator, base.denominator
    limit = (cfg.capacity - 1) * cfg.b + 1
    thresholds = [1]
    j, lo, hi = 1, 0, -1
    while True:
        f = lo >> 128
        if f != hi >> 128:
            pn, pd = num ** j, den ** j
            f = pn // pd
            lo, hi = (pn << 128) // pd, -((-pn << 128) // pd)
        if f + 1 > limit:
            return thresholds
        thresholds.append(f + 1)
        j += 1
        lo, hi = lo * num // den, -((-hi * num) // den)


def _near_integer_log(above):
    """A config whose base is 2^(1/100) to 30 digits, rounded up or down:
    log_base 2 then lies within 1e-26 of 100, where a float log cannot tell
    on which side of 100 it lies."""
    scale = 10**30
    lo, hi = scale, 2 * scale  # lo^100 <= 2 * scale^100 < hi^100
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** 100 <= 2 * scale ** 100:
            lo = mid
        else:
            hi = mid
    base = Fraction(hi if above else lo, scale)
    return OrientationConfig(capacity=40, eta=64 * (base - 1), b=1, gamma=1,
                             theta=1)


@pytest.mark.parametrize("make, reference", [
    pytest.param(lambda preset=preset, n=n: OrientationConfig.from_preset(
        preset, n, epsilon=Fraction(1, 2)), _thresholds_by_exact_powers,
        id=f"{preset}-{n}")
    for preset in PRESETS for n in (2, 60, 500)
    # eta/b would reach 1: the preset has no config at N=2.
    if (preset, n) != ("fast-additive", 2)] + [
    # Base 1 + 1/6400: the dense region holds 6,400 values in runs of up to
    # 4,436 repeats, the sparse region 8,352 (n = 60) or 30,900 (n = 2000)
    # distinct powers.
    pytest.param(lambda n=n: OrientationConfig.eps_density(
        n, Fraction(1, 10)), _thresholds_by_power_walk,
        id=f"eps-density-tenth-{n}") for n in (60, 2000)
] + [
    pytest.param(lambda: TestBucketIndex()._cfg(),
                 _thresholds_by_exact_powers, id="base-1.01"),
    pytest.param(lambda: _near_integer_log(True), _thresholds_by_exact_powers,
                 id="near-integer-log-above"),
    pytest.param(lambda: _near_integer_log(False), _thresholds_by_exact_powers,
                 id="near-integer-log-below"),
])
def test_bucket_thresholds_match_exact_powers(make, reference):
    cfg = make()
    assert cfg.bucket_thresholds() == reference(cfg)


def test_invariant_ok_exactness():
    cfg = OrientationConfig(capacity=16, eta=Fraction(1, 4), b=1, gamma=1,
                            theta=1)
    # d(u) <= 1.25 d(v) + 2: boundary at d(v)=4 -> 7 allowed, 8 not
    assert cfg.invariant_ok(7, 4)
    assert not cfg.invariant_ok(8, 4)


def test_from_preset_round_trip():
    for name in ("simple-additive", "simple-multiplicative", "fast-additive",
                 "fast-multiplicative"):
        assert OrientationConfig.from_preset(name, 64).preset == name
    cfg = OrientationConfig.from_preset("eps-density", 64, epsilon=0.25)
    assert cfg.preset == "eps-density"
    with pytest.raises(ConfigError):
        OrientationConfig.from_preset("eps-density", 64)
    with pytest.raises(ConfigError):
        OrientationConfig.from_preset("nope", 64)


@pytest.mark.parametrize("override, message", [
    ({"capacity": 1}, "capacity must be at least 2"),
    ({"theta": 2}, "theta must be 0 or 1"),
    ({"b": 0}, "b must be a positive integer"),
    ({"eta": 0}, "eta must be positive"),
    ({"gamma": 0}, "gamma must be positive"),
    ({"epsilon": 0}, "epsilon must lie in (0, 1)"),
    ({"epsilon": 1}, "epsilon must lie in (0, 1)"),
    ({"epsilon": math.nan}, "epsilon must be a finite number (got nan)"),
    ({"epsilon": math.inf}, "epsilon must be a finite number (got inf)"),
    ({"eta": -math.inf}, "eta must be a finite number (got -inf)"),
    ({"gamma": math.nan}, "gamma must be a finite number (got nan)"),
], ids=["capacity", "theta", "b", "eta", "gamma", "epsilon-0", "epsilon-1",
        "epsilon-nan", "epsilon-inf", "eta-inf", "gamma-nan"])
def test_config_rejects_each_bad_parameter(override, message):
    params = dict(capacity=16, eta=Fraction(1, 2), b=1, gamma=1, theta=1)
    with pytest.raises(ConfigError) as err:
        OrientationConfig(**{**params, **override})
    assert str(err.value) == message


@pytest.mark.parametrize("capacity", [1, 0, -3])
@pytest.mark.parametrize("preset", PRESETS)
def test_presets_reject_a_capacity_below_two(preset, capacity):
    # The additive presets take ln N before the constructor's check; at
    # N = 1 that divided by zero and below it math.log raised ValueError.
    with pytest.raises(ConfigError) as err:
        OrientationConfig.from_preset(preset, capacity, epsilon=0.5)
    assert str(err.value) == "capacity must be at least 2"


def test_eps_density_rounds_an_odd_b_up():
    # eps' = 4/81, so 4/eps' = 81 and b rounds up to the even 82.
    cfg = OrientationConfig.eps_density(16, Fraction(40, 81))
    assert cfg.b == 82
    assert cfg.slack <= cfg.gamma
