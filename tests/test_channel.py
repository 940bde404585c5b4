"""Channel model: gains, SNRs, rates, breakeven power, scenario files."""

import decimal
import json
import math
import re
import warnings

import numpy as np
import pytest

from relayauction import (
    KINDS,
    direct_snr,
    efficient_allocation,
    load_scenario,
    path_gain,
    rate_increase,
    relayed_snr,
    relayed_snr_limit,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from relayauction.auction import POWER, _Core, _power_cutoff, _UserArrays
from relayauction.channel import LN2, NetworkScenario, SystemParams, UserLink, _log_gain

from conftest import BENCH_SYSTEM, LinkArrays, breakeven_power, coop_rate, direct_rate, rate_increase_power_slope


def test_path_gain_unit_distance():
    assert path_gain((0.0, 0.0), (1.0, 0.0), 4.0) == 1.0


def test_path_gain_200m():
    assert path_gain((0.0, 0.0), (200.0, 0.0), 4.0) == pytest.approx(6.25e-10, rel=1e-12)


def test_path_gain_offaxis():
    # dist^2 = 120^2 + 25^2 = 15025
    expected = 1.0 / 15025.0**2
    assert path_gain((200.0, -25.0), (80.0, 0.0), 4.0) == pytest.approx(expected, rel=1e-12)


def test_path_gain_zero_distance_rejected():
    with pytest.raises(ValueError):
        path_gain((1.0, 2.0), (1.0, 2.0), 4.0)


def _link(g_sd=6.25e-10, g_sr=2.44140625e-8, g_rd=4.8225308641975306e-9, p_s=0.01):
    return UserLink(0, p_s, g_sd, g_sr, g_rd)


def test_direct_snr_bench_value():
    assert direct_snr(_link(), BENCH_SYSTEM) == pytest.approx(0.625, rel=1e-12)


def test_direct_snr_linear_in_power():
    base = direct_snr(_link(), BENCH_SYSTEM)
    assert direct_snr(_link(p_s=0.02), BENCH_SYSTEM) == pytest.approx(2 * base, rel=1e-12)


def test_relayed_snr_zero_power():
    assert relayed_snr(_link(), 0.0, BENCH_SYSTEM) == 0.0


def test_relayed_snr_bench_value():
    # user 2 of the benchmark geometry with the relay at (80, 25):
    # source-relay distance 80 m, relay-destination 120 m
    link = UserLink(1, 0.01, 6.25e-10, 80.0**-4, 120.0**-4)
    got = float(relayed_snr(link, 0.1, BENCH_SYSTEM))
    # independent route: the unnormalized quotient of powers and gains
    p_rd, p_s, s2 = 0.1, 0.01, 1e-11
    expected = (p_rd * p_s * link.gain_rd * link.gain_sr) / (
        s2 * (p_rd * link.gain_rd + p_s * link.gain_sr + s2)
    )
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(15.9884, rel=1e-4)


def test_relayed_snr_negative_power_rejected():
    with pytest.raises(ValueError):
        relayed_snr(_link(), -1e-6, BENCH_SYSTEM)


def test_relayed_snr_approaches_limit():
    link = _link()
    limit = relayed_snr_limit(link, BENCH_SYSTEM)
    assert float(relayed_snr(link, 1e6, BENCH_SYSTEM)) == pytest.approx(limit, rel=1e-3)
    assert float(relayed_snr(link, 1e6, BENCH_SYSTEM)) < limit


def test_relayed_snr_monotone_and_bounded():
    rng = np.random.default_rng(7)
    link = _link()
    limit = relayed_snr_limit(link, BENCH_SYSTEM)
    for _ in range(100):
        p = float(rng.uniform(0.0, 0.5))
        h = 1e-7 * (p + 1.0)
        lo = float(relayed_snr(link, p, BENCH_SYSTEM))
        hi = float(relayed_snr(link, p + h, BENCH_SYSTEM))
        assert 0.0 <= lo < limit
        assert hi > lo


def test_power_for_relayed_snr_inverts():
    link = _link()
    core = _Core((link,), 0.1, BENCH_SYSTEM)
    for target in (0.1, 1.0, 10.0, 20.0):
        p = float(core.power(target)[0])
        assert float(relayed_snr(link, p, BENCH_SYSTEM)) == pytest.approx(target, rel=1e-12)


def test_direct_rate_values():
    zero = UserLink(0, 1e-12, 1e-12, 1.0, 1.0)  # vanishing direct SNR
    assert direct_rate(zero, SystemParams(1.0, 1.0, 4.0)) == pytest.approx(0.0, abs=1e-10)
    one = UserLink(0, 1.0, 1.0, 1.0, 1.0)
    assert direct_rate(one, SystemParams(1.0, 1.0, 4.0)) == pytest.approx(1.0, rel=1e-12)
    assert direct_rate(_link(), BENCH_SYSTEM) == pytest.approx(1e6 * math.log2(1.625), rel=1e-12)
    assert direct_rate(_link(), BENCH_SYSTEM) == pytest.approx(7.0044e5, rel=1e-4)


def test_coop_rate_half_direct_at_zero_power():
    for link in (_link(), UserLink(3, 0.02, 1e-9, 1e-8, 1e-9)):
        assert float(coop_rate(link, 0.0, BENCH_SYSTEM)) == direct_rate(link, BENCH_SYSTEM) / 2.0


def test_coop_rate_bench_value():
    link = UserLink(1, 0.01, 6.25e-10, 80.0**-4, 120.0**-4)
    assert float(coop_rate(link, 0.1, BENCH_SYSTEM)) == pytest.approx(2.0693e6, rel=1e-4)
    # the rate increase in log1p form is the cooperative rate less the direct one
    for p in (0.0, 1e-4, 0.01, 0.1, 10.0):
        want = max(float(coop_rate(link, p, BENCH_SYSTEM)) - direct_rate(link, BENCH_SYSTEM), 0.0)
        assert float(rate_increase(link, p, BENCH_SYSTEM)) == pytest.approx(want, rel=1e-12, abs=1e-6)


def test_coop_rate_monotone():
    link = _link()
    ps = np.linspace(0.0, 0.2, 500)
    rates = np.asarray(coop_rate(link, ps, BENCH_SYSTEM))
    assert np.all(np.diff(rates) >= 0.0)


def test_rate_increase_zero_at_zero_power():
    assert float(rate_increase(_link(), 0.0, BENCH_SYSTEM)) == 0.0


def test_rate_increase_bench_full_power():
    link = UserLink(1, 0.01, 6.25e-10, 80.0**-4, 120.0**-4)
    assert float(rate_increase(link, 0.1, BENCH_SYSTEM)) == pytest.approx(1.3689e6, rel=1e-4)


def test_rate_increase_zero_when_snr_gain_too_small():
    # relayed SNR at or below g^2 + g buys nothing; verified by scanning
    link = _link()
    g = direct_snr(link, BENCH_SYSTEM)
    kink = g * g + g
    ps = np.linspace(0.0, 0.5, 20001)
    snrs = np.asarray(relayed_snr(link, ps, BENCH_SYSTEM))
    gains = np.asarray(rate_increase(link, ps, BENCH_SYSTEM))
    assert np.all(gains[snrs <= kink] == 0.0)
    assert np.all(gains[snrs > kink * (1 + 1e-9)] > 0.0)


def test_rate_increase_shape_around_breakeven():
    link = _link()
    x0 = breakeven_power(link, BENCH_SYSTEM)
    budget = 0.1
    ps = np.linspace(0.0, budget, 10001)
    gains = np.asarray(rate_increase(link, ps, BENCH_SYSTEM))
    assert np.all(np.diff(gains) >= -1e-9)
    assert np.all(gains[ps < x0 * (1 - 1e-9)] == 0.0)
    assert np.all(gains[ps > x0 * (1 + 1e-6)] > 0.0)


@pytest.mark.parametrize("budget", [1e-3, 0.1, 10.0])
def test_rate_increase_exact_on_weak_direct_links(budget):
    # at the power cutoff points of links with direct SNR g = 1e-7..1e-3, where
    # 0.5 W log2(1+g+s) - W log2(1+g) loses digits to cancellation, the rate increase
    # is within 2e-15 of a 40-digit evaluation of (W / 2 ln 2) ln((1+g+s) / (1+g)^2)
    sys = BENCH_SYSTEM
    gs = np.geomspace(1e-7, 1e-3, 13)
    users = tuple(UserLink(i, 0.01, g * sys.noise_w / 0.01, 60.0**-4, 90.0**-4) for i, g in enumerate(gs))
    arrays = _UserArrays.of(NetworkScenario(users, budget, sys), POWER)
    points = _power_cutoff(arrays)[0]
    got = rate_increase(LinkArrays.of(users), points, sys)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = decimal.Decimal
        k = d(sys.bandwidth_hz) / (2 * d(2).ln())
        for u, p, r in zip(users, points.tolist(), got.tolist()):
            g = d(u.source_power_w) * d(u.gain_sd) / d(sys.noise_w)
            b = d(u.source_power_w) * d(u.gain_sr) / d(sys.noise_w)
            a = d(p) * d(u.gain_rd) / d(sys.noise_w)
            want = k * ((1 + g + a * b / (a + b + 1)) / (1 + g) ** 2).ln()
            assert want > 0 and abs(d(r) - want) <= d(2e-15) * want


def test_dead_user_with_huge_direct_snr_gains_nothing_without_warnings():
    # g = 1e16: (s - g^2 - g) / (1+g)^2 rounds to -1 or below, where log1p gives nan or -inf
    sys = SystemParams(1e6, 1e-30, 4.0)
    link = UserLink(0, 0.01, 1e-12, 1.0, 1e-20)
    sc = NetworkScenario((link,), 1.0, sys)
    g, s, k = direct_snr(link, sys), float(relayed_snr(link, 1.0, sys)), sys.bandwidth_hz / (2.0 * LN2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in KINDS:
            assert not _UserArrays.of(sc, kind).regular.any()
        assert rate_increase(link, 1.0, sys) == 0.0
        assert efficient_allocation(sc).total_rate_increase_bps == 0.0
        # u stays exact where it is negative, and bit-equal to the log1p form beside such a user
        gs = np.array([g, 1.0])
        u = _log_gain(np.array([s, 3.0]), gs, gs * gs, (1.0 + gs) ** 2, k)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = decimal.Decimal
        want = d(k) * ((1 + d(g) + d(s)) / (1 + d(g)) ** 2).ln()
        assert want < 0 and abs(d(u[0]) - want) <= d(1e-15) * -want
    assert u[1] == k * np.log1p(0.25)


def test_breakeven_zero_direct_snr():
    link = UserLink(0, 1e-30, 1e-30, 1e-8, 1e-9)  # direct SNR underflows to ~0
    assert breakeven_power(link, BENCH_SYSTEM) == pytest.approx(0.0, abs=1e-18)


def test_breakeven_unreachable():
    # asymptotic relayed SNR below the kink level
    link = UserLink(0, 0.01, 6.25e-10, 1e-11, 1e-9)
    assert breakeven_power(link, BENCH_SYSTEM) is None


def test_breakeven_matches_bisection_oracle():
    # user 1 of the benchmark geometry with the relay at (80, -25)
    link = UserLink(0, 0.01, 200.0**-4, 120.0**-4, 80.0**-4)
    got = breakeven_power(link, BENCH_SYSTEM)

    def excess(p):
        return float(coop_rate(link, p, BENCH_SYSTEM)) - direct_rate(link, BENCH_SYSTEM)

    lo, hi = 1e-9, 0.1
    assert excess(lo) < 0 < excess(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert got == pytest.approx(0.5 * (lo + hi), rel=1e-9)


def test_rate_increase_power_slope_matches_finite_difference():
    link = UserLink(1, 0.01, 6.25e-10, 80.0**-4, 120.0**-4)
    for p in (0.01, 0.05, 0.1):
        h = 1e-9
        fd = (float(rate_increase(link, p + h, BENCH_SYSTEM)) - float(rate_increase(link, p - h, BENCH_SYSTEM))) / (2 * h)
        assert rate_increase_power_slope(link, p, BENCH_SYSTEM) == pytest.approx(fd, rel=1e-5)
    # flat region reports zero marginal value
    assert rate_increase_power_slope(link, 1e-7, BENCH_SYSTEM) == 0.0


def test_geometry_gains_recompute(scenario_y25):
    alpha = scenario_y25.system.pathloss_exponent
    for u in scenario_y25.users:
        assert u.gain_sd == pytest.approx(path_gain(u.source, u.destination, alpha), rel=1e-12)
        assert u.gain_sr == pytest.approx(path_gain(u.source, scenario_y25.relay, alpha), rel=1e-12)
        assert u.gain_rd == pytest.approx(path_gain(scenario_y25.relay, u.destination, alpha), rel=1e-12)


def test_scenario_json_roundtrip(tmp_path, scenario_y0):
    path = tmp_path / "scenario.json"
    save_scenario(scenario_y0, path)
    loaded = load_scenario(path)
    assert loaded == scenario_y0


def test_scenario_dict_with_explicit_gains():
    doc = {
        "system": {"bandwidth_hz": 1e6, "noise_w": 1e-11, "pathloss_exponent": 4},
        "relay_budget_w": 0.1,
        "users": [
            {"source_power_w": 0.01, "gain_sd": 6.25e-10, "gain_sr": 2e-8, "gain_rd": 5e-9}
        ],
    }
    sc = scenario_from_dict(doc)
    assert sc.n_users == 1
    assert direct_snr(sc.users[0], sc.system) == pytest.approx(0.625, rel=1e-12)
    # round-trips through its dict form
    assert scenario_from_dict(scenario_to_dict(sc)) == sc


def test_scenario_dict_positional_needs_relay():
    doc = {
        "system": {"bandwidth_hz": 1e6, "noise_w": 1e-11, "pathloss_exponent": 4},
        "relay_budget_w": 0.1,
        "users": [{"source_power_w": 0.01, "source": [0, 0], "destination": [100, 0]}],
    }
    with pytest.raises(ValueError):
        scenario_from_dict(doc)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        SystemParams(0.0, 1e-11, 4.0)
    with pytest.raises(ValueError):
        UserLink(0, 0.01, 0.0, 1e-8, 1e-9)
    with pytest.raises(ValueError):
        path_gain((0, 0), (1, 0), 0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 10**400])  # an int float() cannot hold
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(ValueError, match="gain_sd must be finite"):
        UserLink(0, 0.01, bad, 1e-8, 1e-9)
    with pytest.raises(ValueError, match="source_power_w must be finite"):
        UserLink(0, bad, 6.25e-10, 1e-8, 1e-9)
    with pytest.raises(ValueError, match="noise_w must be finite"):
        SystemParams(1e6, bad, 4.0)
    with pytest.raises(ValueError, match="relay_budget_w must be finite"):
        NetworkScenario((_link(),), bad, BENCH_SYSTEM)


def _gain_doc(**gains):
    user = {"source_power_w": 0.01, "gain_sd": 6.25e-10, "gain_sr": 2e-8, "gain_rd": 5e-9}
    user.update(gains)
    return {
        "system": {"bandwidth_hz": 1e6, "noise_w": 1e-11, "pathloss_exponent": 4},
        "relay_budget_w": 0.1,
        "users": [{"source_power_w": 0.01, "gain_sd": 6.25e-10, "gain_sr": 2e-8, "gain_rd": 5e-9}, user],
    }


def test_scenario_dict_rejects_infinite_gain():
    with pytest.raises(ValueError, match="gain_sd must be finite"):
        scenario_from_dict(_gain_doc(gain_sd=math.inf))
    # the JSON token Infinity parses to the same float
    with pytest.raises(ValueError, match="gain_rd must be finite"):
        scenario_from_dict(json.loads(json.dumps(_gain_doc(gain_rd=math.inf))))


@pytest.mark.parametrize(
    "gains, message",
    [
        # direct SNR 0.01 * 1e300 / 1e-11 overflows
        ({"gain_sd": 1e300}, "user 1: gain_sd gives a direct SNR of inf"),
        # direct SNR 1e161 is finite, its breakeven level g^2 + g is not
        ({"gain_sd": 1e150}, "user 1: gain_sd gives a breakeven SNR level"),
        # direct SNR underflows to zero: no breakeven structure is left
        ({"source_power_w": 1e-300, "gain_sd": 1e-300}, "user 1: gain_sd gives a direct SNR of 0.0"),
        ({"gain_sr": 1e300}, "user 1: gain_sr gives an SNR limit that overflows"),
        # 0.1 W * 1e300 / 1e-11 at the relay-destination hop
        ({"gain_rd": 1e300}, "user 1: gain_rd gives a relay-destination SNR at the budget"),
        # a = 1e19 at the relay-destination hop: a b / (a + b + 1) rounds to the limit b = 20
        ({"gain_rd": 1e9}, "user 1: relayed SNR at the budget rounds to its limit 20.000000000000004"),
        # SNR limit 1e150: the slope's K c b (b+1) = 3.6e8 * 1e300 overflows
        ({"gain_sr": 1e141}, "user 1: SNR limit 1.0000000000000002e+150 overflows the rate and power formulas"),
    ],
)
def test_scenario_rejects_snr_out_of_range(gains, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        scenario_from_dict(_gain_doc(**gains))


@pytest.mark.parametrize(
    "link, message",
    [
        (UserLink(0, 0.01, np.float64(1e150), 2e-8, 5e-9), "user 0: gain_sd gives a breakeven SNR level"),
        (UserLink(0, 0.01, 6.25e-10, np.float64(1e141), 5e-9),
         "user 0: SNR limit 1.0000000000000002e+150 overflows the rate and power formulas"),
    ],
)
def test_scenario_rejects_numpy_scalar_links_by_name(link, message):
    # fields are stored as Python floats, so the overflow checks raise rather than warn of the overflow
    assert type(link.gain_sd) is float and type(link.gain_sr) is float
    with pytest.raises(ValueError, match=re.escape(message)):
        NetworkScenario((link,), np.float64(0.1), BENCH_SYSTEM)
