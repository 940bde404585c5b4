"""Geometry, path loss, SNR, and rate model for amplify-and-forward links.

A link carries its data over two phases: the source broadcasts to both its
destination and the relay, then the relay amplifies and forwards.  The
destination combines the direct and relayed branches by maximal ratio
combining, which adds the two SNRs; the half-rate factor accounts for the
relay occupying the second phase.

All quantities are SI: watts, hertz, meters, bits/s.  Functions are pure.
The rate and SNR formulas also evaluate elementwise on arrays: a relay-power
array, and a link whose source power and gains are arrays.  The auction and
oracle code reads them on per-user arrays from auction._Core, sharing _log_gain.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

LN2 = math.log(2.0)

Point = tuple[float, float]


def _require_positive_finite(obj, *names: str) -> None:
    """Check each named field is finite and positive; store it as a float, which overflows without numpy's warnings."""
    for name in names:
        value = getattr(obj, name)
        if not 0.0 < value <= sys.float_info.max:  # an int past it would overflow float()
            raise ValueError(f"{name} must be finite and strictly positive, got {reprlib.repr(value)}")
        object.__setattr__(obj, name, float(value))


@dataclass(frozen=True)
class SystemParams:
    """Shared radio constants: bandwidth, noise power, and path-loss exponent."""

    bandwidth_hz: float
    noise_w: float
    pathloss_exponent: float

    def __post_init__(self) -> None:
        _require_positive_finite(self, "bandwidth_hz", "noise_w", "pathloss_exponent")


@dataclass(frozen=True)
class UserLink:
    """One source-destination pair: transmit power and the three channel gains."""

    user_id: int
    source_power_w: float
    gain_sd: float
    gain_sr: float
    gain_rd: float
    source: Optional[Point] = None
    destination: Optional[Point] = None

    def __post_init__(self) -> None:
        _require_positive_finite(self, "source_power_w", "gain_sd", "gain_sr", "gain_rd")


@dataclass(frozen=True)
class NetworkScenario:
    """Immutable world description: users, relay power budget, system constants."""

    users: tuple[UserLink, ...]
    relay_budget_w: float
    system: SystemParams
    relay: Optional[Point] = None

    def __post_init__(self) -> None:
        _require_positive_finite(self, "relay_budget_w")
        if not self.users:
            raise ValueError("scenario needs at least one user")
        for u in self.users:
            g = direct_snr(u, self.system)
            if not 0.0 < g < math.inf:
                raise ValueError(
                    f"user {u.user_id}: gain_sd gives a direct SNR of {g!r}; "
                    "it must be positive and finite"
                )
            if not math.isfinite(g * g + g):
                raise ValueError(
                    f"user {u.user_id}: gain_sd gives a breakeven SNR level g^2 + g that overflows"
                )
            limit = relayed_snr_limit(u, self.system)
            if not math.isfinite(limit):
                raise ValueError(f"user {u.user_id}: gain_sr gives an SNR limit that overflows")
            a = self.relay_budget_w * u.gain_rd / self.system.noise_w
            if not math.isfinite(a):
                raise ValueError(
                    f"user {u.user_id}: gain_rd gives a relay-destination SNR at the budget "
                    "that overflows"
                )
            # the relayed SNR a b / (a + b + 1), b the limit, rounds below b at every budget up to
            # this one while a < (b + 1) 2^50; the SNR auction and the fair oracle need it below b
            if not a < (limit + 1.0) * 2.0**50:
                raise ValueError(f"user {u.user_id}: relayed SNR at the budget rounds to its limit {limit!r}")
            # the largest terms of auction._Core's formulas up to the budget: in the slope, K c b (b+1) and
            # D1 D2 = D1 ((1+g) D1 + a b) > b^2, D1 = a+b+1, a = P c; in the power for an SNR s < b, b (b+1) / c
            c = u.gain_rd / self.system.noise_w
            d1 = self.relay_budget_w * c + limit + 1.0
            k = self.system.bandwidth_hz / (2.0 * LN2)
            terms = (k * c * limit * (limit + 1.0), d1 * ((1.0 + g) * d1 + self.relay_budget_w * c * limit),
                     limit * ((limit + 1.0) / c))
            if not all(map(math.isfinite, terms)):
                raise ValueError(f"user {u.user_id}: SNR limit {limit!r} overflows the rate and power formulas")

    @property
    def n_users(self) -> int:
        return len(self.users)

    @cached_property
    def _derived(self) -> dict:
        """The auction layer's per-user arrays, its core and each rule's; no field, so not compared."""
        return {}

    def __getstate__(self) -> dict:  # the derived arrays are rebuilt, not pickled
        return {k: v for k, v in vars(self).items() if k != "_derived"}


def path_gain(a: Sequence[float], b: Sequence[float], exponent: float) -> float:
    """Power-law gain dist(a, b) ** -exponent between two planar points."""
    if not exponent > 0.0:
        raise ValueError("exponent must be strictly positive")
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        raise ValueError("zero distance: degenerate geometry")
    return float(d2 ** (-exponent / 2.0))


def direct_snr(link: UserLink, sys: SystemParams) -> float:
    """SNR of the direct source-destination branch."""
    return link.source_power_w * link.gain_sd / sys.noise_w


def relayed_snr_limit(link: UserLink, sys: SystemParams) -> float:
    """Supremum of the relayed SNR over relay power (the source-relay SNR)."""
    return link.source_power_w * link.gain_sr / sys.noise_w


def relayed_snr(link: UserLink, p_rd, sys: SystemParams):
    """Relayed-branch SNR at the destination for relay transmit power p_rd.

    Accepts a scalar or numpy array.  Strictly increasing and concave in p_rd,
    bounded above by relayed_snr_limit.
    """
    if (np.asarray(p_rd) < 0.0).any():
        raise ValueError("relay power must be nonnegative")
    a = p_rd * link.gain_rd / sys.noise_w
    b = relayed_snr_limit(link, sys)
    return a * b / (a + b + 1.0)


def rate_increase(link: UserLink, p_rd, sys: SystemParams):
    """Rate gained by cooperating, clamped at zero (the source may opt out).

    The cooperative rate 0.5 W log2(1+g+s) less the direct rate W log2(1+g), with g
    the direct SNR and s the relayed SNR: see _log_gain.
    """
    s, g = relayed_snr(link, p_rd, sys), direct_snr(link, sys)
    return np.maximum(_log_gain(s, g, g * g, (1.0 + g) ** 2, sys.bandwidth_hz / (2.0 * LN2)), 0.0)


def _log_gain(s, g, gsq, g1sq, k):
    """Unclamped rate increase u = K log1p((s - g^2 - g) / (1+g)^2) at relayed SNR s.

    gsq = g * g and g1sq = (1 + g) ** 2 are the caller's, so that per-user arrays can
    hold them.  u equals K ln((1+g+s) / (1+g)^2), K = W / (2 ln 2), without cancelling
    as the direct SNR g -> 0; the rate increase is max(u, 0).  Where the log1p argument
    rounds to -1 or below (g about 1e16 or more, s small), u is read from the
    second form, which does not cancel there.
    """
    x = (s - gsq - g) / g1sq
    low = x <= -1.0
    if low if isinstance(low, bool) else low.any():  # a Python bool where s and g are Python floats
        return k * np.where(low, np.log(1.0 + g + s) - 2.0 * np.log1p(g), np.log1p(np.where(low, 0.0, x)))
    return k * np.log1p(x)


# ---------------------------------------------------------------------------
# scenario construction and JSON round-trip


def link_from_geometry(
    user_id: int,
    source: Point,
    destination: Point,
    relay: Point,
    source_power_w: float,
    system: SystemParams,
) -> UserLink:
    """Derive the three channel gains of one user from node positions."""
    alpha = system.pathloss_exponent
    return UserLink(
        user_id=user_id,
        source_power_w=source_power_w,
        gain_sd=path_gain(source, destination, alpha),
        gain_sr=path_gain(source, relay, alpha),
        gain_rd=path_gain(relay, destination, alpha),
        source=(float(source[0]), float(source[1])),
        destination=(float(destination[0]), float(destination[1])),
    )


def scenario_from_geometry(
    sources: Sequence[Point],
    destinations: Sequence[Point],
    relay: Point,
    source_power_w: float,
    system: SystemParams,
    relay_budget_w: float,
) -> NetworkScenario:
    if len(sources) != len(destinations):
        raise ValueError("sources and destinations must pair up")
    users = tuple(
        link_from_geometry(i, s, d, relay, source_power_w, system)
        for i, (s, d) in enumerate(zip(sources, destinations))
    )
    relay_pt = (float(relay[0]), float(relay[1]))
    return NetworkScenario(users, relay_budget_w, system, relay_pt)


# a user's fields in a scenario file: its numbers, then its points, which stand for the gains left out
_USER_NUMBERS = ("source_power_w", "gain_sd", "gain_sr", "gain_rd")
_USER_POINTS = ("source", "destination")


def scenario_to_dict(scenario: NetworkScenario) -> dict:
    doc: dict = {
        "system": {f.name: getattr(scenario.system, f.name) for f in fields(SystemParams)},
        "relay_budget_w": scenario.relay_budget_w,
        "users": [],
    }
    if scenario.relay is not None:
        doc["relay"] = list(scenario.relay)
    for u in scenario.users:
        entry = {key: getattr(u, key) for key in _USER_NUMBERS}
        entry.update((key, list(getattr(u, key))) for key in _USER_POINTS if getattr(u, key) is not None)
        doc["users"].append(entry)
    return doc


def _field(doc, key: str, where: str):
    """doc[key]; where is the dotted path of doc used in error messages."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where.rstrip('.') or 'scenario'} must be a JSON object")
    if key not in doc:
        raise ValueError(f"{where}{key} is missing")
    return doc[key]


def _is_number(value) -> bool:
    """A real number, but no bool, which JSON writes as true or false, and no integer past a float's range."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and (isinstance(value, float) or abs(value) <= sys.float_info.max)


def _number(doc, key: str, where: str) -> float:
    value = _field(doc, key, where)
    if not _is_number(value):
        raise ValueError(f"{where}{key} must be a number, got {reprlib.repr(value)}")
    return float(value)


def _point(doc, key: str, where: str) -> Point:
    value = _field(doc, key, where)
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))):
        raise ValueError(f"{where}{key} must be a pair of numbers, got {reprlib.repr(value)}")
    return (float(value[0]), float(value[1]))


def scenario_from_dict(doc: dict) -> NetworkScenario:
    """Build a scenario from its JSON form.

    Each user carries either explicit gains or source/destination positions;
    positional users additionally need a top-level relay position, and their
    gains are derived from distances via the path-loss exponent.  A missing
    or malformed field raises ValueError naming it, e.g. users[1].gain_sr.
    """
    sysdoc = _field(doc, "system", "")
    system = SystemParams(**{f.name: _number(sysdoc, f.name, "system.") for f in fields(SystemParams)})
    relay = _point(doc, "relay", "") if "relay" in doc else None
    entries = _field(doc, "users", "")
    if not isinstance(entries, list):
        raise ValueError("users must be a JSON list")
    users = []
    for i, entry in enumerate(entries):
        where = f"users[{i}]."
        p_s = _number(entry, "source_power_w", where)
        if "gain_sd" in entry:
            values = {key: _number(entry, key, where) for key in _USER_NUMBERS}
            values.update((key, _point(entry, key, where)) for key in _USER_POINTS if key in entry)
            users.append(UserLink(i, **values))
        elif relay is None:
            raise ValueError(f"{where}gain_sd is missing and there is no relay position")
        else:
            points = (_point(entry, key, where) for key in _USER_POINTS)
            users.append(link_from_geometry(i, *points, relay, p_s, system))
    return NetworkScenario(tuple(users), _number(doc, "relay_budget_w", ""), system, relay)


def load_scenario(path: str | Path) -> NetworkScenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def save_scenario(scenario: NetworkScenario, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
