"""Request-rate synthesis: diurnal NHPP intensity curves for services.

This is the serving twin of the arrival machinery in
:mod:`repro.workload.synth`: the same non-homogeneous-Poisson construction
(24 hourly weights × weekend factor × optional seasonality, one
:class:`numpy.random.Generator` for all noise) — but where the trace
synthesizer *samples individual submissions* from the intensity, serving
keeps the intensity itself.  At millions of requests per day a request is
not an event worth simulating; the fleet integrates the piecewise-constant
intensity λ(t) through the M/M/c model instead, and emits one
``RequestRateChange`` simulation event per epoch boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import require_fraction, require_positive
from ..errors import ConfigError

#: Hour-of-day request weights of a user-facing inference service: traffic
#: follows people being awake, with an evening peak — a different shape
#: from the submission diurnal (no late-night student bump, higher floor
#: because served products never fully sleep).
SERVING_DIURNAL = (
    0.30, 0.22, 0.17, 0.14, 0.13, 0.15,  # 00-05
    0.24, 0.42, 0.62, 0.78, 0.88, 0.95,  # 06-11
    1.00, 0.97, 0.93, 0.92, 0.96, 1.05,  # 12-17
    1.20, 1.35, 1.45, 1.38, 1.05, 0.62,  # 18-23
)

#: One rate breakpoint: (time_s, rate_rps); the rate holds until the next.
RatePoint = tuple[float, float]


@dataclass(frozen=True)
class ServiceLoadConfig:
    """Parameterisation of one service's offered-load curve.

    ``peak_rps`` anchors the curve: the largest diurnal weight maps to this
    rate (before noise).  ``noise_sigma`` is log-normal per-epoch jitter,
    modelling day-to-day traffic variation.
    """

    peak_rps: float
    diurnal_profile: tuple[float, ...] = SERVING_DIURNAL
    weekend_factor: float = 0.80
    start_weekday: int = 0  # 0 = Monday
    noise_sigma: float = 0.05
    epoch_s: float = 3600.0
    daily_seasonality: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        require_positive("peak_rps", self.peak_rps)
        if len(self.diurnal_profile) != 24:
            raise ConfigError("diurnal_profile must have 24 hourly weights")
        if any(w < 0 for w in self.diurnal_profile) or not any(self.diurnal_profile):
            raise ConfigError("diurnal_profile weights must be non-negative, not all zero")
        require_fraction("weekend_factor", self.weekend_factor)
        if not 0 <= self.start_weekday <= 6:
            raise ConfigError("start_weekday must be in [0, 6]")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        require_positive("epoch_s", self.epoch_s)
        if any(m < 0 for m in self.daily_seasonality):
            raise ConfigError("daily_seasonality multipliers must be non-negative")


@dataclass(frozen=True)
class RateCurve:
    """A piecewise-constant offered-rate curve over a finite horizon.

    Breakpoints are strictly increasing in time and cover [0, horizon);
    the curve is 0 at and after ``horizon_s`` (the study window closed).
    """

    points: tuple[RatePoint, ...]
    horizon_s: float
    name: str = "rate-curve"
    _times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigError("rate curve needs at least one breakpoint")
        times = [t for t, _ in self.points]
        if times[0] != 0.0:
            raise ConfigError("rate curve must start at t=0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("rate-curve breakpoints must be strictly increasing")
        if any(rate < 0 for _, rate in self.points):
            raise ConfigError("rates must be non-negative")
        require_positive("horizon_s", self.horizon_s)
        object.__setattr__(self, "_times", np.asarray(times))

    def rate_at(self, time_s: float) -> float:
        """Offered rate at an instant (0 outside the horizon)."""
        if time_s < 0 or time_s >= self.horizon_s:
            return 0.0
        index = int(np.searchsorted(self._times, time_s, side="right")) - 1
        return self.points[index][1]

    def total_requests(self) -> float:
        """∫λ dt over the horizon — offered requests, exactly."""
        total = 0.0
        for (time, rate), (next_time, _) in zip(self.points, self.points[1:]):
            total += rate * (next_time - time)
        last_time, last_rate = self.points[-1]
        total += last_rate * max(0.0, self.horizon_s - last_time)
        return total

    def peak_rps(self) -> float:
        return max(rate for _, rate in self.points)


def synthesize_rate_curve(
    config: ServiceLoadConfig,
    days: float,
    seed: int | np.random.Generator = 0,
    name: str = "rate-curve",
) -> RateCurve:
    """Generate one service's diurnal rate curve over ``days`` days.

    Same epoch construction as
    :func:`repro.workload.synth.hourly_rates` — per-epoch
    intensity = peak × (diurnal weight / max weight) × weekend factor ×
    seasonality × log-normal jitter — returned as the intensity itself
    rather than sampled arrivals.
    """
    require_positive("days", days)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    horizon_s = days * 86400.0
    epochs = int(np.ceil(horizon_s / config.epoch_s))
    profile = np.asarray(config.diurnal_profile, dtype=float)
    profile = profile / profile.max()  # peak weight → peak_rps
    points: list[RatePoint] = []
    for epoch in range(epochs):
        start_s = epoch * config.epoch_s
        hour_of_day = int(start_s / 3600.0) % 24
        day = int(start_s // 86400.0)
        weekday = (config.start_weekday + day) % 7
        day_factor = config.weekend_factor if weekday >= 5 else 1.0
        if config.daily_seasonality:
            day_factor *= config.daily_seasonality[day % len(config.daily_seasonality)]
        rate = config.peak_rps * profile[hour_of_day] * day_factor
        if config.noise_sigma > 0:
            rate *= float(rng.lognormal(mean=0.0, sigma=config.noise_sigma))
        points.append((start_s, float(rate)))
    return RateCurve(points=tuple(points), horizon_s=horizon_s, name=name)
