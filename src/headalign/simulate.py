"""Synthetic quasi-stationary (moored vessel) motion and sensor synthesis.

Ground truth is a sum of configured sinusoidal oscillations in each Euler
angle about a mean attitude ``(psi0, 0, 0)``.  Body rates are computed
analytically (no numerical differentiation), so the truth track is an
exact oracle for the strapdown integrators.  Sensor synthesis adds a
per-run constant bias and white noise per axis, each drawn from its own
keyed random stream.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from numpy.typing import NDArray

from .attitude import euler_to_dcm, wrap_angle
from .errors import InvalidArgumentError
from .recording import FORMAT_VERSION, Recording, TruthTrack
from .rng import stream
from .strapdown import AidData, ImuData, _latitude, earth_rate_nav, gravity_nav

__all__ = [
    "Oscillation",
    "ScenarioConfig",
    "SensorSpec",
    "DEFAULT_SENSORS",
    "NOISE_FREE",
    "MotionTruth",
    "simulate_truth",
    "synthesize_imu",
    "simulate_recording",
    "scenario_bank",
]

#: Mean Earth radius used to map GNSS position noise onto lat/lon (m).
EARTH_RADIUS = 6378137.0

#: Standard gravity for the microgravity bias unit (m/s^2 per g).
STANDARD_GRAVITY = 9.80665


def _number(name: str, v) -> float:
    """``v`` as a finite float, else :class:`InvalidArgumentError` naming ``name``."""
    try:
        if np.isfinite(x := float(v)):
            return x
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"{name} must be a number, got {v!r}") from None
    raise InvalidArgumentError(f"{name} must be finite, got {x}")


@dataclass(frozen=True)
class Oscillation:
    """One sinusoidal component: ``amp_deg * sin(2 pi t / period_s + phase_rad)``."""

    amp_deg: float
    period_s: float
    phase_rad: float = 0.0

    def __post_init__(self):
        for name in ("amp_deg", "period_s", "phase_rad"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if self.period_s <= 0:
            raise InvalidArgumentError(f"oscillation period must be > 0, got {self.period_s}")


def _osc_list(name: str, items) -> tuple[Oscillation, ...]:
    try:
        return tuple(o if isinstance(o, Oscillation) else Oscillation(*o) for o in items)
    except TypeError:
        raise InvalidArgumentError(f"{name} must list [amp_deg, period_s(, phase_rad)] entries, got {items!r}") from None
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class ScenarioConfig:
    """Moored-vessel scenario: constant position, oscillating attitude."""

    name: str
    duration: float
    lat: float
    lon: float
    psi0: float
    heading_osc: tuple[Oscillation, ...] = ()
    roll_osc: tuple[Oscillation, ...] = ()
    pitch_osc: tuple[Oscillation, ...] = ()
    imu_rate: float = 100.0
    aid_rate: float = 5.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "name", str(self.name))
        for name in ("heading_osc", "roll_osc", "pitch_osc"):
            object.__setattr__(self, name, _osc_list(name, getattr(self, name)))
        for name in ("duration", "lat", "lon", "psi0", "imu_rate", "aid_rate"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if not isinstance(self.seed, int):
            object.__setattr__(self, "seed", int(_number("seed", self.seed)))
        if self.duration <= 0:
            raise InvalidArgumentError("duration must be positive")
        if self.imu_rate <= 0 or self.aid_rate <= 0:
            raise InvalidArgumentError("sample rates must be positive")
        ratio = self.imu_rate / self.aid_rate
        if abs(ratio - round(ratio)) > 1e-9:
            raise InvalidArgumentError(
                f"imu_rate ({self.imu_rate}) must be an integer multiple of aid_rate ({self.aid_rate})"
            )
        _latitude(self.lat)

    def to_dict(self) -> dict:
        d = asdict(self)
        for name in ("heading_osc", "roll_osc", "pitch_osc"):
            d[name] = [[o.amp_deg, o.period_s, o.phase_rad] for o in getattr(self, name)]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        if not isinstance(d, dict):
            raise InvalidArgumentError(f"scenario config must be an object, got {d!r}")
        for name in ("name", "duration", "lat", "lon", "psi0"):
            if name not in d:
                raise InvalidArgumentError(f"scenario config missing field {name!r}")
        return cls(**{k: v for k, v in d.items() if k in cls.__dataclass_fields__})


@dataclass(frozen=True)
class SensorSpec:
    """Sensor error magnitudes.

    Units: gyro bias °/s, gyro ARW °/√hr, accel bias µg, accel VRW
    m/s/√hr, GNSS heading σ degrees, GNSS position σ meters.
    """

    gyro_bias_instability: float = 0.0
    gyro_arw: float = 0.0
    accel_bias: float = 0.0
    accel_vrw: float = 0.0
    gnss_heading_sigma: float = 0.0
    gnss_pos_sigma: float = 0.0

    def __post_init__(self):
        for name, v in self.to_dict().items():
            object.__setattr__(self, name, v := _number(name, v))
            if v < 0:
                raise InvalidArgumentError(f"{name} must be non-negative, got {v}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SensorSpec":
        if not isinstance(d, dict):
            raise InvalidArgumentError(f"sensor spec must be an object, got {d!r}")
        if unknown := sorted(set(d) - set(cls.__dataclass_fields__)):
            raise InvalidArgumentError(f"unknown sensor field(s) {unknown}; expected {list(cls.__dataclass_fields__)}")
        return cls(**d)


#: MEMS-grade unit under test: 0.02 °/s bias, 0.032 °/√hr ARW,
#: 1000 µg accel bias, 0.012 m/s/√hr VRW, 0.09° GNSS heading, 8 mm position.
DEFAULT_SENSORS = SensorSpec(0.02, 0.032, 1000.0, 0.012, 0.09, 0.008)

NOISE_FREE = SensorSpec()


@dataclass
class MotionTruth:
    """Exact motion state at IMU rate: Euler angles, attitude matrices
    C^n_b, body angular rate, and noise-free specific force."""

    t: NDArray[np.float64]
    euler: NDArray[np.float64]
    c_nb: NDArray[np.float64]
    omega_b: NDArray[np.float64]
    f_b: NDArray[np.float64]

    @property
    def heading(self) -> NDArray[np.float64]:
        return self.euler[:, 2]


def _angle_series(
    t: NDArray[np.float64], mean: float, oscs: tuple[Oscillation, ...]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Angle(t) and its exact time derivative."""
    ang = np.full_like(t, mean)
    rate = np.zeros_like(t)
    for o in oscs:
        amp = np.radians(o.amp_deg)
        w = 2.0 * np.pi / o.period_s
        ang += amp * np.sin(w * t + o.phase_rad)
        rate += amp * w * np.cos(w * t + o.phase_rad)
    return ang, rate


def simulate_truth(cfg: ScenarioConfig) -> MotionTruth:
    """Generate the exact ground-truth motion for a scenario.

    The body rate combines the Euler-rate mapping with the Earth rate
    seen in the body frame; the specific force is the gravity reaction
    only (quasi-stationary regime, zero velocity).
    """
    n = int(round(cfg.duration * cfg.imu_rate))
    t = np.arange(n) / cfg.imu_rate
    roll, roll_rate = _angle_series(t, 0.0, cfg.roll_osc)
    pitch, pitch_rate = _angle_series(t, 0.0, cfg.pitch_osc)
    yaw, yaw_rate = _angle_series(t, cfg.psi0, cfg.heading_osc)

    c_nb = euler_to_dcm(yaw, pitch, roll)

    # body rate relative to nav: E(angles) @ [roll_rate, pitch_rate, yaw_rate]
    cf, sf = np.cos(roll), np.sin(roll)
    ct, st = np.cos(pitch), np.sin(pitch)
    omega_nb = np.empty((n, 3))
    omega_nb[:, 0] = roll_rate - yaw_rate * st
    omega_nb[:, 1] = pitch_rate * cf + yaw_rate * ct * sf
    omega_nb[:, 2] = -pitch_rate * sf + yaw_rate * ct * cf

    omega_ie_n = earth_rate_nav(cfg.lat)
    g_n = gravity_nav(cfg.lat)
    # C^b_n v = (C^n_b)^T v, batched
    omega_b = omega_nb + np.einsum("kji,j->ki", c_nb, omega_ie_n)
    f_b = -np.einsum("kji,j->ki", c_nb, g_n)

    euler = np.column_stack([roll, pitch, yaw])
    return MotionTruth(t=t, euler=euler, c_nb=c_nb, omega_b=omega_b, f_b=f_b)


def synthesize_imu(
    truth: MotionTruth,
    cfg: ScenarioConfig,
    sensors: SensorSpec = DEFAULT_SENSORS,
    seed: int | None = None,
) -> Recording:
    """Corrupt the exact motion with sensor errors and assemble a recording.

    Per axis: constant bias drawn uniformly within the bias spec, plus
    white noise with per-sample sigma = random-walk coefficient * sqrt(rate).
    Aiding samples are every (imu_rate/aid_rate)-th IMU sample; the
    heading label gets Gaussian noise of ``gnss_heading_sigma``.
    """
    if seed is None:
        seed = cfg.seed
    n = truth.t.size
    rate = cfg.imu_rate

    gyro_bias = np.radians(sensors.gyro_bias_instability)
    gyro_sigma = np.radians(sensors.gyro_arw / 60.0) * np.sqrt(rate)
    accel_bias = sensors.accel_bias * 1e-6 * STANDARD_GRAVITY
    accel_sigma = (sensors.accel_vrw / 60.0) * np.sqrt(rate)

    omega = truth.omega_b.copy()
    f = truth.f_b.copy()
    for axis in range(3):
        g = stream(seed, "gyro", axis)
        omega[:, axis] += g.uniform(-gyro_bias, gyro_bias) + g.normal(0.0, gyro_sigma, n)
        a = stream(seed, "accel", axis)
        f[:, axis] += a.uniform(-accel_bias, accel_bias) + a.normal(0.0, accel_sigma, n)

    ratio = int(round(cfg.imu_rate / cfg.aid_rate))
    t_aid = truth.t[::ratio]
    m = t_aid.size
    pos_sigma_rad = sensors.gnss_pos_sigma / EARTH_RADIUS
    lat = np.full(m, cfg.lat) + stream(seed, "gnss", "lat").normal(0.0, pos_sigma_rad, m)
    lon = np.full(m, cfg.lon) + stream(seed, "gnss", "lon").normal(0.0, pos_sigma_rad, m)
    heading = wrap_angle(
        truth.heading[::ratio]
        + stream(seed, "gnss", "heading").normal(0.0, np.radians(sensors.gnss_heading_sigma), m)
    )

    meta = {
        "version": FORMAT_VERSION,
        "scenario": cfg.to_dict(),
        "sensors": sensors.to_dict(),
        "seed": int(seed),
    }
    return Recording(
        imu=ImuData(truth.t, omega, f),
        aid=AidData(t_aid, lat, lon, heading),
        truth=TruthTrack(truth.t, truth.euler),
        meta=meta,
    )


def simulate_recording(
    cfg: ScenarioConfig,
    sensors: SensorSpec = DEFAULT_SENSORS,
    seed: int | None = None,
) -> Recording:
    """Convenience wrapper: exact truth then sensor synthesis."""
    return synthesize_imu(simulate_truth(cfg), cfg, sensors, seed)


def scenario_bank(
    seed: int = 0, duration: float = 420.0, lat0: float | None = None
) -> list[ScenarioConfig]:
    """Five named mooring scenarios S1-S5 with distinct mean headings,
    oscillation signatures, and derived seeds.

    S5 has the largest heading variance and is intended as train-only.
    ``lat0`` pins every scenario to one latitude; by default each sits
    at a slightly different berth.
    """

    def cfg(i, psi0_deg, lat_deg, h, r, p):
        return ScenarioConfig(
            name=f"S{i}",
            duration=duration,
            lat=np.radians(lat_deg if lat0 is None else np.degrees(lat0)),
            lon=np.radians(34.8 + 0.01 * i),
            psi0=np.radians(psi0_deg),
            heading_osc=h,
            roll_osc=r,
            pitch_osc=p,
            seed=seed * 131 + i,
        )

    return [
        cfg(
            1, 20.0, 32.5,
            [(2.0, 35.0, 0.3), (0.8, 90.0, 1.1)],
            [(1.5, 8.0, 0.0), (0.5, 21.0, 0.7)],
            [(1.2, 7.0, 0.4), (0.4, 17.0, 1.9)],
        ),
        cfg(
            2, 110.0, 31.9,
            [(3.0, 50.0, 0.9), (1.0, 120.0, 2.0)],
            [(1.0, 9.5, 0.8), (0.4, 24.0, 0.1)],
            [(0.8, 6.5, 1.2), (0.3, 15.0, 2.6)],
        ),
        cfg(
            3, 200.0, 33.2,
            [(1.5, 28.0, 1.5), (0.6, 75.0, 0.2)],
            [(2.0, 11.0, 1.7), (0.7, 26.0, 2.9)],
            [(1.5, 8.5, 2.1), (0.5, 19.0, 0.5)],
        ),
        cfg(
            4, 290.0, 32.1,
            [(2.5, 60.0, 2.4), (0.9, 110.0, 0.6)],
            [(1.2, 7.5, 2.5), (0.6, 18.0, 1.4)],
            [(1.0, 10.0, 0.9), (0.4, 22.0, 1.8)],
        ),
        cfg(
            5, 345.0, 32.8,
            [(5.0, 45.0, 0.0), (2.0, 95.0, 1.3), (1.0, 25.0, 2.2)],
            [(2.5, 9.0, 0.6), (1.0, 23.0, 1.9)],
            [(2.0, 7.8, 1.1), (0.8, 16.0, 0.2)],
        ),
    ]
