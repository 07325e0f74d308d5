"""Navigation-frame reference models, frame-track integration, and
observation-vector construction.

The alignment decomposition tracks two time-varying frames from the
start of the window: ``C^{b0}_b(t)`` integrated from gyro rates at the
IMU rate, and ``C^{n0}_n(t)`` integrated from the Earth-rate model at
the aiding rate.  Each track is the prefix product of its per-step
rotations, built by a vectorised two-level scan.  Gravity-derived
observation vector pairs are then formed either by temporal integration
or instantaneously.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .attitude import rotvec_to_dcm
from .errors import AlignmentWindowError, InsufficientDataError, InvalidArgumentError

__all__ = [
    "EARTH_RATE",
    "ImuData",
    "AidData",
    "ObservationSeries",
    "earth_rate_nav",
    "gravity_nav",
    "integrate_body_frame",
    "integrate_nav_frame",
    "observation_integrated",
    "observation_instantaneous",
]

#: Earth rotation rate, rad/s.
EARTH_RATE = 7.292115e-5

#: Maximum allowed skew when pairing aiding samples to body samples.
MAX_PAIRING_SKEW = 0.010


def window_range(t: NDArray[np.float64], t_start: float, t_end: float) -> slice:
    """Samples of the increasing ``t`` in ``[t_start, t_end]``, widened by
    1e-9 s so that grid times which rounding puts just outside a bound
    stay in."""
    return slice(int(np.searchsorted(t, t_start - 1e-9, "left")),
                 int(np.searchsorted(t, t_end + 1e-9, "right")))


def require_finite(what: str, **arrays: NDArray[np.float64]) -> None:
    """Raise :class:`InvalidArgumentError` naming the first sample of any
    array that holds a NaN or an infinity."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            k = np.nonzero(~np.isfinite(a))[0][0]
            raise InvalidArgumentError(f"{what} {name} is not finite at sample {k}")


def _latitude(lat: ArrayLike) -> NDArray[np.float64]:
    lat = np.asarray(lat, dtype=float)
    ok = np.abs(lat) <= np.pi / 2  # False for NaN as well
    if not ok.all():
        raise InvalidArgumentError(f"latitude {float(lat[~ok].flat[0])!r} out of [-pi/2, pi/2]")
    return lat


class _Stream:
    """Cuts shared by the sample streams: dataclasses of arrays indexed
    along their first axis by the increasing times ``t``.  A cut copies
    its range and validates it as a new stream."""

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, k: slice):
        """The samples in the index range ``k``."""
        return type(self)(*(getattr(self, f.name)[k].copy() for f in fields(self)))

    def slice_window(self, t_start: float, t_end: float):
        """The samples in ``[t_start, t_end]`` (see :func:`window_range`)."""
        return self[window_range(self.t, t_start, t_end)]


@dataclass
class ImuData(_Stream):
    """Gyro/accelerometer stream: ``t`` (s), ``omega`` rad/s, ``f`` m/s^2."""

    t: NDArray[np.float64]
    omega: NDArray[np.float64]
    f: NDArray[np.float64]

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        if self.omega.shape != (self.t.size, 3) or self.f.shape != (self.t.size, 3):
            raise InvalidArgumentError("omega and f must be (n, 3) arrays matching t")
        require_finite("IMU", t=self.t, omega=self.omega, f=self.f)
        if self.t.size >= 2 and np.any(np.diff(self.t) <= 0):
            raise InvalidArgumentError("IMU timestamps must be strictly increasing")


@dataclass
class AidData(_Stream):
    """Aiding stream: ``t`` (s), ``lat``/``lon`` rad, ``heading_gt`` rad."""

    t: NDArray[np.float64]
    lat: NDArray[np.float64]
    lon: NDArray[np.float64]
    heading_gt: NDArray[np.float64]

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.lat = np.asarray(self.lat, dtype=float)
        self.lon = np.asarray(self.lon, dtype=float)
        self.heading_gt = np.asarray(self.heading_gt, dtype=float)
        n = self.t.size
        for name in ("lat", "lon", "heading_gt"):
            if getattr(self, name).shape != (n,):
                raise InvalidArgumentError(f"{name} must match t in length")
        require_finite("aiding", t=self.t, lat=self.lat, lon=self.lon, heading_gt=self.heading_gt)
        if n >= 2 and np.any(np.diff(self.t) <= 0):
            raise InvalidArgumentError("aiding timestamps must be strictly increasing")
        _latitude(self.lat)


@dataclass
class ObservationSeries:
    """Paired observation vectors in the frozen b0 and n0 frames.

    ``form`` is ``"integrated"`` (units m/s, zero at the window start) or
    ``"instantaneous"`` (units m/s^2).
    """

    times: NDArray[np.float64]
    u_b0: NDArray[np.float64]
    u_n0: NDArray[np.float64]
    form: str

    def __post_init__(self):
        if not (len(self.times) == len(self.u_b0) == len(self.u_n0)):
            raise InvalidArgumentError("observation series lengths differ")
        if self.form not in ("integrated", "instantaneous"):
            raise InvalidArgumentError(f"unknown observation form {self.form!r}")

    def __len__(self) -> int:
        return len(self.times)


def earth_rate_nav(lat: ArrayLike, omega: float = EARTH_RATE) -> NDArray[np.float64]:
    """Earth rotation rate in NED at latitude ``lat`` (quasi-stationary,
    so the craft-rate contribution is zero).

    Returns ``[omega cos(lat), 0, -omega sin(lat)]``, shape ``lat.shape + (3,)``.
    """
    lat = _latitude(lat)
    w = np.zeros(lat.shape + (3,))
    w[..., 0] = omega * np.cos(lat)
    w[..., 2] = -omega * np.sin(lat)
    return w


def gravity_nav(lat: ArrayLike) -> NDArray[np.float64]:
    """Local gravity vector in NED (Down-positive), Somigliana model.

    Returns ``[0, 0, g(lat)]``, shape ``lat.shape + (3,)``.
    """
    lat = _latitude(lat)
    s2 = np.sin(lat) ** 2
    g = np.zeros(lat.shape + (3,))
    g[..., 2] = 9.7803253359 * (1.0 + 0.00193185265241 * s2) / np.sqrt(1.0 - 0.00669437999013 * s2)
    return g


#: Steps per block of :func:`_chain`'s two-level scan.  Chosen by timing
#: block sizes 4, 8, 16, 32 and 64 on 2 vCPUs (numpy 2.4.6/OpenBLAS):
#: 8 was fastest at every length from 600 to 12,000 steps, 0.18 ms at
#: 1,000 and 2.2 ms at 12,000 against 0.33 and 5.4 ms for one doubling
#: scan over the whole track.
CHAIN_BLOCK = 8


def _scan(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """In-place inclusive Hillis-Steele doubling scan of 3x3 products
    along axis -3: ``a[..., k, :, :]`` becomes ``a[..., 0] @ ... @ a[..., k]``."""
    k = 1
    while k < a.shape[-3]:
        a[..., k:, :, :] = a[..., :-k, :, :] @ a[..., k:, :, :]
        k *= 2
    return a


def _chain(step_dcms: NDArray[np.float64]) -> NDArray[np.float64]:
    """Chain per-step rotations into the frame track ``out[k] = R_0 @ ... @ R_{k-1}``
    (identity first) by a two-level scan (Blelloch, CMU-CS-90-190).

    The steps are padded with identities to whole blocks of
    ``CHAIN_BLOCK`` = 8 steps, the size that timed fastest (see the
    constant).  A doubling scan runs inside every block at once (3
    batched matmuls over the track), a doubling scan of the block totals
    gives each block's prefix, and one batched matmul applies it.  That
    is 4 passes over the track instead of the ceil(log2 n) of one
    doubling scan over all of it (10 at 1,000 steps); the products are
    associated differently, which moves the track by rounding only
    (within 1.1e-14 of a sequential product at 12,000 steps).
    """
    m = step_dcms.shape[0]
    blocks = -(-m // CHAIN_BLOCK)
    out = np.empty((1 + blocks * CHAIN_BLOCK, 3, 3))
    out[0] = np.eye(3)
    out[1 : 1 + m] = step_dcms
    out[1 + m :] = np.eye(3)
    tiles = _scan(out[1:].reshape(blocks, CHAIN_BLOCK, 3, 3))
    if blocks > 1:
        prefix = _scan(tiles[:-1, -1].copy())
        tiles[1:] = prefix[:, None] @ tiles[1:]
    return out[: m + 1]


def _steps(t: NDArray[np.float64], what: str) -> NDArray[np.float64]:
    """Time steps of ``t`` as a column, shape (n - 1, 1).  Raises
    :class:`InvalidArgumentError` at the first step that is not positive."""
    dt = np.diff(t)
    bad = ~(dt > 0)  # NaN steps too
    if bad.any():
        k = int(np.argmax(bad))
        raise InvalidArgumentError(
            f"{what} sample times must be strictly increasing: "
            f"t[{k + 1}] = {float(t[k + 1])!r} follows t[{k}] = {float(t[k])!r}"
        )
    return dt[:, None]


def integrate_body_frame(t: ArrayLike, omega: ArrayLike) -> NDArray[np.float64]:
    """Integrate gyro rates into the body frame track ``C^{b0}_b(t_k)``.

    Per-step rotation vector is the trapezoidal increment plus the
    two-sample coning correction ``cross(dtheta_{k-1}, dtheta_k) / 12``.
    The first element is the identity.

    Parameters
    ----------
    t : array_like, shape (n,)
        Strictly increasing sample times, seconds.
    omega : array_like, shape (n, 3)
        Angular rate samples, rad/s.

    Returns
    -------
    ndarray, shape (n, 3, 3)
    """
    t = np.asarray(t, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if t.size < 2:
        raise InsufficientDataError("body-frame integration needs at least 2 samples")
    if t.ndim != 1 or omega.shape != (t.size, 3):
        raise InvalidArgumentError(
            f"body-frame integration needs t of shape (n,) and omega of shape (n, 3), "
            f"got t {t.shape} and omega {omega.shape}"
        )
    dt = _steps(t, "body-frame")
    dtheta = 0.5 * (omega[:-1] + omega[1:]) * dt
    dphi = dtheta.copy()
    dphi[1:] += np.cross(dtheta[:-1], dtheta[1:]) / 12.0
    return _chain(rotvec_to_dcm(dphi))


def integrate_nav_frame(
    t: ArrayLike, lat: ArrayLike, omega: float = EARTH_RATE
) -> NDArray[np.float64]:
    """Integrate the Earth-rate model into the nav frame track ``C^{n0}_n(t_k)``.

    Same chaining scheme as the body side but driven by
    ``earth_rate_nav(lat(t))`` and without a coning term.  ``t`` is
    strictly increasing and ``lat`` holds one latitude per sample.
    ``omega`` is a test hook: setting it to 0 yields identity tracks.
    """
    t = np.asarray(t, dtype=float)
    lat = np.asarray(lat, dtype=float)
    if t.size < 2:
        raise InsufficientDataError("nav-frame integration needs at least 2 samples")
    if t.ndim != 1 or lat.shape != t.shape:
        raise InvalidArgumentError(
            f"nav-frame integration needs t and lat of one shape (n,), "
            f"got t {t.shape} and lat {lat.shape}"
        )
    dt = _steps(t, "nav-frame")
    w = earth_rate_nav(lat, omega)
    dtheta = 0.5 * (w[:-1] + w[1:]) * dt
    return _chain(rotvec_to_dcm(dtheta))


def _pair_indices(imu_t: NDArray[np.float64], aid_t: NDArray[np.float64]) -> NDArray[np.intp]:
    """Index of the nearest preceding body sample for each aiding time."""
    if aid_t[0] < imu_t[0] - 1e-9 or aid_t[-1] > imu_t[-1] + MAX_PAIRING_SKEW:
        raise AlignmentWindowError(
            f"aiding range [{aid_t[0]}, {aid_t[-1]}] not covered by "
            f"IMU range [{imu_t[0]}, {imu_t[-1]}]"
        )
    idx = np.searchsorted(imu_t, aid_t + 1e-9, side="right") - 1
    skew = aid_t - imu_t[idx]
    if np.any(skew > MAX_PAIRING_SKEW + 1e-9):
        k = int(np.argmax(skew))
        raise AlignmentWindowError(
            f"aiding sample at t={aid_t[k]} is {skew[k]:.4f}s after the nearest "
            f"body sample (max allowed {MAX_PAIRING_SKEW}s)"
        )
    return idx


def _check_tracks(imu: ImuData, aid: AidData, body_track, nav_track):
    if body_track.shape != (len(imu), 3, 3):
        raise AlignmentWindowError(
            f"body track length {body_track.shape[0]} does not match IMU length {len(imu)}"
        )
    if nav_track.shape != (len(aid), 3, 3):
        raise AlignmentWindowError(
            f"nav track length {nav_track.shape[0]} does not match aiding length {len(aid)}"
        )


def _cumtrapz(y: NDArray[np.float64], t: NDArray[np.float64]) -> NDArray[np.float64]:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[:-1] + y[1:]) * np.diff(t)[:, None], axis=0)
    return out


def observation_integrated(
    imu: ImuData,
    aid: AidData,
    body_track: NDArray[np.float64],
    nav_track: NDArray[np.float64],
) -> ObservationSeries:
    """Integrated observation vectors at the aiding timestamps.

    ``u_b0(t) = -int C^{b0}_b f^b dtau`` (trapezoidal at the IMU rate,
    then sampled at aiding times) and ``u_n0(t) = int C^{n0}_n g^n dtau``
    (trapezoidal at the aiding rate).  Gravity is held constant over the
    window, evaluated at the first aiding sample.
    """
    _check_tracks(imu, aid, body_track, nav_track)
    g_n = gravity_nav(aid.lat[0])
    y_b = -np.einsum("kij,kj->ki", body_track, imu.f)
    u_b_full = _cumtrapz(y_b, imu.t)
    idx = _pair_indices(imu.t, aid.t)
    y_n = nav_track @ g_n
    u_n = _cumtrapz(y_n, aid.t)
    return ObservationSeries(aid.t.copy(), u_b_full[idx], u_n, "integrated")


def observation_instantaneous(
    imu: ImuData,
    aid: AidData,
    body_track: NDArray[np.float64],
    nav_track: NDArray[np.float64],
) -> ObservationSeries:
    """Instantaneous observation vectors at the aiding timestamps.

    ``u_b0(t_k) = -C^{b0}_b(t_k) f^b(t_k)`` and
    ``u_n0(t_k) = C^{n0}_n(t_k) g^n``.
    """
    _check_tracks(imu, aid, body_track, nav_track)
    g_n = gravity_nav(aid.lat[0])
    idx = _pair_indices(imu.t, aid.t)
    u_b = -np.einsum("kij,kj->ki", body_track[idx], imu.f[idx])
    u_n = nav_track @ g_n
    return ObservationSeries(aid.t.copy(), u_b, u_n, "instantaneous")
