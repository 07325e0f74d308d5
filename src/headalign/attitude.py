"""Attitude representations and cyclic-angle arithmetic.

Conventions used throughout the package:

- Navigation frame is NED (North-East-Down); body frame is
  forward-right-down.
- Heading is positive clockwise from North.
- Euler sequence is Z-Y-X (yaw, pitch, roll), so ``C^n_b = Rz @ Ry @ Rx``.
- All angles are radians; degrees appear only at report boundaries.

A direction cosine matrix ``C^x_y`` maps coordinates from frame ``y``
into frame ``x``.  Rotation vectors follow the convention that
``rotvec_to_dcm(phi)`` maps the rotated frame back into the original
one, i.e. it equals the Rodrigues rotation matrix of ``phi``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DegenerateAttitudeError, InvalidArgumentError

__all__ = [
    "skew",
    "rotvec_to_dcm",
    "dcm_to_rotvec",
    "quat_to_dcm",
    "dcm_to_quat",
    "rotvec_to_quat",
    "quat_to_rotvec",
    "euler_to_dcm",
    "dcm_to_euler",
    "dcm_to_heading",
    "wrap_angle",
    "angle_diff",
    "is_rotation",
]

#: Rotation angles below this threshold use the 2nd-order Taylor expansion
#: of the Rodrigues coefficients to avoid 0/0.
SMALL_ANGLE = 1e-8


def skew(v: ArrayLike) -> NDArray[np.float64]:
    """Skew-symmetric cross-product matrix, ``skew(v) @ w == cross(v, w)``.

    Broadcasts finite vectors of shape ``(..., 3)`` to ``(..., 3, 3)``.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,) or not np.all(np.isfinite(v)):
        raise InvalidArgumentError(
            f"skew expects finite vectors with a last axis of 3, got shape {v.shape}"
        )
    x, y, z = np.moveaxis(v, -1, 0)
    o = np.zeros_like(x)
    return np.stack([o, -z, y, z, o, -x, -y, x, o], axis=-1).reshape(v.shape + (3,))


def rotvec_to_dcm(phi: ArrayLike) -> NDArray[np.float64]:
    """Rodrigues formula: rotation matrix of the rotation vector ``phi``.

    ``C = I + sin(a)/a [phi x] + (1-cos(a))/a^2 [phi x]^2`` with
    ``a = ||phi||``, evaluated through ``[phi x]^2 = phi phi^T - a^2 I``
    without a matrix product.  Below ``SMALL_ANGLE`` both coefficients
    switch to their 2nd-order Taylor expansions.  Broadcasts over
    leading axes.

    Parameters
    ----------
    phi : array_like, shape (..., 3)
        Rotation vector(s) in radians.

    Returns
    -------
    ndarray, shape (..., 3, 3)
        Proper rotation matrix of each vector.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape[-1:] != (3,) or not np.all(np.isfinite(phi)):
        raise InvalidArgumentError(
            f"rotation vectors must be finite with a last axis of 3, got shape {phi.shape}"
        )
    a2 = np.einsum("...i,...i->...", phi, phi)
    a = np.sqrt(a2)
    small = a < SMALL_ANGLE
    safe = np.where(small, 1.0, a)
    s = np.where(small, 1.0 - a2 / 6.0, np.sin(a) / safe)
    c = np.where(small, 0.5 - a2 / 24.0, (1.0 - np.cos(a)) / (safe * safe))
    # [phi x]^2 = phi phi^T - a^2 I, so C = (1 - c a^2) I + s [phi x] + c phi phi^T
    C = (c[..., None] * phi)[..., :, None] * phi[..., None, :]
    diag = np.einsum("...ii->...i", C)  # a writable view of the diagonals
    diag += (1.0 - c * a2)[..., None]
    x, y, z = np.moveaxis(s[..., None] * phi, -1, 0)
    C[..., 2, 1] += x
    C[..., 1, 2] -= x
    C[..., 0, 2] += y
    C[..., 2, 0] -= y
    C[..., 1, 0] += z
    C[..., 0, 1] -= z
    return C


def rotvec_to_quat(phi: ArrayLike) -> NDArray[np.float64]:
    """Unit quaternion ``[s, x, y, z]`` of a rotation vector."""
    phi = np.asarray(phi, dtype=float)
    a = np.linalg.norm(phi)
    if a < SMALL_ANGLE:
        # sin(a/2)/a to 2nd order
        half = 0.5 - a * a / 48.0
    else:
        half = np.sin(a / 2.0) / a
    q = np.empty(4)
    q[0] = np.cos(a / 2.0)
    q[1:] = half * phi
    return _canonical(q / np.linalg.norm(q))


def _canonical(q: NDArray[np.float64]) -> NDArray[np.float64]:
    return -q if q[0] < 0.0 else q


def quat_to_rotvec(q: ArrayLike) -> NDArray[np.float64]:
    """Canonical rotation vector (norm < pi) of a unit quaternion."""
    q = _canonical(np.asarray(q, dtype=float))
    vn = np.linalg.norm(q[1:])
    angle = 2.0 * np.arctan2(vn, q[0])
    if vn < SMALL_ANGLE:
        # angle/sin(angle/2) ~ 2 + angle^2/12 for small angles
        return q[1:] * (2.0 + angle * angle / 12.0)
    return q[1:] * (angle / vn)


def quat_to_dcm(q: ArrayLike) -> NDArray[np.float64]:
    """Rotation matrix of a unit quaternion ``[s, x, y, z]``.

    Uses the standard mapping ``C = (s^2 - |n|^2) I + 2 n n^T + 2 s [n x]``
    so that ``quat_to_dcm(rotvec_to_quat(phi)) == rotvec_to_dcm(phi)``,
    written out entry by entry from the four components.

    Raises
    ------
    InvalidArgumentError
        If the quaternion does not have 4 components, has one beyond
        +-2 (which no unit quaternion has, and whose square could
        overflow), or its norm is not within 1e-6 of 1 (a NaN or an
        infinity included).
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise InvalidArgumentError(f"quaternion must have 4 components, got shape {q.shape}")
    if max(map(abs, q.tolist())) > 2.0:
        raise InvalidArgumentError(f"quaternion {q.tolist()} has a component beyond +-2")
    n = math.sqrt(q.dot(q))  # np.linalg.norm(q), to the bit
    if not abs(n - 1.0) <= 1e-6:  # False for NaN as well
        raise InvalidArgumentError(f"quaternion norm {n!r} deviates from 1 by more than 1e-6")
    s, x, y, z = (q / n).tolist()
    d = s * s - (x * x + y * y + z * z)
    return np.array(
        [
            [d + 2.0 * x * x, 2.0 * (x * y - s * z), 2.0 * (x * z + s * y)],
            [2.0 * (x * y + s * z), d + 2.0 * y * y, 2.0 * (y * z - s * x)],
            [2.0 * (x * z - s * y), 2.0 * (y * z + s * x), d + 2.0 * z * z],
        ]
    )


def dcm_to_quat(C: ArrayLike) -> NDArray[np.float64]:
    """Unit quaternion of a rotation matrix (Shepperd's method).

    Numerically stable for all angles including those near pi.
    """
    C = np.asarray(C, dtype=float)
    t = np.trace(C)
    # Pick the largest of (trace, C00, C11, C22) to avoid cancellation.
    choice = int(np.argmax([t, C[0, 0], C[1, 1], C[2, 2]]))
    q = np.empty(4)
    if choice == 0:
        r = np.sqrt(1.0 + t)
        q[0] = 0.5 * r
        q[1] = 0.5 * (C[2, 1] - C[1, 2]) / r
        q[2] = 0.5 * (C[0, 2] - C[2, 0]) / r
        q[3] = 0.5 * (C[1, 0] - C[0, 1]) / r
    else:
        i = choice - 1
        j, k = (i + 1) % 3, (i + 2) % 3
        r = np.sqrt(1.0 + C[i, i] - C[j, j] - C[k, k])
        q[0] = 0.5 * (C[k, j] - C[j, k]) / r
        q[1 + i] = 0.5 * r
        q[1 + j] = 0.5 * (C[j, i] + C[i, j]) / r
        q[1 + k] = 0.5 * (C[k, i] + C[i, k]) / r
    return _canonical(q / np.linalg.norm(q))


def dcm_to_rotvec(C: ArrayLike) -> NDArray[np.float64]:
    """Canonical rotation vector of a rotation matrix.

    Inverse of :func:`rotvec_to_dcm`; goes through the quaternion form,
    which stays well-conditioned for angles near pi.
    """
    return quat_to_rotvec(dcm_to_quat(C))


def euler_to_dcm(yaw: ArrayLike, pitch: ArrayLike, roll: ArrayLike) -> NDArray[np.float64]:
    """Body-to-NED matrix ``C^n_b`` from Z-Y-X Euler angles (radians).

    The three angles broadcast against each other to a shape ``S``; the
    result has shape ``S + (3, 3)``, a single (3, 3) matrix for scalars.
    """
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    C = np.empty(np.broadcast(cy, cp, cr).shape + (3, 3))
    C[..., 0, 0] = cy * cp
    C[..., 0, 1] = cy * sp * sr - sy * cr
    C[..., 0, 2] = cy * sp * cr + sy * sr
    C[..., 1, 0] = sy * cp
    C[..., 1, 1] = sy * sp * sr + cy * cr
    C[..., 1, 2] = sy * sp * cr - cy * sr
    C[..., 2, 0] = -sp
    C[..., 2, 1] = cp * sr
    C[..., 2, 2] = cp * cr
    return C


def dcm_to_euler(C: ArrayLike) -> tuple[float, float, float]:
    """(yaw, pitch, roll) of a ``C^n_b`` matrix, Z-Y-X sequence."""
    C = np.asarray(C, dtype=float)
    pitch = np.arcsin(np.clip(-C[2, 0], -1.0, 1.0))
    yaw = np.arctan2(C[1, 0], C[0, 0])
    roll = np.arctan2(C[2, 1], C[2, 2])
    return float(yaw), float(pitch), float(roll)


def dcm_to_heading(C: ArrayLike) -> float:
    """Heading angle of a ``C^n_b`` matrix: ``atan2(c21, c11)``.

    Valid for quasi-stationary attitudes with |pitch| well below 90 deg.

    Raises
    ------
    InvalidArgumentError
        If ``C`` is not a finite 3x3 matrix.
    DegenerateAttitudeError
        If the attitude is within ~1e-9 of the gimbal singularity.
    """
    C = np.asarray(C, dtype=float)
    if C.shape != (3, 3) or not np.isfinite(C).all():
        raise InvalidArgumentError(
            f"dcm_to_heading expects a finite 3x3 matrix, got shape {C.shape}"
        )
    if abs(C[2, 0]) > 1.0 - 1e-9:
        raise DegenerateAttitudeError(
            f"pitch magnitude too close to 90 deg (|c31| = {abs(C[2, 0])!r})"
        )
    return float(np.arctan2(C[1, 0], C[0, 0]))


def wrap_angle(a):
    """Wrap angle(s) to the representative in (-pi, pi]."""
    w = np.arctan2(np.sin(a), np.cos(a))
    # atan2 can return exactly -pi; the canonical representative is +pi.
    if np.ndim(w) == 0:
        return float(np.pi) if w <= -np.pi else float(w)
    w = np.asarray(w)
    w[w <= -np.pi] = np.pi
    return w


def angle_diff(a, b):
    """Wrapped difference ``a - b`` in (-pi, pi], quadrant-aware."""
    return wrap_angle(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))


def is_rotation(C: ArrayLike, tol: float = 1e-9) -> bool:
    """True if ``C`` is orthonormal with determinant +1 within ``tol``."""
    C = np.asarray(C, dtype=float)
    if C.shape != (3, 3):
        return False
    ortho = np.max(np.abs(C.T @ C - np.eye(3))) < tol
    return bool(ortho and abs(np.linalg.det(C) - 1.0) < tol)
