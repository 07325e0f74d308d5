"""Classical heading-alignment methods.

Four methods are provided, pairing two estimators with two observation
forms:

- ``I_DVA`` / ``A_DVA``: closed-form attitude from two vector pairs
  (integrated / instantaneous observations).
- ``I_OBA`` / ``A_OBA``: quaternion least squares over all pairs
  (integrated / instantaneous observations).

Both estimators recover the constant frozen-frame attitude
``C^{n0}_{b0}``; the heading at the end of the window follows from the
frame-track recomposition ``C^n_b = C^n_{n0} C^{n0}_{b0} C^{b0}_b``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .attitude import angle_diff, dcm_to_heading, quat_to_dcm, skew
from .errors import (
    AmbiguousAttitudeError,
    DegenerateGeometryError,
    InsufficientDataError,
    InvalidArgumentError,
)
from .strapdown import (
    ObservationSeries,
    integrate_body_frame,
    integrate_nav_frame,
    observation_instantaneous,
    observation_integrated,
    require_finite,
)

__all__ = [
    "AlignMethod",
    "HeadingEstimate",
    "WahbaAccumulator",
    "dva_solve",
    "oba_accumulate",
    "oba_solve",
    "align_heading",
    "jacobi_eigh",
    "nearest_rotation",
]

#: Minimum angular separation between the two vectors of a pair.
MIN_PAIR_ANGLE = 1e-5

#: Two smallest eigenvalues closer than this means the geometry cannot
#: pin down a unique attitude.
EIGENVALUE_GAP = 1e-10


class AlignMethod(enum.Enum):
    """Classical method tags; ``I_*`` use integrated observations,
    ``A_*`` instantaneous ones."""

    I_DVA = "I-DVA"
    A_DVA = "A-DVA"
    I_OBA = "I-OBA"
    A_OBA = "A-OBA"

    @property
    def integrated(self) -> bool:
        return self.value.startswith("I")

    @property
    def dual_vector(self) -> bool:
        return self.value.endswith("DVA")


@dataclass
class HeadingEstimate:
    """One heading estimate with its ground truth and absolute error."""

    method: str
    t_align: float
    psi_hat: float
    psi_gt: float
    ae_deg: float

    @classmethod
    def from_angles(
        cls, method: str, t_align: float, psi_hat: float, psi_gt: float
    ) -> "HeadingEstimate":
        ae = abs(np.degrees(angle_diff(psi_hat, psi_gt)))
        return cls(method, float(t_align), float(psi_hat), float(psi_gt), float(ae))


def _unit(u: NDArray[np.float64], what: str) -> NDArray[np.float64]:
    n = np.linalg.norm(u)
    if n < 1e-12:
        raise DegenerateGeometryError(f"zero observation vector in the {what}")
    return u / n


def nearest_rotation(M: ArrayLike, tol: float = 1e-12, max_iter: int = 100) -> NDArray[np.float64]:
    """Orthogonal polar factor of ``M`` by Newton iteration.

    For ``M`` close to a rotation this converges quadratically to the
    nearest rotation matrix (Frobenius sense).
    """
    X = np.asarray(M, dtype=float).copy()
    if X.shape != (3, 3) or not np.all(np.isfinite(X)):
        raise InvalidArgumentError("nearest_rotation expects a finite 3x3 matrix")
    if np.linalg.det(X) <= 0:
        raise DegenerateGeometryError("matrix is singular or reflecting; no nearby rotation")
    for _ in range(max_iter):
        X_next = 0.5 * (X + np.linalg.inv(X).T)
        if np.max(np.abs(X_next - X)) < tol:
            return X_next
        X = X_next
    return X


def dva_solve(
    u1_n0: ArrayLike, u2_n0: ArrayLike, u1_b0: ArrayLike, u2_b0: ArrayLike
) -> NDArray[np.float64]:
    """Closed-form ``C^{n0}_{b0}`` from two non-collinear vector pairs.

    Stacks the unit observation vectors and their cross product in each
    frame and solves the resulting linear system, then snaps the output
    to the nearest rotation (the raw solution is not exactly orthogonal
    for noisy inputs).

    Raises
    ------
    DegenerateGeometryError
        If either pair is collinear within ``MIN_PAIR_ANGLE`` or the
        stacked matrix is singular.
    """
    n1 = _unit(np.asarray(u1_n0, dtype=float), "n0 pair")
    n2 = _unit(np.asarray(u2_n0, dtype=float), "n0 pair")
    b1 = _unit(np.asarray(u1_b0, dtype=float), "b0 pair")
    b2 = _unit(np.asarray(u2_b0, dtype=float), "b0 pair")

    n_cross = np.cross(n1, n2)
    b_cross = np.cross(b1, b2)
    sin_min = np.sin(MIN_PAIR_ANGLE)
    if np.linalg.norm(n_cross) <= sin_min:
        raise DegenerateGeometryError("n0 observation pair is collinear")
    if np.linalg.norm(b_cross) <= sin_min:
        raise DegenerateGeometryError("b0 observation pair is collinear")

    A = np.vstack([n1, n2, n_cross])
    B = np.vstack([b1, b2, b_cross])
    try:
        X = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGeometryError(f"stacked n0 matrix is singular: {exc}") from exc
    return nearest_rotation(X)


def _h_plus(u: NDArray[np.float64]) -> NDArray[np.float64]:
    """``_h_plus(u) @ q`` is the quaternion product ``(0, u) q``;
    broadcasts ``(..., 3)`` to ``(..., 4, 4)``."""
    H = np.zeros(u.shape[:-1] + (4, 4))
    H[..., 0, 1:] = -u
    H[..., 1:, 0] = u
    H[..., 1:, 1:] = skew(u)
    return H


def _h_minus(u: NDArray[np.float64]) -> NDArray[np.float64]:
    """``_h_minus(u) @ q`` is the quaternion product ``q (0, u)``."""
    H = _h_plus(u)
    H[..., 1:, 1:] *= -1.0
    return H


@dataclass
class WahbaAccumulator:
    """Accumulates the 4x4 quadratic-cost matrix of the quaternion
    least-squares problem over observation pairs."""

    K: NDArray[np.float64] = field(default_factory=lambda: np.zeros((4, 4)))
    count: int = 0
    skipped: int = 0


def oba_accumulate(
    acc: WahbaAccumulator, u_n0: ArrayLike, u_b0: ArrayLike
) -> WahbaAccumulator:
    """Add one observation pair, shape ``(3,)``, or a batch of pairs,
    shape ``(n, 3)``, to the accumulator.

    Vectors are unit-normalized before entering the cost; a pair with a
    zero vector is skipped and counted in ``acc.skipped``.  Non-finite
    vectors and mismatched shapes raise :class:`InvalidArgumentError`.
    """
    u_n0, u_b0 = np.asarray(u_n0, dtype=float), np.asarray(u_b0, dtype=float)
    if u_n0.shape != u_b0.shape or u_n0.shape[-1:] != (3,) or u_n0.ndim > 2:
        raise InvalidArgumentError(
            f"pairs must share shape (3,) or (n, 3), got {u_n0.shape} and {u_b0.shape}"
        )
    u = np.stack([u_n0, u_b0]).reshape(2, -1, 3)
    require_finite("observation", u_n0=u[0], u_b0=u[1])
    norm = np.linalg.norm(u, axis=-1, keepdims=True)
    keep = ~np.any(norm < 1e-12, axis=(0, 2))
    n0, b0 = u[:, keep] / norm[:, keep]
    B = _h_plus(n0) - _h_minus(b0)
    acc.K += np.einsum("kji,kjl->il", B, B)
    acc.count += int(np.count_nonzero(keep))
    acc.skipped += int(np.count_nonzero(~keep))
    return acc


def jacobi_eigh(
    A: ArrayLike, tol: float = 1e-13, max_sweeps: int = 100
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Eigen-decomposition of a small symmetric matrix by cyclic Jacobi.

    Sweeps stop when the off-diagonal Frobenius norm drops below ``tol``
    or after ``max_sweeps``.  Returns eigenvalues in ascending order and
    the matching eigenvector columns.
    """
    A = np.asarray(A, dtype=float).copy()
    n = A.shape[0]
    if A.shape != (n, n) or np.max(np.abs(A - A.T)) > 1e-9 * max(1.0, np.max(np.abs(A))):
        raise InvalidArgumentError("jacobi_eigh expects a symmetric square matrix")
    A = 0.5 * (A + A.T)
    V = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.triu(A, 1) ** 2))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) < 1e-300:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
    A = 0.5 * (A + A.T)
    order = np.argsort(np.diag(A))
    return np.diag(A)[order], V[:, order]


def oba_solve(acc: WahbaAccumulator) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Solve the accumulated quaternion least-squares problem.

    Returns the unit quaternion (scalar part >= 0) minimizing the
    quadratic cost and the recovered ``C^{n0}_{b0}``.

    Raises
    ------
    AmbiguousAttitudeError
        If the two smallest eigenvalues are separated by less than
        ``EIGENVALUE_GAP`` (the geometry leaves a rotation free).
    InsufficientDataError
        If fewer than two pairs were accumulated.
    """
    if acc.count < 2:
        raise InsufficientDataError(
            f"need at least 2 accumulated pairs, got {acc.count}"
        )
    K = 0.5 * (acc.K + acc.K.T)
    vals, vecs = jacobi_eigh(K)
    if vals[1] - vals[0] < EIGENVALUE_GAP:
        raise AmbiguousAttitudeError(
            f"two smallest eigenvalues within {vals[1] - vals[0]:.3e}; "
            "vector geometry does not fix the attitude"
        )
    q = vecs[:, 0]
    if q[0] < 0:
        q = -q
    return q, quat_to_dcm(q)


def _dva_indices(obs: ObservationSeries, fractions: tuple[float, float]) -> tuple[int, int]:
    """Pick the two observation instants for the dual-vector method."""
    t0, t_end = obs.times[0], obs.times[-1]
    span = t_end - t0
    f1, f2 = fractions
    i1 = int(np.argmin(np.abs(obs.times - (t0 + f1 * span))))
    i2 = int(np.argmin(np.abs(obs.times - (t0 + f2 * span))))
    if obs.form == "integrated":
        i1 = max(i1, 1)  # index 0 is the exact zero vector
    if i1 >= i2:
        raise InsufficientDataError(
            f"dual-vector instants coincide (indices {i1}, {i2}); window too short"
        )
    return i1, i2


def align_heading(
    rec,
    method: AlignMethod,
    t_align: float,
    dva_fractions: tuple[float, float] = (0.5, 1.0),
) -> HeadingEstimate:
    """Run one classical alignment over the first ``t_align`` seconds of
    a recording and return the heading estimate at the window end.

    ``rec`` is any object with ``imu`` (:class:`~headalign.strapdown.ImuData`)
    and ``aid`` (:class:`~headalign.strapdown.AidData`) attributes.  The
    window is half-open, ``[t0, t0 + t_align)``; the estimate and its
    ground truth are taken at the last aiding sample inside it.
    """
    if not isinstance(method, AlignMethod):
        method = AlignMethod(method)
    if not np.isfinite(t_align) or t_align < 2.0:
        raise InvalidArgumentError(f"alignment window must be finite and >= 2 s, got {t_align}")

    t0 = float(rec.imu.t[0])
    t_end = t0 + float(t_align)
    # half-open window: a sample on the grid at exactly t_end stays out
    imu = rec.imu.slice_window(t0, t_end - 1e-6)
    aid = rec.aid.slice_window(t0, t_end - 1e-6)
    if len(imu) < 2 or len(aid) < 2:
        raise InsufficientDataError("recording too short for the requested window")
    aid_dt = float(np.median(np.diff(aid.t)))
    if aid.t[-1] < t_end - 1.5 * aid_dt - 1e-9:
        raise InsufficientDataError(
            f"aiding data ends at {aid.t[-1]:.2f}s, window needs {t_end - aid_dt:.2f}s"
        )

    body_track = integrate_body_frame(imu.t, imu.omega)
    nav_track = integrate_nav_frame(aid.t, aid.lat)
    if method.integrated:
        obs = observation_integrated(imu, aid, body_track, nav_track)
    else:
        obs = observation_instantaneous(imu, aid, body_track, nav_track)

    if method.dual_vector:
        i1, i2 = _dva_indices(obs, dva_fractions)
        C_n0_b0 = dva_solve(obs.u_n0[i1], obs.u_n0[i2], obs.u_b0[i1], obs.u_b0[i2])
    else:
        _, C_n0_b0 = oba_solve(oba_accumulate(WahbaAccumulator(), obs.u_n0, obs.u_b0))

    # C^n_b(t_e) = C^n_{n0}(t_e) C^{n0}_{b0} C^{b0}_b(t_e) at the last aiding time
    k_body = int(np.searchsorted(imu.t, aid.t[-1] + 1e-9, side="right") - 1)
    C_n_b = nav_track[-1].T @ C_n0_b0 @ body_track[k_body]
    psi_hat = dcm_to_heading(C_n_b)
    psi_gt = float(aid.heading_gt[-1])
    return HeadingEstimate.from_angles(method.value, t_align, psi_hat, psi_gt)
