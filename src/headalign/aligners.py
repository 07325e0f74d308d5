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

:class:`AlignWindow` is the one window engine behind every method: it
cuts its window of :func:`~headalign.recording.window_grid` once,
integrates its body and nav frame tracks once, and builds each
observation form once, so scoring all four methods on one window costs
one track pair and two observation series, not four of each.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .attitude import angle_diff, dcm_to_heading, quat_to_dcm, skew
from .errors import (
    AmbiguousAttitudeError,
    DegenerateGeometryError,
    InsufficientDataError,
    InvalidArgumentError,
)
from .recording import WindowGrid, window_grid
from .strapdown import (
    ObservationSeries,
    integrate_body_frame,
    integrate_nav_frame,
    observation_instantaneous,
    observation_integrated,
)

__all__ = [
    "AlignMethod",
    "AlignWindow",
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

#: Largest magnitude accepted for an observation-vector component.  The
#: squared norm of a bounded vector stays finite (3e300), and so does
#: the product of two norms, so the unit vectors lose no precision.
MAX_COMPONENT = 1e150


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


def nearest_rotation(M: ArrayLike, tol: float = 1e-12, max_iter: int = 100) -> NDArray[np.float64]:
    """Orthogonal polar factor of ``M`` by Newton iteration.

    For ``M`` close to a rotation this converges quadratically to the
    nearest rotation matrix (Frobenius sense).

    Raises
    ------
    DegenerateGeometryError
        If ``M`` is singular or reflecting, or if the iteration has not
        converged after ``max_iter`` steps (``M`` too close to singular
        for its polar factor to be found).
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
    raise DegenerateGeometryError(
        f"polar iteration did not converge in {max_iter} steps; matrix too close to singular"
    )


def _cross(a: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def _bad_vector(u: NDArray[np.float64]) -> tuple[int, str] | None:
    """The first row of ``u`` (n, 3) holding a NaN, an infinity or a
    component beyond ``MAX_COMPONENT``, with what is wrong with it; None
    when every row is fine.  Nothing overflows on the way."""
    if np.abs(u).max(initial=0.0) <= MAX_COMPONENT:  # False for NaN as well
        return None
    k = int(np.argmin((np.abs(u) <= MAX_COMPONENT).all(axis=1)))
    if not np.isfinite(u[k]).all():
        return k, "is not finite"
    return k, f"has a component beyond {MAX_COMPONENT:g}, so its squared norm overflows"


def _dva_raw_solve(
    u1_n0: ArrayLike, u2_n0: ArrayLike, u1_b0: ArrayLike, u2_b0: ArrayLike
) -> NDArray[np.float64]:
    """:func:`dva_solve`'s checks and linear solve, before the snap to a
    rotation."""
    u = np.array([u1_n0, u2_n0, u1_b0, u2_b0], dtype=float)
    if u.shape != (4, 3):
        raise InvalidArgumentError(f"dva_solve expects four 3-vectors, got shape {u.shape}")
    if (bad := _bad_vector(u)) is not None:
        k, fault = bad
        raise InvalidArgumentError(f"dva_solve: {('u1_n0', 'u2_n0', 'u1_b0', 'u2_b0')[k]} {fault}")
    # row-wise dot products: np.linalg.norm of each vector, to the bit
    norm = np.sqrt(u[:, None, :] @ u[:, :, None]).ravel()
    if np.any(norm < 1e-12):
        side = "n0" if np.argmax(norm < 1e-12) < 2 else "b0"
        raise DegenerateGeometryError(f"zero observation vector in the {side} pair")
    n1, n2, b1, b2 = u / norm[:, None]

    n_cross = _cross(n1, n2)
    b_cross = _cross(b1, b2)
    sin_min = np.sin(MIN_PAIR_ANGLE)
    if np.linalg.norm(n_cross) <= sin_min:
        raise DegenerateGeometryError("n0 observation pair is collinear")
    if np.linalg.norm(b_cross) <= sin_min:
        raise DegenerateGeometryError("b0 observation pair is collinear")

    A = np.array([n1, n2, n_cross])
    B = np.array([b1, b2, b_cross])
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGeometryError(f"stacked n0 matrix is singular: {exc}") from exc


def dva_solve(
    u1_n0: ArrayLike, u2_n0: ArrayLike, u1_b0: ArrayLike, u2_b0: ArrayLike
) -> NDArray[np.float64]:
    """Closed-form ``C^{n0}_{b0}`` from two non-collinear vector pairs.

    Stacks the unit observation vectors and their cross product in each
    frame and solves the resulting linear system, then snaps the output
    to the nearest rotation (the raw solution is not exactly orthogonal
    for noisy inputs).  The snap is the orthogonal polar factor ``U V^T``
    of the raw solution's SVD (Higham, SIAM J. Sci. Stat. Comput. 7(4),
    1986); :func:`nearest_rotation` finds the same factor by Newton
    iteration, and the two agree to 1e-13 (see ``tests/test_aligners.py``).

    Raises
    ------
    InvalidArgumentError
        If the inputs are not four 3-vectors or one holds a NaN, an
        infinity or a component beyond ``MAX_COMPONENT``.
    DegenerateGeometryError
        If an observation vector is zero, either pair is collinear within
        ``MIN_PAIR_ANGLE`` or the stacked matrix is singular.
    """
    X = _dva_raw_solve(u1_n0, u2_n0, u1_b0, u2_b0)
    if np.linalg.det(X) <= 0:
        raise DegenerateGeometryError("matrix is singular or reflecting; no nearby rotation")
    try:
        U, _, Vt = np.linalg.svd(X)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGeometryError(f"no polar factor of the raw solution: {exc}") from exc
    return U @ Vt


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


#: ``_WAHBA_E[3 i + j] = _h_plus(e_i) @ _h_minus(e_j)``, flattened to (9, 16).
#: For unit ``n`` and ``b``, ``B = _h_plus(n) - _h_minus(b)`` has
#: ``B^T B = 2 I + 2 _h_plus(n) _h_minus(b)``: both factors are antisymmetric,
#: orthogonal up to the vector norm, and commute.  The pair's cost is thus
#: linear in ``n b^T``, and a batch's ``K`` follows from the 3x3
#: attitude-profile matrix ``P = sum n b^T`` (Davenport's q-method).
_WAHBA_E = (_h_plus(np.eye(3))[:, None] @ _h_minus(np.eye(3))[None, :]).reshape(9, 16)


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
    zero vector is skipped and counted in ``acc.skipped``.  Mismatched
    shapes, and a vector that is not finite or has a component beyond
    ``MAX_COMPONENT``, raise :class:`InvalidArgumentError` naming it.
    """
    u_n0, u_b0 = np.asarray(u_n0, dtype=float), np.asarray(u_b0, dtype=float)
    if u_n0.shape != u_b0.shape or u_n0.shape[-1:] != (3,) or u_n0.ndim > 2:
        raise InvalidArgumentError(
            f"pairs must share shape (3,) or (n, 3), got {u_n0.shape} and {u_b0.shape}"
        )
    n0, b0 = u_n0.reshape(-1, 3), u_b0.reshape(-1, 3)
    for name, u in (("u_n0", n0), ("u_b0", b0)):
        if (bad := _bad_vector(u)) is not None:
            raise InvalidArgumentError(f"observation {name} at sample {bad[0]} {bad[1]}")
    norm_n = np.sqrt((n0 * n0).sum(axis=1))
    norm_b = np.sqrt((b0 * b0).sum(axis=1))
    keep = (norm_n >= 1e-12) & (norm_b >= 1e-12)
    # P = sum of n b^T / (|n| |b|) over the kept pairs: weight 0 skips a pair
    w = np.divide(1.0, norm_n * norm_b, out=np.zeros_like(norm_n), where=keep)
    P = (n0 * w[:, None]).T @ b0
    count = int(np.count_nonzero(keep))
    acc.K += 2.0 * count * np.eye(4) + 2.0 * (P.reshape(9) @ _WAHBA_E).reshape(4, 4)
    acc.count += count
    acc.skipped += keep.size - count
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
    quadratic cost and the recovered ``C^{n0}_{b0}``.  The quaternion is
    the eigenvector of the smallest eigenvalue of the symmetrised ``K``
    (the q-method; Markley & Mortari, J. Astronaut. Sci. 48, 2000),
    found by LAPACK's ``np.linalg.eigh``.  :func:`jacobi_eigh` finds the
    same eigenvector; the two agree to about eps * lambda_4 / gap, where
    gap = lambda_2 - lambda_1 (see ``tests/test_aligners.py``).

    Raises
    ------
    AmbiguousAttitudeError
        If the two smallest eigenvalues are separated by less than
        ``EIGENVALUE_GAP`` (the geometry leaves a rotation free).
    InvalidArgumentError
        If ``acc.K`` is not a finite 4x4 array.
    InsufficientDataError
        If fewer than two pairs were accumulated.
    """
    if np.shape(acc.K) != (4, 4) or not np.isfinite(acc.K).all():
        raise InvalidArgumentError(
            f"accumulator K must be a finite 4x4 array, got shape {np.shape(acc.K)}"
        )
    if acc.count < 2:
        raise InsufficientDataError(
            f"need at least 2 accumulated pairs, got {acc.count}"
        )
    K = 0.5 * (acc.K + acc.K.T)
    vals, vecs = np.linalg.eigh(K)
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


class AlignWindow:
    """One window of :func:`~headalign.recording.window_grid`, cut once
    and shared by every classical method.

    ``AlignWindow(rec, t_align)`` is the first window of ``rec``'s grid,
    where ``rec`` is any object with ``imu``
    (:class:`~headalign.strapdown.ImuData`) and ``aid``
    (:class:`~headalign.strapdown.AidData`) streams; :meth:`from_grid`
    cuts any window of a grid.  The frame tracks are integrated on first
    use and the observation series are built once per form; the cached
    arrays are read-only, because every method reads the same ones.
    :meth:`head` cuts a shorter window from this one that shares them.

    Raises
    ------
    InvalidArgumentError
        If ``t_align`` is not finite, shorter than 2 s or than 2 aiding
        samples.
    InsufficientDataError
        If ``rec`` holds no window.
    """

    def __init__(self, rec, t_align: float):
        grid = window_grid(rec, t_align, "eval")
        if not grid.starts.size:
            raise InsufficientDataError("recording too short for the requested window")
        self._cut(rec, grid, int(grid.aid_start[0]))

    @classmethod
    def from_grid(cls, rec, grid: WindowGrid, j0: int) -> "AlignWindow":
        """The window of ``grid``, made from ``rec``, whose first aiding
        sample is ``j0``."""
        win = cls.__new__(cls)
        win._cut(rec, grid, j0)
        return win

    def _cut(self, rec, grid: WindowGrid, j0: int) -> None:
        if grid.t_align < 2.0 or grid.width < 2:
            raise InvalidArgumentError(f"alignment window must last >= 2 s and hold >= 2 aiding "
                                       f"samples; a {grid.t_align:g} s window holds {grid.width}")
        self.t_align, k, j1 = grid.t_align, grid.ratio, j0 + grid.width
        self.imu, self.aid = rec.imu[k * j0 : k * j1], rec.aid[j0:j1]
        self._parent: AlignWindow | None = None
        self._observations: dict[bool, ObservationSeries] = {}

    def head(self, t_align: float) -> "AlignWindow":
        """The first ``t_align`` seconds of this window: the grid window of
        ``t_align`` at the same start, whose frame tracks and observation
        series are read-only prefixes of this window's.  They are what a
        fresh cut would build, bit for bit: the frame-track scan, the
        coning term, the trapezoidal sums and the aiding-to-body pairing
        all give sample k a value that does not depend on later samples.
        The head builds none of them itself; its first use builds this
        window's, and a fault in building them is raised by the head too.

        Raises
        ------
        InvalidArgumentError
            If ``t_align`` is longer than this window, or fails the
            checks of :class:`AlignWindow`.
        """
        if t_align > self.t_align:  # False for NaN, which the grid rejects
            raise InvalidArgumentError(
                f"a head of a {self.t_align:g} s window cannot be {t_align} s long"
            )
        head = AlignWindow.from_grid(self, window_grid(self, t_align, "eval"), 0)
        head._parent = self
        return head

    @cached_property
    def tracks(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """``(C^{b0}_b, C^{n0}_n)`` over the window, shapes ``(n_imu, 3, 3)``
        and ``(n_aid, 3, 3)``."""
        if self._parent is not None:
            body_track, nav_track = self._parent.tracks
            return body_track[: len(self.imu)], nav_track[: len(self.aid)]
        body_track = integrate_body_frame(self.imu.t, self.imu.omega)
        nav_track = integrate_nav_frame(self.aid.t, self.aid.lat)
        _freeze(body_track, nav_track)
        return body_track, nav_track

    def observations(self, integrated: bool) -> ObservationSeries:
        """The integrated or the instantaneous observation series."""
        if integrated not in self._observations:
            if self._parent is not None:
                whole, n = self._parent.observations(integrated), len(self.aid)
                obs = ObservationSeries(whole.times[:n], whole.u_b0[:n], whole.u_n0[:n], whole.form)
            else:
                build = observation_integrated if integrated else observation_instantaneous
                obs = build(self.imu, self.aid, *self.tracks)
                _freeze(obs.u_b0, obs.u_n0)
            self._observations[integrated] = obs
        return self._observations[integrated]


def _freeze(*arrays: NDArray[np.float64]) -> None:
    for a in arrays:
        a.flags.writeable = False


def align_heading(
    rec,
    method: AlignMethod,
    t_align: float,
    dva_fractions: tuple[float, float] = (0.5, 1.0),
) -> HeadingEstimate:
    """Run one classical alignment over the first ``t_align`` seconds of
    a recording and return the heading estimate at the window end.

    ``rec`` is a recording (any object with ``imu`` and ``aid``
    attributes; see :class:`AlignWindow` for the window rules) or an
    :class:`AlignWindow` already cut at ``t_align``.  A window reuses the
    frame tracks and observations that earlier calls on it built, so
    running all four methods on one window integrates it once.  The
    estimate and its ground truth are taken at the last aiding sample
    inside the window.

    ``dva_fractions`` places the two dual-vector instants as fractions
    of the observation span; the dual-vector methods use them, and every
    method checks them.

    Raises
    ------
    InvalidArgumentError
        If ``method`` names no :class:`AlignMethod`, ``dva_fractions`` is
        not two finite numbers with ``0 <= f1 < f2 <= 1``, or ``rec`` is
        an :class:`AlignWindow` cut at another ``t_align``.
    """
    if not isinstance(method, AlignMethod):
        try:
            method = AlignMethod(method)
        except ValueError:
            names = ", ".join(m.value for m in AlignMethod)
            raise InvalidArgumentError(
                f"unknown method {method!r}; expected one of {names}"
            ) from None
    try:
        f1, f2 = dva_fractions
        ok = isinstance(f1, Real) and isinstance(f2, Real) and 0.0 <= f1 < f2 <= 1.0
    except (TypeError, ValueError):  # not a pair
        ok = False
    if not ok:  # a NaN fails every comparison
        raise InvalidArgumentError(
            f"dva_fractions must be two numbers with 0 <= f1 < f2 <= 1, got {dva_fractions!r}"
        )
    win = rec if isinstance(rec, AlignWindow) else AlignWindow(rec, t_align)
    if win.t_align != t_align:
        raise InvalidArgumentError(
            f"window was cut at t_align={win.t_align:g} s, not {t_align} s"
        )

    obs = win.observations(method.integrated)
    if method.dual_vector:
        i1, i2 = _dva_indices(obs, dva_fractions)
        C_n0_b0 = dva_solve(obs.u_n0[i1], obs.u_n0[i2], obs.u_b0[i1], obs.u_b0[i2])
    else:
        _, C_n0_b0 = oba_solve(oba_accumulate(WahbaAccumulator(), obs.u_n0, obs.u_b0))

    # C^n_b(t_e) = C^n_{n0}(t_e) C^{n0}_{b0} C^{b0}_b(t_e) at the last aiding time
    imu, aid = win.imu, win.aid
    body_track, nav_track = win.tracks
    k_body = int(np.searchsorted(imu.t, aid.t[-1] + 1e-9, side="right") - 1)
    C_n_b = nav_track[-1].T @ C_n0_b0 @ body_track[k_body]
    psi_hat = dcm_to_heading(C_n_b)
    psi_gt = float(aid.heading_gt[-1])
    return HeadingEstimate.from_angles(method.value, t_align, psi_hat, psi_gt)
