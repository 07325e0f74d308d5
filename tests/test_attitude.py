import warnings

import numpy as np
import pytest

from headalign.attitude import (
    SMALL_ANGLE,
    angle_diff,
    dcm_to_euler,
    dcm_to_heading,
    dcm_to_quat,
    dcm_to_rotvec,
    euler_to_dcm,
    is_rotation,
    quat_to_dcm,
    quat_to_rotvec,
    rotvec_to_dcm,
    rotvec_to_quat,
    skew,
    wrap_angle,
)
from headalign.errors import DegenerateAttitudeError, InvalidArgumentError

from conftest import random_rotation


def quat_rotate(q, v):
    """Rotate v by unit quaternion q via explicit Hamilton products.

    Independent of the DCM conversion under test: p' = q (0, v) q*.
    """
    w, x, y, z = q

    def mul(a, b):
        aw, ax, ay, az = a
        bw, bx, by, bz = b
        return np.array(
            [
                aw * bw - ax * bx - ay * by - az * bz,
                aw * bx + ax * bw + ay * bz - az * by,
                aw * by - ax * bz + ay * bw + az * bx,
                aw * bz + ax * by - ay * bx + az * bw,
            ]
        )

    p = np.array([0.0, v[0], v[1], v[2]])
    conj = np.array([w, -x, -y, -z])
    return mul(mul(q, p), conj)[1:]


def test_skew_reproduces_cross_product():
    rng = np.random.default_rng(1)
    for _ in range(20):
        v, w = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(skew(v) @ w, np.cross(v, w), atol=1e-15)
    # a batch equals the per-row calls exactly, for any leading shape
    V = rng.normal(size=(4, 5, 3))
    S = skew(V)
    assert S.shape == (4, 5, 3, 3)
    for idx in np.ndindex(4, 5):
        np.testing.assert_array_equal(S[idx], skew(V[idx]))
    assert skew(np.zeros((0, 3))).shape == (0, 3, 3)


def test_skew_is_antisymmetric():
    s = skew([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(s, -s.T)
    assert s[0, 1] == -3.0 and s[0, 2] == 2.0 and s[1, 2] == -1.0
    S = skew(np.random.default_rng(2).normal(size=(6, 3)))
    np.testing.assert_array_equal(S, -np.swapaxes(S, -1, -2))


@pytest.mark.parametrize(
    "v",
    [[np.nan, 0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, np.inf, 0.0]], np.zeros(4), np.zeros((2, 2)), 1.0],
)
def test_skew_rejects_non_finite_or_misshapen_input(v):
    with pytest.raises(InvalidArgumentError):
        skew(v)


@pytest.mark.parametrize(
    "phi, expected",
    [
        ([0.0, 0.0, 0.0], np.eye(3)),
        # quarter turn about z maps x to y
        ([0.0, 0.0, np.pi / 2], np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])),
        ([np.pi, 0.0, 0.0], np.diag([1.0, -1.0, -1.0])),
    ],
)
def test_rotvec_to_dcm_known_rotations(phi, expected):
    np.testing.assert_allclose(rotvec_to_dcm(phi), expected, atol=1e-15)


def test_rotvec_to_dcm_matches_quaternion_rotation():
    # two independent formula paths must agree on rotated vectors
    rng = np.random.default_rng(2)
    for _ in range(50):
        phi = rng.normal(size=3) * rng.uniform(0.0, 3.0)
        q = rotvec_to_quat(phi)
        C = rotvec_to_dcm(phi)
        v = rng.normal(size=3)
        np.testing.assert_allclose(C @ v, quat_rotate(q, v), atol=1e-12)


def test_rotvec_to_quat_half_angle_form():
    phi = np.array([0.3, -0.4, 0.5])
    a = np.linalg.norm(phi)
    expected = np.concatenate([[np.cos(a / 2)], np.sin(a / 2) * phi / a])
    np.testing.assert_allclose(rotvec_to_quat(phi), expected, atol=1e-15)


def test_quat_dcm_round_trip_shepperd_branches():
    # 180 deg rotations exercise every branch of the quaternion extraction
    axes = [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 1.0],
    ]
    for ax in axes:
        phi = np.pi * np.asarray(ax) / np.linalg.norm(ax)
        C = rotvec_to_dcm(phi)
        np.testing.assert_allclose(quat_to_dcm(dcm_to_quat(C)), C, atol=1e-13)


def _quat_to_dcm_by_skew(q):
    """The matrix form ``(s^2 - |n|^2) I + 2 n n^T + 2 s [n x]``, built
    with skew, outer and eye."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q)
    s, e = q[0], q[1:]
    return (s * s - e @ e) * np.eye(3) + 2.0 * np.outer(e, e) + 2.0 * s * skew(e)


def test_quat_to_dcm_matches_skew_outer_form():
    # the written-out diagonal sums |n|^2 in another order than the dot
    # product of the matrix form; tolerance 2 eps absolute on entries of
    # size <= 1 (measured at most 1 eps, in 4,336 of the 20,000, numpy 2.4 /
    # OpenBLAS; the off-diagonal entries are bit-identical)
    rng = np.random.default_rng(9)
    q = rng.normal(size=(20_000, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q *= 1.0 + rng.uniform(-5e-7, 5e-7, size=(20_000, 1))  # within the 1e-6 norm check
    diff = max(np.max(np.abs(quat_to_dcm(qk) - _quat_to_dcm_by_skew(qk))) for qk in q)
    assert diff <= 2 * np.finfo(float).eps


@pytest.mark.parametrize(
    "q",
    [
        [np.nan, 0.0, 0.0, 0.0],
        [1.0, 0.0, np.nan, 0.0],
        [np.inf, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, -np.inf],
        [1e200, 0.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        np.eye(4),
    ],
)
def test_quat_to_dcm_rejects_bad_quaternions(q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may escape first
        with pytest.raises(InvalidArgumentError, match="quaternion"):
            quat_to_dcm(q)


def test_rotvec_round_trip_small_and_near_pi_angles():
    rng = np.random.default_rng(3)
    for scale in (1e-14, 1e-9, 1e-4, 1.0, np.pi - 1e-9, np.pi - 1e-13):
        for _ in range(25):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            phi = scale * u
            back = dcm_to_rotvec(rotvec_to_dcm(phi))
            assert np.linalg.norm(back - phi) < 1e-10


def test_quat_rotvec_round_trip():
    # the extraction canonicalizes to the principal rotation (angle <= pi)
    rng = np.random.default_rng(4)
    for _ in range(100):
        u = rng.normal(size=3)
        phi = u / np.linalg.norm(u) * rng.uniform(0.0, np.pi - 1e-6)
        q = rotvec_to_quat(phi)
        np.testing.assert_allclose(quat_to_rotvec(q), phi, atol=1e-12)
        # sign flip maps to the same rotation
        np.testing.assert_allclose(quat_to_rotvec(-q), phi, atol=1e-12)


def test_euler_to_dcm_single_axis():
    np.testing.assert_allclose(
        euler_to_dcm(np.pi / 2, 0.0, 0.0),
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        euler_to_dcm(0.0, 0.0, np.pi / 2),
        [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
        atol=1e-15,
    )


def test_euler_to_dcm_is_zyx_composition():
    yaw, pitch, roll = 0.4, -0.3, 1.1
    Rz = rotvec_to_dcm([0.0, 0.0, yaw])
    Ry = rotvec_to_dcm([0.0, pitch, 0.0])
    Rx = rotvec_to_dcm([roll, 0.0, 0.0])
    np.testing.assert_allclose(euler_to_dcm(yaw, pitch, roll), Rz @ Ry @ Rx, atol=1e-14)


def test_euler_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        yaw = rng.uniform(-np.pi, np.pi)
        pitch = rng.uniform(-np.pi / 2 + 0.01, np.pi / 2 - 0.01)
        roll = rng.uniform(-np.pi, np.pi)
        y, p, r = dcm_to_euler(euler_to_dcm(yaw, pitch, roll))
        np.testing.assert_allclose([y, p, r], [yaw, pitch, roll], atol=1e-12)


def test_dcm_to_heading_matches_yaw():
    psi = np.deg2rad(123.0)
    C = euler_to_dcm(psi, np.deg2rad(3.0), np.deg2rad(-2.0))
    assert dcm_to_heading(C) == pytest.approx(psi, abs=1e-14)


def test_dcm_to_heading_rejects_gimbal_lock():
    C = euler_to_dcm(0.2, np.pi / 2, 0.0)
    with pytest.raises(DegenerateAttitudeError):
        dcm_to_heading(C)


@pytest.mark.parametrize(
    "C",
    [np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0]), np.eye(2), np.eye(4), np.ones(3), 1.0],
)
def test_dcm_to_heading_rejects_non_finite_or_misshapen_input(C):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="finite 3x3"):
            dcm_to_heading(C)


@pytest.mark.parametrize(
    "a, expected",
    [
        (0.0, 0.0),
        (np.pi, np.pi),
        (-np.pi, np.pi),
        (3 * np.pi / 2, -np.pi / 2),
        (-3 * np.pi / 2, np.pi / 2),
        (2 * np.pi, 0.0),
    ],
)
def test_wrap_angle_representatives(a, expected):
    assert wrap_angle(a) == pytest.approx(expected, abs=1e-12)


def test_wrap_angle_array():
    out = wrap_angle(np.array([0.0, 4 * np.pi, -np.pi]))
    np.testing.assert_allclose(out, [0.0, 0.0, np.pi], atol=1e-12)


def test_angle_diff_quadrant_aware():
    a = np.deg2rad(350.0)
    b = np.deg2rad(10.0)
    assert angle_diff(a, b) == pytest.approx(np.deg2rad(-20.0), abs=1e-12)
    assert angle_diff(b, a) == pytest.approx(np.deg2rad(20.0), abs=1e-12)


def test_is_rotation():
    assert is_rotation(np.eye(3))
    assert not is_rotation(2.0 * np.eye(3))
    assert not is_rotation(np.diag([1.0, 1.0, -1.0]))  # reflection
    assert not is_rotation(np.eye(4))
    rng = np.random.default_rng(6)
    for _ in range(10):
        assert is_rotation(random_rotation(rng), tol=1e-12)


def test_rotvec_to_dcm_batch_matches_row_loop():
    # zero rows, rows below SMALL_ANGLE (Taylor branch), and large angles in one
    # batch.  Tolerance 1e-15 absolute; the difference measured with numpy
    # 2.4 / OpenBLAS is exactly 0.
    rng = np.random.default_rng(7)
    phi = np.concatenate(
        [
            np.zeros((3, 3)),
            rng.normal(size=(20, 3)) * 0.2 * SMALL_ANGLE,
            rng.normal(size=(20, 3)) * 1e-3,
            rng.normal(size=(20, 3)) * 2.0,
        ]
    )
    batch = rotvec_to_dcm(phi)
    assert batch.shape == (phi.shape[0], 3, 3)
    loop = np.array([rotvec_to_dcm(p) for p in phi])
    np.testing.assert_allclose(batch, loop, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(batch[:3], np.broadcast_to(np.eye(3), (3, 3, 3)))
    # any number of leading axes
    np.testing.assert_array_equal(rotvec_to_dcm(phi.reshape(3, 21, 3)), batch.reshape(3, 21, 3, 3))


def _rodrigues_by_matmul(phi):
    """The Rodrigues form that forms [phi x]^2 as skew(phi) @ skew(phi)."""
    a = np.linalg.norm(phi, axis=-1)
    small = a < SMALL_ANGLE
    safe = np.where(small, 1.0, a)
    s = np.where(small, 1.0 - a * a / 6.0, np.sin(a) / safe)
    c = np.where(small, 0.5 - a * a / 24.0, (1.0 - np.cos(a)) / (safe * safe))
    px = skew(phi)
    return np.eye(3) + s[..., None, None] * px + c[..., None, None] * (px @ px)


def test_rotvec_to_dcm_matches_matmul_form():
    # [phi x]^2 = phi phi^T - |phi|^2 I rounds differently from the matmul;
    # tolerance 20 eps absolute on entries of size <= 1, both Taylor and full
    # branches (at most 2.4e-15, about 11 eps, over 10^5 random vectors of
    # norm up to about 10, numpy 2.4 / OpenBLAS)
    rng = np.random.default_rng(8)
    phi = np.concatenate(
        [
            np.zeros((2, 3)),
            rng.normal(size=(300, 3)) * 0.3 * SMALL_ANGLE,
            rng.normal(size=(300, 3)) * 1e-3,
            rng.normal(size=(300, 3)) * 1.5,
        ]
    )
    np.testing.assert_allclose(
        rotvec_to_dcm(phi), _rodrigues_by_matmul(phi), rtol=0, atol=20 * np.finfo(float).eps
    )
    np.testing.assert_allclose(
        rotvec_to_dcm(phi[-1]), _rodrigues_by_matmul(phi[-1]), rtol=0, atol=20 * np.finfo(float).eps
    )


def test_rotvec_to_dcm_rejects_non_finite_or_misshapen_batches():
    phi = np.zeros((4, 3))
    phi[2, 1] = np.nan
    with pytest.raises(InvalidArgumentError):
        rotvec_to_dcm(phi)
    with pytest.raises(InvalidArgumentError):
        rotvec_to_dcm(np.zeros((4, 2)))


def test_euler_to_dcm_batch_equals_scalar_calls_exactly():
    rng = np.random.default_rng(8)
    yaw, pitch, roll = rng.uniform(-np.pi, np.pi, size=(3, 50))
    batch = euler_to_dcm(yaw, pitch, roll)
    assert batch.shape == (50, 3, 3)
    for k in range(50):
        np.testing.assert_array_equal(batch[k], euler_to_dcm(yaw[k], pitch[k], roll[k]))
    # scalars broadcast against arrays
    np.testing.assert_array_equal(euler_to_dcm(yaw, 0.1, 0.2)[7], euler_to_dcm(yaw[7], 0.1, 0.2))
