from __future__ import annotations

import warnings

import numpy as np
import pytest

from headalign.aligners import (
    AlignMethod,
    HeadingEstimate,
    WahbaAccumulator,
    align_heading,
    dva_solve,
    jacobi_eigh,
    nearest_rotation,
    oba_accumulate,
    oba_solve,
)
from headalign.aligners import _h_minus, _h_plus
from headalign.attitude import euler_to_dcm, dcm_to_rotvec
from headalign.errors import (
    AmbiguousAttitudeError,
    DegenerateGeometryError,
    InsufficientDataError,
    InvalidArgumentError,
)
from headalign.strapdown import integrate_body_frame, integrate_nav_frame

from conftest import random_rotation


def quat_mul(a, b):
    """Hamilton product, scalar-first. Independent oracle for H+/H-."""
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


def make_pairs(rng, C_n0_b0, n_pairs):
    """Random unit observation pairs consistent with the given rotation."""
    u_n0 = rng.normal(size=(n_pairs, 3))
    u_n0 /= np.linalg.norm(u_n0, axis=1, keepdims=True)
    u_b0 = u_n0 @ C_n0_b0  # == (C^{n0}_{b0})^T u_n0 row-wise
    return u_n0, u_b0


class TestNearestRotation:
    def test_fixed_point_on_exact_rotation(self):
        rng = np.random.default_rng(10)
        R = random_rotation(rng)
        np.testing.assert_allclose(nearest_rotation(R), R, atol=1e-14)

    def test_snaps_small_perturbation(self):
        rng = np.random.default_rng(11)
        R = random_rotation(rng)
        M = R + 1e-4 * rng.normal(size=(3, 3))
        X = nearest_rotation(M)
        assert np.max(np.abs(X.T @ X - np.eye(3))) < 1e-12
        assert np.max(np.abs(X - R)) < 1e-3

    def test_rejects_reflection_and_singular(self):
        with pytest.raises(DegenerateGeometryError):
            nearest_rotation(np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(DegenerateGeometryError):
            nearest_rotation(np.zeros((3, 3)))

    def test_rejects_non_finite(self):
        M = np.eye(3)
        M[0, 0] = np.nan
        with pytest.raises(InvalidArgumentError):
            nearest_rotation(M)


class TestDvaSolve:
    def test_recovers_constructed_rotation(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            R = random_rotation(rng)
            u_n0, u_b0 = make_pairs(rng, R, 2)
            if np.linalg.norm(np.cross(u_n0[0], u_n0[1])) < 0.1:
                continue  # keep the geometry well conditioned
            C = dva_solve(u_n0[0], u_n0[1], u_b0[0], u_b0[1])
            assert np.linalg.norm(C - R, ord="fro") < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        R = random_rotation(rng)
        u_n0 = np.array([[1.0, 0.2, -0.3], [-0.4, 0.9, 0.1]])
        u_b0 = u_n0 @ R
        base = dva_solve(u_n0[0], u_n0[1], u_b0[0], u_b0[1])
        scaled = dva_solve(
            3.7 * u_n0[0], 0.002 * u_n0[1], 151.0 * u_b0[0], 0.5 * u_b0[1]
        )
        np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_rejects_collinear_pairs(self):
        u = np.array([0.0, 0.0, 1.0])
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DegenerateGeometryError):
            dva_solve(u, 2.0 * u, v, u)  # n0 side collinear
        with pytest.raises(DegenerateGeometryError):
            dva_solve(v, u, u, -3.0 * u)  # b0 side collinear

    def test_rejects_zero_vector(self):
        u = np.array([0.0, 0.0, 1.0])
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DegenerateGeometryError):
            dva_solve(u, np.zeros(3), u, v)


class TestQuaternionProductMatrices:
    def test_h_plus_is_left_product(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            u, q = rng.normal(size=3), rng.normal(size=4)
            np.testing.assert_allclose(
                _h_plus(u) @ q, quat_mul(np.r_[0.0, u], q), atol=1e-13
            )
        U = rng.normal(size=(7, 3))
        H = _h_plus(U)
        assert H.shape == (7, 4, 4)
        for k in range(7):
            np.testing.assert_array_equal(H[k], _h_plus(U[k]))

    def test_h_minus_is_right_product(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            u, q = rng.normal(size=3), rng.normal(size=4)
            np.testing.assert_allclose(
                _h_minus(u) @ q, quat_mul(q, np.r_[0.0, u]), atol=1e-13
            )
        U = rng.normal(size=(2, 3, 3))
        H = _h_minus(U)
        assert H.shape == (2, 3, 4, 4)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(H[idx], _h_minus(U[idx]))


class TestJacobiEigh:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_lapack_reference(self, n):
        rng = np.random.default_rng(16 + n)
        for _ in range(20):
            M = rng.normal(size=(n, n))
            A = 0.5 * (M + M.T)
            vals, vecs = jacobi_eigh(A)
            ref_vals = np.linalg.eigvalsh(A)
            np.testing.assert_allclose(vals, ref_vals, atol=1e-10)
            # eigen equation and orthonormality, independent of LAPACK
            np.testing.assert_allclose(A @ vecs, vecs * vals, atol=1e-10)
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)

    def test_ascending_order_and_diagonal_input(self):
        vals, vecs = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_array_equal(vals, [-1.0, 2.0, 3.0])
        assert abs(vecs[1, 0]) == 1.0

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidArgumentError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestObaSolve:
    def test_recovers_constructed_rotation(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            R = random_rotation(rng)
            u_n0, u_b0 = make_pairs(rng, R, 10)
            acc = WahbaAccumulator()
            for k in range(10):
                oba_accumulate(acc, u_n0[k], u_b0[k])
            q, C = oba_solve(acc)
            assert np.linalg.norm(C - R, ord="fro") < 1e-9
            assert q[0] >= 0.0
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)

    def test_zero_pairs_are_skipped(self):
        acc = WahbaAccumulator()
        oba_accumulate(acc, np.zeros(3), np.array([1.0, 0.0, 0.0]))
        assert acc.count == 0 and acc.skipped == 1
        np.testing.assert_array_equal(acc.K, np.zeros((4, 4)))

    def test_batch_equals_per_pair_loop(self):
        # relative tolerance on K: the batch sums the same per-pair
        # matrices in a different order, nothing else changes
        rel_tol = 1e-12
        rng = np.random.default_rng(19)
        for n in (1, 2, 50, 1200):
            u_n0, u_b0 = make_pairs(rng, random_rotation(rng), n)
            u_n0 = u_n0 * rng.uniform(0.5, 20.0, size=(n, 1))  # not unit length
            u_n0[0] = u_b0[0] = 0.0  # integrated observations start at zero
            if n > 2:
                u_n0[n // 2] = 0.0  # zero on one side only, mid-batch
                u_b0[n // 3] = 1e-13  # below the 1e-12 norm cut-off
            loop = WahbaAccumulator()
            for k in range(n):
                oba_accumulate(loop, u_n0[k], u_b0[k])
            batch = oba_accumulate(WahbaAccumulator(), u_n0, u_b0)
            assert (batch.count, batch.skipped) == (loop.count, loop.skipped)
            assert batch.skipped == (1 if n <= 2 else 3)
            scale = max(1.0, np.max(np.abs(loop.K)))
            np.testing.assert_allclose(batch.K, loop.K, rtol=0, atol=rel_tol * scale)
        # a batch adds onto what the accumulator already holds
        acc = oba_accumulate(WahbaAccumulator(), u_n0[:500], u_b0[:500])
        oba_accumulate(acc, u_n0[500:], u_b0[500:])
        assert (acc.count, acc.skipped) == (batch.count, batch.skipped)
        np.testing.assert_allclose(acc.K, batch.K, rtol=0, atol=rel_tol * scale)

    @pytest.mark.parametrize(
        "u_n0, u_b0",
        [
            ([np.nan, 0.0, 1.0], [0.0, 0.0, 1.0]),
            ([0.0, 0.0, 1.0], [np.inf, 0.0, 1.0]),
            ([[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
        ],
    )
    def test_non_finite_pair_raises(self, u_n0, u_b0):
        acc = WahbaAccumulator()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may escape first
            with pytest.raises(InvalidArgumentError):
                oba_accumulate(acc, u_n0, u_b0)
        assert acc.count == 0 and acc.skipped == 0

    @pytest.mark.parametrize(
        "shape_n0, shape_b0",
        [((3,), (2, 3)), ((4, 3), (5, 3)), ((4,), (4,)), ((2, 2), (2, 2)), ((2, 2, 3), (2, 2, 3))],
    )
    def test_misshapen_pairs_raise(self, shape_n0, shape_b0):
        with pytest.raises(InvalidArgumentError):
            oba_accumulate(WahbaAccumulator(), np.ones(shape_n0), np.ones(shape_b0))

    def test_needs_two_pairs(self):
        acc = WahbaAccumulator()
        oba_accumulate(acc, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(InsufficientDataError):
            oba_solve(acc)

    def test_single_direction_is_ambiguous(self):
        # repeated observations of one direction leave a one-parameter
        # family of rotations; the eigenvalue gap collapses
        u = np.array([0.0, 0.0, 1.0])
        acc = WahbaAccumulator()
        for _ in range(5):
            oba_accumulate(acc, u, u)
        with pytest.raises(AmbiguousAttitudeError):
            oba_solve(acc)

    def test_agrees_with_dva_on_two_exact_pairs(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            R = random_rotation(rng)
            u_n0, u_b0 = make_pairs(rng, R, 2)
            if np.linalg.norm(np.cross(u_n0[0], u_n0[1])) < 0.1:
                continue
            C_dva = dva_solve(u_n0[0], u_n0[1], u_b0[0], u_b0[1])
            acc = WahbaAccumulator()
            oba_accumulate(acc, u_n0[0], u_b0[0])
            oba_accumulate(acc, u_n0[1], u_b0[1])
            _, C_oba = oba_solve(acc)
            rv = dcm_to_rotvec(C_dva.T @ C_oba)
            assert np.linalg.norm(rv) < 1e-8


class TestAlignMethod:
    def test_properties(self):
        assert AlignMethod.I_DVA.integrated and AlignMethod.I_DVA.dual_vector
        assert AlignMethod.A_OBA.integrated is False
        assert AlignMethod.A_OBA.dual_vector is False
        assert AlignMethod("I-OBA") is AlignMethod.I_OBA

    def test_heading_estimate_wraps_error(self):
        est = HeadingEstimate.from_angles(
            "I-DVA", 60.0, np.deg2rad(179.0), np.deg2rad(-179.0)
        )
        assert est.ae_deg == pytest.approx(2.0, abs=1e-10)


class TestAlignHeading:
    @pytest.mark.parametrize("method", list(AlignMethod))
    def test_noise_free_recovery(self, clean_recording, method):
        est = align_heading(clean_recording, method, 60.0)
        assert est.ae_deg < 0.01
        assert est.method == method.value

    def test_accepts_method_by_string(self, clean_recording):
        est = align_heading(clean_recording, "A-OBA", 30.0)
        assert est.method == "A-OBA"

    def test_recomposition_consistency(self, clean_recording):
        # C^n_b rebuilt from the two frame tracks and the true boundary
        # rotation must match the truth attitude over the whole window
        rec = clean_recording.slice_window(0.0, 120.0)
        body = integrate_body_frame(rec.imu.t, rec.imu.omega)
        nav = integrate_nav_frame(rec.aid.t, rec.aid.lat)
        e0 = rec.truth.euler[0]
        C_n0_b0 = euler_to_dcm(e0[2], e0[1], e0[0])
        worst = 0.0
        for j in range(len(rec.aid)):
            k = int(np.searchsorted(rec.imu.t, rec.aid.t[j] + 1e-9) - 1)
            C_rebuilt = nav[j].T @ C_n0_b0 @ body[k]
            e = rec.truth.euler[k]
            C_true = euler_to_dcm(e[2], e[1], e[0])
            worst = max(worst, np.linalg.norm(dcm_to_rotvec(C_true.T @ C_rebuilt)))
        assert worst < 1e-6

    def test_rejects_tiny_window(self, clean_recording):
        with pytest.raises(InvalidArgumentError):
            align_heading(clean_recording, AlignMethod.I_OBA, 1.0)

    def test_rejects_window_beyond_recording(self, clean_recording):
        short = clean_recording.slice_window(0.0, 10.0)
        with pytest.raises(InsufficientDataError):
            align_heading(short, AlignMethod.I_OBA, 60.0)

    @pytest.mark.parametrize("method", list(AlignMethod))
    def test_non_finite_sample_is_rejected(self, clean_recording, method):
        # a NaN written into the arrays after construction is caught when the
        # window is sliced, the same way for every method
        rec = clean_recording.slice_window(0.0, 60.0)
        rec.imu.f[7, 0] = np.nan
        with pytest.raises(InvalidArgumentError, match="IMU f is not finite at sample 7"):
            align_heading(rec, method, 30.0)

    def test_window_is_half_open(self, clean_recording):
        # a 60 s window at 5 Hz aiding holds samples 0.0 .. 59.8, not 60.0
        est = align_heading(clean_recording, AlignMethod.A_OBA, 60.0)
        k = int(round(59.8 * 100))
        psi_true = clean_recording.truth.euler[k, 2]
        assert est.psi_gt == pytest.approx(psi_true, abs=1e-12)
