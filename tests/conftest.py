"""Shared fixtures for the test suite.

Most tests build their own small inputs; the fixtures here only cover the
handful of synthetic recordings that several files want in identical form.
The helpers are imported by name (``from conftest import ...``).
"""
from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from headalign.simulate import (
    NOISE_FREE,
    Oscillation,
    ScenarioConfig,
    SensorSpec,
    simulate_recording,
)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix via QR with sign fix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


@contextmanager
def traced_memory():
    """Trace allocations inside the block.  Yields a namespace whose
    ``peak`` and ``live`` are set on leaving it: the most bytes traced at
    once, and the bytes still traced, both above what was traced on entry."""
    mem = SimpleNamespace(peak=0, live=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        yield mem
        live, peak = tracemalloc.get_traced_memory()
        mem.live, mem.peak = live - base, peak - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def gentle_scenario() -> ScenarioConfig:
    # mild multi-tone sway, representative of a moored hull
    return ScenarioConfig(
        name="gentle",
        duration=130.0,
        lat=np.deg2rad(32.5),
        lon=np.deg2rad(34.8),
        psi0=np.deg2rad(75.0),
        heading_osc=(Oscillation(2.0, 35.0, 0.3),),
        roll_osc=(Oscillation(1.5, 8.0, 0.0),),
        pitch_osc=(Oscillation(1.2, 7.0, 0.4),),
        seed=7,
    )


@pytest.fixture(scope="session")
def clean_recording(gentle_scenario):
    return simulate_recording(gentle_scenario, NOISE_FREE)


@pytest.fixture(scope="session")
def noisy_recording(gentle_scenario):
    spec = SensorSpec(0.0, 0.032, 0.0, 0.012, 0.0, 0.0)
    return simulate_recording(gentle_scenario, spec)
