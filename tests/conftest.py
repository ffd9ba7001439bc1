import numpy as np
import pytest

from engel_lab._kernels import expm2
from engel_lab.frame_algebra import Section
from engel_lab.presets import build_preset


def frame_fields(model):
    """The frame of a chart model as realized fields, one per frame row."""
    return [model.field(Section(tuple(row), f"e{i}")) for i, row in enumerate(np.eye(model.dim))]


def rel_err(M, want):
    """Largest entry error of each 2x2 matrix relative to its largest entry,
    maximized over the stack."""
    return (np.abs(M - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))).max()


def sequential_transport(A_half, dt):
    """The Magnus steps of ``transport_rk4`` multiplied one at a time, left
    to right: M_k = E_k M_{k-1}."""
    A0, Am, A1 = A_half[0:-2:2], A_half[1::2], A_half[2::2]
    omega = dt / 6.0 * (A0 + 4.0 * Am + A1) + dt * dt / 12.0 * (A1 @ A0 - A0 @ A1)
    out = np.empty((len(omega) + 1, 2, 2))
    out[0] = np.eye(2)
    for k, E in enumerate(expm2(omega)):
        out[k + 1] = E @ out[k]
    return out


@pytest.fixture(scope="session")
def preset_cache():
    """Build each preset once per test session."""
    cache = {}

    def get(name, **overrides):
        key = (name, tuple(sorted(overrides.items())))
        if key not in cache:
            cache[key] = build_preset(name, **overrides)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20180417)
