import numpy as np
import pytest

from engel_lab.frame_algebra import Section
from engel_lab.presets import build_preset


def frame_fields(model):
    """The frame of a chart model as realized fields, one per frame row."""
    return [model.field(Section(tuple(row), f"e{i}")) for i, row in enumerate(np.eye(model.dim))]


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
