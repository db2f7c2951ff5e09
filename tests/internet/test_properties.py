"""Property-based tests on the Internet substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.internet import PathLossModel, build_rtt_matrix, validate_pair
from repro.internet.probe import ProbeRun
from tests.internet import matrix_paths

models = st.builds(
    PathLossModel,
    rtt=st.floats(min_value=0.002, max_value=0.4),
    episode_rate=st.floats(min_value=0.0, max_value=5.0),
    episode_mean_duration=st.floats(min_value=1e-4, max_value=0.1),
    episode_drop_prob=st.floats(min_value=0.0, max_value=1.0),
    random_loss_prob=st.floats(min_value=0.0, max_value=0.05),
)


@settings(max_examples=30, deadline=None)
@given(models, st.integers(min_value=0, max_value=2**31 - 1))
def test_lost_mask_shape_and_range(model, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(0, 5.0, 0.001)
    lost = model.lost_mask(t, rng)
    assert lost.shape == t.shape
    assert lost.dtype == bool
    # Loss rate bounded by the maximum of the two mechanisms (+ slack).
    upper = max(model.episode_drop_prob, model.random_loss_prob)
    assert lost.mean() <= upper + 0.05


@settings(max_examples=30, deadline=None)
@given(models, st.integers(min_value=0, max_value=2**31 - 1))
def test_same_weather_same_windows(model, seed):
    """With shared episodes, two runs agree on which probes are inside
    drop windows whenever drops are deterministic (h=1, eps=0)."""
    model.episode_drop_prob = 1.0
    model.random_loss_prob = 0.0
    rng = np.random.default_rng(seed)
    episodes = model.sample_episodes(5.0, rng)
    t = np.arange(0, 5.0, 0.001)
    a = model.lost_mask(t, np.random.default_rng(seed + 1), episodes=episodes)
    b = model.lost_mask(t, np.random.default_rng(seed + 2), episodes=episodes)
    np.testing.assert_array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=649))
def test_every_path_has_sane_rtt(idx):
    matrix = build_rtt_matrix()
    p = matrix_paths(matrix)[idx]
    assert 0.002 <= p.base_rtt <= 1.0
    # Diurnal variation stays within its amplitude at all hours.
    for h in range(0, 24, 6):
        r = p.rtt_at(h * 3600.0)
        assert abs(r - p.base_rtt) <= 0.151 * p.base_rtt


def _mk_run(n_sent, n_lost, rtt=0.1):
    mtx = build_rtt_matrix()
    p = matrix_paths(mtx)[0]
    return ProbeRun(
        path=p, packet_size=48, n_sent=n_sent,
        loss_times=np.linspace(0, 10, n_lost), rtt=rtt,
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2_000),
    st.integers(min_value=0, max_value=2_000),
)
def test_validate_pair_is_symmetric(lost_a, lost_b):
    a = _mk_run(10_000, lost_a)
    b = _mk_run(10_000, lost_b)
    assert validate_pair(a, b) == validate_pair(b, a)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=10, max_value=2_000))
def test_identical_runs_always_validate(lost):
    a = _mk_run(10_000, lost)
    b = _mk_run(10_000, lost)
    assert validate_pair(a, b)
