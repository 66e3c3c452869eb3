"""Burst expansion and session packing tests (Figure 7 / Section 6)."""

import numpy as np
import pytest

from repro.util.rng import make_rng
from repro.util.units import HOUR
from repro.workload.clustering import expand_bursts, pack_sessions
from repro.workload.config import BurstConfig, SessionConfig


def test_expand_bursts_keeps_originals():
    rng = make_rng(1)
    times = np.array([100.0, 5000.0])
    is_write = np.array([False, True])
    files = np.array([0, 1])
    out_t, out_w, out_f = expand_bursts(
        rng, times, is_write, files, BurstConfig(), horizon=1e9
    )
    assert out_t.size >= 2
    assert out_t[0] == 100.0 and out_t[1] == 5000.0


def test_expand_bursts_followers_within_window():
    rng = make_rng(2)
    n = 5000
    times = np.zeros(n)
    is_write = np.zeros(n, dtype=bool)
    files = np.arange(n)
    config = BurstConfig()
    out_t, out_w, out_f = expand_bursts(rng, times, is_write, files, config, 1e12)
    followers = out_t[n:]
    assert followers.size > 0
    assert followers.max() <= config.follower_gap_cap
    assert followers.min() >= 0


def test_expand_bursts_mean_matches_config():
    rng = make_rng(3)
    n = 20_000
    times = np.zeros(n)
    files = np.arange(n)
    config = BurstConfig()
    reads_out, _, _ = expand_bursts(
        rng, times, np.zeros(n, dtype=bool), files, config, 1e12
    )
    writes_out, _, _ = expand_bursts(
        rng, times, np.ones(n, dtype=bool), files, config, 1e12
    )
    read_extra = reads_out.size / n - 1
    write_extra = writes_out.size / n - 1
    assert read_extra == pytest.approx(config.read_extra_mean, rel=0.1)
    assert write_extra == pytest.approx(config.write_extra_mean, rel=0.1)
    assert read_extra > write_extra


def test_expand_bursts_respects_horizon():
    rng = make_rng(4)
    times = np.full(1000, 99.0)
    out_t, _, _ = expand_bursts(
        rng, times, np.zeros(1000, dtype=bool), np.arange(1000),
        BurstConfig(), horizon=100.0,
    )
    assert out_t.max() < 100.0


def test_expand_bursts_empty():
    rng = make_rng(0)
    empty = np.empty(0)
    out = expand_bursts(
        rng, empty, np.empty(0, dtype=bool), np.empty(0, dtype=np.int64),
        BurstConfig(), 1e9,
    )
    assert out[0].size == 0


def test_pack_sessions_keeps_hour_bins():
    rng = make_rng(5)
    times = np.sort(make_rng(6).uniform(0, 24 * HOUR, size=2000))
    packed, sessions = pack_sessions(rng, times, SessionConfig())
    assert packed.size == times.size
    np.testing.assert_array_equal(
        (packed // HOUR).astype(int), (times // HOUR).astype(int)
    )


def test_pack_sessions_produces_short_gaps():
    rng = make_rng(7)
    # A dense hour: 300 events.
    times = np.sort(make_rng(8).uniform(0, HOUR, size=300))
    packed, _ = pack_sessions(rng, times, SessionConfig())
    gaps = np.diff(np.sort(packed))
    assert (gaps < 10).mean() > 0.75


def test_pack_sessions_session_ids_unique_per_group():
    rng = make_rng(9)
    times = np.sort(make_rng(10).uniform(0, HOUR, size=100))
    packed, sessions = pack_sessions(rng, times, SessionConfig(mean_session_length=5))
    assert sessions.size == 100
    # Members of one session are tightly grouped in time.
    for sid in np.unique(sessions):
        member_times = np.sort(packed[sessions == sid])
        if member_times.size > 1:
            assert np.diff(member_times).max() <= SessionConfig().intra_gap_cap


def test_pack_sessions_group_keys_respected():
    rng = make_rng(11)
    times = np.sort(make_rng(12).uniform(0, HOUR, size=200))
    keys = make_rng(13).integers(0, 5, size=200)
    _, sessions = pack_sessions(rng, times, SessionConfig(mean_session_length=8),
                                group_keys=keys)
    # Most sessions should be key-pure: same-directory events pack together.
    pure = 0
    total = 0
    for sid in np.unique(sessions):
        members = keys[sessions == sid]
        total += 1
        if len(set(members.tolist())) == 1:
            pure += 1
    assert pure / total > 0.6


def test_pack_sessions_empty():
    packed, sessions = pack_sessions(make_rng(0), np.empty(0), SessionConfig())
    assert packed.size == 0 and sessions.size == 0


def test_pack_sessions_long_sessions_never_spill_their_hour():
    """Regression: a session whose cumulative offsets run past the hour
    edge must be clamped inside it -- the "events keep their hour"
    contract protects Figures 4-6.  This config forces multi-minute
    sessions (the scalar reference spills thousands of events on it)."""
    from tests.oracles.generator import pack_sessions_scalar

    config = SessionConfig(
        mean_session_length=400.0, intra_gap_mean=30.0, intra_gap_cap=60.0
    )
    times = np.sort(make_rng(20).uniform(0, 3 * HOUR, size=4000))
    packed, _ = pack_sessions(make_rng(21), times, config)
    np.testing.assert_array_equal(
        (packed // HOUR).astype(int), (times // HOUR).astype(int)
    )
    # The scalar reference demonstrates the bug being fixed.
    spilled, _ = pack_sessions_scalar(make_rng(21), times, config)
    assert ((spilled // HOUR).astype(int) != (times // HOUR).astype(int)).any()


def test_pack_sessions_statistics_match_scalar_reference():
    """Session sizes (geometric) and intra-session gap shape agree with
    the per-hour-bin reference implementation within sampling noise."""
    from tests.oracles.generator import pack_sessions_scalar

    config = SessionConfig()
    times = np.sort(make_rng(22).uniform(0, 48 * HOUR, size=30_000))

    def stats(fn, seed):
        packed, sessions = fn(make_rng(seed), times, config)
        sizes = np.bincount(sessions - sessions.min())
        sizes = sizes[sizes > 0]
        gaps = np.diff(np.sort(packed))
        return sizes.mean(), (gaps < 10.0).mean()

    vec_mean, vec_frac = stats(pack_sessions, 23)
    ref_mean, ref_frac = stats(pack_sessions_scalar, 24)
    assert vec_mean == pytest.approx(ref_mean, rel=0.05)
    assert vec_frac == pytest.approx(ref_frac, abs=0.03)
    # Figure 7's headline: most system interarrivals are seconds apart.
    assert vec_frac > 0.75


def test_pack_sessions_interarrival_seconds_scale():
    """Packed interarrivals follow the capped-exponential law: mean a few
    seconds inside sessions, with the configured cap respected."""
    config = SessionConfig()
    times = np.sort(make_rng(25).uniform(0, HOUR, size=3000))
    packed, sessions = pack_sessions(make_rng(26), times, config)
    order = np.lexsort((packed, sessions))
    same_session = sessions[order][1:] == sessions[order][:-1]
    intra = np.diff(packed[order])[same_session]
    assert intra.size > 1000
    assert intra.max() <= config.intra_gap_cap + 1e-9
    assert intra.mean() == pytest.approx(config.intra_gap_mean, rel=0.2)
