"""Tests of the host-speed probe that end-to-end times are reported through."""

import signal
import time

import pytest

from speed import Probe, SpeedProbe


def _probe_with(samples, reference=1.0):
    speed = SpeedProbe(probe=lambda: None, reference=reference)
    for start, duration in samples:
        speed.starts.append(start)
        speed.durations.append(duration)
    return speed


def test_own_seconds_subtracts_probes_inside_and_scales_by_their_speed():
    # probes of 0.5 s (half the reference speed) at 0, 2, 4 and 6
    speed = _probe_with([(0, 0.5), (2, 0.5), (4, 0.5), (6, 0.5)], reference=0.25)
    # [1, 5] holds the probes at 2 and 4: 4 s - 1 s of probing = 3 s, at twice the reference
    assert speed.own_seconds(1, 5) == pytest.approx(1.5)
    # a probe cut by the interval's edge counts only its part inside
    assert speed.own_seconds(0.25, 1) == pytest.approx((0.75 - 0.25) / 2)


def test_each_gap_takes_the_speed_of_the_probes_around_it():
    # the host slows down by half between the probe at 2 and the one at 4
    speed = _probe_with([(0, 1.0), (2, 1.0), (4, 2.0), (6, 2.0)], reference=1.0)
    assert speed.own_seconds(1, 2) == pytest.approx(1.0)
    assert speed.own_seconds(3, 4) == pytest.approx(1.0 / 1.5)
    # probes fill [4, 8]; after the last one, its own speed
    assert speed.own_seconds(1, 9) == pytest.approx(1.0 + 1.0 / 1.5 + 1.0 / 2.0)


def test_a_long_gap_takes_the_speed_of_as_long_a_stretch_either_side():
    probes = [(t, 1.0) for t in range(0, 8, 2)] + [(t, 3.0) for t in range(12, 24, 4)]
    speed = _probe_with(probes, reference=1.0)
    # the gap [7, 12] reads probes starting in [2, 17]: 2, 4, 6 at 1 s and 12, 16 at 3 s
    assert speed.own_seconds(7, 12) == pytest.approx(5.0 / ((3 * 1.0 + 2 * 3.0) / 5))


def test_own_seconds_outside_the_probes_takes_the_nearest_probe():
    speed = _probe_with([(2, 0.1), (10, 0.3)], reference=0.2)
    assert speed.own_seconds(4, 5) == pytest.approx(1.0)  # mean of 0.1 and 0.3 is the reference
    assert speed.own_seconds(0, 1) == pytest.approx(2.0)
    assert speed.own_seconds(11, 12) == pytest.approx(1.0 * 0.2 / 0.3)
    with pytest.raises(ValueError):
        _probe_with([]).own_seconds(0, 1)


def test_probes_run_during_work_without_nesting_and_restore_the_handler():
    depth, deepest = [0], [0]

    def probe():
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        end = time.perf_counter() + 0.004
        while time.perf_counter() < end:  # longer than the period
            pass
        depth[0] -= 1

    before = signal.getsignal(signal.SIGALRM)
    speed = SpeedProbe(probe=probe, period=0.002, reference=0.004)
    with speed.running():
        a = time.perf_counter()
        end = a + 0.2
        while time.perf_counter() < end:
            pass
        b = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert deepest == [1] and len(speed.durations) > 10
    inside = sum(d for s, d in zip(speed.starts, speed.durations) if a <= s < b)
    assert inside > 0
    own = speed.own_seconds(a, b)
    assert 0 < own < b - a


def test_paused_block_has_no_probes():
    speed = SpeedProbe(probe=lambda: None, period=0.001)
    with speed.running():
        with speed.paused():
            n = len(speed.durations)
            a = time.perf_counter()
            time.sleep(0.05)
            b = time.perf_counter()
            assert len(speed.durations) == n
    assert not any(a <= s < b for s in speed.starts)


def test_reference_probe_is_deterministic():
    assert Probe()() == Probe()()
