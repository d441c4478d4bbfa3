import signal
import time

import pytest

import calib


def test_scale_is_one_at_reference_speed_and_tracks_slowdown():
    fast = [calib.REFERENCE_S] * 3
    assert calib.scale(fast) == pytest.approx(1.0)
    slow = [(1.6 * calib.REFERENCE_S[0], 1.6 * calib.REFERENCE_S[1])]
    assert calib.scale(slow) == pytest.approx(1 / 1.6)


def test_sampler_probes_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calib.Sampler() as sampler:
        end = time.perf_counter() + 6 * calib.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert 0 < sampler.spent < 6 * calib.PERIOD_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    with calib.Sampler(active=False) as idle:
        time.sleep(3 * calib.PERIOD_S)
    assert idle.samples == [] and idle.spent == 0.0
