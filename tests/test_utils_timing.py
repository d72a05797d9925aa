"""Tests for clocks, stopwatches and timers."""

import pytest

from repro.utils.timing import Stopwatch, VirtualClock, WallClock


def test_wall_clock_monotonic():
    clock = WallClock()
    first = clock.now()
    second = clock.now()
    assert second >= first


def test_virtual_clock_advance():
    clock = VirtualClock()
    assert clock.now() == 0.0
    clock.advance(5.0)
    assert clock.now() == 5.0
    clock.advance_to(3.0)  # never goes backwards
    assert clock.now() == 5.0
    clock.advance_to(7.5)
    assert clock.now() == 7.5


def test_virtual_clock_rejects_negative_advance():
    with pytest.raises(ValueError):
        VirtualClock().advance(-1.0)


def test_virtual_clock_sleep_advances():
    clock = VirtualClock(10.0)
    clock.sleep(2.5)
    assert clock.now() == 12.5


def test_stopwatch_accumulates():
    clock = VirtualClock()
    watch = Stopwatch(clock=clock)
    watch.start()
    clock.advance(2.0)
    watch.stop()
    watch.start()
    clock.advance(3.0)
    watch.stop()
    assert watch.elapsed == pytest.approx(5.0)


def test_stopwatch_context_manager():
    clock = VirtualClock()
    watch = Stopwatch(clock=clock)
    with watch:
        clock.advance(1.5)
    assert watch.elapsed == pytest.approx(1.5)
    assert not watch.running


def test_stopwatch_reset():
    clock = VirtualClock()
    watch = Stopwatch(clock=clock)
    with watch:
        clock.advance(1.0)
    watch.reset()
    assert watch.elapsed == 0.0
