"""Client buffer tests."""

import pytest

from repro.core import BufferedFrame, ClientBuffer


def frame(idx, quality="high", points=550_000.0, t=0.0):
    return BufferedFrame(
        frame_index=idx, quality=quality, nominal_points=points, arrived_at_s=t
    )


def test_validation():
    with pytest.raises(ValueError):
        ClientBuffer(user_id=0, fps=0.0)
    with pytest.raises(ValueError):
        ClientBuffer(user_id=0, max_buffered_frames=0)


def test_deposit_and_play_in_order():
    buf = ClientBuffer(user_id=0)
    buf.deposit(frame(0))
    buf.deposit(frame(1))
    assert buf.play_next().frame_index == 0
    assert buf.play_next().frame_index == 1
    assert buf.play_next() is None  # frame 2 missing -> stall


def test_can_accept_window():
    buf = ClientBuffer(user_id=0, max_buffered_frames=3)
    assert buf.can_accept(0)
    assert buf.can_accept(2)
    assert not buf.can_accept(3)  # beyond the window
    buf.deposit(frame(0))
    assert not buf.can_accept(0)  # duplicate


def test_cannot_accept_played_frames():
    buf = ClientBuffer(user_id=0)
    buf.deposit(frame(0))
    buf.play_next()
    assert not buf.can_accept(0)
    with pytest.raises(ValueError):
        buf.deposit(frame(0))


def test_window_slides_with_playhead():
    buf = ClientBuffer(user_id=0, max_buffered_frames=2)
    buf.deposit(frame(0))
    buf.deposit(frame(1))
    assert not buf.can_accept(2)
    buf.play_next()
    assert buf.can_accept(2)


def test_buffer_level_counts_contiguous_run():
    buf = ClientBuffer(user_id=0, fps=30.0)
    buf.deposit(frame(0))
    buf.deposit(frame(1))
    buf.deposit(frame(3))  # gap at 2
    assert buf.buffered_frames == 3
    assert buf.buffer_level_s == pytest.approx(2 / 30.0)


def test_has_frame():
    buf = ClientBuffer(user_id=0)
    assert not buf.has_frame(0)
    buf.deposit(frame(0))
    assert buf.has_frame(0)
