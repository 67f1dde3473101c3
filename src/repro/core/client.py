"""Client-side player state: frame buffer, decoder, playback clock.

Each streaming client keeps a small buffer of downloaded-but-unplayed
frames.  Playback consumes one frame per tick; if the next frame has not
arrived (or cannot be decoded in time) the player stalls — it freezes and
resumes once the frame shows up.  Decode capacity is bounded by the
Draco decode model (550K points/frame at 30 FPS on the modeled hardware).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..pointcloud import DecoderModel, DEFAULT_DECODER

__all__ = ["BufferedFrame", "ClientBuffer"]


@dataclass(frozen=True)
class BufferedFrame:
    """One downloaded frame waiting for playback."""

    frame_index: int
    quality: str
    nominal_points: float
    arrived_at_s: float


@dataclass
class ClientBuffer:
    """Playback buffer of one client."""

    user_id: int
    fps: float = 30.0
    decoder: DecoderModel = field(default_factory=lambda: DEFAULT_DECODER)
    max_buffered_frames: int = 90  # 3 s of content at 30 FPS
    _frames: dict[int, BufferedFrame] = field(default_factory=dict, repr=False)
    next_playback_index: int = 0

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.max_buffered_frames < 1:
            raise ValueError("max_buffered_frames must be >= 1")

    # -- download side ---------------------------------------------------

    def can_accept(self, frame_index: int, extra_window: int = 0) -> bool:
        """Accept frames not yet played and within the buffer window.

        ``extra_window`` temporarily widens the window — how the scheduler's
        prefetch-ahead-of-blockage action (paper §4.1) is realized.
        """
        if extra_window < 0:
            raise ValueError("extra_window must be non-negative")
        if frame_index < self.next_playback_index:
            return False
        if frame_index in self._frames:
            return False
        window_end = (
            self.next_playback_index + self.max_buffered_frames + extra_window
        )
        return frame_index < window_end

    def deposit(self, frame: BufferedFrame, extra_window: int = 0) -> None:
        if not self.can_accept(frame.frame_index, extra_window):
            raise ValueError(
                f"frame {frame.frame_index} not accepted "
                f"(playhead {self.next_playback_index})"
            )
        self._frames[frame.frame_index] = frame

    # -- playback side -----------------------------------------------------

    def has_frame(self, frame_index: int) -> bool:
        return frame_index in self._frames

    def play_next(self) -> BufferedFrame | None:
        """Consume the frame at the playhead; ``None`` means a stall tick."""
        frame = self._frames.pop(self.next_playback_index, None)
        if frame is None:
            return None
        self.next_playback_index += 1
        return frame

    @property
    def buffered_frames(self) -> int:
        """Frames at/after the playhead currently in the buffer."""
        return sum(1 for i in self._frames if i >= self.next_playback_index)

    @property
    def buffer_level_s(self) -> float:
        """Buffered content ahead of the playhead, in seconds.

        Counts only the contiguous run starting at the playhead — frames
        behind a gap do not protect against the next stall.
        """
        run = 0
        while (self.next_playback_index + run) in self._frames:
            run += 1
        return run / self.fps
