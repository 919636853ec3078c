"""Engine event stream: kinds, records, and the recorder/hasher sinks.

Engines emit events in the exact order they mutate state, so replaying a
recorded stream reconstructs the per-pair copy counts.  Recording is opt-in;
hot replays attach the hasher (or nothing) instead of the recorder.  A sink's
``emit`` receives the kind as a small int; ``KIND_NAMES[kind]`` is its name.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

COPY_ADDED = 1
COPY_REMOVED = 2
COPY_FLIPPED = 3
OUT_DEGREE_CHANGED = 4
SIMPLE_INSERTED = 5
SIMPLE_DELETED = 6

# EventHasher's FNV-1a-style step: h = (h ^ x) * _FNV_PRIME mod 2^64.
_FNV_PRIME = 0x100000001B3
_MASK_64 = (1 << 64) - 1

KIND_NAMES = (None, "copy_added", "copy_removed", "copy_flipped",
              "out_degree_changed", "simple_inserted", "simple_deleted")


class OrientationEvent(NamedTuple):
    """One engine mutation.

    For copy events ``u``/``v`` are tail/head of the copy concerned
    (for a flip: the old orientation).  For degree events ``u`` and ``v``
    are both the vertex and ``payload`` is its new out-degree.  For
    simple-edge events ``u < v``.
    """

    kind: str                  # KIND_NAMES entry
    u: int
    v: int
    payload: Optional[int] = None


class EventRecorder:
    """Materializes the event stream; test and debugging aid."""

    def __init__(self):
        self.events: list[OrientationEvent] = []

    def emit(self, kind: int, u: int, v: int, payload=None) -> None:
        self.events.append(OrientationEvent(KIND_NAMES[kind], u, v, payload))

    def clear(self) -> None:
        self.events.clear()


class EventHasher:
    """Order-sensitive 64-bit rolling hash of the event stream.

    Cheap enough to leave attached during large replays; two replays are
    event-identical iff their digests match.
    """

    __slots__ = ("digest", "count")

    def __init__(self):
        self.digest = 0xCBF29CE484222325
        self.count = 0

    def emit(self, kind: int, u: int, v: int, payload=None) -> None:
        h = (self.digest ^ kind) * _FNV_PRIME & _MASK_64
        h = (h ^ (u + 1)) * _FNV_PRIME & _MASK_64
        h = (h ^ (v + 1)) * _FNV_PRIME & _MASK_64
        if payload is not None:
            h = (h ^ (payload + 3)) * _FNV_PRIME & _MASK_64
        self.digest = h
        self.count += 1
