"""Fault-tolerance primitives of the server.

The paper's protocol: "The server maintains a log of received messages per
client, so in case of client restart, already received messages are discarded"
and "the server watches for unresponsive clients and asks the launcher to
properly kill and restart faulty ones".  :class:`MessageLog` implements the
former, :class:`HeartbeatMonitor` the latter.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np


class MessageLog:
    """Per-client log of received (client_id, time_step) keys for deduplication."""

    def __init__(self) -> None:
        self._received: Dict[int, Set[int]] = {}
        self._duplicates = 0
        self._lock = threading.Lock()

    def register_many(self, client_ids: np.ndarray,
                      time_steps: np.ndarray) -> Optional[np.ndarray]:
        """Record a columnar batch of ``(client_id, time_step)`` keys at once.

        Returns ``None`` when every key is new (the caller keeps the whole
        batch, no mask allocation), else a boolean keep-mask aligned with the
        input vectors.  Each rejected key counts once as a duplicate, also
        when the same key repeats within the batch.
        """
        ids = client_ids.tolist()
        steps = time_steps.tolist()
        with self._lock:
            if ids and len(set(ids)) == 1:
                # Single-client chunk (the overwhelmingly common shape of a
                # transport batch): one set-disjointness probe decides the
                # whole batch instead of a per-key membership loop.
                known = self._received.setdefault(int(ids[0]), set())
                if len(set(steps)) == len(steps) and known.isdisjoint(steps):
                    known.update(steps)
                    return None
            keep = np.empty(len(ids), dtype=bool)
            for index, (cid, step) in enumerate(zip(ids, steps)):
                known = self._received.setdefault(int(cid), set())
                if step in known:
                    self._duplicates += 1
                    keep[index] = False
                else:
                    known.add(int(step))
                    keep[index] = True
            return keep

    def received_steps(self, client_id: int) -> Set[int]:
        """Time steps already received from ``client_id`` (copy)."""
        with self._lock:
            return set(self._received.get(int(client_id), set()))

    def count(self, client_id: int) -> int:
        with self._lock:
            return len(self._received.get(int(client_id), set()))

    @property
    def duplicates_discarded(self) -> int:
        with self._lock:
            return self._duplicates

    def state(self) -> Dict[int, List[int]]:
        """Serialisable snapshot (used by server checkpoints)."""
        with self._lock:
            return {cid: sorted(steps) for cid, steps in self._received.items()}

    def restore(self, state: Dict[int, List[int]]) -> None:
        """Restore a snapshot produced by :meth:`state`."""
        with self._lock:
            self._received = {int(cid): set(steps) for cid, steps in state.items()}


@dataclass
class ClientLiveness:
    """Liveness record of one client."""

    client_id: int
    last_seen: float
    progress: float = 0.0
    finished: bool = False


@dataclass
class HeartbeatMonitor:
    """Detects unresponsive clients from the timestamps of their last messages.

    Any message (hello, time step, heartbeat) refreshes the client's
    ``last_seen``; clients silent for more than ``timeout`` seconds and not
    finished are reported by :meth:`unresponsive_clients` so the server can ask
    the launcher to kill and restart them.
    """

    timeout: float = 30.0
    _clients: Dict[int, ClientLiveness] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def touch(self, client_id: int, progress: float = 0.0, timestamp: float | None = None) -> None:
        """Record activity from a client."""
        now = time.monotonic() if timestamp is None else timestamp
        with self._lock:
            record = self._clients.get(client_id)
            if record is None:
                self._clients[client_id] = ClientLiveness(client_id, now, progress)
            else:
                record.last_seen = now
                record.progress = max(record.progress, progress)

    def mark_finished(self, client_id: int) -> None:
        with self._lock:
            record = self._clients.setdefault(
                client_id, ClientLiveness(client_id, time.monotonic())
            )
            record.finished = True

    def silence(self, client_id: int, now: float | None = None) -> float | None:
        """Seconds since ``client_id``'s last observed activity.

        ``None`` when the client was never seen (it may still be starting
        up) or has already finished; the launcher's watchdog asks
        :meth:`is_finished` to tell the two apart.
        """
        now = time.monotonic() if now is None else now
        with self._lock:
            record = self._clients.get(client_id)
            if record is None or record.finished:
                return None
            return now - record.last_seen

    def is_finished(self, client_id: int) -> bool:
        """True once the client's ``ClientFinished`` was observed."""
        with self._lock:
            record = self._clients.get(client_id)
            return record is not None and record.finished

    def unresponsive_clients(self, now: float | None = None) -> List[Tuple[int, float]]:
        """(client_id, silence duration) of clients exceeding the timeout."""
        now = time.monotonic() if now is None else now
        with self._lock:
            return [
                (cid, now - rec.last_seen)
                for cid, rec in self._clients.items()
                if not rec.finished and (now - rec.last_seen) > self.timeout
            ]

    def tracked_clients(self) -> List[int]:
        with self._lock:
            return sorted(self._clients)
