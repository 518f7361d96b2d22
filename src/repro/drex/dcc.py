"""DReX CXL Controller (DCC) extensions (Section 7.2).

The DCC is the GPU-facing front-end: a hardware-managed MMIO **Request
Queue** (FIFO, depth 512 — one slot per concurrently served user, since a
user's sparse attention must complete before its next request), 512
**Response Buffers** sized for the maximum Response Descriptor, a 512-bit
**Polling Register**, and a CAM mapping User IDs to buffer/polling-bit
indices (read once by the GPU and reused across layers and iterations).

Kept unreached: ``DrexCxlController.unregister_user``,
``DrexCxlController.pending``, ``DrexCxlController.poll`` — a multi-user
DCC; ROADMAP item 22 (one shared device per worker) makes it live.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

import numpy as np

from repro.drex.descriptors import RequestDescriptor, ResponseDescriptor
from repro.errors import QueueFullError, UnknownUserError

__all__ = ["DrexCxlController", "QueueFullError", "UnknownUserError"]


class DrexCxlController:
    """Functional model of the DCC front-end."""

    QUEUE_DEPTH = 512
    N_RESPONSE_BUFFERS = 512

    def __init__(self) -> None:
        self._queue: deque = deque()
        self._buffers: Dict[int, Optional[ResponseDescriptor]] = {}
        self._cam: Dict[int, int] = {}  # UID -> buffer index
        self._free_buffers = list(range(self.N_RESPONSE_BUFFERS - 1, -1, -1))
        self.polling_register = np.zeros(self.N_RESPONSE_BUFFERS, dtype=bool)

    # -- user registration (CAM) -------------------------------------------------

    def register_user(self, uid: int) -> int:
        """Bind a UID to a response buffer + polling bit; idempotent."""
        if uid in self._cam:
            return self._cam[uid]
        if not self._free_buffers:
            raise QueueFullError("all response buffers are bound")
        index = self._free_buffers.pop()
        self._cam[uid] = index
        self._buffers[index] = None
        return index

    def unregister_user(self, uid: int) -> None:
        index = self._cam.pop(uid, None)
        if index is not None:
            self._buffers.pop(index, None)
            self.polling_register[index] = False
            self._free_buffers.append(index)
            # Drain any still-queued requests for the departed user: they can
            # no longer be completed (no response buffer) and would otherwise
            # occupy FIFO slots forever — or worse, complete into a buffer
            # later re-bound to a different user.
            if any(r.uid == uid for r in self._queue):
                self._queue = deque(r for r in self._queue if r.uid != uid)

    def buffer_index(self, uid: int) -> int:
        """CAM lookup (the GPU caches this for the whole generation phase)."""
        try:
            return self._cam[uid]
        except KeyError:
            raise UnknownUserError(
                f"UID {uid} is not registered with the DCC (no CAM entry; "
                f"{len(self._cam)} users bound)") from None

    # -- request path ------------------------------------------------------------

    def submit(self, request: RequestDescriptor) -> None:
        """Push a Request Descriptor into the MMIO queue (FIFO order)."""
        self.buffer_index(request.uid)  # raises UnknownUserError if unbound
        if len(self._queue) >= self.QUEUE_DEPTH:
            raise QueueFullError("request queue full (depth 512)")
        self._queue.append(request)

    def pop_next(self) -> Optional[RequestDescriptor]:
        """Dequeue the next request for dispatch to NMAs."""
        return self._queue.popleft() if self._queue else None

    @property
    def pending(self) -> int:
        return len(self._queue)

    # -- response path ---------------------------------------------------------

    def complete(self, response: ResponseDescriptor) -> None:
        """Aggregate NMA results into the user's buffer; raise polling bit."""
        index = self.buffer_index(response.uid)
        self._buffers[index] = response
        self.polling_register[index] = True

    def poll(self, uid: int) -> bool:
        """GPU-side poll: is the user's response ready?"""
        return bool(self.polling_register[self.buffer_index(uid)])

    def read_response(self, uid: int) -> ResponseDescriptor:
        """Consume the response (clears the polling bit)."""
        index = self.buffer_index(uid)
        response = self._buffers[index]
        if response is None:
            raise RuntimeError(f"no completed response for UID {uid}")
        self._buffers[index] = None
        self.polling_register[index] = False
        return response
