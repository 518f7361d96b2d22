"""DCC front-end: queue, CAM, response buffers, polling register."""

import numpy as np
import pytest

from repro.drex.dcc import DrexCxlController, QueueFullError
from repro.drex.descriptors import (RequestDescriptor, ResponseDescriptor,
                                    response_entry_bytes)


def _request(uid, layer=0):
    return RequestDescriptor(uid=uid, layer=layer,
                             queries=np.zeros((4, 16)))


def _response(uid, layer=0):
    return ResponseDescriptor(uid=uid, layer=layer)


class TestRegistration:
    def test_register_is_idempotent(self):
        dcc = DrexCxlController()
        a = dcc.register_user(5)
        b = dcc.register_user(5)
        assert a == b
        assert dcc.buffer_index(5) == a

    def test_distinct_buffers(self):
        dcc = DrexCxlController()
        indices = {dcc.register_user(uid) for uid in range(100)}
        assert len(indices) == 100

    def test_exhaustion(self):
        dcc = DrexCxlController()
        for uid in range(DrexCxlController.N_RESPONSE_BUFFERS):
            dcc.register_user(uid)
        with pytest.raises(QueueFullError):
            dcc.register_user(9999)

    def test_unregister_frees_buffer(self):
        dcc = DrexCxlController()
        for uid in range(DrexCxlController.N_RESPONSE_BUFFERS):
            dcc.register_user(uid)
        dcc.unregister_user(3)
        dcc.register_user(8888)  # reuses the freed slot

    def test_unregister_drains_queued_requests(self):
        """Regression: a departed user's queued requests must leave the
        FIFO — they could never complete (no response buffer) and would
        occupy slots forever."""
        dcc = DrexCxlController()
        dcc.register_user(1)
        dcc.register_user(2)
        for _ in range(3):
            dcc.submit(_request(1))
        dcc.submit(_request(2))
        dcc.unregister_user(1)
        assert dcc.pending == 1
        assert dcc.pop_next().uid == 2
        assert dcc.pop_next() is None

    def test_unregister_drain_restores_queue_headroom(self):
        dcc = DrexCxlController()
        dcc.register_user(1)
        for _ in range(DrexCxlController.QUEUE_DEPTH):
            dcc.submit(_request(1))
        dcc.unregister_user(1)
        dcc.register_user(2)
        dcc.submit(_request(2))  # queue no longer full
        assert dcc.pending == 1

    def test_full_buffer_churn_recycles_indices(self):
        """Fill all 512 buffers, unregister everyone, re-register: every
        buffer index and polling bit must be recycled cleanly."""
        dcc = DrexCxlController()
        n = DrexCxlController.N_RESPONSE_BUFFERS
        first = {uid: dcc.register_user(uid) for uid in range(n)}
        for uid in range(n):
            dcc.complete(_response(uid))
        for uid in range(n):
            dcc.unregister_user(uid)
        assert not dcc.polling_register.any()
        second = {uid: dcc.register_user(uid) for uid in range(n, 2 * n)}
        assert sorted(second.values()) == sorted(first.values())
        # Stale completions from the first generation are gone.
        assert all(not dcc.poll(uid) for uid in second)
        with pytest.raises(QueueFullError):
            dcc.register_user(10_000)


class TestQueue:
    def test_fifo_order(self):
        dcc = DrexCxlController()
        for uid in range(3):
            dcc.register_user(uid)
            dcc.submit(_request(uid))
        assert [dcc.pop_next().uid for _ in range(3)] == [0, 1, 2]
        assert dcc.pop_next() is None

    def test_depth_limit(self):
        dcc = DrexCxlController()
        dcc.register_user(0)
        for _ in range(DrexCxlController.QUEUE_DEPTH):
            dcc.submit(_request(0))
        with pytest.raises(QueueFullError):
            dcc.submit(_request(0))
        assert dcc.pending == DrexCxlController.QUEUE_DEPTH

    def test_unregistered_uid_rejected(self):
        dcc = DrexCxlController()
        with pytest.raises(KeyError):
            dcc.submit(_request(42))

    def test_unknown_user_error_is_descriptive(self):
        from repro.errors import ReproError, UnknownUserError

        dcc = DrexCxlController()
        dcc.register_user(7)
        with pytest.raises(UnknownUserError) as excinfo:
            dcc.buffer_index(42)
        message = str(excinfo.value)
        assert "UID 42" in message and "1 users bound" in message
        # Still catchable as KeyError (hardware CAM-miss semantics) and as
        # the shared repro error base.
        assert isinstance(excinfo.value, KeyError)
        assert isinstance(excinfo.value, ReproError)


class TestResponsePath:
    def test_poll_and_read(self):
        dcc = DrexCxlController()
        dcc.register_user(1)
        assert not dcc.poll(1)
        dcc.complete(_response(1))
        assert dcc.poll(1)
        response = dcc.read_response(1)
        assert response.uid == 1
        assert not dcc.poll(1)  # polling bit cleared on read

    def test_read_without_completion(self):
        dcc = DrexCxlController()
        dcc.register_user(1)
        with pytest.raises(RuntimeError):
            dcc.read_response(1)

    def test_polling_register_is_per_user(self):
        dcc = DrexCxlController()
        dcc.register_user(1)
        dcc.register_user(2)
        dcc.complete(_response(2))
        assert not dcc.poll(1)
        assert dcc.poll(2)


class TestDescriptors:
    def test_request_bytes(self):
        r = RequestDescriptor(uid=0, layer=0, queries=np.zeros((32, 128)))
        assert r.n_bytes == 16 + 32 * 128 * 2

    def test_response_max_bytes_bounds_actual(self):
        # Four query heads retrieving their full top-10 fill the buffer.
        max_bytes = 16 + 4 * 10 * response_entry_bytes(64)
        resp = ResponseDescriptor(uid=0, layer=0, n_entries=4 * 10)
        assert resp.n_bytes(64) == max_bytes
        assert ResponseDescriptor(uid=0, layer=0, n_entries=39).n_bytes(64) \
            < max_bytes
