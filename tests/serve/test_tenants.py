"""Per-tenant SLO classes: weighted admission, fair decode truncation.

Model-free, like the scheduler suite: synthetic requests drive the
scheduler directly, so the stride-scheduling arithmetic and the
tenant-fair batch truncation are pinned without a transformer in the
loop.
"""

import numpy as np
import pytest

from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import (ContinuousBatchScheduler, RequestState,
                                   ServeRequest, SloPolicy, TenantClass)
from tests.conftest import TINY


def _request(i, tenant="default", prompt_tokens=8, max_new=4, arrival=0.0):
    return ServeRequest(request_id=i,
                        prompt=np.zeros(prompt_tokens, dtype=np.int64),
                        max_new_tokens=max_new, arrival_s=arrival,
                        tenant=tenant)


def _scheduler(n_blocks=8, block_tokens=4, **policy):
    pool = PagedKVPool(TINY, n_blocks=n_blocks, block_tokens=block_tokens)
    return ContinuousBatchScheduler(pool, SloPolicy(**policy)), pool


GOLD_FREE = (TenantClass("gold", weight=2), TenantClass("free", weight=1))


class TestWeightedAdmission:
    def test_stride_admission_honors_weights(self):
        # pool fits exactly one session at a time, so every admission is
        # a contended slot; weights 2:1 must yield a 2:1 admission rate.
        sched, _ = _scheduler(n_blocks=3, tenant_classes=GOLD_FREE)
        for i in range(6):
            sched.submit(_request(i, tenant="gold"))
            sched.submit(_request(100 + i, tenant="free"))
        order = []
        for _ in range(12):
            admitted = sched.admit(now=0.0)
            assert len(admitted) == 1
            order.append(admitted[0].tenant)
            sched.request_finished(admitted[0], now=0.0)
        # gold's 6 requests drain over the first 9 contended slots at a
        # 2:1 rate; the trailing 3 slots go to free's leftover queue.
        for k in (1, 2, 3):
            window = order[: 3 * k]
            assert window.count("gold") == 2 * k
            assert window.count("free") == k
        assert order[9:] == ["free"] * 3

    def test_single_tenant_keeps_fifo_order(self):
        # without tenant classes the stride machinery must reduce to the
        # original FIFO-by-arrival admission exactly.
        sched, _ = _scheduler()
        sched.submit(_request(1, arrival=2.0))
        sched.submit(_request(0, arrival=1.0))
        assert [r.request_id for r in sched.admit(now=3.0)] == [0, 1]

    def test_blocked_tenant_does_not_starve_others(self):
        # gold's head needs more free blocks than remain; free's small
        # head must still be admitted in the same call.
        sched, _ = _scheduler(n_blocks=8, tenant_classes=GOLD_FREE)
        sched.submit(_request(0, tenant="gold", prompt_tokens=28))
        sched.submit(_request(1, tenant="free", prompt_tokens=4))
        sched.submit(_request(2, tenant="gold", prompt_tokens=28))
        admitted = sched.admit(now=0.0)
        assert [r.request_id for r in admitted] == [0, 1]
        assert len(sched.queued) == 1  # gold's second head waits, unshed

    def test_late_joining_tenant_cannot_monopolize(self):
        # a tenant that sat idle must not bank virtual time: its vtime is
        # clamped to the active minimum on (re)activation, so it gets its
        # weighted share, not a catch-up burst.
        sched, _ = _scheduler(n_blocks=3, tenant_classes=GOLD_FREE)
        for i in range(4):
            sched.submit(_request(i, tenant="gold"))
        order = []
        for _ in range(2):
            admitted = sched.admit(now=0.0)
            order.append(admitted[0].tenant)
            sched.request_finished(admitted[0], now=0.0)
        for i in range(2):
            sched.submit(_request(100 + i, tenant="free"))
        for _ in range(4):
            admitted = sched.admit(now=0.0)
            order.append(admitted[0].tenant)
            sched.request_finished(admitted[0], now=0.0)
        # after free joins, gold still wins 2 of every 3 slots
        assert order[2:].count("gold") >= 2
        assert order[2:].count("free") >= 1


class TestFairDecodeTruncation:
    def _running_decodes(self, sched, specs):
        """Admit and promote requests so they sit in DECODE."""
        for i, tenant in specs:
            sched.submit(_request(i, tenant=tenant, prompt_tokens=4))
        for request in sched.admit(now=0.0):
            sched.prefill_complete(request)

    def test_over_cap_batch_mixes_tenants(self):
        sched, _ = _scheduler(n_blocks=64, max_decode_batch=2,
                              tenant_classes=(TenantClass("a"),
                                              TenantClass("b")))
        # all of tenant a admitted first: naive truncation would decode
        # only a's sessions and starve b entirely.
        self._running_decodes(
            sched, [(0, "a"), (1, "a"), (2, "a"), (100, "b")])
        plan = sched.assemble()
        assert len(plan.decodes) == 2
        assert {r.tenant for r in plan.decodes} == {"a", "b"}

    def test_under_cap_batch_is_untouched(self):
        sched, _ = _scheduler(n_blocks=64, max_decode_batch=8,
                              tenant_classes=(TenantClass("a"),
                                              TenantClass("b")))
        self._running_decodes(sched, [(0, "a"), (1, "b"), (2, "a")])
        plan = sched.assemble()
        assert [r.request_id for r in plan.decodes] == [0, 1, 2]

    def test_single_tenant_truncation_is_prefix(self):
        sched, _ = _scheduler(n_blocks=64, max_decode_batch=2)
        self._running_decodes(sched, [(0, "default"), (1, "default"),
                                      (2, "default")])
        plan = sched.assemble()
        assert [r.request_id for r in plan.decodes] == [0, 1]


class TestValidation:
    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError):
            SloPolicy(tenant_classes=(TenantClass("a"), TenantClass("a")))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            TenantClass("a", weight=0)

    def test_unknown_tenant_defaults_to_weight_one(self):
        policy = SloPolicy(tenant_classes=GOLD_FREE)
        assert policy.tenant_weight("gold") == 2
        assert policy.tenant_weight("anonymous") == 1
        assert policy.tenant_class("anonymous") is None

    def test_events_carry_tenant(self):
        request = _request(0, tenant="gold")
        assert request.events.tenant == "gold"
