"""Offload latency composition tests."""

import dataclasses

import pytest

from repro.drex.cxl import LINK
from repro.drex.dram import LPDDR5X
from repro.drex.timing import DrexTimingModel, LatencyBreakdown, OffloadCost


@pytest.fixture
def model():
    return DrexTimingModel()


def _cost(n_keys=10000, survivors=500, retrieved=100, heads=4, d=64, k=1024):
    return OffloadCost(n_keys=n_keys, n_survivors=survivors,
                       n_retrieved=retrieved, n_query_heads=heads,
                       head_dim=d, top_k=k)


class TestBreakdown:
    def test_total_is_sum_of_components(self):
        b = LatencyBreakdown(1, 2, 3, 4, 5, 6, 7)
        assert b.total_ns == 28
        assert b.compute_ns == 15

    def test_add_and_pmax(self):
        a = LatencyBreakdown(1, 0, 2, 0, 0, 0, 0)
        b = LatencyBreakdown(0, 5, 1, 0, 0, 0, 0)
        s = a + b
        assert (s.address_gen_ns, s.filter_ns, s.bitmap_read_ns) == (1, 5, 3)
        m = LatencyBreakdown.pmax([a, b])
        assert (m.address_gen_ns, m.filter_ns, m.bitmap_read_ns) == (1, 5, 2)

    def test_components_dict_covers_fields(self):
        b = LatencyBreakdown()
        assert set(b.components()) == {
            "address_gen", "filter", "bitmap_read", "score", "rank",
            "value_read", "queue"}


class TestEpochs:
    def test_one_epoch_up_to_full_package(self, model):
        assert model.epochs(1) == 1
        assert model.epochs(131072) == 1  # 1024 blocks = 1024 PFUs

    def test_wraps_beyond_package(self, model):
        assert model.epochs(131073) == 2
        assert model.epochs(131072 * 3) == 3


class TestPackageLatency:
    def test_includes_paper_constants(self, model):
        b = model.package_latency(_cost())
        assert b.address_gen_ns == LPDDR5X.address_gen_ns
        assert b.filter_ns == pytest.approx(64 * 1.25)

    def test_score_grows_with_survivors(self, model):
        a = model.package_latency(_cost(survivors=500))
        b = model.package_latency(_cost(survivors=5000))
        assert b.score_ns > a.score_ns
        assert b.filter_ns == a.filter_ns  # filtering independent of pass rate

    def test_value_read_empty_at_package_level(self, model):
        assert model.package_latency(_cost()).value_read_ns == 0.0


class TestOffload:
    def test_empty(self, model):
        assert model.offload_latency([], head_dim=64).total_ns == 0.0

    def test_parallel_packages_use_max(self, model):
        small = _cost(n_keys=1000, survivors=50, retrieved=50)
        large = _cost(n_keys=100000, survivors=5000, retrieved=100)
        combined = model.offload_latency([small, large], head_dim=64)
        alone = model.offload_latency([large], head_dim=64)
        assert combined.compute_ns == pytest.approx(alone.compute_ns)

    def test_value_read_aggregates_over_packages(self, model):
        one = model.offload_latency([_cost(retrieved=100)], head_dim=64)
        two = model.offload_latency([_cost(retrieved=100)] * 2, head_dim=64)
        assert two.value_read_ns > one.value_read_ns

    def test_value_read_scales_with_k_and_dim(self, model):
        a = model.value_read_ns(100, 64)
        b = model.value_read_ns(200, 64)
        c = model.value_read_ns(100, 128)
        assert b > a and c > a

    def test_request_submit_small(self, model):
        t = model.request_submit_ns(32, 128)
        assert t < 1000 + LINK.latency_ns
