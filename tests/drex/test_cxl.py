"""CXL link model tests."""

import pytest

from repro.drex.cxl import CxlLink


def test_transfer_includes_latency_and_serialization():
    link = CxlLink(bandwidth=100e9, latency_ns=600.0)
    assert link.transfer_ns(0) == pytest.approx(600.0)
    assert link.transfer_ns(100e9) == pytest.approx(600.0 + 1e9)


def test_serialization_excludes_latency():
    link = CxlLink(bandwidth=50e9)
    assert link.serialization_ns(50e9) == pytest.approx(1e9)


def test_polling_overhead():
    link = CxlLink(latency_ns=500.0, polling_interval_ns=1000.0)
    assert link.polling_overhead_ns == pytest.approx(1000.0)


def test_transfer_monotone_in_bytes():
    link = CxlLink()
    assert link.transfer_ns(2000) > link.transfer_ns(1000)
