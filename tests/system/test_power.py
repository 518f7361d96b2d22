"""Power/area model: Section 9.4's published numbers."""

import pytest

from repro.system.power import PowerAreaModel


@pytest.fixture
def model():
    return PowerAreaModel()


def test_paper_total(model):
    assert model.drex_peak_w == pytest.approx(158.2, abs=0.1)


def test_components(model):
    assert model.package_peak_w == 18.7
    assert model.nma_peak_w == 1.072
    assert model.nma_area_mm2 == 15.1
    assert model.pfu_area_overhead == 0.067
    assert model.geometry.n_nmas * model.nma_area_mm2 == pytest.approx(120.8)


def test_system_power(model):
    assert model.system_peak_w(1, with_drex=False) == 700.0
    assert model.system_peak_w(2, with_drex=True) == pytest.approx(
        1400.0 + model.drex_peak_w)

