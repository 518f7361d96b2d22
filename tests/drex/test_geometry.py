"""DReX geometry: the paper's published counts must fall out."""

import pytest

from repro.drex.geometry import DREX_DEFAULT, DrexGeometry


def test_paper_counts():
    g = DREX_DEFAULT
    assert g.n_packages == 8
    assert g.banks_per_package == 1024
    assert g.total_banks == 8192
    assert g.n_pfus == 8192            # Table 2
    assert g.n_nmas == 8
    assert g.capacity_bytes == 512 * 1024**3


def test_layout_capacities():
    g = DREX_DEFAULT
    assert g.keys_per_key_block_group == 1024       # 128 keys x 8 channels
    assert g.max_keys_per_context_slice == 131072   # x 128 banks


def test_derived_row_counts_consistent():
    g = DREX_DEFAULT
    assert g.rows_per_bank * g.row_bytes * g.total_banks == g.capacity_bytes
    assert g.row_bytes % g.col_bytes == 0


def test_pfu_block_limits():
    assert DREX_DEFAULT.pfu_keys_per_block == 128
    assert DREX_DEFAULT.pfu_max_queries == 16
    assert DREX_DEFAULT.max_top_k == 1024


def test_validation():
    with pytest.raises(ValueError):
        DrexGeometry(row_bytes=100, col_bytes=16)


def test_custom_geometry():
    g = DrexGeometry(n_packages=2, channels_per_package=4,
                     banks_per_channel=64, capacity_bytes=2 * 1024**3)
    assert g.total_banks == 512
    assert g.keys_per_key_block_group == 512
