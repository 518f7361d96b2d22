"""Data layout objects and sizing formulas."""

import numpy as np
import pytest

from repro.drex.geometry import DREX_DEFAULT
from repro.drex.layout import (
    ContextSlice,
    KeyBlockGroup,
    UserPartition,
    packages_required,
    rows_per_group,
)


class TestRowsPerGroup:
    def test_head_dim_128(self):
        """d=128: 1 sign row + 16 key rows + 16 value rows per bank."""
        assert rows_per_group(128) == 33

    def test_head_dim_64(self):
        """d=64: sign object is half a row (rounds to 1), 8+8 KV rows."""
        assert rows_per_group(64) == 17

    def test_monotone_in_dim(self):
        dims = [16, 32, 64, 128, 256]
        rows = [rows_per_group(d) for d in dims]
        assert rows == sorted(rows)

    def test_dtype_scaling(self):
        assert rows_per_group(128, dtype_bytes=4) > rows_per_group(128)


class TestContextSlice:
    def _slice(self, n_groups, keys_per_group=1024):
        s = ContextSlice(uid=0, layer=0, kv_head=0, package=2, head_dim=64)
        for g in range(n_groups):
            s.groups.append(KeyBlockGroup(bank_index=g, row_start=0,
                                          rows_per_bank=17, capacity=1024,
                                          n_keys=keys_per_group))
        return s

    def test_counts(self):
        s = self._slice(3)
        assert s.n_keys == 3072
        assert s.banks_spanned() == 24  # 3 groups x 8 channels

    def test_bytes_used(self):
        s = self._slice(2)
        g = DREX_DEFAULT
        assert s.bytes_used() == 2 * 17 * g.row_bytes * 8

    def test_group_free(self):
        group = KeyBlockGroup(0, 0, 17, capacity=1024, n_keys=1000)
        assert group.free == 24


class TestUserPartition:
    def test_aggregation(self):
        p = UserPartition(uid=7)
        s1 = ContextSlice(7, 0, 0, package=0, head_dim=64)
        s1.groups.append(KeyBlockGroup(0, 0, 17, 1024, 500))
        s2 = ContextSlice(7, 0, 1, package=3, head_dim=64)
        s2.groups.append(KeyBlockGroup(0, 0, 17, 1024, 250))
        p.slices[(0, 0)] = [s1]
        p.slices[(0, 1)] = [s2]
        assert p.total_keys() == 750
        assert p.packages_used() == {0, 3}


class TestPackagesRequired:
    def test_paper_formula(self):
        # 8 KV heads, context exactly one full slice -> 8 package-slices.
        assert packages_required(8, 131072) == 8
        # 1M tokens: ceil(1M / 131072) = 8 slices per head -> 64.
        assert packages_required(8, 1_000_000) == 64

    def test_small_context_still_one_slice_per_head(self):
        assert packages_required(8, 100) == 8

    def test_rounding_up(self):
        assert packages_required(2, 131073) == 4
