"""KV cache behavior, including the dense/sparse split LongSight relies on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.kv_cache import KVCache, LayerKV
from tests.conftest import TINY


def _kv(rng, n, heads=2, dim=8):
    # float32 matches LayerKV's default storage dtype, so read-back is exact.
    return (rng.normal(size=(heads, n, dim)).astype(np.float32),
            rng.normal(size=(heads, n, dim)).astype(np.float32))


class TestLayerKV:
    def test_append_and_read_back(self, rng):
        layer = LayerKV(2, 8, initial_capacity=4)
        k1, v1 = _kv(rng, 3)
        k2, v2 = _kv(rng, 5)
        layer.append(k1, v1)
        layer.append(k2, v2)
        assert len(layer) == 8
        np.testing.assert_array_equal(layer.keys[:, :3], k1)
        np.testing.assert_array_equal(layer.keys[:, 3:], k2)
        np.testing.assert_array_equal(layer.values[:, 3:], v2)

    def test_growth_preserves_contents(self, rng):
        layer = LayerKV(2, 8, initial_capacity=2)
        chunks = [_kv(rng, 7) for _ in range(6)]
        for k, v in chunks:
            layer.append(k, v)
        expected = np.concatenate([k for k, _ in chunks], axis=1)
        np.testing.assert_array_equal(layer.keys, expected)

    def test_shape_validation(self, rng):
        layer = LayerKV(2, 8)
        k, v = _kv(rng, 3)
        with pytest.raises(ValueError):
            layer.append(k, v[:, :2])
        with pytest.raises(ValueError):
            layer.append(k[:1], v[:1])

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                    max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_length_is_sum_of_appends(self, sizes):
        rng = np.random.default_rng(0)
        layer = LayerKV(1, 4, initial_capacity=1)
        for n in sizes:
            k, v = _kv(rng, n, heads=1, dim=4)
            layer.append(k, v)
        assert len(layer) == sum(sizes)


class TestDtypeAndReserve:
    def test_default_dtype_is_float32(self, rng):
        layer = LayerKV(2, 8)
        k, v = _kv(rng, 3)
        layer.append(k, v)
        assert layer.keys.dtype == np.float32
        assert layer.values.dtype == np.float32

    def test_dtype_configurable(self, rng):
        layer = LayerKV(2, 8, dtype=np.float64)
        k = rng.normal(size=(2, 3, 8))
        layer.append(k, k)
        assert layer.keys.dtype == np.float64
        np.testing.assert_array_equal(layer.keys, k)

    def test_kv_dtype_threads_through_model_config(self):
        import dataclasses

        assert KVCache(TINY).layers[0].keys.dtype == np.float32
        tiny64 = dataclasses.replace(TINY, kv_dtype="float64")
        assert KVCache(tiny64).layers[0].keys.dtype == np.float64

    def test_reserve_prevents_repeated_growth(self, rng):
        layer = LayerKV(2, 8, initial_capacity=4)
        layer.reserve(1000)
        grows_after_reserve = layer.n_grows
        assert grows_after_reserve == 1
        for _ in range(10):
            k, v = _kv(rng, 100)
            layer.append(k, v)
        assert layer.n_grows == grows_after_reserve
        assert len(layer) == 1000

    def test_reserve_is_noop_when_capacity_suffices(self):
        layer = LayerKV(2, 8, initial_capacity=64)
        layer.reserve(10)
        assert layer.n_grows == 0


class TestSignCache:
    def test_disabled_by_default(self, rng):
        layer = LayerKV(2, 8)
        with pytest.raises(RuntimeError):
            _ = layer.packed_signs

    def test_incremental_packing_counts_each_token_once(self, rng):
        """Appending N tokens packs signs for exactly those N tokens."""
        layer = LayerKV(2, 8, initial_capacity=2)
        layer.enable_sign_cache()
        for n in (5, 1, 7, 3):
            k, v = _kv(rng, n)
            layer.append(k, v)
        assert layer.signs_packed_total == 16
        assert len(layer) == 16

    def test_enable_after_appends_packs_backlog_once(self, rng):
        layer = LayerKV(2, 8)
        k, v = _kv(rng, 9)
        layer.append(k, v)
        layer.enable_sign_cache()
        assert layer.signs_packed_total == 9
        k2, v2 = _kv(rng, 4)
        layer.append(k2, v2)
        assert layer.signs_packed_total == 13

    def test_packed_signs_match_batch_packing(self, rng):
        from repro.core.scf import pack_signs

        layer = LayerKV(2, 8, initial_capacity=2)
        layer.enable_sign_cache()
        for n in (3, 6, 2):
            k, v = _kv(rng, n)
            layer.append(k, v)
        np.testing.assert_array_equal(layer.packed_signs,
                                      pack_signs(layer.keys))

    def test_packed_signs_with_rotation(self, rng):
        from repro.core.scf import pack_signs

        rot = np.linalg.qr(rng.normal(size=(2, 8, 8)))[0]
        layer = LayerKV(2, 8)
        layer.enable_sign_cache(rotations=rot)
        k, v = _kv(rng, 12)
        layer.append(k, v)
        np.testing.assert_array_equal(
            layer.packed_signs, pack_signs(np.matmul(layer.keys, rot)))

    def test_rotation_shape_validated(self, rng):
        layer = LayerKV(2, 8)
        with pytest.raises(ValueError):
            layer.enable_sign_cache(rotations=np.eye(8)[None])

    def test_survives_growth(self, rng):
        from repro.core.scf import pack_signs

        layer = LayerKV(2, 8, initial_capacity=2)
        layer.enable_sign_cache()
        for _ in range(5):
            k, v = _kv(rng, 7)
            layer.append(k, v)
        assert layer.n_grows > 0
        np.testing.assert_array_equal(layer.packed_signs,
                                      pack_signs(layer.keys))

    def test_kv_cache_enable_is_idempotent(self, rng):
        cache = KVCache(TINY)
        k = rng.normal(size=(TINY.n_kv_heads, 6, TINY.head_dim))
        cache.append(0, k, k)
        cache.enable_sign_cache()
        packed_once = cache.layers[0].signs_packed_total
        cache.enable_sign_cache()
        assert cache.layers[0].signs_packed_total == packed_once
        assert cache.sign_cache_enabled


class TestWindowSplit:
    def _filled(self, rng, n):
        cache = KVCache(TINY)
        for layer in range(TINY.n_layers):
            k, v = _kv(rng, n, TINY.n_kv_heads, TINY.head_dim)
            cache.append(layer, k, v)
        return cache

    def test_short_context_fully_dense(self, rng):
        cache = self._filled(rng, 10)
        k, v, pos = cache.window_view(0, window=8, n_sink=4)
        assert k.shape[1] == 10
        np.testing.assert_array_equal(pos, np.arange(10))

    def test_split_partitions_positions(self, rng):
        cache = self._filled(rng, 50)
        _, _, dense = cache.window_view(1, window=16, n_sink=4)
        # sinks, then the recent window: the rest is the sparse region
        np.testing.assert_array_equal(dense, np.r_[0:4, 34:50])

    def test_views_match_stored_data(self, rng):
        cache = self._filled(rng, 40)
        k, v, pos = cache.window_view(0, window=8, n_sink=2)
        np.testing.assert_array_equal(k, cache.layers[0].keys[:, pos])
        np.testing.assert_array_equal(v, cache.layers[0].values[:, pos])

    def test_len_tracks_tokens(self, rng):
        cache = self._filled(rng, 13)
        assert len(cache) == 13


class TestFree:
    """Session-release path used by the serving engine (repro.serve)."""

    def test_layer_free_releases_and_blocks_append(self, rng):
        layer = LayerKV(2, 8, initial_capacity=16)
        k, v = _kv(rng, 5)
        layer.append(k, v)
        layer.free()
        assert layer.freed
        assert len(layer) == 0
        with pytest.raises(RuntimeError):
            layer.append(k, v)
        with pytest.raises(RuntimeError):
            layer.reserve(10)

    def test_layer_free_is_idempotent(self, rng):
        layer = LayerKV(2, 8)
        k, v = _kv(rng, 3)
        layer.append(k, v)
        layer.free()
        layer.free()
        assert layer.freed

    def test_cache_free_covers_all_layers(self, rng):
        cache = KVCache(TINY)
        for layer in range(TINY.n_layers):
            k, v = _kv(rng, 6, TINY.n_kv_heads, TINY.head_dim)
            cache.append(layer, k, v)
        assert not cache.freed
        cache.free()
        assert cache.freed
        assert all(layer.freed for layer in cache.layers)
        with pytest.raises(RuntimeError):
            cache.append(0, k, v)

    def test_free_with_sign_cache_enabled(self, rng):
        cache = KVCache(TINY)
        cache.enable_sign_cache()
        for layer in range(TINY.n_layers):
            k, v = _kv(rng, 6, TINY.n_kv_heads, TINY.head_dim)
            cache.append(layer, k, v)
        cache.free()
        assert cache.freed

    def test_admit_complete_churn(self, rng):
        """Regression for the serving engine's admit/complete cycle: many
        sessions created and freed in turn never interfere."""
        for _ in range(5):
            cache = KVCache(TINY)
            for layer in range(TINY.n_layers):
                k, v = _kv(rng, 9, TINY.n_kv_heads, TINY.head_dim)
                cache.append(layer, k, v)
            assert len(cache) == 9
            cache.free()
            assert cache.freed
