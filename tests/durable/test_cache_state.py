"""A session's durable state is the cache's to give and to take back.

``PagedKVCache.state()`` / ``from_state(pool, state)`` are the only place
the session half of the snapshot format lives: a contiguous, a
non-contiguous and a prefix-attached session go through a real snapshot
into a fresh pool and read back bit for bit, with ``contiguous`` derived
from the block list rather than trusted from the file.
"""

import numpy as np

from repro.durable import read_snapshot, restore_run, write_snapshot
from repro.serve.paged_kv import PagedKVCache
from repro.serve.scheduler import ServeRequest


def _fill(cache, rng, n):
    cfg = cache.config
    for layer in range(cfg.n_layers):
        k = rng.normal(size=(cfg.n_kv_heads, n, cfg.head_dim))
        cache.append(layer, k, -k)


def _reads(cache):
    out = []
    for layer, kv in enumerate(cache.layers):
        out += [kv.keys, kv.values, kv.packed_signs]
        out += cache.window_view(layer, window=8, n_sink=4)[:2]
        out += [kv.key_rows(1)[3:40:5], kv.sign_rows(0).take([5, 0, 32])]
    return out


def test_sessions_round_trip_through_their_own_state(
        tmp_path, engine_builder, rng):
    engine = engine_builder()
    pool = engine.pool
    bt = pool.block_tokens
    prompt = np.arange(2 * bt)

    contiguous = pool.new_cache()
    contiguous.enable_sign_cache()
    _fill(contiguous, rng, 2 * bt)
    contiguous.publish_prefix(prompt)
    scattered = pool.new_cache()
    scattered.enable_sign_cache()
    attached = pool.new_cache()
    assert attached.attach_prefix(prompt) == 2 * bt
    attached.enable_sign_cache()
    for _ in range(3):                      # interleaved growth
        _fill(scattered, rng, bt)
        _fill(attached, rng, bt + 1)
    _fill(contiguous, rng, 1)               # its third block is far away now
    lone = pool.new_cache()
    lone.enable_sign_cache()
    _fill(lone, rng, 3 * bt + 2)
    sessions = [contiguous, scattered, attached, lone]
    assert [c.contiguous for c in sessions] == [False, False, False, True]
    assert attached.prefix_signed_tokens == 2 * bt

    run = engine.start([])
    run._arrivals = [ServeRequest(i, prompt, 4) for i in range(len(sessions))]
    for request, cache in zip(run._arrivals, sessions):
        # A live session, as the engine attaches one: a cache and a backend.
        request.cache = cache
        request.backend = engine.backend_factory(request)
    path = tmp_path / "snapshot-00000001.bin"
    write_snapshot(path, run, epoch="e", lsn=1, step=1)
    meta, arenas = read_snapshot(path)
    engine2 = engine_builder()
    run2 = restore_run(engine2.start([]), meta, arenas)

    for original, request in zip(sessions, run2._arrivals):
        state = original.state()
        state["contiguous"] = not state["contiguous"]   # derived, not read
        twin = PagedKVCache.from_state(engine2.pool, state)
        for restored in (request.cache, twin):
            assert restored.state() == original.state()
            assert restored.pool is engine2.pool
            for got, want in zip(_reads(restored), _reads(original)):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype
    # The restored sessions keep appending where the originals would.
    for original, request in zip(sessions, run2._arrivals):
        k = rng.normal(size=(pool.config.n_kv_heads, 3, pool.config.head_dim))
        for cache in (original, request.cache):
            for layer in range(pool.config.n_layers):
                cache.append(layer, k, k)
        assert request.cache.state()["blocks"] == original.state()["blocks"]
        for got, want in zip(_reads(request.cache), _reads(original)):
            np.testing.assert_array_equal(got, want)
