"""Chain-hashed binary snapshots of a live serving run.

A snapshot captures everything a :class:`~repro.serve.engine.EngineRun`
needs to resume bit-identically:

- the :class:`~repro.serve.paged_kv.PagedKVPool` — per-layer K/V and
  packed-sign arena bytes for every *used* block, the free list **in LIFO
  order** (future block assignment, and therefore gather layout and the
  ``contiguous`` fast path, depends on it), the prefix-cache index with
  refcounts, and the pool telemetry;
- every request (arrived or not): full scheduling state, generated
  tokens, event log, and — for live sessions — the paged-cache block map
  and prefix-caching state (``PagedKVCache.state()`` / ``from_state``:
  the session format lives with the cache), plus any backend-declared
  durable state (duck-typed ``durable_state()`` /
  ``restore_durable_state()``, e.g. the supervised offload backend's RNG
  streams and degradation counters);
- scheduler queues / virtual times / running order / brownout ladder
  stage, and the run's clock, arrival cursor, and departed-request set
  (serialized by request id — object identity does not survive a
  restore).  A departed request is written without its cache and backend
  state: the object is shared with the worker it migrated to, so that
  cache lives in the *other* worker's pool.

File layout: ``MAGIC`` then length-prefixed sections (section 0 is JSON
metadata, then 3 raw arena sections per layer: K, V, signs), closed by a
32-byte blake2b digest chained over everything written.  A torn write or
a flipped byte fails the chain hash and the loader raises
:class:`~repro.errors.SnapshotCorruptError` — recovery falls back to the
previous snapshot instead of restoring silently wrong state.  Writes go
to a temp file and ``os.replace`` into place after fsync.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import DurabilityError, SnapshotCorruptError
from repro.serve.engine import EngineRun
from repro.serve.paged_kv import PagedKVCache, _PrefixEntry, block_rows
from repro.serve.scheduler import RequestState, ServeRequest

MAGIC = b"LSDURSNP"
FORMAT = "longsight-durable-snapshot"
VERSION = 2


# -- request (de)serialization -- shared with WAL ``inject`` records ----------

def serialize_request(request: ServeRequest,
                      include_cache: bool = True) -> dict:
    """JSON-safe dict of one request's full scheduling + event state.

    ``include_cache=False`` leaves out what is bound to a pool — the
    block map and the backend's durable state — for a request that is
    not (or no longer) resident in the pool being written.
    """
    events = request.events
    out = {
        "request_id": int(request.request_id),
        "prompt": np.asarray(request.prompt).astype(np.int64).tolist(),
        "max_new_tokens": int(request.max_new_tokens),
        "arrival_s": float(request.arrival_s),
        "tenant": request.tenant,
        "session": request.session,
        "migrations": int(request.migrations),
        "state": request.state.value,
        "outputs": [int(t) for t in request.outputs],
        "prefilled": int(request.prefilled),
        "pending_token": None if request.pending_token is None
        else int(request.pending_token),
        "consecutive_degraded": int(request.consecutive_degraded),
        "pinned_dense": bool(request.pinned_dense),
        "charged_prompt_tokens": request.charged_prompt_tokens,
        "prefill_charge_s": float(request.prefill_charge_s),
        "ready_s": float(request.ready_s),
        "events": {
            "arrival_s": float(events.arrival_s),
            "admitted_s": events.admitted_s,
            "first_token_s": events.first_token_s,
            "finished_s": events.finished_s,
            "token_times_s": [float(t) for t in events.token_times_s],
            "degraded_tokens": int(events.degraded_tokens),
            "preemptions": int(events.preemptions),
            "migrations": int(events.migrations),
            "shed": bool(events.shed),
            "rejected": bool(events.rejected),
            "brownout_tokens": {str(stage): int(count) for stage, count
                                in sorted(events.brownout_tokens.items())},
        },
        "cache": None,
        "backend_state": None,
    }
    if include_cache and request.cache is not None:
        out["cache"] = request.cache.state()
        durable_state = getattr(request.backend, "durable_state", None)
        if callable(durable_state):
            out["backend_state"] = durable_state()
    return out


def build_request(data: dict) -> ServeRequest:
    """Rebuild a :class:`ServeRequest` from :func:`serialize_request`."""
    request = ServeRequest(
        request_id=int(data["request_id"]),
        prompt=np.asarray(data["prompt"], dtype=np.int64),
        max_new_tokens=int(data["max_new_tokens"]),
        arrival_s=float(data["arrival_s"]),
        tenant=data["tenant"],
        session=data["session"],
        migrations=int(data["migrations"]),
    )
    request.state = RequestState(data["state"])
    request.outputs = [int(t) for t in data["outputs"]]
    request.prefilled = int(data["prefilled"])
    request.pending_token = None if data["pending_token"] is None \
        else int(data["pending_token"])
    request.consecutive_degraded = int(data["consecutive_degraded"])
    request.pinned_dense = bool(data["pinned_dense"])
    request.charged_prompt_tokens = data["charged_prompt_tokens"]
    request.prefill_charge_s = float(data["prefill_charge_s"])
    request.ready_s = float(data["ready_s"])
    ev = request.events
    ed = data["events"]
    ev.arrival_s = float(ed["arrival_s"])
    ev.admitted_s = ed["admitted_s"]
    ev.first_token_s = ed["first_token_s"]
    ev.finished_s = ed["finished_s"]
    ev.token_times_s = [float(t) for t in ed["token_times_s"]]
    ev.degraded_tokens = int(ed["degraded_tokens"])
    ev.preemptions = int(ed["preemptions"])
    ev.migrations = int(ed["migrations"])
    ev.shed = bool(ed["shed"])
    ev.rejected = bool(ed["rejected"])
    ev.brownout_tokens = {int(k): int(v) for k, v
                          in ed.get("brownout_tokens", {}).items()}
    return request


# -- write --------------------------------------------------------------------

def write_snapshot(path: pathlib.Path, run: EngineRun, *, epoch: str,
                   lsn: int, step: int) -> None:
    """Serialize ``run`` (engine + pool + scheduler state) to ``path``."""
    engine = run.engine
    pool = engine.pool
    scheduler = run.scheduler
    cfg = pool.config
    free = [int(b) for b in pool._free]
    used = sorted(set(range(pool.n_blocks)) - set(free))
    meta = {
        "format": FORMAT,
        "version": VERSION,
        "epoch": epoch,
        "step": int(step),
        "lsn": int(lsn),
        "run": {
            "clock": float(run.clock),
            "tokens_generated": int(run.tokens_generated),
            "peak_batch": int(run.peak_batch),
            "next_arrival": int(run._next_arrival),
        },
        "departed": [r.request_id for r in run._arrivals
                     if id(r) in run._departed],
        "scheduler": {
            "vtime": {t: float(v) for t, v in scheduler._vtime.items()},
            "preemptions": int(scheduler.preemptions),
            "brownout_stage": int(scheduler.brownout_stage),
            "brownout_transitions": int(scheduler.brownout_transitions),
            "running": [r.request_id for r in scheduler.running],
            "finished": [r.request_id for r in scheduler.finished],
            "queues": {tenant: [r.request_id for r in queue]
                       for tenant, queue in scheduler._queues.items()},
        },
        "pool": {
            "n_blocks": pool.n_blocks,
            "block_tokens": pool.block_tokens,
            "prefix_caching": pool.prefix_caching,
            "n_layers": cfg.n_layers,
            "n_kv_heads": cfg.n_kv_heads,
            "head_dim": cfg.head_dim,
            "kv_dtype": str(np.dtype(cfg.kv_dtype)),
            "sign_nbytes": pool.sign_nbytes,
            "free": free,
            "used": used,
            "telemetry": {
                "total_allocated": pool.total_allocated,
                "total_released": pool.total_released,
                "high_watermark": pool.high_watermark,
                "prefix_hits": pool.prefix_hits,
                "prefix_misses": pool.prefix_misses,
                "shared_blocks_peak": pool.shared_blocks_peak,
            },
            "prefix_index": [
                {"key": entry.key.hex(), "block": entry.block,
                 "refcount": entry.refcount,
                 "signs_packed": entry.signs_packed}
                for entry in pool._prefix_index.values()],
        },
        "requests": [serialize_request(
            r, include_cache=id(r) not in run._departed)
            for r in run._arrivals],
    }
    rows = block_rows(used, pool.block_tokens)
    path = pathlib.Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    digest = hashlib.blake2b(digest_size=32)
    with open(tmp, "wb") as fh:
        def emit(payload: bytes) -> None:
            prefix = len(payload).to_bytes(8, "big")
            fh.write(prefix)
            fh.write(payload)
            digest.update(prefix)
            digest.update(payload)

        fh.write(MAGIC)
        digest.update(MAGIC)
        emit(json.dumps(meta, sort_keys=True).encode("utf-8"))
        for layer in range(cfg.n_layers):
            for arena in (pool.k_arenas[layer], pool.v_arenas[layer],
                          pool.sign_arenas[layer]):
                emit(np.ascontiguousarray(arena[:, rows]).tobytes())
        fh.write(digest.digest())
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# -- read ---------------------------------------------------------------------

def read_snapshot(path: pathlib.Path) -> Tuple[dict, List[bytes]]:
    """Load and integrity-check a snapshot; ``(meta, arena_sections)``.

    Raises :class:`~repro.errors.SnapshotCorruptError` on any framing,
    magic, or chain-hash failure — including truncation anywhere in the
    file (a torn write cannot produce a valid footer).
    """
    raw = pathlib.Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 32 or raw[:len(MAGIC)] != MAGIC:
        raise SnapshotCorruptError(f"{path}: bad magic or truncated header")
    digest = hashlib.blake2b(digest_size=32)
    digest.update(MAGIC)
    body_end = len(raw) - 32
    pos = len(MAGIC)
    sections: List[bytes] = []
    while pos < body_end:
        if pos + 8 > body_end:
            raise SnapshotCorruptError(f"{path}: torn section length")
        length = int.from_bytes(raw[pos:pos + 8], "big")
        if pos + 8 + length > body_end:
            raise SnapshotCorruptError(f"{path}: torn section payload")
        digest.update(raw[pos:pos + 8 + length])
        sections.append(raw[pos + 8:pos + 8 + length])
        pos += 8 + length
    if digest.digest() != raw[body_end:]:
        raise SnapshotCorruptError(f"{path}: chain-hash footer mismatch")
    if not sections:
        raise SnapshotCorruptError(f"{path}: no sections")
    try:
        meta = json.loads(sections[0])
    except ValueError as exc:
        raise SnapshotCorruptError(f"{path}: bad metadata ({exc})") from exc
    if meta.get("format") != FORMAT or meta.get("version") != VERSION:
        raise SnapshotCorruptError(f"{path}: unknown format/version")
    expected = 3 * meta["pool"]["n_layers"]
    if len(sections) - 1 != expected:
        raise SnapshotCorruptError(
            f"{path}: expected {expected} arena sections, "
            f"got {len(sections) - 1}")
    return meta, sections[1:]


# -- restore ------------------------------------------------------------------

def restore_run(run: EngineRun, meta: dict,
                arenas: List[bytes]) -> EngineRun:
    """Load snapshot state into ``run`` (and its engine's pool); returns it.

    ``run`` must be new, on a fresh engine (empty pool) with geometry
    matching the snapshot; sessions get new caches wired to the restored
    arena blocks and new backends from the engine's factory (with any
    serialized durable backend state restored on top).
    """
    engine = run.engine
    pool = engine.pool
    cfg = pool.config
    pm = meta["pool"]
    geometry = {
        "n_blocks": pool.n_blocks, "block_tokens": pool.block_tokens,
        "n_layers": cfg.n_layers, "n_kv_heads": cfg.n_kv_heads,
        "head_dim": cfg.head_dim, "kv_dtype": str(np.dtype(cfg.kv_dtype)),
        "sign_nbytes": pool.sign_nbytes,
    }
    for key, value in geometry.items():
        if pm[key] != value:
            raise DurabilityError(
                f"snapshot geometry mismatch: {key} is {pm[key]} in the "
                f"snapshot but {value} in the engine's pool")
    if pool.n_used:
        raise DurabilityError("restore_run needs a fresh engine: the "
                              "pool already has allocated blocks")

    requests = [build_request(d) for d in meta["requests"]]
    by_rid: Dict[int, ServeRequest] = {r.request_id: r for r in requests}
    run._arrivals = requests     # serialized in arrival order
    run._next_arrival = int(meta["run"]["next_arrival"])
    run._departed = {id(by_rid[rid]) for rid in meta["departed"]}
    run.clock = float(meta["run"]["clock"])
    run.tokens_generated = int(meta["run"]["tokens_generated"])
    run.peak_batch = int(meta["run"]["peak_batch"])

    sm = meta["scheduler"]
    scheduler = run.scheduler
    scheduler._vtime = {t: float(v) for t, v in sm["vtime"].items()}
    scheduler.preemptions = int(sm["preemptions"])
    scheduler.brownout_stage = int(sm["brownout_stage"])
    scheduler.brownout_transitions = int(sm["brownout_transitions"])
    scheduler.running = [by_rid[rid] for rid in sm["running"]]
    scheduler.finished = [by_rid[rid] for rid in sm["finished"]]
    scheduler._queues = {tenant: [by_rid[rid] for rid in rids]
                         for tenant, rids in sm["queues"].items()}

    # -- pool: free list (order matters), prefix index, arena bytes --
    pool._free = [int(b) for b in pm["free"]]
    tele = pm["telemetry"]
    pool.total_allocated = int(tele["total_allocated"])
    pool.total_released = int(tele["total_released"])
    pool.high_watermark = int(tele["high_watermark"])
    pool.prefix_hits = int(tele["prefix_hits"])
    pool.prefix_misses = int(tele["prefix_misses"])
    pool.shared_blocks_peak = int(tele["shared_blocks_peak"])
    pool._prefix_index = {}
    for item in pm["prefix_index"]:
        entry = _PrefixEntry(bytes.fromhex(item["key"]), int(item["block"]),
                             int(item["refcount"]), bool(item["signs_packed"]))
        pool._prefix_index[entry.key] = entry

    used = [int(b) for b in pm["used"]]
    rows = block_rows(used, pool.block_tokens)
    dtype = np.dtype(cfg.kv_dtype)
    kv_shape = (cfg.n_kv_heads, len(rows), cfg.head_dim)
    sign_shape = (cfg.n_kv_heads, len(rows), pool.sign_nbytes)
    for layer in range(cfg.n_layers):
        k_raw, v_raw, s_raw = arenas[3 * layer: 3 * layer + 3]
        pool.k_arenas[layer][:, rows] = \
            np.frombuffer(k_raw, dtype=dtype).reshape(kv_shape)
        pool.v_arenas[layer][:, rows] = \
            np.frombuffer(v_raw, dtype=dtype).reshape(kv_shape)
        pool.sign_arenas[layer][:, rows] = \
            np.frombuffer(s_raw, dtype=np.uint8).reshape(sign_shape)

    # -- live sessions: caches on the restored blocks, fresh backends --
    for request, data in zip(requests, meta["requests"]):
        cd = data["cache"]
        if cd is None:
            continue
        request.cache = PagedKVCache.from_state(pool, cd)
        request.backend = backend = engine.backend_factory(request)
        restore_state = getattr(backend, "restore_durable_state", None)
        if data["backend_state"] is not None and callable(restore_state):
            restore_state(data["backend_state"])
    return run
