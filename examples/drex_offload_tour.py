#!/usr/bin/env python
"""A guided tour of the DReX offload path: prefill, decode, price.

Drives :class:`repro.drex.DrexOffloadBackend` — the LongSight kernel
offloading its sparse phase to its own DReX device (Sections 6-7) —
through a miniature transformer:

1. build the device and register the session's user with the DCC,
2. prefill a prompt: each token is written to DReX (the allocator places
   Key Block groups) as it leaves the dense window,
3. decode: each (layer, token) submits a Request Descriptor carrying the
   kernel's filter survivors; the device prices the offload,
4. inspect one decode offload: survivors per KV head, the per-stage
   latency breakdown and the response size over CXL,
5. the mean breakdown across every offload of the run.

Run:
    python examples/drex_offload_tour.py --keys 4096
"""

import argparse

import numpy as np

from repro.core.config import LongSightConfig
from repro.drex import DrexOffloadBackend
from repro.llm.config import LLAMA_SIM_BASE
from repro.llm.kv_cache import KVCache
from repro.llm.model import Transformer


def _breakdown(latency) -> None:
    for name, value in latency.components().items():
        print(f"   {name:<12} {value / 1e3:8.3f}")
    print(f"   {'total':<12} {latency.total_ns / 1e3:8.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keys", type=int, default=8192,
                        help="prompt tokens (context keys per KV head)")
    parser.add_argument("--top-k", type=int, default=128)
    parser.add_argument("--threshold", type=int, default=None)
    parser.add_argument("--decode", type=int, default=4,
                        help="tokens to decode after the prompt")
    args = parser.parse_args()

    config = LLAMA_SIM_BASE
    threshold = args.threshold if args.threshold is not None \
        else config.head_dim // 2 + 2
    ls = LongSightConfig(window=256, n_sink=16, top_k=args.top_k,
                         thresholds=threshold)
    model = Transformer(config, seed=0)
    backend = DrexOffloadBackend(config, ls)
    device = backend.device
    geometry = device.geometry
    print(f"1. DReX: {geometry.n_packages} packages, {geometry.n_pfus} PFUs, "
          f"{geometry.n_nmas} NMAs, {geometry.capacity_bytes / 2**30:.0f} "
          f"GiB; user 0 -> response buffer {device.dcc.buffer_index(0)}")

    prompt = np.random.default_rng(0).integers(0, config.vocab_size,
                                               size=args.keys)
    cache = KVCache(config)
    logits = model.prefill(prompt, cache, backend=backend)
    chain = device.allocator.partitions[0].slices[(0, 0)]
    print(f"2. prefilled {args.keys} tokens (window {ls.window}, "
          f"{ls.n_sink} sinks): {device.context_length(0, 0, 0)} keys per "
          f"KV head in DReX, {backend.n_offloads} offloads")
    print(f"   layer 0 / KV head 0 slice chain: {len(chain)} slice(s) in "
          f"package(s) {[s.package for s in chain]}, "
          f"{sum(len(s.groups) for s in chain)} Key Block groups, "
          f"{chain[0].banks_spanned(geometry)} banks spanned")
    print(f"   device utilization: {device.allocator.utilization():.4%}")

    submitted = []
    execute = device.execute

    def spy(request, *site):
        submitted.append(request)
        return execute(request, *site)

    device.execute = spy
    token = int(np.argmax(logits))
    for _ in range(args.decode):
        token = int(np.argmax(model.decode_step(token, cache,
                                                backend=backend)))
    print(f"3. decoded {args.decode} tokens: {len(submitted)} Request "
          f"Descriptors ({submitted[0].n_bytes} bytes each, "
          f"{config.n_q_heads} query heads, k={ls.top_k})")

    request = submitted[-1]
    response = execute(request)
    group = config.n_q_heads // config.n_kv_heads
    print(f"4. last offload (layer {request.layer}):")
    for kv_head, survivors in enumerate(request.survivors):
        passed = request.passed[kv_head * group:(kv_head + 1) * group]
        print(f"   KV head {kv_head}: {int(survivors.sum())} of "
              f"{len(survivors)} keys survive the filter "
              f"(threshold {threshold}/{config.head_dim}); per query head "
              f"{passed.tolist()}")
    print(f"   response: {response.n_entries} entries, "
          f"{response.n_bytes(config.head_dim) / 1024:.1f} KiB over CXL")
    print("   latency breakdown (us):")
    _breakdown(response.latency)

    print(f"5. mean over {backend.n_offloads} offloads (us):")
    _breakdown(backend.mean_offload_latency())


if __name__ == "__main__":
    main()
