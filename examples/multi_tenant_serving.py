#!/usr/bin/env python
"""Multi-tenant serving under load: 1-GPU vs LongSight.

Serves sessions arriving with long prompts (Poisson arrivals), decoding
in continuous batches, and leaving — the "dynamic vector database" regime
of Section 4.  A tiny model decodes every token while the clock is
charged, and admission capped, for the chosen paper model at the full
prompt length.  Shows how LongSight's DReX-backed capacity translates
into lower admission queueing and higher sustained throughput for
long-context traffic.

Run:
    python examples/multi_tenant_serving.py --prompt 131072 --sessions 24
"""

import argparse

from repro.bench.serve import TINY_LS, TINY_MODEL
from repro.core import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.llm.config import PAPER_MODELS
from repro.llm.model import DenseBackend, Transformer
from repro.serve import AnalyticTiming, PagedKVPool, ServeEngine, SloPolicy
from repro.serve.workload import poisson_workload
from repro.system import DenseGpuSystem, LongSightSystem


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="llama-3-8b",
                        choices=sorted(PAPER_MODELS))
    parser.add_argument("--prompt", type=int, default=131072)
    parser.add_argument("--output", type=int, default=16)
    parser.add_argument("--sessions", type=int, default=24)
    parser.add_argument("--rate", type=float, default=2.0,
                        help="session arrivals per second")
    args = parser.parse_args()

    config = PAPER_MODELS[args.model]
    model = Transformer(TINY_MODEL, seed=0)
    systems = [
        (DenseGpuSystem(1), DenseBackend),
        (DenseGpuSystem(2), DenseBackend),
        (LongSightSystem(LongSightConfig(window=1024, n_sink=16, top_k=1024,
                                         use_itq=True)),
         lambda: LongSightAttention(TINY_LS)),
    ]
    print(f"{args.sessions} sessions, {args.prompt:,}-token prompts "
          f"(~{args.prompt * config.kv_bytes_per_token() / 2**30:.1f} GiB "
          f"KV each), {args.output} output tokens, "
          f"{args.rate}/s Poisson arrivals\n")
    header = (f"{'system':<12} {'done':>5} {'tput tok/s':>10} "
              f"{'peak users':>10} {'queue delay':>11} {'session lat':>11}")
    print(header)
    print("-" * len(header))
    for system, backend in systems:
        requests = poisson_workload(args.sessions, args.rate, 24,
                                    args.output, TINY_MODEL.vocab_size,
                                    charged_prompt_tokens=args.prompt,
                                    seed=11)
        engine = ServeEngine(
            model,
            PagedKVPool(TINY_MODEL, n_blocks=16 * args.sessions,
                        block_tokens=16),
            lambda request, make=backend: make(),
            policy=SloPolicy(max_decode_batch=args.sessions),
            timing=AnalyticTiming(system, config), name=system.name)
        outcome = engine.run(requests)
        print(f"{system.name:<12} {len(outcome.completed):>5} "
              f"{outcome.throughput_tps:>10.1f} "
              f"{outcome.peak_decode_batch:>10} "
              f"{outcome.mean_queueing_delay_s:>10.2f}s "
              f"{outcome.mean_request_latency_s:>10.2f}s")


if __name__ == "__main__":
    main()
