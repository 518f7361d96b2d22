"""No-op instrumentation must be effectively free (the <5% gate).

Runs the real overhead benchmark — a 512-step decode microloop, and the
per-step instrumentation calls against a disabled registry timed in a loop
of their own — and pins the headline number the observability layer's
default-on policy rests on: hook seconds over decode-loop seconds.
"""

import json

from repro.bench.obs_overhead import run_obs_overhead, validate_payload
from repro.obs import (NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM, NULL_OBS,
                       MetricsRegistry)


def test_noop_overhead_below_5_percent(tmp_path):
    run_obs_overhead(steps=512, reps=3, out_dir=tmp_path)
    payload = json.loads((tmp_path / "BENCH_obs.json").read_text())
    assert validate_payload(payload) == []
    frac = payload["results"]["noop_overhead_frac"]
    assert frac < 0.05, \
        f"no-op instrumentation added {frac:.1%} to the decode microloop"


def test_disabled_registry_hands_out_shared_nulls():
    """The no-op path allocates nothing: every request for an instrument
    returns the same shared singleton, and recording is a no-op."""
    registry = MetricsRegistry(enabled=False)
    assert registry.counter("a") is registry.counter("b") is NULL_COUNTER
    assert registry.gauge("a") is NULL_GAUGE
    assert registry.histogram("a") is NULL_HISTOGRAM
    assert registry.new_histogram("a") is NULL_HISTOGRAM
    registry.counter("a").inc(5)
    registry.gauge("a").set(3.0)
    registry.histogram("a").observe(1.0)
    assert NULL_COUNTER.value == 0
    assert NULL_GAUGE.value == 0.0
    assert NULL_HISTOGRAM.count == 0
    assert registry.snapshot() == {"counters": {}, "gauges": {},
                                   "histograms": {}}


def test_null_obs_is_fully_disabled():
    assert not NULL_OBS.metrics.enabled
    assert not NULL_OBS.tracer.enabled
    with NULL_OBS.tracer.span("x"):
        NULL_OBS.metrics.counter("x").inc()
    assert NULL_OBS.tracer.spans == []
