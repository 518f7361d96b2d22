"""Every registered benchmark ships a committed artifact whose claims hold,
and the artifact is what the code writes.

``repro.bench.registry`` lists each ``BENCH_*.json`` a runner writes;
its one check fails when an artifact is missing from ``results/``,
unparseable, not a JSON object, schema-stale, mis-tagged, or carries a
claim that is not true.  The shape rule pins the rest: a fresh run has
the committed artifact's key paths (list indices dropped) and leaf types,
and for the serving benchmarks, rerun at their committed configs, every
value that is not a wall clock.
"""

import copy
import importlib
import json

import pytest

from repro.bench import (chaos, fleet, fleet_chaos, micro, obs_overhead,
                         recovery, serve)
from repro.bench.registry import (ARTIFACTS, UNCLAIMED, check_all,
                                  check_artifact)
from repro.bench.tables import results_dir


def _module(tag):
    return importlib.import_module(ARTIFACTS[tag])


def _committed(tag):
    return json.loads(
        (results_dir() / _module(tag).RESULT_NAME).read_text())


def _write(tmp_path, tag, payload):
    (tmp_path / _module(tag).RESULT_NAME).write_text(json.dumps(payload))


def test_registry_covers_known_artifacts():
    names = {_module(tag).RESULT_NAME for tag in ARTIFACTS}
    assert names == {"BENCH_attention.json", "BENCH_chaos.json",
                     "BENCH_serve.json", "BENCH_fleet.json",
                     "BENCH_obs.json", "BENCH_recovery.json",
                     "BENCH_fleet_chaos.json"}


@pytest.mark.parametrize("bench_tag", sorted(ARTIFACTS))
def test_committed_artifact_is_valid(bench_tag):
    problems = check_artifact(bench_tag)
    assert problems == [], "\n".join(problems)


def test_check_all_matches_per_spec_checks():
    assert check_all() == []


def test_missing_artifact_is_reported(tmp_path):
    problems = check_artifact("chaos", tmp_path)
    assert len(problems) == 1
    assert "missing" in problems[0]
    assert "repro.bench.chaos" in problems[0]


def test_unparseable_artifact_is_reported(tmp_path):
    (tmp_path / serve.RESULT_NAME).write_text("{not json")
    problems = check_artifact("serve", tmp_path)
    assert problems and "unparseable" in problems[0]


@pytest.mark.parametrize("payload", [[], "serve", 3, None])
def test_non_object_artifact_is_reported(tmp_path, payload):
    _write(tmp_path, "serve", payload)
    assert check_artifact("serve", tmp_path) == [
        "BENCH_serve.json: not a JSON object"]


@pytest.mark.parametrize("claims", [None, [], {}, "all_tokens_served"])
def test_missing_or_non_dict_claims_is_reported(tmp_path, claims):
    payload = _committed("serve")
    if claims is None:
        del payload["claims"]
    else:
        payload["claims"] = claims
    _write(tmp_path, "serve", payload)
    assert check_artifact("serve", tmp_path) == [
        "BENCH_serve.json: no claims object"]


def test_stale_schema_version_is_reported(tmp_path):
    payload = _committed("attention_micro")
    payload["schema_version"] = 0
    _write(tmp_path, "attention_micro", payload)
    problems = check_artifact("attention_micro", tmp_path)
    assert any("schema_version" in p for p in problems)


def test_wrong_benchmark_tag_is_reported(tmp_path):
    payload = _committed("obs_overhead")
    payload["benchmark"] = "something_else"
    _write(tmp_path, "obs_overhead", payload)
    problems = check_artifact("obs_overhead", tmp_path)
    assert any("benchmark tag" in p for p in problems)


def test_unregistered_spec_roundtrip(tmp_path, monkeypatch):
    """A new ``ARTIFACTS`` line is all a future bench needs to be
    enforced."""
    monkeypatch.setitem(ARTIFACTS, "future", "repro.bench.chaos")
    assert "missing" in check_artifact("future", tmp_path)[0]
    assert any("missing" in p for p in check_all(tmp_path))


@pytest.mark.parametrize("bench_tag", sorted(ARTIFACTS))
def test_violated_claim_fails_check(bench_tag, tmp_path):
    """Each claim the committed artifact makes is one the check enforces:
    set any one to false and the check fails, naming it."""
    committed = _committed(bench_tag)
    claims = committed.get("claims", {})
    assert bool(claims) == (bench_tag not in UNCLAIMED)
    for claim in claims:
        broken = copy.deepcopy(committed)
        broken["claims"][claim] = False
        _write(tmp_path, bench_tag, broken)
        problems = check_artifact(bench_tag, tmp_path)
        assert problems == [f"{_module(bench_tag).RESULT_NAME}: claim "
                            f"{claim!r} is False"], problems


def test_check_command(tmp_path, capsys):
    from repro.bench.__main__ import main

    assert main(["check"]) == 0
    assert "valid" in capsys.readouterr().out
    assert main(["check", str(tmp_path)]) == 1
    assert "missing" in capsys.readouterr().out


# -- the shape rule ------------------------------------------------------------


def _leaves(value, path=()):
    """(key path with list indices, leaf) for every leaf of ``value``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


def _keys(path):
    """The dotted key path of a leaf, its list indices dropped."""
    return ".".join(p for p in path if isinstance(p, str))


def shape(payload):
    """Each leaf's dotted key path (list indices dropped) with its type."""
    return {(_keys(path), type(value).__name__)
            for path, value in _leaves(payload)}


def _smoke_micro(out_dir):
    """Two contexts, the second above the reference cap, so the reference
    prefill series ends in ``null`` as the committed one does."""
    micro.run_micro(contexts=(64, 128), repeats=1, window=16, n_sink=4,
                    top_k=8, threshold=8.0, n_q_heads=4, n_kv_heads=2,
                    head_dim=16, block_size=32, max_reference_context=64,
                    out_dir=out_dir)


def _smoke_obs(out_dir):
    obs_overhead.run_obs_overhead(steps=16, reps=1, out_dir=out_dir)


#: the timing benchmarks, run at a smoke size.
SMOKE = {"attention_micro": _smoke_micro, "obs_overhead": _smoke_obs}


@pytest.mark.parametrize("bench_tag", sorted(SMOKE))
def test_fresh_run_has_committed_shape(bench_tag, tmp_path):
    SMOKE[bench_tag](tmp_path)
    fresh = json.loads(
        (tmp_path / _module(bench_tag).RESULT_NAME).read_text())
    committed = _committed(bench_tag)
    assert shape(fresh) == shape(committed)
    if bench_tag == "attention_micro":
        assert ("backends.hybrid_reference.prefill_s", "NoneType") \
            in shape(fresh)
    assert check_artifact(bench_tag, tmp_path) == []


# -- the committed artifacts are what the code computes ----------------------


def _rerun_serve(payload, out_dir):
    config = payload["config"]
    serve.run_serve(rates=payload["arrival_rates"],
                    contexts=payload["contexts"],
                    n_requests=config["n_requests"],
                    prompt_tokens=config["prompt_tokens"],
                    output_tokens=config["output_tokens"],
                    seed=config["seed"], out_dir=out_dir)


def _rerun_chaos(payload, out_dir):
    config = payload["config"]
    chaos.run_chaos(rates=payload["fault_rates"],
                    n_sessions=config["n_sessions"],
                    n_tokens=config["n_tokens"], seed=config["seed"],
                    out_dir=out_dir)


def _rerun_fleet(payload, out_dir):
    config = payload["config"]
    fleet.run_fleet(workers_axis=payload["workers_axis"],
                    n_steady=config["n_steady"], n_burst=config["n_burst"],
                    output_tokens=config["output_tokens"],
                    charged_context=config["charged_context"],
                    blocks_per_worker=config["blocks_per_worker"],
                    max_decode_batch=config["max_decode_batch"],
                    fairness_limit=payload["fairness"]["limit"],
                    seed=config["seed"], out_dir=out_dir)


def _rerun_recovery(payload, out_dir):
    config = payload["config"]
    recovery.run_recovery(
        n_requests=config["n_requests"],
        prompt_tokens=config["prompt_tokens"],
        output_tokens=config["output_tokens"],
        charged_context=config["charged_context"],
        arrival_rate=config["arrival_rate_per_s"],
        snapshot_every=config["snapshot_every"],
        kill_fraction=config["kill_fraction"],
        crash_kind=payload["crash"]["kind"], seed=config["seed"],
        out_dir=out_dir)


def _rerun_fleet_chaos(payload, out_dir):
    config = payload["config"]
    fleet_chaos.run_fleet_chaos(
        seed=config["seed"], n_steady=config["n_steady"],
        n_burst=config["n_burst"], output_tokens=config["output_tokens"],
        n_workers=config["n_workers"],
        blocks_per_worker=config["blocks_per_worker"],
        snapshot_every=config["snapshot_every"],
        overload_requests=payload["brownout"]["n_requests"],
        overload_rate_per_s=payload["brownout"]["rate_per_s"],
        out_dir=out_dir)


#: the serving benchmarks, each rerun at its committed config.
RERUN = {"serve": _rerun_serve, "chaos": _rerun_chaos,
         "fleet": _rerun_fleet, "recovery": _rerun_recovery,
         "fleet_chaos": _rerun_fleet_chaos}


def _is_wall_clock(path, wall_clock):
    """Whether ``path`` is one of a module's ``WALL_CLOCK`` leaves: a
    dotted key path, a trailing part of one, or a leading part (every
    leaf under it)."""
    keys = _keys(path)
    return any(keys == name or keys.endswith("." + name)
               or keys.startswith(name + ".") for name in wall_clock)


@pytest.mark.parametrize("bench_tag", sorted(RERUN))
def test_committed_artifact_reproduces(bench_tag, tmp_path):
    """A fresh run at the committed config has the committed shape, and
    every deterministic leaf of it is what the committed artifact holds:
    ints, bools and strings exactly, floats to 1e-9 relative; only the
    module's wall-clock leaves differ."""
    wall_clock = _module(bench_tag).WALL_CLOCK
    committed = _committed(bench_tag)
    RERUN[bench_tag](committed, tmp_path)
    fresh = json.loads(
        (tmp_path / _module(bench_tag).RESULT_NAME).read_text())
    assert shape(fresh) == shape(committed)

    def deterministic(payload):
        return {path: value for path, value in _leaves(payload)
                if not _is_wall_clock(path, wall_clock)}

    expected, got = deterministic(committed), deterministic(fresh)
    assert sorted(got, key=str) == sorted(expected, key=str)
    for path, value in expected.items():
        if isinstance(value, float):
            assert got[path] == pytest.approx(value, rel=1e-9, abs=0.0), path
        else:
            assert (type(got[path]), got[path]) == (type(value), value), path
