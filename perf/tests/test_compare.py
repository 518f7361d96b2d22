"""``compare.py`` verdicts on synthetic suite documents."""

import json

import compare


def _summary(median, spread=0.0):
    return {"median": median, "min": median * (1 - spread / 2),
            "max": median * (1 + spread / 2), "n": 3}


def test_verdicts_for_a_lower_is_better_metric():
    base = _summary(10.0, 0.02)
    assert compare.verdict(base, _summary(10.5, 0.02), "lower", 0.10) \
        == "within"
    assert compare.verdict(base, _summary(11.5, 0.02), "lower", 0.10) \
        == "worse"
    assert compare.verdict(base, _summary(8.5, 0.02), "lower", 0.10) \
        == "better"


def test_verdicts_for_a_higher_is_better_metric():
    base = _summary(100.0, 0.01)
    assert compare.verdict(base, _summary(90.0, 0.01), "higher", 0.08) \
        == "worse"
    assert compare.verdict(base, _summary(110.0, 0.01), "higher", 0.08) \
        == "better"
    assert compare.verdict(base, _summary(97.0, 0.01), "higher", 0.08) \
        == "within"


def test_wide_overlapping_spread_is_unresolved_not_within():
    # Spread 30% > bound 10% and the ranges overlap: cannot tell.
    assert compare.verdict(_summary(10.0, 0.30), _summary(10.4, 0.30),
                           "lower", 0.10) == "unresolved"
    # Same spread, but every pass of B is far beyond A: resolved, worse.
    assert compare.verdict(_summary(10.0, 0.30), _summary(20.0, 0.30),
                           "lower", 0.10) == "worse"


def _suite(tokens_per_s, failed=0):
    metrics = {m: _summary(1.0, 0.01) for m in
               ("setup_s", "ttft_p50_s", "ttft_p90_s", "itl_p50_ms",
                "peak_rss_mb")}
    metrics["output_tokens_per_s"] = _summary(tokens_per_s, 0.01)
    return {"workloads": {"chat_burst": {"metrics": metrics,
                                         "failed": failed}}}


def test_main_exits_non_zero_on_worse_or_more_failures(tmp_path, capsys):
    def write(name, suite):
        path = tmp_path / name
        path.write_text(json.dumps(suite))
        return str(path)

    same = compare.main([write("a.json", _suite(100.0)),
                         write("b.json", _suite(101.0))])
    assert same == 0
    assert compare.main([write("a.json", _suite(100.0)),
                         write("c.json", _suite(50.0))]) == 1
    assert compare.main([write("a.json", _suite(100.0)),
                         write("d.json", _suite(100.0, failed=2))]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "B/A" in out
