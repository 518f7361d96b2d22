"""Model zoo caching behavior (uses a temp cache dir and tiny step counts)."""

import numpy as np
import pytest

from repro.llm import zoo


@pytest.fixture
def temp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    zoo._MEMO.clear()
    yield tmp_path
    zoo._MEMO.clear()


def test_unknown_model_rejected(temp_cache):
    with pytest.raises(KeyError):
        zoo.trained_model("no-such-model")


def test_trained_model_is_cached_and_deterministic(temp_cache):
    a = zoo.trained_model("llama-sim-small", steps=2, corpus_tokens=3000)
    files = list(temp_cache.glob("*.npz"))
    assert len(files) == 1
    # Second call hits the in-process memo (same object).
    b = zoo.trained_model("llama-sim-small", steps=2, corpus_tokens=3000)
    assert a is b
    # Fresh process simulation: clear memo, must reload identical weights.
    zoo._MEMO.clear()
    c = zoo.trained_model("llama-sim-small", steps=2, corpus_tokens=3000)
    np.testing.assert_array_equal(a.weights["wq.0"], c.weights["wq.0"])
