"""Self-time accounting and the patching of public callables."""

import json
import sys
import types

import spans


def _tree():
    # root 0..10; a 1..4 with child b 2..3; a again 5..9 with c 6..8.
    return [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, 7],
        ["a", 5.0, 9.0, 0, None],
        ["c", 6.0, 8.0, 3, None],
    ]


def test_self_time_is_duration_minus_direct_children():
    table = spans.self_times(_tree())
    assert table["root"] == (1, 10.0, 3.0)       # 10 - (3 + 4)
    assert table["a"] == (2, 7.0, 4.0)           # (3 - 1) + (4 - 2)
    assert table["b"] == (1, 1.0, 1.0)
    assert table["c"] == (1, 2.0, 2.0)
    # Self times partition the root: nothing is counted twice.
    assert sum(own for _, _, own in table.values()) == 10.0


def test_chrome_trace_is_valid_json_with_trace_ids(tmp_path):
    spans.write_outputs(_tree(), tmp_path, "demo")
    doc = json.loads((tmp_path / "demo.trace.json").read_text())
    events = doc["traceEvents"]
    assert len(events) == 5 and all(e["ph"] == "X" for e in events)
    assert events[2]["args"] == {"trace_id": 7}
    assert events[1]["ts"] == 1e6 and events[1]["dur"] == 3e6
    table = (tmp_path / "demo.selftime.txt").read_text().splitlines()
    assert table[1].split()[0] == "a"            # largest self time first


def test_recorder_nests_and_patches_undo():
    class Layer:
        def outer(self, request):
            return self.inner() + 1

        def inner(self):
            return 1

        @property
        def view(self):
            return 42

    request = types.SimpleNamespace(request_id=9)
    recorder = spans.Recorder()
    patches = spans.Patches(recorder)
    patches.method(Layer, "outer", "t.outer")
    patches.method(Layer, "inner", "t.inner",
                   after=lambda rec, args, result: rec.add("calls", result))
    patches.method(Layer, "view", "t.view")
    layer = Layer()
    assert layer.outer(request) == 2 and layer.view == 42
    names = [(s[0], s[3], s[4]) for s in recorder.spans]
    assert names == [("t.outer", -1, 9), ("t.inner", 0, None),
                     ("t.view", -1, None)]
    assert recorder.counts == {"calls": 1}
    assert all(s[2] >= s[1] for s in recorder.spans)
    patches.remove()
    assert layer.outer(request) == 2 and len(recorder.spans) == 3


def test_function_patch_reaches_every_importing_module():
    source = types.ModuleType("perf_test_source")
    source.helper = lambda x: x * 2
    user = types.ModuleType("perf_test_user")
    user.helper = source.helper                  # from source import helper
    sys.modules.update({source.__name__: source, user.__name__: user})
    try:
        recorder = spans.Recorder()
        patches = spans.Patches(recorder)
        patches.function(source, "helper", "t.helper")
        assert user.helper(3) == 6 and source.helper(4) == 8
        assert [s[0] for s in recorder.spans] == ["t.helper", "t.helper"]
        patches.remove()
        assert user.helper(3) == 6 and len(recorder.spans) == 2
    finally:
        del sys.modules[source.__name__], sys.modules[user.__name__]
