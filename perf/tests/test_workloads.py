"""Workload generators: inputs are a function of the seed, shapes are not."""

import pytest

import workloads as wl


@pytest.mark.parametrize("name", wl.WORKLOADS)
@pytest.mark.parametrize("size", ["full", "small"])
def test_equal_seeds_give_byte_identical_requests(name, size):
    first = wl.GENERATORS[name](7, size)
    second = wl.GENERATORS[name](7, size)
    assert wl.requests_digest(first) == wl.requests_digest(second)
    for a, b in zip(first, second):
        assert a.prompt.tobytes() == b.prompt.tobytes()


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_different_seeds_give_different_requests(name):
    assert wl.requests_digest(wl.GENERATORS[name](7, "full")) \
        != wl.requests_digest(wl.GENERATORS[name](8, "full"))


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_shape_does_not_depend_on_the_seed(name):
    """Equal work for every seed: only the token ids are drawn."""
    def shape(seed):
        return [(s.request_id, len(s.prompt), s.max_new_tokens, s.tenant)
                for s in wl.GENERATORS[name](seed, "full")]
    assert shape(1) == shape(2)


def test_workload_shapes_match_their_purpose():
    long_prompt = wl.GENERATORS["long_prompt"](0, "full")
    assert max(len(s.prompt) for s in long_prompt) > 4096  # tiled prefill
    shared = wl.GENERATORS["shared_prefix_decode"](0, "full")
    prefix = wl.SHARED_PREFIX["full"][1]
    assert prefix % wl.BLOCK_TOKENS == 0
    assert all((s.prompt[:prefix] == shared[0].prompt[:prefix]).all()
               for s in shared)
    chat = wl.GENERATORS["chat_burst"](0, "full")
    assert len(chat) >= 100                      # ttft_p90_s is supported
    window = wl.LONGSIGHT.window + wl.LONGSIGHT.n_sink
    assert all(len(s.prompt) + s.max_new_tokens <= window + 64
               for s in chat)
    assert {s.tenant for s in chat} == {c.name for c in wl.TENANTS}
    # serve.itl_p95_ms needs at least ten gaps beyond it on every workload.
    for name in wl.WORKLOADS:
        gaps = sum(s.max_new_tokens - 1
                   for s in wl.GENERATORS[name](0, "full"))
        assert gaps * 0.05 >= 10, name


def test_stamped_outputs_keep_first_seen_times():
    times = []
    outputs = wl.StampedOutputs((), times)
    outputs.append(5)
    outputs.append(6)
    assert list(outputs) == [5, 6] and len(times) == 2
    first = list(times)
    # A rebuilt request (crash recovery) replays token 1: the stamp stays.
    rebuilt = wl.StampedOutputs([5], times)
    rebuilt.append(6)
    rebuilt.append(7)
    assert times[:2] == first and len(times) == 3
    assert times == sorted(times)
