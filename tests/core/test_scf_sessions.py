"""Property tests for the session-batched packed concordance kernel.

``concordance_packed_sessions`` must be *bit-identical*, per session, to
looping :func:`concordance_packed_many` over the sessions -- for any
ragged mix of context lengths, any head count, and any head dimension
(including dims that do not fill a whole packed byte).  Hypothesis owns
the geometry; every case checks all sessions over their full valid
column range, plus that the padded tail beyond a session's length is
sliced off by callers (the contract documents it as unspecified).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scf import (concordance_packed_many,
                            concordance_packed_sessions, pack_signs)


def _session_stack(rng, n_sessions, n_kv_heads, group, n_q, lengths, d):
    """Random packed query slabs + ragged per-session key stores."""
    q_packed = pack_signs(
        rng.normal(size=(n_sessions, n_kv_heads, group, n_q, d)))
    key_signs = [pack_signs(rng.normal(size=(n_kv_heads, n_ctx, d)))
                 for n_ctx in lengths]
    return q_packed, key_signs


@given(n_sessions=st.integers(min_value=1, max_value=5),
       n_kv_heads=st.integers(min_value=1, max_value=3),
       group=st.integers(min_value=1, max_value=4),
       d=st.sampled_from([8, 17, 64, 96, 128]),
       seed=st.integers(min_value=0, max_value=10_000),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_batched_equals_per_session_loop(n_sessions, n_kv_heads, group, d,
                                         seed, data):
    lengths = data.draw(st.lists(st.integers(min_value=1, max_value=70),
                                 min_size=n_sessions, max_size=n_sessions),
                        label="ragged context lengths")
    rng = np.random.default_rng(seed)
    q_packed, key_signs = _session_stack(rng, n_sessions, n_kv_heads,
                                         group, 1, lengths, d)
    batched = concordance_packed_sessions(q_packed, key_signs, d)
    assert batched.shape == (n_sessions, n_kv_heads, group, 1, max(lengths))
    for i, ks in enumerate(key_signs):
        solo = concordance_packed_many(q_packed[i], ks[:, None], d)
        np.testing.assert_array_equal(batched[i][..., : lengths[i]], solo)


def test_single_session_degenerates_to_many():
    rng = np.random.default_rng(0)
    q_packed, key_signs = _session_stack(rng, 1, 2, 4, 1, [50], 64)
    batched = concordance_packed_sessions(q_packed, key_signs, 64)
    solo = concordance_packed_many(q_packed[0], key_signs[0][:, None], 64)
    np.testing.assert_array_equal(batched[0], solo)


def test_session_count_mismatch_raises():
    rng = np.random.default_rng(1)
    q_packed, key_signs = _session_stack(rng, 2, 1, 1, 1, [10, 12], 32)
    try:
        concordance_packed_sessions(q_packed[:1], key_signs, 32)
    except ValueError as exc:
        assert "per session" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("expected ValueError")
