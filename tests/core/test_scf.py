"""Sign-Concordance Filtering: float path, packed path, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import scf
from repro.core.scf import (
    concordance,
    concordance_packed,
    concordance_packed_many,
    mismatches_packed,
    pack_signs,
    scf_filter,
    scf_filter_packed,
    sign_bits,
    sign_pm1,
)

# Subnormals are excluded because sign-concordance treats zero as positive:
# a negative subnormal scaled by < 1 can underflow to -0.0 and legitimately
# flip its sign class, so scale invariance only holds over normal floats.
vec_elements = st.floats(min_value=-10, max_value=10, allow_nan=False,
                         allow_subnormal=False)


def vectors(n, d):
    return hnp.arrays(np.float64, (n, d), elements=vec_elements)


class TestSignBits:
    def test_zero_is_positive(self):
        assert sign_bits(np.array([0.0, -0.0, 1.0, -1.0])).tolist() == \
            [True, True, True, False]

    def test_pm1(self):
        np.testing.assert_array_equal(sign_pm1(np.array([2.0, -3.0, 0.0])),
                                      [1.0, -1.0, 1.0])


class TestConcordance:
    def test_identical_vectors_full_match(self, rng):
        x = rng.normal(size=(4, 16))
        np.testing.assert_array_equal(np.diag(concordance(x, x)), 16)

    def test_negated_vectors_zero_match(self, rng):
        x = rng.normal(size=(3, 12))
        assert (np.diag(concordance(x, -x)) == 0).all()

    def test_matches_brute_force(self, rng):
        q = rng.normal(size=(5, 10))
        k = rng.normal(size=(7, 10))
        expected = np.zeros((5, 7), dtype=np.int64)
        for i in range(5):
            for j in range(7):
                expected[i, j] = np.sum(sign_bits(q[i]) == sign_bits(k[j]))
        np.testing.assert_array_equal(concordance(q, k), expected)

    @given(vectors(3, 8), vectors(4, 8))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_range(self, q, k):
        c = concordance(q, k)
        assert (0 <= c).all() and (c <= 8).all()
        np.testing.assert_array_equal(c, concordance(k, q).T)

    @given(vectors(2, 6), st.floats(min_value=0.1, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_positive_scale_invariance(self, x, scale):
        q, k = x[:1], x[1:]
        np.testing.assert_array_equal(concordance(q, k),
                                      concordance(q * scale, k))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            concordance(rng.normal(size=(2, 4)), rng.normal(size=(2, 6)))


class TestFilter:
    def test_threshold_zero_passes_all(self, rng):
        q, k = rng.normal(size=(2, 8)), rng.normal(size=(9, 8))
        assert scf_filter(q, k, 0).all()

    def test_threshold_d_requires_exact_signs(self, rng):
        q = rng.normal(size=(1, 8))
        k = np.concatenate([q * 3.0, -q])
        mask = scf_filter(q, k, 8)
        assert mask[0, 0] and not mask[0, 1]

    def test_monotone_in_threshold(self, rng):
        q, k = rng.normal(size=(3, 16)), rng.normal(size=(20, 16))
        previous = scf_filter(q, k, 0)
        for th in range(1, 17):
            current = scf_filter(q, k, th)
            assert (current <= previous).all()
            previous = current


class TestPackedPath:
    @given(vectors(3, 16), vectors(5, 16))
    @settings(max_examples=30, deadline=None)
    def test_packed_matches_float(self, q, k):
        np.testing.assert_array_equal(
            concordance(q, k),
            concordance_packed(pack_signs(q), pack_signs(k), 16))

    @pytest.mark.parametrize("d", [3, 8, 13, 16, 64, 100])
    def test_non_byte_aligned_dims(self, d, rng):
        q = rng.normal(size=(2, d))
        k = rng.normal(size=(4, d))
        np.testing.assert_array_equal(
            concordance(q, k),
            concordance_packed(pack_signs(q), pack_signs(k), d))

    def test_filter_packed_matches(self, rng):
        q = rng.normal(size=(2, 32))
        k = rng.normal(size=(10, 32))
        for th in (0, 10, 16, 25, 32):
            np.testing.assert_array_equal(
                scf_filter(q, k, th),
                scf_filter_packed(pack_signs(q), pack_signs(k), 32, th))

    def test_pack_shape(self, rng):
        packed = pack_signs(rng.normal(size=(5, 20)))
        assert packed.shape == (5, 3)  # ceil(20 / 8) bytes
        assert packed.dtype == np.uint8


class TestWordPath:
    """``mismatches_packed`` reinterprets the sign bytes as the widest
    word dividing their count; every width must agree with the float
    path on the layouts the kernels feed it."""

    DIMS = [8, 16, 24, 32, 48, 64, 96, 128]

    @pytest.mark.parametrize("d", DIMS)
    def test_arena_slice_and_gqa_broadcast(self, d, rng):
        """Keys are a non-contiguous slice of a sign arena (contiguous
        byte axis only), shared by a GQA group through a broadcast axis."""
        n_kv, group, n_q, n_k = 2, 3, 5, 11
        q = rng.normal(size=(n_kv, group, n_q, d))
        k = rng.normal(size=(n_kv, 3 + n_k + 4, d))
        arena = pack_signs(k)
        k_packed = arena[:, 3:3 + n_k]
        assert not k_packed.flags.c_contiguous
        expected = concordance(q, k[:, None, 3:3 + n_k])
        q_packed = pack_signs(q)
        mism = mismatches_packed(q_packed, k_packed[:, None])
        assert mism.shape == (n_kv, group, n_q, n_k)
        np.testing.assert_array_equal(d - mism.astype(np.int64), expected)
        conc = concordance_packed_many(q_packed, k_packed[:, None], d)
        assert conc.dtype == np.int64
        np.testing.assert_array_equal(conc, expected)

    @pytest.mark.parametrize("d", DIMS)
    def test_zero_length_key_axis(self, d, rng):
        q_packed = pack_signs(rng.normal(size=(2, 3, d)))
        k_packed = pack_signs(rng.normal(size=(2, 0, d)))
        assert mismatches_packed(q_packed, k_packed).shape == (2, 3, 0)
        assert concordance_packed_many(q_packed, k_packed,
                                       d).shape == (2, 3, 0)

    @pytest.mark.parametrize("d", [16, 32, 64])
    def test_single_word_counts_stay_uint8(self, d, rng):
        """One uint16/uint32/uint64 word per vector: the count array --
        the block kernel's largest temporary -- is one byte per pair."""
        q_packed = pack_signs(rng.normal(size=(4, d)))
        k_packed = pack_signs(rng.normal(size=(9, d)))
        assert mismatches_packed(q_packed, k_packed).dtype == np.uint8


class TestTablePath:
    """Below numpy 2.0 (``pyproject.toml`` declares ``numpy>=1.22``), and
    for a byte axis whose stride is not 1, ``mismatches_packed`` counts
    bits through its 256-entry table; its counts must equal the word
    path's (the table path widens to uint16, so values are compared)."""

    @pytest.mark.parametrize("how", ["no_bitwise_count", "strided_bytes"])
    @pytest.mark.parametrize("d", [16, 32, 40, 64, 96])
    def test_table_counts_equal_word_counts(self, d, how, rng,
                                            monkeypatch):
        q = pack_signs(rng.normal(size=(2, 5, d)))
        k = pack_signs(rng.normal(size=(2, 7, d)))
        words = mismatches_packed(q, k)
        if how == "no_bitwise_count":
            monkeypatch.setattr(scf, "_HAS_BITWISE_COUNT", False)
        else:
            k = np.repeat(k, 2, -1)[..., ::2]
            assert k.strides[-1] == 2
        table = mismatches_packed(q, k)
        assert table.dtype == np.uint16
        np.testing.assert_array_equal(table, words)
