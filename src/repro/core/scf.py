"""Sign-Concordance Filtering (SCF), Section 5.1.

SCF keeps a key ``K`` for query ``Q`` when enough of their sign bits agree::

    SCF(Q, K, TH) = TH <= D - sum_i( sign(Q[i]) XOR sign(K[i]) )

Two implementations are provided:

- a vectorized float path (:func:`concordance`) used by the algorithm
  experiments, exploiting ``matches = (D + s_q . s_k) / 2`` for +/-1 signs;
- a bit-packed path (:func:`pack_signs`, :func:`concordance_packed`) that
  mirrors what DReX's PIM Filter Units actually compute (XOR + popcount on
  one-bit Key Sign Objects).  The two are verified to agree bit-exactly.

The one-bit format itself (:func:`sign_bits`, :func:`pack_signs`) is the
KV store's, which packs it on every append (:mod:`repro.llm.kv_cache`).
"""

from __future__ import annotations

import numpy as np

from repro.llm.kv_cache import pack_signs, sign_bits


def sign_pm1(x: np.ndarray) -> np.ndarray:
    """Signs as +/-1 floats (+1 where non-negative)."""
    return np.where(sign_bits(x), 1.0, -1.0)


def concordance(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Number of agreeing sign bits between every query and key.

    Args:
        q: ``(..., n_q, D)`` full-precision queries (signs are extracted
            internally, so pre-quantized +/-1 input gives the same result).
        k: ``(..., n_k, D)`` full-precision keys.

    Returns:
        Integer array ``(..., n_q, n_k)`` of matching-sign counts in
        ``[0, D]``.
    """
    d = q.shape[-1]
    if k.shape[-1] != d:
        raise ValueError("query/key dimension mismatch")
    sq = sign_pm1(q).astype(np.float32)
    sk = sign_pm1(k).astype(np.float32)
    return concordance_from_signs(sq, sk, d)


def concordance_from_signs(sq: np.ndarray, sk: np.ndarray,
                           d: int) -> np.ndarray:
    """:func:`concordance` for signs already extracted as +/-1 float32.

    Lets callers share one key-sign extraction across a GQA group (or feed
    an unpacked sign store) instead of re-deriving it per query head.
    """
    # float32 is exact here: the matmul accumulates d terms of +/-1, and
    # integers up to 2^24 are exactly representable.
    dots = np.matmul(sq, np.swapaxes(sk, -1, -2))
    return np.rint((d + dots) / 2.0).astype(np.int64)


def scf_filter(q: np.ndarray, k: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean pass mask: ``concordance >= threshold`` (Section 5.1).

    Threshold 0 passes everything; threshold ``D`` passes only keys whose
    signs agree with the query's on every dimension.
    """
    return concordance(q, k) >= threshold


# --- bit-packed path (hardware-faithful) -----------------------------------


def unpack_signs_pm1(packed: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`pack_signs` as +/-1 float32 vectors.

    Lets a packed sign store feed the float path of :func:`concordance`
    (whose sign extraction is idempotent on +/-1 input); the public
    inverse of :func:`pack_signs`.
    """
    bits = np.unpackbits(packed, axis=-1, count=d)
    return bits.astype(np.float32) * 2.0 - 1.0


#: Byte -> number-of-set-bits lookup, fallback for numpy < 2.0.
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)],
                           dtype=np.uint8)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Word widths (bytes, widest first) the packed sign bytes reinterpret as.
_WORD_DTYPES = {8: np.uint64, 4: np.uint32, 2: np.uint16, 1: np.uint8}

#: Words per XOR temporary in :func:`mismatches_packed` (<= 1 MiB).
_XOR_SLAB_WORDS = 1 << 17


def _popcount(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint8 array."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(x)
    return _POPCOUNT_TABLE[x]


def concordance_packed(q_packed: np.ndarray, k_packed: np.ndarray,
                       d: int) -> np.ndarray:
    """Matching-sign counts from packed sign words (XOR + popcount).

    Args:
        q_packed: ``(n_q, n_bytes)`` packed query signs.
        k_packed: ``(n_k, n_bytes)`` packed key signs.
        d: true vector dimension (pad bits beyond ``d`` must be zero in both
            inputs, which :func:`pack_signs` guarantees since ``packbits``
            zero-pads; pad-bit XOR is then always 0).

    Returns:
        ``(n_q, n_k)`` integer counts, identical to :func:`concordance`.
    """
    return concordance_packed_many(q_packed, k_packed, d)


def concordance_packed_many(q_packed: np.ndarray, k_packed: np.ndarray,
                            d: int) -> np.ndarray:
    """Batched :func:`concordance_packed` over arbitrary leading axes.

    Args:
        q_packed: ``(..., n_q, n_bytes)`` packed query signs.
        k_packed: ``(..., n_k, n_bytes)`` packed key signs; leading axes
            broadcast against ``q_packed``'s (e.g. one key store shared by a
            whole GQA group).
        d: true vector dimension (pad bits must be zero, see
            :func:`concordance_packed`).

    Returns:
        ``(..., n_q, n_k)`` int64 counts, identical per slice to
        :func:`concordance_packed`.  The attention kernel thresholds
        :func:`mismatches_packed` directly and skips this int64 pass.
    """
    return d - mismatches_packed(q_packed, k_packed).astype(np.int64)


def mismatches_packed(q_packed: np.ndarray, k_packed: np.ndarray
                      ) -> np.ndarray:
    """Per-pair mismatching-bit counts from packed signs (XOR + popcount).

    The raw form of :func:`concordance_packed_many` —
    ``concordance = d - mismatches`` — in the narrowest dtype the count
    fits (uint8 up to 31 sign bytes, i.e. ``head_dim <= 248``; uint16
    beyond).  Thresholding callers (``conc >= thr  <=>  mismatches <=
    d - thr``) use it directly to skip the int64 conversion pass; this
    matters in the block prefill kernel, where the count array is the
    single largest temporary.

    When both inputs' byte axes are contiguous, the packed bytes
    reinterpret losslessly as the widest unsigned word that divides the
    byte count (``head_dim`` 16 -> one uint16, 32 -> one uint32, 64 -> one
    uint64, 96 -> three uint32, ...) and each word pair costs one XOR +
    one popcount instruction.
    """
    nb = q_packed.shape[-1]
    if (_HAS_BITWISE_COUNT and nb
            and q_packed.strides[-1] == 1 and k_packed.strides[-1] == 1):
        word = next(w for w in _WORD_DTYPES if nb % w == 0)
        qw = q_packed.view(_WORD_DTYPES[word])
        kw = k_packed.view(_WORD_DTYPES[word])
        n_q, n_k = q_packed.shape[-2], k_packed.shape[-2]
        out = np.empty(
            np.broadcast_shapes(q_packed.shape[:-2], k_packed.shape[:-2])
            + (n_q, n_k),
            dtype=np.uint8 if nb * 8 <= np.iinfo(np.uint8).max else np.uint16)
        # Query rows go through in slabs whose XOR temporary stays
        # cache-resident; one full-size word array per call would be
        # several times the size of the result it is reduced to.
        step = max(1, _XOR_SLAB_WORDS * n_q // max(out.size, 1))
        for start in range(0, n_q, step):
            rows = slice(start, start + step)
            acc = out[..., rows, :]
            np.bitwise_count(qw[..., rows, None, 0] ^ kw[..., None, :, 0],
                             out=acc)
            for i in range(1, nb // word):
                acc += np.bitwise_count(qw[..., rows, None, i]
                                        ^ kw[..., None, :, i])
        return out
    xor = np.bitwise_xor(q_packed[..., :, None, :], k_packed[..., None, :, :])
    return _popcount(xor).sum(axis=-1, dtype=np.uint16)


def scf_filter_packed(q_packed: np.ndarray, k_packed: np.ndarray, d: int,
                      threshold: float) -> np.ndarray:
    """Packed-representation twin of :func:`scf_filter`."""
    return concordance_packed(q_packed, k_packed, d) >= threshold


# --- session-batched form ----------------------------------------------------


def concordance_packed_sessions(q_packed: np.ndarray, key_signs,
                                d: int) -> np.ndarray:
    """Ragged-session concordance in **one** packed XOR+popcount call.

    Pads every session's packed key store into one staging buffer and runs
    a single batched XOR+popcount over
    ``(n_sessions, n_kv_heads, G, n_q, max_ctx)``.  Nothing under ``src/``
    calls it.  Not because of the padding — integer counts are exact at
    any width, so a padded filter cannot tie a row to its neighbours, and
    the attention kernel does exactly this, tile by tile, for the
    long-context sessions of a decode call (``core/hybrid._SparseSpan``;
    the rule is *integer, boolean and index work stacks at any width,
    float work keeps shapes fixed by the row's own session*) — but
    because that kernel thresholds :func:`mismatches_packed` directly and
    never needs these int64 counts over whole contexts.  It stays
    importable because the benchmark's tracer (``perf/spans.py``) patches
    it by name.

    Args:
        q_packed: ``(n_sessions, ..., n_q, n_bytes)`` packed query signs
            (identical shape across sessions — one decode query each).
        key_signs: sequence of ``(n_kv_heads, n_ctx_i, n_bytes)`` packed
            key stores, one per session, with ragged ``n_ctx_i``.
        d: true vector dimension.

    Returns:
        ``(n_sessions, ..., n_q, max_ctx)`` int64 counts.  Row ``i`` is
        bit-identical to ``concordance_packed_many`` on session ``i`` over
        its first ``n_ctx_i`` columns; entries beyond a session's length
        are unspecified and must be sliced off by the caller.
    """
    n_sessions = len(key_signs)
    if q_packed.shape[0] != n_sessions:
        raise ValueError("one query-sign slab per session required")
    lengths = [ks.shape[-2] for ks in key_signs]
    max_ctx = max(lengths) if lengths else 0
    n_kv_heads, _, n_bytes = key_signs[0].shape
    padded = np.empty((n_sessions, n_kv_heads, max_ctx, n_bytes),
                      dtype=np.uint8)
    for i, ks in enumerate(key_signs):
        padded[i, :, : lengths[i]] = ks
    # Insert a broadcast axis so every session's key store pairs with all
    # of its GQA group's query heads: (S, Hkv, 1, max_ctx, nb).
    return concordance_packed_many(q_packed, padded[:, :, None], d)
