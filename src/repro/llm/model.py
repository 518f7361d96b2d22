"""The transformer substrate: weights, inference model, trainable model.

Three pieces live here:

- :func:`init_weights` — deterministic weight initialization shared by the
  inference and training paths.
- :class:`Transformer` — plain-numpy inference model with a pluggable
  attention backend (dense by default; LongSight's hybrid backend plugs in
  here, mirroring how the paper replaces the HuggingFace attention module
  with ``LongSightAttn``).
- :class:`TrainableTransformer` — autograd-based twin used only for the
  brief pre-training that gives the miniature models realistic attention
  structure.  Its forward pass is verified to match :class:`Transformer`.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Protocol

import numpy as np

from repro.llm import autograd as ag
from repro.llm import ops
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache
from repro.llm.rope import apply_rope

Weights = Dict[str, np.ndarray]


def init_weights(config: ModelConfig, seed: int = 0) -> Weights:
    """Gaussian-initialized weights for ``config`` (std 0.02, seeded)."""
    rng = np.random.default_rng(seed)
    d = config.d_model

    def w(*shape: int) -> np.ndarray:
        return rng.normal(0.0, 0.02, size=shape)

    weights: Weights = {"embed": w(config.vocab_size, d), "final_norm": np.ones(d)}
    if not config.tie_embeddings:
        weights["lm_head"] = w(d, config.vocab_size)
    for i in range(config.n_layers):
        weights[f"attn_norm.{i}"] = np.ones(d)
        weights[f"ffn_norm.{i}"] = np.ones(d)
        weights[f"wq.{i}"] = w(d, config.n_q_heads * config.head_dim)
        weights[f"wk.{i}"] = w(d, config.kv_dim)
        weights[f"wv.{i}"] = w(d, config.kv_dim)
        if config.qk_bias:
            # A deliberate offset: induces the clustered (sign-imbalanced)
            # key geometry of real Llama checkpoints (see ModelConfig).
            weights[f"bq.{i}"] = rng.normal(0.0, 0.3,
                                            config.n_q_heads * config.head_dim)
            weights[f"bk.{i}"] = rng.normal(0.4, 0.3, config.kv_dim)
        weights[f"wo.{i}"] = w(config.n_q_heads * config.head_dim, d)
        weights[f"w_gate.{i}"] = w(d, config.d_ff)
        weights[f"w_up.{i}"] = w(d, config.d_ff)
        weights[f"w_down.{i}"] = w(config.d_ff, d)
    return weights


class AttentionBackend(Protocol):
    """Per-layer attention strategy.

    The model hands the backend post-RoPE queries for the *new* tokens and
    the full post-RoPE key/value history (GQA layout); the backend returns
    per-query-head outputs.  This is the seam where LongSight replaces dense
    attention.
    """

    def forward(self, layer: int, q: np.ndarray, k: np.ndarray,
                v: np.ndarray) -> np.ndarray:
        """Compute attention outputs.

        Args:
            layer: decoder layer index.
            q: ``(n_q_heads, n_new, head_dim)`` queries; query ``t`` sits at
                absolute position ``n_ctx - n_new + t``.
            k: ``(n_kv_heads, n_ctx, head_dim)`` full key history.
            v: ``(n_kv_heads, n_ctx, head_dim)`` full value history.

        Returns:
            ``(n_q_heads, n_new, head_dim)`` outputs.
        """
        ...


class DenseBackend:
    """Reference dense causal attention (the paper's GPU-only baseline)."""

    def forward(self, layer: int, q: np.ndarray, k: np.ndarray,
                v: np.ndarray) -> np.ndarray:
        n_q_heads, n_new, head_dim = q.shape
        n_kv_heads, n_ctx, _ = k.shape
        group = n_q_heads // n_kv_heads
        mask = ops.causal_mask(n_new, n_ctx)
        scale = 1.0 / np.sqrt(head_dim)
        out = np.empty_like(q)
        for h in range(n_q_heads):
            kv_h = h // group
            scores = (q[h] @ k[kv_h].T) * scale
            scores = np.where(mask, scores, -np.inf)
            out[h] = ops.softmax(scores, axis=-1) @ v[kv_h]
        return out


#: Rows per BLAS call of a decode-step product (see :func:`_tile_matmul`).
#: Not a knob — it is part of the arithmetic's definition, so solo
#: ``generate`` and every served batch must share it.  Chosen by
#: measurement at the serving ledger's geometry (table in CHANGES.md,
#: PR 16): in place, an M = 2 GEMM costs about one GEMV, so a solo step
#: stays within ~1.1x of the GEMV it replaced, while 7-, 8- and
#: 16-session steps are as fast as with tiles of 4 or 8 (which cost a
#: solo step ~1.25x and ~1.5x).
_ROW_TILE = 2


def _tile_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x (n, K) @ w (K, N)``, batch-invariant: one GEMM per row tile.

    BLAS picks its kernel and blocking from the call shape, so row ``i``
    of a plain ``x @ w`` depends on how many rows ride along (M = 1 is a
    GEMV; small-M GEMMs block K differently from large-M ones).  Here
    every call has the same shape — ``_ROW_TILE`` rows, the last tile
    padded with zero rows — so a row's product is a function of that row
    and ``w`` only, whatever ``n`` is and wherever the row sits.
    """
    n = x.shape[0]
    ragged = n % _ROW_TILE
    if ragged:
        padded = np.zeros((n + _ROW_TILE - ragged, x.shape[1]))
        padded[:n] = x
        x = padded
    out = np.empty((x.shape[0], w.shape[1]))
    for start in range(0, x.shape[0], _ROW_TILE):
        np.matmul(x[start:start + _ROW_TILE], w,
                  out=out[start:start + _ROW_TILE])
    return out[:n]


class Transformer:
    """Inference-only decoder-only transformer.

    Supports two modes:

    - :meth:`forward_full` — teacher-forced pass over a whole sequence,
      used for perplexity evaluation (queries can be processed in blocks so
      sparse backends stay vectorized).
    - :meth:`prefill` / :meth:`decode_step` — KV-cache-based generation.

    The layer math exists once (:meth:`_layer`), over stacked rows that
    belong to one or more sessions.  Prefill hands it one session's block
    of rows and plain ``np.matmul`` (256-row block GEMMs); a decode step
    hands it one row per session and :func:`_tile_matmul`, and so does
    prefill for the one final-layer row it reads.
    """

    def __init__(self, config: ModelConfig, weights: Optional[Weights] = None,
                 seed: int = 0) -> None:
        self.config = config
        self.weights = weights if weights is not None else init_weights(config, seed)

    # -- shared per-layer math ------------------------------------------------

    def _kv(self, layer: int, x: np.ndarray, positions: np.ndarray,
            matmul) -> tuple[np.ndarray, np.ndarray]:
        """Project ``x`` (n, d_model) to post-RoPE k and raw v (head-major).

        A layer's K/V rows are a function of its *input* only — which is
        why :meth:`prefill` can fill the final layer's cache without
        running that layer.
        """
        c, w = self.config, self.weights
        k = matmul(x, w[f"wk.{layer}"])
        v = matmul(x, w[f"wv.{layer}"])
        if c.qk_bias:
            k = k + w[f"bk.{layer}"]
        n = x.shape[0]
        k = k.reshape(n, c.n_kv_heads, c.head_dim).transpose(1, 0, 2)
        v = v.reshape(n, c.n_kv_heads, c.head_dim).transpose(1, 0, 2)
        return apply_rope(k, positions, c.rope_theta), v

    def _qkv(self, layer: int, x: np.ndarray, positions: np.ndarray,
             matmul) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project ``x`` (n, d_model) to post-RoPE q/k and raw v (head-major)."""
        c, w = self.config, self.weights
        q = matmul(x, w[f"wq.{layer}"])
        if c.qk_bias:
            q = q + w[f"bq.{layer}"]
        q = q.reshape(x.shape[0], c.n_q_heads, c.head_dim).transpose(1, 0, 2)
        return (apply_rope(q, positions, c.rope_theta),
                *self._kv(layer, x, positions, matmul))

    @staticmethod
    def _attention(layer: int, q: np.ndarray, cache: KVCache,
                   backend: AttentionBackend) -> np.ndarray:
        """Run one session's backend over ``q``; its K/V rows are cached."""
        # Cache-aware backends (duck-typed) get the cache itself, so they
        # can consume incrementally maintained metadata such as the packed
        # sign store instead of recomputing it from the raw keys.
        fwd_cached = getattr(backend, "forward_cached", None)
        if fwd_cached is not None:
            return fwd_cached(layer, q, cache)
        return backend.forward(layer, q, cache.layers[layer].keys,
                               cache.layers[layer].values)

    def _attend(self, layer: int, q: np.ndarray, k: np.ndarray,
                v: np.ndarray, cache: KVCache,
                backend: AttentionBackend) -> np.ndarray:
        """Append one session's new K/V rows, then run its backend."""
        cache.append(layer, k, v)
        return self._attention(layer, q, cache, backend)

    def _layer(self, layer: int, x: np.ndarray, positions: np.ndarray,
               attend, matmul=np.matmul) -> np.ndarray:
        """One decoder layer over stacked rows ``x`` (n, d_model).

        The dense math — norms, QKV, bias, RoPE, ``wo``, SwiGLU — runs
        once on the stack with ``matmul`` as the product.  ``attend(layer,
        q, k, v)`` owns what is per session: it appends the new K/V rows
        to the cache(s) they belong to and returns the attention output
        for every row of ``q``.
        """
        c, w = self.config, self.weights
        # The normed block is a temporary on purpose: held in a local it
        # would stay alive across the attention call, and under glibc's
        # default trim/mmap thresholds that cost a 300-token prefill ~7%.
        q, k, v = self._qkv(
            layer, ops.rms_norm(x, w[f"attn_norm.{layer}"], c.norm_eps),
            positions, matmul)
        attn = attend(layer, q, k, v)
        attn = attn.transpose(1, 0, 2).reshape(x.shape[0],
                                               c.n_q_heads * c.head_dim)
        x = x + matmul(attn, w[f"wo.{layer}"])
        h = ops.rms_norm(x, w[f"ffn_norm.{layer}"], c.norm_eps)
        return x + ops.swiglu(h, w[f"w_gate.{layer}"], w[f"w_up.{layer}"],
                              w[f"w_down.{layer}"], matmul)

    @staticmethod
    def _prepare_cache(cache: KVCache, backend: AttentionBackend) -> None:
        """Let the backend set up per-cache state (e.g. the sign cache)."""
        prepare = getattr(backend, "prepare_cache", None)
        if prepare is not None:
            prepare(cache)

    def _unembed(self, x: np.ndarray, matmul=np.matmul) -> np.ndarray:
        c, w = self.config, self.weights
        x = ops.rms_norm(x, w["final_norm"], c.norm_eps)
        head = w["embed"].T if c.tie_embeddings else w["lm_head"]
        return matmul(x, head)

    # -- public API -------------------------------------------------------------

    def forward_full(self, tokens: np.ndarray,
                     backend: Optional[AttentionBackend] = None,
                     block_size: int = 256) -> np.ndarray:
        """Teacher-forced logits for every position of ``tokens``.

        The sequence is fed through in query blocks of ``block_size`` with a
        growing KV cache, so backends see exactly the causal structure they
        would during generation while staying vectorized.

        Returns:
            ``(len(tokens), vocab)`` logits.
        """
        backend = backend or DenseBackend()
        tokens = np.asarray(tokens)
        n = len(tokens)
        cache = KVCache(self.config)
        cache.reserve(n)
        self._prepare_cache(cache, backend)
        attend = functools.partial(self._attend, cache=cache,
                                   backend=backend)
        logits = np.empty((n, self.config.vocab_size))
        for start in range(0, n, block_size):
            stop = min(start + block_size, n)
            x = self.weights["embed"][tokens[start:stop]]
            positions = np.arange(start, stop)
            for layer in range(self.config.n_layers):
                x = self._layer(layer, x, positions, attend)
            logits[start:stop] = self._unembed(x)
        return logits

    def prefill(self, tokens: np.ndarray, cache: KVCache,
                backend: Optional[AttentionBackend] = None,
                block_size: int = 256) -> np.ndarray:
        """Populate ``cache`` from a prompt; return logits of the last token.

        Only the last position's output is read, and a layer's K/V rows
        come from its input, so the final layer is not run over the
        prompt: every block goes through layers ``0 .. L-2`` and then
        leaves only its final-layer K/V rows (:meth:`_kv`) in the cache.
        The one row that is read — the last position — then goes through
        the final layer as a decode row does: one query against the cache
        that already holds its K/V row, :func:`_tile_matmul` products (its
        own K/V products are recomputed at that shape and dropped; the
        cache keeps the block GEMM's rows).  Every layer's cache is
        bit-identical to an all-rows pass (:meth:`forward_full`), and the
        read row's arithmetic does not depend on the block it sat in, so
        a prompt prefilled in ``block_size``-aligned chunks returns the
        same bits as one call.  The saving is ``1 / n_layers`` of the
        prompt's attention, ``wq`` / ``wo`` and MLP work.
        """
        backend = backend or DenseBackend()
        tokens = np.asarray(tokens)
        if len(tokens) == 0:
            raise ValueError("prefill needs at least one token")
        start0 = len(cache)
        # One up-front allocation for the whole prompt instead of repeated
        # doubling-and-copying during blockwise prefill.
        cache.reserve(start0 + len(tokens))
        self._prepare_cache(cache, backend)
        attend = functools.partial(self._attend, cache=cache,
                                   backend=backend)
        c, w = self.config, self.weights
        final = c.n_layers - 1
        for start in range(0, len(tokens), block_size):
            stop = min(start + block_size, len(tokens))
            x = w["embed"][tokens[start:stop]]
            positions = np.arange(start0 + start, start0 + stop)
            for layer in range(final):
                x = self._layer(layer, x, positions, attend)
            cache.append(final, *self._kv(
                final, ops.rms_norm(x, w[f"attn_norm.{final}"], c.norm_eps),
                positions, np.matmul))
        x = self._layer(
            final, x[-1:], positions[-1:],
            lambda layer, q, k, v: self._attention(layer, q, cache, backend),
            _tile_matmul)
        return self._unembed(x, _tile_matmul)[0]

    def decode_step(self, token: int, cache: KVCache,
                    backend: Optional[AttentionBackend] = None) -> np.ndarray:
        """One autoregressive step; returns next-token logits ``(vocab,)``.

        This is :meth:`decode_step_batch` with one session — there is one
        decode routine, so a session's logits cannot depend on whether it
        was stepped alone or in a batch.
        """
        return self.decode_step_batch([token], [cache], backend)[0]

    def decode_step_batch(self, tokens, caches,
                          backends=None) -> list:
        """One decode step for many independent sessions, stacked.

        The sessions' pending tokens become the rows of one
        ``(n_sessions, d_model)`` activation, and every layer runs its
        norms, QKV projections, bias, RoPE, ``wo``, SwiGLU — and, at the
        end, the unembedding — once on that stack, so each weight matrix
        is read once per ``_ROW_TILE`` sessions instead of once per
        session.  Attention is stacked too: each session's K/V row is
        appended to its cache, then sessions whose backends agree on the
        duck-typed ``stack_key()`` hook make **one**
        ``forward_cached_batch(layer, qs, caches)`` call per layer (the
        engine builds one backend per request, so the key compares what
        the routine reads, not identity; see
        :meth:`repro.core.hybrid.LongSightAttention.stack_key`).  Only a
        backend without the hook — dense, sliding window, offload — is
        still dispatched per session through :meth:`_attend`.

        Each session's logits are bit-identical to stepping it alone.
        The stacked attention routine is batch-invariant by construction
        (a row's layout depends on its own context only), and every
        dense product goes through :func:`_tile_matmul`, whose
        BLAS call shape is fixed: the stack is zero-padded once, here, to
        a whole number of ``_ROW_TILE``-row tiles (pad rows stay zero
        through every layer: zero norm, zero attention, zero FFN), and a
        row's result depends on that row and the weight only.  The tile is
        a module constant, not a parameter, because it is part of the
        arithmetic's definition — solo :func:`~repro.llm.sampling.generate`
        and every served batch must use the same one.

        Args:
            tokens: one pending token id per session.
            caches: one KV cache per session (plain or paged).
            backends: a single shared backend, a per-session sequence, or
                ``None`` for dense attention.

        Returns:
            list of ``(vocab,)`` next-token logits, one per session.
        """
        n = len(tokens)
        if len(caches) != n:
            raise ValueError("tokens and caches must be parallel")
        if backends is None or not isinstance(backends, (list, tuple)):
            backends = [backends or DenseBackend()] * n
        elif len(backends) != n:
            raise ValueError("need one backend per session")
        if n == 0:
            return []
        for cache, backend in zip(caches, backends):
            self._prepare_cache(cache, backend)
        n_rows = n + -n % _ROW_TILE
        x = np.zeros((n_rows, self.config.d_model))
        x[:n] = self.weights["embed"][np.asarray(tokens, dtype=np.intp)]
        positions = np.zeros(n_rows, dtype=np.intp)
        positions[:n] = [len(cache) for cache in caches]
        # Sessions whose backends agree on ``stack_key`` share one
        # attention call per layer; a backend without the hook is
        # dispatched per session.
        stacks: Dict[object, list] = {}
        alone = []
        for i, backend in enumerate(backends):
            stack_key = getattr(backend, "stack_key", None)
            if stack_key is None:
                alone.append(i)
            else:
                stacks.setdefault(stack_key(), []).append(i)

        def attend(layer, q, k, v):
            attn = np.zeros(q.shape)        # pad rows attend to nothing
            for i in alone:
                row = slice(i, i + 1)
                attn[:, row] = self._attend(layer, q[:, row], k[:, row],
                                            v[:, row], caches[i], backends[i])
            for members in stacks.values():
                for i in members:
                    caches[i].append(layer, k[:, i:i + 1], v[:, i:i + 1])
                out = backends[members[0]].forward_cached_batch(
                    layer, q[:, members].transpose(1, 0, 2)[:, :, None],
                    [caches[i] for i in members])
                attn[:, members] = out[:, :, 0].transpose(1, 0, 2)
            return attn

        for layer in range(self.config.n_layers):
            x = self._layer(layer, x, positions, attend, _tile_matmul)
        return list(self._unembed(x, _tile_matmul)[:n])


class TrainableTransformer:
    """Autograd twin of :class:`Transformer`, dense attention only."""

    def __init__(self, config: ModelConfig, weights: Optional[Weights] = None,
                 seed: int = 0) -> None:
        self.config = config
        base = weights if weights is not None else init_weights(config, seed)
        self.params: Dict[str, ag.Tensor] = {
            name: ag.Tensor(value, requires_grad=True)
            for name, value in base.items()
        }

    def export_weights(self) -> Weights:
        """Plain-numpy weights consumable by :class:`Transformer`."""
        return {name: p.data.copy() for name, p in self.params.items()}

    def _rope(self, x: ag.Tensor, positions: np.ndarray) -> ag.Tensor:
        from repro.llm.rope import rope_cos_sin

        half = self.config.head_dim // 2
        cos, sin = rope_cos_sin(positions, self.config.head_dim,
                                self.config.rope_theta)
        x1 = x[..., :half]
        x2 = x[..., half:]
        return ag.concat([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)

    def forward(self, tokens: np.ndarray) -> ag.Tensor:
        """Logits for a batch: ``tokens (B, T)`` -> Tensor ``(B, T, vocab)``."""
        c, p = self.config, self.params
        tokens = np.asarray(tokens)
        batch, t = tokens.shape
        positions = np.arange(t)
        mask_bias = np.where(ops.causal_mask(t, t), 0.0, -1e9)
        scale = 1.0 / np.sqrt(c.head_dim)
        kv_map = np.repeat(np.arange(c.n_kv_heads), c.gqa_group_size)

        x = ag.embedding(p["embed"], tokens)
        for i in range(c.n_layers):
            h = ag.rms_norm(x, p[f"attn_norm.{i}"], c.norm_eps)
            q = h @ p[f"wq.{i}"]
            k = h @ p[f"wk.{i}"]
            v = h @ p[f"wv.{i}"]
            if c.qk_bias:
                q = q + p[f"bq.{i}"]
                k = k + p[f"bk.{i}"]
            q = q.reshape(batch, t, c.n_q_heads, c.head_dim)
            k = k.reshape(batch, t, c.n_kv_heads, c.head_dim)
            v = v.reshape(batch, t, c.n_kv_heads, c.head_dim)
            q = q.transpose(0, 2, 1, 3)  # (B, Hq, T, dh)
            k = k.transpose(0, 2, 1, 3)
            v = v.transpose(0, 2, 1, 3)
            q = self._rope(q, positions)
            k = self._rope(k, positions)
            k = k[:, kv_map]  # GQA: expand KV heads to query heads
            v = v[:, kv_map]
            scores = (q @ k.swapaxes(-1, -2)) * scale + mask_bias
            attn = scores.softmax(axis=-1) @ v
            attn = attn.transpose(0, 2, 1, 3).reshape(
                batch, t, c.n_q_heads * c.head_dim)
            x = x + attn @ p[f"wo.{i}"]
            h = ag.rms_norm(x, p[f"ffn_norm.{i}"], c.norm_eps)
            ffn = ((h @ p[f"w_gate.{i}"]).silu() * (h @ p[f"w_up.{i}"])) \
                @ p[f"w_down.{i}"]
            x = x + ffn
        x = ag.rms_norm(x, p["final_norm"], c.norm_eps)
        if c.tie_embeddings:
            return x @ p["embed"].swapaxes(0, 1)
        return x @ p["lm_head"]

    def loss(self, tokens: np.ndarray) -> ag.Tensor:
        """Next-token cross-entropy over a batch ``(B, T)``."""
        logits = self.forward(tokens[:, :-1])
        return ag.softmax_cross_entropy(logits, tokens[:, 1:])
