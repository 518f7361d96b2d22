"""Seeded synthetic token streams with long-range structure.

Two corpus shapes mirror the paper's datasets:

- :func:`pg_like` — one long contiguous stream (Project Gutenberg books).
- :func:`wiki2_like` — short passages concatenated with separators
  (Wikitext2, "concatenate passages as needed" per Section 8.1.1).

Both draw from :class:`MarkovSource`: an order-1 Markov chain over a sparse
transition graph, interleaved with *copy bursts* that replay a span from
earlier in the stream.  Copy bursts are what give long contexts value — a
model that can attend to the matching earlier span predicts the burst almost
perfectly, so quality degrades measurably when sparse attention fails to
retrieve the right distant keys.

Kept unreached: ``wiki2_like`` — entered only by the five training
benchmarks the audit skips.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass
class MarkovSource:
    """Order-1 Markov token source with long-range copy bursts.

    Attributes:
        vocab_size: number of token ids (id 0 is reserved as a separator
            for passage-style corpora).
        branching: plausible successors per token.
        copy_prob: per-token probability of starting a copy burst.
        copy_len: (min, max) burst length.
        copy_back: (min, max) distance from the burst to its source span,
            drawn log-uniformly.  The heavy tail matters: nearby sources
            (within a training window) are what let a small model *learn*
            the induction mechanism, while distant sources are what make
            long contexts *valuable* at evaluation time — retrieval of the
            matching far-away span is exactly what LongSight's sparse
            attention must get right.
        copy_marker: token id emitted immediately before a burst; a learnable
            cue ("the following repeats earlier text") that lets even small
            models develop induction-style attention.
    """

    vocab_size: int = 512
    branching: int = 8
    copy_prob: float = 0.02
    copy_len: tuple[int, int] = (16, 48)
    copy_back: tuple[int, int] = (32, 65536)
    copy_marker: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < self.branching + 2:
            raise ValueError("vocab too small for branching factor")
        rng = np.random.default_rng(self.seed)
        # Sparse successor graph: each token can be followed by `branching`
        # specific tokens with Dirichlet-distributed probabilities.
        self._successors = np.empty((self.vocab_size, self.branching), dtype=np.int64)
        self._probs = np.empty((self.vocab_size, self.branching))
        regular = np.arange(2, self.vocab_size)  # exclude separator + marker
        for tok in range(self.vocab_size):
            self._successors[tok] = rng.choice(regular, size=self.branching,
                                               replace=False)
            self._probs[tok] = rng.dirichlet(np.full(self.branching, 0.5))

    def generate(self, n_tokens: int, seed: int = 0) -> np.ndarray:
        """Generate a deterministic stream of ``n_tokens`` ids."""
        rng = np.random.default_rng((self.seed << 20) ^ seed)
        out = np.empty(n_tokens, dtype=np.int64)
        state = int(rng.integers(2, self.vocab_size))
        i = 0
        out[i] = state
        i += 1
        min_back = max(self.copy_back[0], self.copy_len[1] + 1)
        log_lo, log_hi = np.log(min_back), np.log(max(self.copy_back[1],
                                                      min_back + 1))
        while i < n_tokens:
            if i > min_back and rng.random() < self.copy_prob:
                # Copy burst: marker token, then replay an earlier span at a
                # log-uniform look-back distance (clipped to the history).
                length = int(rng.integers(*self.copy_len))
                back = int(np.exp(rng.uniform(log_lo, log_hi)))
                back = min(back, i - 1)
                start = max(0, i - back)
                if start + length >= i:
                    length = i - start - 1
                take = min(length, n_tokens - i - 1)
                if take > 0:
                    out[i] = self.copy_marker
                    i += 1
                    out[i : i + take] = out[start : start + take]
                    i += take
                    state = int(out[i - 1])
                    continue
            row = self._successors[state]
            state = int(rng.choice(row, p=self._probs[state]))
            out[i] = state
            i += 1
        return out


def pg_like(n_tokens: int, vocab_size: int = 512, seed: int = 0) -> np.ndarray:
    """One long contiguous stream (Project Gutenberg stand-in)."""
    source = MarkovSource(vocab_size=vocab_size, seed=97)
    return source.generate(n_tokens, seed=seed)


def wiki2_like(n_tokens: int, vocab_size: int = 512, seed: int = 0,
               passage_len: tuple[int, int] = (256, 1024)) -> np.ndarray:
    """Concatenated short passages separated by token 0 (Wikitext2 stand-in).

    Each passage restarts the Markov state, mimicking the topic breaks of
    concatenated Wikitext2 documents; copy bursts never cross a separator.
    """
    source = MarkovSource(vocab_size=vocab_size, seed=131, copy_prob=0.02)
    rng = np.random.default_rng(seed + 7)
    parts: list[np.ndarray] = []
    total = 0
    passage_idx = 0
    while total < n_tokens:
        length = int(rng.integers(*passage_len))
        piece = source.generate(length, seed=(seed << 10) + passage_idx)
        parts.append(piece)
        parts.append(np.zeros(1, dtype=np.int64))  # separator
        total += length + 1
        passage_idx += 1
    return np.concatenate(parts)[:n_tokens]
