"""Synthetic corpora standing in for Project Gutenberg and Wikitext2.

The paper evaluates perplexity on (a) long contiguous Project Gutenberg
books and (b) concatenated Wikitext2 passages.  Offline we synthesize both
shapes from a seeded Markov source with long-range copy bursts — the bursts
create genuinely long-range dependencies (the statistical signature of
induction-style attention) so that *distant-token retrieval matters*, which
is the property the LongSight experiments probe.
"""

from repro.data.synthetic import MarkovSource, pg_like, wiki2_like

__all__ = ["MarkovSource", "pg_like", "wiki2_like"]
