"""Approximate BPE token counting for proof scripts.

The paper bins theorems by the token length of their human proofs
(Figure 1: <16, <32, ..., >512).  We reproduce the measurement with a
deterministic approximation of a GPT-style byte-pair tokenizer:

* every punctuation character is one token;
* words (identifiers/keywords) cost roughly one token per 5
  characters — short tactic keywords are single tokens, long FSCQ
  identifiers like ``tree_names_distinct`` cost several, matching how
  real BPE vocabularies split snake_case identifiers;
* whitespace is free (absorbed into neighbouring tokens).

Only relative binning matters for the reproduction, not the absolute
vocabulary.

Counting is *line-additive*: every ``str.splitlines`` boundary is a
whitespace character, so no token spans one, and a text's count is the
sum of its lines' counts.  :func:`count_tokens` exploits this with a
bounded per-line memo — a sweep re-counts the same context lines for
every prompt of a theorem.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence

__all__ = [
    "count_tokens",
    "line_token_counts",
    "tokenize",
    "LENGTH_BINS",
    "bin_of_length",
]

_TOKEN_RE = re.compile(r"[A-Za-z0-9_']+|\n|[^\sA-Za-z0-9_']")
_WORD_CHUNK = 4

# Upper edges of the Figure 1 histogram bins (tokens of human proofs).
LENGTH_BINS = (16, 32, 64, 128, 256, 512)


def tokenize(text: str) -> List[str]:
    """Split ``text`` into approximate BPE tokens."""
    out: List[str] = []
    for piece in _TOKEN_RE.findall(text):
        if len(piece) <= _WORD_CHUNK or not piece[0].isalpha():
            out.append(piece)
            continue
        # Split long identifiers at underscores first, then by length.
        for part in piece.split("_"):
            if not part:
                out.append("_")
                continue
            for i in range(0, len(part), _WORD_CHUNK):
                out.append(part[i : i + _WORD_CHUNK])
    return out


# Line -> token count.  Values are pure functions of their keys, so
# concurrent readers/writers (pipelined search threads) can at worst
# recompute an entry; clearing when full bounds the memory.
_LINE_TOKENS: Dict[str, int] = {}
_LINE_MEMO_MAX = 1 << 14


def line_token_counts(lines: Sequence[str]) -> List[int]:
    """The token count of each of ``lines`` (memoized per line)."""
    memo = _LINE_TOKENS
    out: List[int] = []
    for line in lines:
        n = memo.get(line)
        if n is None:
            n = len(tokenize(line))
            if len(memo) >= _LINE_MEMO_MAX:
                memo.clear()
            memo[line] = n
        out.append(n)
    return out


def count_tokens(text: str) -> int:
    """The approximate token length of ``text``.

    Equal to ``len(tokenize(text))``, summed line by line.
    """
    return sum(line_token_counts(text.splitlines(keepends=True)))


def bin_of_length(tokens: int) -> int:
    """Histogram bin index for a proof of ``tokens`` tokens.

    Bin ``i`` covers lengths up to ``LENGTH_BINS[i]``; the final bin
    (index ``len(LENGTH_BINS)``) is ``> 512``.
    """
    for i, edge in enumerate(LENGTH_BINS):
        if tokens <= edge:
            return i
    return len(LENGTH_BINS)
