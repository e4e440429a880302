"""Context-window truncation.

When a prompt exceeds the model's context window, the paper keeps
"the portions closer to the next tactic" — i.e. the *end* of the
prompt (the current file's recent declarations and the active goal)
survives; the distant beginning is dropped.

A prompt builder's context prefix is constant across the up to 128
queries of a search, so it is split and counted once
(:func:`count_lines`) and handed to :func:`truncate_to_window` as the
prompt's ``head``: each call then tokenizes only the text after it and
finds the cut by bisecting the head's precomputed sums.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, NamedTuple, Sequence

from repro.corpus.tokenizer import count_tokens, line_token_counts

__all__ = ["CountedLines", "count_lines", "truncate_to_window"]

_MARKER = "(* ...context truncated... *)\n"


class CountedLines(NamedTuple):
    """``text`` split into ``lines`` (line breaks kept), with ``sums[j]``
    the token count of its last ``j`` lines (``sums[0] == 0``)."""

    text: str
    lines: List[str]
    sums: List[int]


def count_lines(text: str) -> CountedLines:
    """Split and count ``text`` once, for repeated truncation."""
    lines = text.splitlines(keepends=True)
    sums = [0]
    for n in reversed(line_token_counts(lines)):
        sums.append(sums[-1] + n)
    return CountedLines(text, lines, sums)


_NO_HEAD = count_lines("")


def _kept_lines(sums: Sequence[int], budget: int) -> int:
    """How many trailing lines keep-the-end truncation keeps.

    Lines are taken from the end while they fit in ``budget``; taking
    stops as soon as the budget is met exactly, so zero-token lines
    above the line that fills it are dropped.
    """
    return min(bisect_right(sums, budget) - 1, bisect_left(sums, budget))


def truncate_to_window(
    prompt: str, window_tokens: int, head: CountedLines = _NO_HEAD
) -> str:
    """Keep the trailing ``window_tokens`` tokens of ``prompt``.

    Truncation happens at line granularity so declarations are not cut
    mid-identifier; the kept suffix is prefixed with a marker, as a
    real serving stack would signal an elided prefix.  At least the
    last line is always kept.

    ``head``, when given, is :func:`count_lines` of a prefix of
    ``prompt`` made of whole lines of it; only the rest of ``prompt``
    (which must be non-empty) is tokenized here.
    """
    tail = prompt[len(head.text) :]
    budget = window_tokens - count_tokens(tail)
    if head.sums[-1] <= budget:
        return prompt
    if budget > 0:
        # The whole tail fits: the cut falls inside the head.
        start = len(head.lines) - _kept_lines(head.sums, budget)
        return _MARKER + "".join(head.lines[start:]) + tail
    rest = count_lines(tail)
    start = len(rest.lines) - max(1, _kept_lines(rest.sums, window_tokens))
    return _MARKER + "".join(rest.lines[start:])
