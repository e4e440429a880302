"""The counted prompt path equals the plain one, byte for byte.

``count_tokens`` sums memoized per-line counts, and the prompt builder
counts its constant context once and truncates by bisecting those
counts.  These tests pin both against the straightforward versions:
``len(tokenize(text))`` and the original keep-the-end loop, kept here
as the reference.

Runs in tier-1 with a fixed seed (``derandomize=True``).
"""

from __future__ import annotations

import sys
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.corpus import tokenizer
from repro.corpus.splits import make_splits
from repro.corpus.tokenizer import count_tokens, tokenize
from repro.kernel.goals import initial_state
from repro.llm.profiles import PROFILES
from repro.prompting import (
    GOAL_HEADER,
    THEOREM_HEADER,
    PromptBuilder,
    context_for,
)
from repro.prompting.truncation import count_lines, truncate_to_window

SETTINGS = settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Every str.splitlines boundary, plus characters that tokenize
# differently (words, punctuation, plain whitespace).
_SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
_WORDS = ["a", "Z9", "_", "'", ".", "(*", "tree_names_x"]
_ATOMS = _SEPARATORS + [" ", "\t", "\xa0"] + _WORDS

texts = st.lists(st.sampled_from(_ATOMS), max_size=40).map("".join)
# Lines ending in a break.  "\n" is itself a token, so only lines that
# are blank and end in another break count zero.
lines = st.lists(
    st.builds(
        str.__add__,
        st.sampled_from(["", " ", "x", "auto", "a b", "f (x, y)", "long_ident"]),
        st.sampled_from(["\n", "\r", "\r\n", "\x0c"]),
    ),
    min_size=1,
    max_size=30,
).map(lambda drawn: "".join(drawn).splitlines(keepends=True))  # "\r"+"\n" merge


def _reference_count(text: str) -> int:
    return len(tokenize(text))


def _reference_truncate(prompt: str, window_tokens: int) -> str:
    """The original keep-the-end loop, line by line from the end."""
    if _reference_count(prompt) <= window_tokens:
        return prompt
    kept: list = []
    total = 0
    for line in reversed(prompt.splitlines(keepends=True)):
        line_tokens = _reference_count(line)
        if total + line_tokens > window_tokens and kept:
            break
        kept.append(line)
        total += line_tokens
        if total >= window_tokens:
            break
    return "(* ...context truncated... *)\n" + "".join(reversed(kept))


@SETTINGS
@given(texts)
def test_count_tokens_is_the_token_list_length(text):
    assert count_tokens(text) == _reference_count(text)
    # A second count is served from the line memo.
    assert count_tokens(text) == _reference_count(text)


@SETTINGS
@given(lines, st.integers(0, 60), st.data())
def test_truncation_matches_the_reference_loop(prompt_lines, window, data):
    prompt = "".join(prompt_lines)
    expected = _reference_truncate(prompt, window)
    assert truncate_to_window(prompt, window) == expected
    # Split into a counted head and a non-empty rest, as the builder does.
    split = data.draw(st.integers(0, len(prompt_lines) - 1))
    head = count_lines("".join(prompt_lines[:split]))
    assert truncate_to_window(prompt, window, head) == expected


@SETTINGS
@given(lines, st.data())
def test_windows_on_a_line_boundary(prompt_lines, data):
    # Every window equal to the token count of some suffix of lines.
    prompt = "".join(prompt_lines)
    counts = [_reference_count(line) for line in prompt_lines]
    for start in range(len(prompt_lines)):
        window = sum(counts[start:])
        split = data.draw(st.integers(0, len(prompt_lines) - 1))
        head = count_lines("".join(prompt_lines[:split]))
        expected = _reference_truncate(prompt, window)
        assert truncate_to_window(prompt, window, head) == expected


def test_line_memo_under_racing_threads(monkeypatch):
    # A tiny bound makes threads clear the memo under each other.
    monkeypatch.setattr(tokenizer, "_LINE_MEMO_MAX", 8)
    texts = [
        "\n".join(f"lemma_{i}_{j} : x + {j} = y." for j in range(12))
        for i in range(6)
    ]
    expected = [_reference_count(text) for text in texts]
    wrong = []

    def count_repeatedly(offset):
        for round_ in range(150):
            i = (offset + round_) % len(texts)
            if count_tokens(texts[i]) != expected[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=count_repeatedly, args=(k,))
            for k in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(tokenizer._LINE_TOKENS) <= 8 + len(threads)


def test_fitting_prompt_is_returned_unchanged():
    prompt = "Lemma x : True.\nProof.\n"
    assert truncate_to_window(prompt, 100) is prompt


_FEEDBACK = (
    "(* Previous attempt failed *)\n"
    "(* The checker rejected: apply le_trans *)"
)


@pytest.fixture(scope="module")
def large_slice(project):
    return make_splits(project)


@pytest.mark.parametrize("hinted", [False, True])
def test_builder_equals_truncating_the_joined_prompt(
    project, large_slice, hinted
):
    windows = [PROFILES["gpt-4o"].context_window, 300, 12]
    variants = [(None, ""), (_FEEDBACK, "3")]
    hint_names = large_slice.hint_names if hinted else None
    for theorem in large_slice.test_large:
        state = initial_state(project.env_for(theorem), theorem.statement)
        steps = ["intros", "simpl"]
        context = context_for(project, theorem, hint_names)
        for feedback, salt in variants:
            full = PromptBuilder(
                project,
                theorem,
                hint_names=hint_names,
                feedback=feedback,
                attempt_salt=salt,
            ).build(state, steps)
            parts = [context, "", THEOREM_HEADER]
            parts.append(f"Lemma {theorem.name} : {theorem.statement_text}.")
            parts += ["Proof.", "  intros.", "  simpl."]
            if feedback:
                parts.append(feedback)
            parts += [GOAL_HEADER, state.render(), "(* Next tactic? *)"]
            if salt:
                parts.append(f"(* sample {salt} *)")
            joined = "\n".join(parts)
            assert full == joined
            for window in windows:
                builder = PromptBuilder(
                    project,
                    theorem,
                    hint_names=hint_names,
                    window_tokens=window,
                    feedback=feedback,
                    attempt_salt=salt,
                )
                expected = truncate_to_window(joined, window)
                assert builder.build(state, steps) == expected
                assert expected == _reference_truncate(joined, window)
