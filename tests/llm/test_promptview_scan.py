"""The prompt reader's linear context parse equals the regex one.

``_hinted_proofs`` finds hinted proofs with ``str.find`` steps instead
of ``_PROOF_RE.finditer``, and ``_parse_context`` builds its lemma views
from a per-statement memo.  These tests pin both against the original
code, kept here as the reference: the scan on generated texts and on
every corpus context a sweep can show (full and truncated, hinted and
vanilla), and the parsed views field by field.

Runs in tier-1 with a fixed seed (``derandomize=True``).
"""

from __future__ import annotations

import re
import sys
import threading
from typing import Dict

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.corpus.splits import make_splits
from repro.kernel.goals import initial_state
from repro.llm import promptview
from repro.llm.profiles import PROFILES
from repro.llm.promptview import (
    LemmaView,
    _binder_names,
    _conclusion_of,
    _head_of,
    _hinted_proofs,
    _parse_context,
)
from repro.prompting import THEOREM_HEADER, PromptBuilder

SETTINGS = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_PROOF_RE = re.compile(
    r"Lemma\s+(\w+)\s*:.*?\.\nProof\.\n(.*?)\nQed\.",
    re.DOTALL,
)
_LEMMA_RE = re.compile(
    r"^(?:Lemma|Theorem|Axiom)\s+(\w+)\s*:\s*(.*?)\.\s*$",
    re.MULTILINE | re.DOTALL,
)
_RULE_RE = re.compile(r"^\s*\|\s*(\w+)\s*:\s*(.+?)$", re.MULTILINE)

_FRAGMENTS = [
    "Lemma",
    "Lemmas",
    " ",
    "\t",
    "\n",
    "foo",
    "x'",
    ":",
    ".",
    ".\nProof.\n",
    "\nQed.",
    "Proof. (* ... *) Qed.",
    "(* ... *)",
]
texts = st.lists(st.sampled_from(_FRAGMENTS), max_size=60).map("".join)


def _reference_proofs(text: str):
    return [(m.group(1), m.group(2)) for m in _PROOF_RE.finditer(text)]


def _reference_lemmas(context: str, proofs=None) -> Dict[str, LemmaView]:
    """The lemma views of the original, unmemoized ``_parse_context``.

    ``proofs`` is ``_reference_proofs(context)`` when already computed.
    """

    def view(name, statement):
        conclusion = _conclusion_of(statement)
        head, is_eq = _head_of(conclusion)
        return LemmaView(
            name, statement, conclusion, head, is_eq,
            binders=_binder_names(statement),
        )

    lemmas: Dict[str, LemmaView] = {}
    for match in _LEMMA_RE.finditer(context):
        name, statement = match.group(1), " ".join(match.group(2).split())
        if statement.endswith("Proof. (* ... *) Qed") or "Proof" in statement:
            statement = statement.split(".")[0]
        lemmas[name] = view(name, statement)
    if proofs is None:
        proofs = _reference_proofs(context)
    for name, body in proofs:
        body = body.strip()
        if name in lemmas and "(* ... *)" not in body:
            lemmas[name].proof = body
    for match in _RULE_RE.finditer(context):
        name, statement = match.group(1), " ".join(match.group(2).split())
        if name not in lemmas:
            lemmas[name] = view(name, statement)
    return lemmas


def _fresh_parse(context: str):
    promptview._CONTEXT_CACHE.clear()
    promptview._STATEMENT_FIELDS.clear()
    return _parse_context(context)


@SETTINGS
@given(texts)
def test_scan_matches_the_regex(text):
    assert _hinted_proofs(text) == _reference_proofs(text)


@pytest.mark.parametrize(
    "text",
    [
        "Lemma a : x.\nProof.\nQed.",  # empty body
        "Lemma a : x.\nProof.\n\nQed.",
        "LemmaLemma a : x.\nProof.\nb\nQed.",  # a header inside a word
        "Lemma aLemma : x.\nProof.\nb\nQed.",
        "Lemma a : x.\nProof.\nLemma b : y.\nProof.\nc\nQed.\nQed.",
        "Lemma a : x.\nProof.\nb\nQed.Lemma c : y.\nProof.\nd\nQed.",
        "Lemma a : x. Lemma b : y.\nProof.\nc\nQed.",  # b is swallowed
        "Lemma a : x.\nProof.\nb",  # no Qed after the opening
        "Lemma a é : x.\nProof.\nb\nQed.",
        "Lemma été : .\nProof.\nb\nQed.",
    ],
)
def test_scan_edge_cases(text):
    assert _hinted_proofs(text) == _reference_proofs(text)


@pytest.fixture(scope="module")
def corpus_contexts(project):
    """Every context a prompt shows for a ``test``/``test_large`` theorem.

    Hinted and vanilla, untruncated and cut at gpt-4o's window,
    gpt-4o-mini's window and a tiny one, taken from the built prompt the
    way ``parse_prompt`` takes it.
    """
    splits = make_splits(project)
    theorems = {t.name: t for t in splits.test + splits.test_large}
    windows = [
        None,
        PROFILES["gpt-4o"].context_window,
        PROFILES["gpt-4o-mini"].context_window,
        300,
    ]
    contexts = set()
    for theorem in theorems.values():
        state = initial_state(project.env_for(theorem), theorem.statement)
        for hint_names in (None, splits.hint_names):
            for window in windows:
                prompt = PromptBuilder(
                    project, theorem, hint_names=hint_names, window_tokens=window
                ).build(state, ["intros"])
                cut = prompt.rfind(THEOREM_HEADER)
                contexts.add(prompt[: cut if cut >= 0 else len(prompt)])
    return [(c, _reference_proofs(c)) for c in sorted(contexts)]


def test_scan_matches_the_regex_on_the_corpus(corpus_contexts):
    assert len(corpus_contexts) > 500
    for context, expected in corpus_contexts:
        assert _hinted_proofs(context) == expected
    assert sum(bool(expected) for _, expected in corpus_contexts) > 100


def test_parsed_views_equal_the_reference(corpus_contexts):
    for context, proofs in corpus_contexts:
        lemmas, *_ = _fresh_parse(context)
        assert lemmas == _reference_lemmas(context, proofs)
        # A second parse of the same statements is served from the memo.
        promptview._CONTEXT_CACHE.clear()
        assert _parse_context(context)[0] == lemmas


def test_a_proof_set_in_one_context_stays_there():
    statement = "forall n, n + 0 = n"
    hinted = f"Lemma plus_0_r : {statement}.\nProof.\n  auto.\nQed.\n"
    stripped = f"Lemma plus_0_r : {statement}.\nProof. (* ... *) Qed.\n"
    first = _fresh_parse(hinted)[0]["plus_0_r"]
    second = _parse_context(stripped)[0]["plus_0_r"]
    assert first is not second
    assert first.proof == "auto."
    assert second.proof is None
    second.proof = "planted."
    assert first.proof == "auto."
    promptview._CONTEXT_CACHE.clear()
    assert _parse_context(hinted)[0]["plus_0_r"].proof == "auto."
    assert _parse_context(stripped)[0]["plus_0_r"].proof is None
    # The memo holds only immutable fields.
    for fields in promptview._STATEMENT_FIELDS.values():
        assert isinstance(fields, tuple)
        assert isinstance(fields[3], frozenset)


def test_memos_under_racing_threads(monkeypatch, corpus_contexts):
    # A tiny bound plus a thread clearing both memos makes every parse
    # race a clear.
    monkeypatch.setattr(promptview, "_STATEMENT_MEMO_MAX", 8)
    monkeypatch.setattr(promptview, "_CONTEXT_CACHE", {})
    monkeypatch.setattr(promptview, "_STATEMENT_FIELDS", {})
    hinted = [(c, proofs) for c, proofs in corpus_contexts if proofs][:6]
    contexts = [context for context, _ in hinted]
    expected = [_reference_lemmas(c, proofs) for c, proofs in hinted]
    wrong = []
    done = threading.Event()

    def parse_repeatedly(offset):
        for round_ in range(30):
            i = (offset + round_) % len(contexts)
            if _parse_context(contexts[i])[0] != expected[i]:
                wrong.append(i)

    def clear_repeatedly():
        while not done.is_set():
            promptview._CONTEXT_CACHE.clear()
            promptview._STATEMENT_FIELDS.clear()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    clearer = threading.Thread(target=clear_repeatedly)
    try:
        threads = [
            threading.Thread(target=parse_repeatedly, args=(k,))
            for k in range(4)
        ]
        clearer.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        done.set()
        clearer.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(promptview._STATEMENT_FIELDS) <= 8 + len(threads)
