"""The prompt reader's context parse: memo keying and a pinned bug."""

from __future__ import annotations

import pytest

from repro.llm import promptview

_CONTEXT = """(* File: ArithUtils.v *)
Lemma plus_0_r : forall n, n + 0 = n.
Proof. (* ... *) Qed.

Lemma plus_n_Sm : forall n m, S (n + m) = n + S m.
Proof.
  induction n; simpl; intros.
- reflexivity.
- rewrite IHn. reflexivity.
Qed.
"""


def test_a_colliding_hash_does_not_share_a_parse(monkeypatch):
    monkeypatch.setattr(promptview, "_CONTEXT_CACHE", {})
    planted = ({"planted": None}, [], [], set())
    promptview._CONTEXT_CACHE[hash(_CONTEXT)] = planted
    lemmas = promptview._parse_context(_CONTEXT)[0]
    assert set(lemmas) == {"plus_0_r", "plus_n_Sm"}
    # The memo serves the same parse to the same text.
    assert promptview._parse_context(_CONTEXT)[0] is lemmas


@pytest.mark.xfail(
    strict=True,
    reason="_PROOF_RE's lazy .*? runs from a stripped lemma on to the "
    "next hinted lemma's Proof., attaching that proof to the wrong name",
)
def test_a_hinted_proof_stays_with_its_lemma(monkeypatch):
    monkeypatch.setattr(promptview, "_CONTEXT_CACHE", {})
    lemmas = promptview._parse_context(_CONTEXT)[0]
    assert lemmas["plus_0_r"].proof is None
    assert lemmas["plus_n_Sm"].proof.startswith("induction n")
