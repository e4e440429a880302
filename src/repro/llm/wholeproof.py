"""Whole-proof generation without log-probabilities (§4.3's probe).

The paper tried o1-class reasoning models, which expose no
log-probabilities and therefore cannot drive best-first search; they
generate *entire proofs* in one shot and, lacking interaction with the
proof assistant, routinely misjudge intermediate progress (e.g.
assuming ``auto`` closes a subgoal it does not).

The simulated counterpart composes a plausible whole script from the
goal shape — the same proposals a tactic model would emit, strung
together blindly — and exposes ``provides_log_probs = False`` so the
search engine refuses it, as the paper's system had to.
"""

from __future__ import annotations

import random
from typing import List

from repro.llm.heuristics import propose
from repro.llm.promptview import parse_prompt
from repro.llm.retrieval import hint_proposals
from repro.resilience import stable_seed

__all__ = ["WholeProofModel"]


class WholeProofModel:
    """An o1-style model: one whole proof per query, no log-probs."""

    provides_log_probs = False
    context_window = 1_000_000

    def __init__(self, name: str = "reasoning-model") -> None:
        self.name = name

    def generate(self, prompt: str, k: int) -> List[str]:
        """``k`` complete proof-script attempts."""
        view = parse_prompt(prompt)
        rng = random.Random(stable_seed(self.name, prompt))
        proposals = propose(view) + hint_proposals(view, 1.0)
        proposals.sort(key=lambda p: -p.weight)
        attempts: List[str] = []
        for attempt in range(k):
            steps: List[str] = []
            opener_pool = [p.tactic for p in proposals[:6]] or ["intros"]
            steps.append(rng.choice(opener_pool))
            # Blind continuation: a reasoning model plans without state
            # feedback, so it guesses the middle-game and then asserts
            # that automation will finish — the §4.3 failure mode.
            middle_pool = [
                "simpl",
                "intros",
                "induction l",
                "induction n",
                "split",
                "rewrite IHl",
                "rewrite IHn",
                "constructor",
                "f_equal",
            ]
            for _ in range(rng.randrange(1, 4)):
                steps.append(rng.choice(middle_pool))
            steps.append(rng.choice(["auto", "eauto", "assumption", "lia"]))
            attempts.append(". ".join(steps) + ".")
        return attempts
