"""Deterministic candidate ranking and noise.

Every generation is a pure function of (model name, prompt, k): the
RNG is seeded from a digest of those (:func:`repro.resilience.stable_seed`,
re-exported here), so whole experiments replay bit-identically — a
property the evaluation and the tests rely on.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

from repro.llm.heuristics import Proposal
from repro.llm.interface import Candidate
from repro.llm.profiles import ModelProfile
from repro.resilience import stable_seed

__all__ = ["stable_seed", "attempt_seed", "rank_and_sample", "corrupt"]


def attempt_seed(task_key: str, attempt: int) -> str:
    """The pass@k sampling salt for one attempt of a task.

    A stable hash of (the task's attempt-0 cache key, the attempt
    index), rendered as a short hex token that rides in the prompt
    (see :class:`repro.prompting.PromptBuilder`).  Generation stays a
    pure function of (model, prompt) — the salt simply makes attempt
    i's prompt (and therefore its sample) distinct from attempt j's,
    while remaining bit-reproducible across serial, thread, and
    process backends.
    """
    if attempt < 0:
        raise ValueError("attempt index must be >= 0")
    return f"{stable_seed(task_key, attempt):016x}"


_SUFFIX_SWAPS = [("_l", "_r"), ("_r", "_l"), ("_1", "_2"), ("_2", "_1")]


def corrupt(tactic: str, rng: random.Random) -> str:
    """A plausible-but-wrong variant of a real proposal."""
    words = tactic.split()
    choice = rng.random()
    if len(words) >= 2 and choice < 0.4:
        name = words[1]
        for old, new in _SUFFIX_SWAPS:
            if name.endswith(old):
                words[1] = name[: -len(old)] + new
                return " ".join(words)
        if len(name) > 3:
            words[1] = name[:-1]  # drop a character
            return " ".join(words)
    if len(words) >= 2 and choice < 0.7:
        # Wrong hypothesis/lemma name.
        words[1] = rng.choice(["H", "H0", "H1", "H2", "IHn", "IHl"])
        return " ".join(words)
    head_swap = {"apply": "rewrite", "rewrite": "apply", "intros": "intro"}
    if words and words[0] in head_swap:
        words[0] = head_swap[words[0]]
        return " ".join(words)
    return tactic + "; auto"


def rank_and_sample(
    proposals: List[Proposal],
    head_priors: Dict[str, float],
    profile: ModelProfile,
    k: int,
    rng: random.Random,
) -> List[Candidate]:
    """Noise, corrupt, rank, and emit log-probabilities.

    The score of a proposal is its weight, scaled by skill-dependent
    multiplicative noise, plus a prior bonus when its head matches the
    hint proofs' house style.  Sampling is top-k over the softmax of
    scores at the profile's temperature.
    """
    if not proposals:
        return []
    scored: List[tuple] = []
    for proposal in proposals:
        noise_span = (1.0 - profile.skill) * 1.8
        noise = rng.uniform(-noise_span, noise_span)
        head = proposal.tactic.split()[0] if proposal.tactic.split() else ""
        prior = 1.5 * head_priors.get(head, 0.0)
        score = proposal.weight * (1.0 + noise) + prior
        tactic = proposal.tactic
        if rng.random() < profile.hallucination_rate:
            tactic = corrupt(tactic, rng)
        scored.append((score, tactic))

    # Deduplicate after corruption, keeping the best score per tactic.
    best: Dict[str, float] = {}
    for score, tactic in scored:
        if tactic not in best or score > best[tactic]:
            best[tactic] = score
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))[:k]

    temperature = max(profile.temperature, 1e-3)
    logits = [score / temperature for _, score in ranked]
    peak = max(logits)
    total = sum(math.exp(l - peak) for l in logits)
    log_total = peak + math.log(total)
    return [
        Candidate(tactic=tactic, log_prob=logit - log_total)
        for (tactic, _), logit in zip(ranked, logits)
    ]
