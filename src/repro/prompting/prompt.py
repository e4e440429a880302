"""Prompt assembly for tactic prediction.

Layout (top to bottom)::

    <project context: declarations, hints per setting>
    (* Current theorem *)
    Lemma <name> : <statement>.
    Proof.
      <tactics executed so far>
    (* Current proof state *)
    <goal display>
    (* Next tactic? *)

The goal display and the step history sit at the very end so that
keep-the-end truncation (:mod:`repro.prompting.truncation`) always
preserves them — the model must never lose the active goals.

Two optional sections extend the layout without disturbing it:

* ``feedback`` — a repair round's failure block (the failing tactic
  and the checker's rejection message, see
  :mod:`repro.repair.prompts`), inserted just above the goal display
  so truncation keeps it;
* ``attempt_salt`` — a pass@k sampling token appended after the
  footer.  Generation is a pure function of (model, prompt), so the
  salt is *the* channel by which attempt i draws a different sample
  than attempt j.

Both default to absent, leaving prompts byte-identical to the
single-shot layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.corpus.loader import Project
from repro.corpus.model import Theorem
from repro.kernel.goals import ProofState
from repro.prompting.context import context_for, reduced_context_for
from repro.prompting.truncation import count_lines, truncate_to_window

__all__ = ["PromptBuilder", "GOAL_HEADER", "THEOREM_HEADER"]

THEOREM_HEADER = "(* Current theorem *)"
GOAL_HEADER = "(* Current proof state *)"
_FOOTER = "(* Next tactic? *)"


@dataclass
class PromptBuilder:
    """Builds per-step prompts for one theorem under one setting."""

    project: Project
    theorem: Theorem
    hint_names: Optional[Set[str]] = None  # None = vanilla setting
    window_tokens: Optional[int] = None
    reduced_dependencies: Optional[Sequence[str]] = None
    feedback: Optional[str] = None  # repair-round failure block
    attempt_salt: str = ""  # pass@k sampling token ("" = base sample)

    def __post_init__(self) -> None:
        if self.reduced_dependencies is not None:
            self._context = reduced_context_for(
                self.project, self.theorem, self.reduced_dependencies
            )
        else:
            self._context = context_for(
                self.project, self.theorem, self.hint_names
            )
        # Constant for every prompt this builder makes: count it once so
        # build() tokenizes only what follows it.
        self._counted_context = count_lines(self._context + "\n")

    def build(self, state: ProofState, steps: Sequence[str]) -> str:
        """The prompt for predicting the next tactic at ``state``."""
        parts: List[str] = [self._context]
        parts.append("")
        parts.append(THEOREM_HEADER)
        parts.append(
            f"Lemma {self.theorem.name} : {self.theorem.statement_text}."
        )
        parts.append("Proof.")
        for step in steps:
            parts.append(f"  {step}.")
        if self.feedback:
            parts.append(self.feedback)
        parts.append(GOAL_HEADER)
        parts.append(state.render())
        parts.append(_FOOTER)
        if self.attempt_salt:
            parts.append(f"(* sample {self.attempt_salt} *)")
        prompt = "\n".join(parts)
        if self.window_tokens is not None:
            prompt = truncate_to_window(
                prompt, self.window_tokens, self._counted_context
            )
        return prompt
