"""Token-usage accounting for simulated models.

The paper sampled only 10 % of theorems for the large models "due to
budget constraints"; the usage meter makes the simulated costs visible
so the evaluation can report the same kind of accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.tokenizer import count_tokens

__all__ = ["UsageMeter"]


@dataclass
class UsageMeter:
    queries: int = 0
    prompt_tokens: int = 0
    output_tokens: int = 0

    def record_query(self, prompt: str, k: int) -> None:
        # The prompt's lines were counted when it was built, so this is
        # mostly line-memo lookups (see repro.corpus.tokenizer).
        self.queries += 1
        self.prompt_tokens += count_tokens(prompt)

    def record_output(self, text: str) -> None:
        self.output_tokens += count_tokens(text)

    def reset(self) -> None:
        self.queries = 0
        self.prompt_tokens = 0
        self.output_tokens = 0

    def snapshot(self) -> dict:
        return {
            "queries": self.queries,
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
        }
