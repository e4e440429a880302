"""One retry discipline, shared by every layer that talks to something
that can fail.

Model endpoints (:class:`~repro.llm.resilient.ResilientGenerator`),
worker processes (:class:`~repro.service.supervisor.Supervisor`) and
the HTTP transport (:class:`~repro.service.client.ProverClient`) all
retry with the same three pieces:

* :func:`stable_seed` / :func:`stable_jitter` — the one seeded hash.
  A digest of the identifying parts stands in for an RNG, so every
  retry gets a different but perfectly reproducible jitter and chaos
  runs stay bit-replayable.  Simulated models, pass@k salts and fault
  plans draw from it too.
* :func:`backoff` — the one exponential-backoff rule: ``base * 2**n``,
  capped, raised to an optional floor, stretched by seeded jitter.
* :class:`CircuitBreaker` — the one consecutive-failure breaker.  The
  ``threshold``-th failure in a row opens it for ``cooldown`` seconds.
  Only a success resets the count, so a failed probe after the
  cooldown (half-open) reopens it at once.  The breaker takes no lock:
  its owner already holds one around its own state.

Layering: like :mod:`repro.deadline`, this module depends on nothing
in the package, so every layer can import it.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional

__all__ = ["CircuitBreaker", "backoff", "stable_jitter", "stable_seed"]


def stable_seed(*parts: object) -> int:
    """A 64-bit seed from a hash of the parts (joined by ``\\x1f``)."""
    digest = hashlib.sha256(
        "\x1f".join(str(p) for p in parts).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def stable_jitter(*parts: object) -> float:
    """A deterministic stand-in for ``random.random()`` in [0, 1)."""
    return stable_seed(*parts) / 2**64


def backoff(
    retry: int,
    *key: object,
    base: float,
    cap: float,
    jitter: float,
    floor: float = 0.0,
) -> float:
    """Seconds to wait before retry number ``retry`` (0-based).

    ``base * 2**retry``, capped at ``cap``, raised to ``floor``, then
    lengthened by up to ``jitter`` of itself, seeded by ``key``.
    """
    delay = max(min(cap, base * 2**retry), floor)
    return delay * (1.0 + jitter * stable_jitter(*key))


class CircuitBreaker:
    """Consecutive-failure breaker with an ``open_until`` deadline."""

    def __init__(
        self, threshold: int, cooldown: float, clock: Callable[[], float]
    ) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self.failures = 0  # consecutive, reset only by a success
        self.open_until: Optional[float] = None

    def is_open(self) -> bool:
        """True until the cooldown after the latest trip is over."""
        until = self.open_until  # one read: a success may clear it
        return until is not None and self.clock() < until

    def record_failure(self) -> bool:
        """Count a failure; True when it (re)opens the breaker."""
        self.failures += 1
        if self.failures < self.threshold:
            return False
        self.open_until = self.clock() + self.cooldown
        return True

    def record_success(self) -> None:
        self.failures = 0
        self.open_until = None
