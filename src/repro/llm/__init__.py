"""Simulated LLM tactic generators (substitute for GPT-4o/Gemini APIs).

See DESIGN.md §2 for the substitution argument.  Public surface:
:func:`get_model`, :data:`PROFILES`, :class:`Candidate`, and the
o1-style :class:`WholeProofModel`.
"""

from repro.llm.interface import Candidate, TacticGenerator
from repro.llm.models import SimulatedModel, available_models, get_model
from repro.llm.profiles import PROFILES, ModelProfile, WINDOW_SCALE
from repro.llm.resilient import ResilientGenerator, RetryPolicy
from repro.llm.wholeproof import WholeProofModel

__all__ = [
    "Candidate",
    "TacticGenerator",
    "SimulatedModel",
    "available_models",
    "get_model",
    "PROFILES",
    "ModelProfile",
    "WINDOW_SCALE",
    "ResilientGenerator",
    "RetryPolicy",
    "WholeProofModel",
]
