"""Shared helpers for tactic executors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.errors import TacticError, TypeError_, UnificationError
from repro.kernel.env import Environment
from repro.kernel.goals import Goal, HypDecl, ProofState, VarDecl
from repro.kernel.reduction import make_whnf, simpl
from repro.kernel.subst import alpha_eq, subst_var, subst_vars
from repro.kernel.terms import (
    Forall,
    Impl,
    Meta,
    Term,
    Var,
    free_vars,
    metas_of,
)
from repro.kernel.typecheck import elaborate_term, infer_type
from repro.kernel.types import Type
from repro.kernel.unify import MetaStore, unify

__all__ = [
    "statement_of_name",
    "Stripped",
    "strip_statement",
    "instantiate_statement",
    "elaborate_in_goal",
    "infer_in_goal",
    "unsolved_metas",
    "apply_statement",
    "hyps_of",
    "fresh_hyp_names",
]


def statement_of_name(
    env: Environment, goal: Goal, name: str
) -> Tuple[str, Term]:
    """Resolve ``name`` to a hypothesis or global lemma statement.

    Returns ``('hyp', prop)`` or ``('lemma', statement)``.  Hypotheses
    shadow lemmas, as in Coq.
    """
    decl = goal.lookup(name)
    if isinstance(decl, HypDecl):
        return "hyp", decl.prop
    if isinstance(decl, VarDecl):
        raise TacticError(f"{name} is a variable, not a proof")
    statement = env.statement_of(name)
    if statement is None:
        raise TacticError(f"unknown lemma or hypothesis: {name}")
    return "lemma", statement


@dataclass(frozen=True)
class Stripped:
    """A statement with its leading ``forall``/``->`` prefix peeled off.

    ``steps`` lists the prefix in order: a binder name (``str``) for each
    ``forall`` and a premise term for each ``->``.  Nothing is
    substituted yet, so a premise or the conclusion still mentions the
    binders as variables; ``binders`` is the set of their names.
    """

    steps: Tuple[Union[str, Term], ...]
    binders: FrozenSet[str]
    conclusion: Term


def strip_statement(statement: Term) -> Stripped:
    """The :class:`Stripped` form of ``statement``, cached on the node.

    Quantifiers *behind* premises are stripped too (``forall x, P x ->
    forall y, Q``), matching how ``apply`` digs for the final
    conclusion.
    """
    cached = statement.__dict__.get("_stripped")
    if cached is None:
        steps: List[Union[str, Term]] = []
        current = statement
        while True:
            if isinstance(current, Forall):
                steps.append(current.var)
                current = current.body
            elif isinstance(current, Impl):
                steps.append(current.lhs)
                current = current.rhs
            else:
                break
        binders = frozenset(s for s in steps if isinstance(s, str))
        cached = Stripped(tuple(steps), binders, current)
        object.__setattr__(statement, "_stripped", cached)
    return cached


def instantiate_statement(
    statement: Term, store: MetaStore
) -> Tuple[List[Meta], Tuple[Term, ...], Term]:
    """Strip leading quantifiers/premises off a statement.

    Universal binders become fresh metavariables, allocated in binder
    order; implication premises are collected.  Each premise and the
    conclusion take one substitution pass over the binders in scope at
    that point; of two binders with the same name, the later one
    shadows the earlier, as it does in the statement.

    Returns ``(metas, premises, conclusion)``.
    """
    stripped = strip_statement(statement)
    metas: List[Meta] = []
    premises: List[Term] = []
    mapping: Dict[str, Term] = {}
    for step in stripped.steps:
        if isinstance(step, str):
            meta = store.fresh(step)
            metas.append(meta)
            mapping[step] = meta
        else:
            premises.append(subst_vars(step, mapping))
    return metas, tuple(premises), subst_vars(stripped.conclusion, mapping)


def elaborate_in_goal(
    env: Environment, goal: Goal, raw: Term, expected: Optional[Type] = None
) -> Term:
    """Elaborate a parsed tactic argument in the goal's context."""
    try:
        return elaborate_term(env, raw, goal.var_types(), expected)
    except TypeError_ as exc:
        raise TacticError(str(exc)) from exc


def infer_in_goal(env: Environment, goal: Goal, raw: Term) -> Tuple[Term, Type]:
    try:
        return infer_type(env, raw, goal.var_types())
    except TypeError_ as exc:
        raise TacticError(str(exc)) from exc


def unsolved_metas(store: MetaStore, *terms: Term) -> List[int]:
    """Uids of metas in ``terms`` still unsolved in ``store``."""
    out: List[int] = []
    for term in terms:
        for uid in sorted(metas_of(store.resolve(term))):
            if uid not in out:
                out.append(uid)
    return out


def apply_statement(
    env: Environment,
    state: ProofState,
    statement: Term,
    allow_metas: bool,
    label: str,
) -> ProofState:
    """Core of ``apply``/``eapply``: unify conclusion, emit premises.

    Products are stripped on demand: first the statement's syntactic
    ``forall``/``->`` prefix; if the remaining conclusion does not
    unify with the goal, it is weak-head normalized (e.g. unfolding
    ``incl``) to expose further products, and the attempt repeats —
    mirroring how Coq's ``apply`` digs through definitions.

    With ``allow_metas=False`` any unsolved metavariable is rejected
    (Coq: "cannot infer the instantiation").
    """
    goal = state.focused()
    store = state.store
    whnf = make_whnf(env)
    goal_concl = state.resolve(goal.concl)

    # Minimal-strip-first: try to unify the statement as-is, and only
    # peel one product (or unfold one definition layer) per failure.
    # This keeps e.g. ``apply in_nil`` working on a ``~ ...`` goal (the
    # negation's premise is part of the conclusion, not an argument).
    metas: List[Meta] = []
    premises: List[Term] = []
    conclusion = statement
    last_error: Exception = TacticError(f"{label}: does not apply")
    for _ in range(64):
        snap = store.snapshot()
        try:
            unify(store.resolve(conclusion), goal_concl, store, whnf)
            break
        except UnificationError as exc:
            store.restore(snap)
            last_error = exc
        current = store.resolve(conclusion)
        if isinstance(current, Forall):
            meta = store.fresh(current.var)
            metas.append(meta)
            conclusion = subst_var(current.body, current.var, meta)
        elif isinstance(current, Impl):
            premises.append(current.lhs)
            conclusion = current.rhs
        else:
            reduced = whnf(current)
            if reduced == current:
                raise TacticError(f"{label}: {last_error}")
            conclusion = reduced
    else:
        raise TacticError(f"{label}: {last_error}")

    new_goals = []
    for premise in premises:
        resolved = store.resolve(premise)
        if not allow_metas and metas_of(resolved):
            raise TacticError(
                f"{label}: cannot infer instantiation (use eapply)"
            )
        new_goals.append(goal.with_concl(resolved))
    if not allow_metas:
        for meta in metas:
            if not store.is_solved(meta.uid) and not any(
                meta.uid in metas_of(store.resolve(p)) for p in premises
            ):
                raise TacticError(
                    f"{label}: cannot infer instantiation (use eapply)"
                )
    return state.replace_focused(new_goals)


def hyps_of(goal: Goal) -> List[HypDecl]:
    return [d for d in goal.decls if isinstance(d, HypDecl)]


def fresh_hyp_names(goal: Goal, count: int, base: str = "H") -> List[str]:
    """``count`` fresh hypothesis names for ``goal``."""
    taken = set(goal.names())
    out: List[str] = []
    for _ in range(count):
        name = base
        if name in taken:
            index = 0
            while f"{base}{index}" in taken:
                index += 1
            name = f"{base}{index}"
        taken.add(name)
        out.append(name)
    return out
