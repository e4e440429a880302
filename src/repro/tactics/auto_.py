"""``auto`` / ``eauto`` / ``trivial`` / ``intuition``.

``auto`` is depth-limited backward chaining in the Coq style: it
introduces products, closes goals by assumption/reflexivity, and
applies local hypotheses plus the environment's hint database
(``Hint Resolve`` lemmas and ``Hint Constructors`` intro rules).
``auto`` never fails — if it cannot close the focused goal it leaves
the state untouched (in the proof search this shows up as a duplicate
state, i.e. an invalid tactic, exactly as a useless ``auto`` behaves
in the paper's system).

``eauto`` additionally allows candidate applications to defer
instantiation through metavariables, solved across sibling premises
Prolog-style with backtracking.

``intuition`` decomposes propositional structure (conjunction,
disjunction, ``False``/``True``, implications by modus ponens) and
runs ``auto`` at the leaves, leaving residual subgoals like Coq's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TacticError, UnificationError
from repro.kernel import cache as _cache
from repro.kernel.env import Environment
from repro.kernel.goals import Goal, HypDecl, ProofState, VarDecl
from repro.kernel.reduction import make_whnf, rigid_head
from repro.kernel.subst import alpha_eq, fresh_name, subst_var
from repro.kernel.terms import (
    And,
    Eq,
    Exists,
    FalseP,
    Forall,
    Impl,
    Or,
    Term,
    TrueP,
    Var,
    is_neg,
    meta_set,
    metas_of,
    neg_body,
)
from repro.kernel.unify import MetaStore, unify
from repro.tactics.ast import Auto, Intuition, Trivial
from repro.tactics.base import check_deadline, executor
from repro.tactics.common import instantiate_statement, strip_statement

_DEFAULT_DEPTH = 5


def _conclusion_head(env: Environment, statement: Term) -> Optional[object]:
    """The rigid head of ``statement``'s conclusion, or ``None``."""
    stripped = strip_statement(statement)
    return rigid_head(env, stripped.conclusion, stripped.binders)


class HintIndex:
    """An environment's auto hints, bucketed by conclusion head.

    ``candidates(head)`` keeps the declaration order of
    :meth:`Environment.auto_hints` and drops only the hints whose
    conclusion has a rigid head other than ``head``: those can never
    unify with a goal headed by ``head`` (see :func:`rigid_head`).
    """

    def __init__(self, env: Environment) -> None:
        self.state = env.hint_state()
        hints = env.auto_hints()
        self.names = tuple(name for name, _ in hints)
        self.statements = tuple(statement for _, statement in hints)
        heads = [_conclusion_head(env, s) for s in self.statements]
        self._flexible = tuple(
            s for s, head in zip(self.statements, heads) if head is None
        )
        self._by_head: Dict[object, Tuple[Term, ...]] = {}
        for head in heads:
            if head is not None and head not in self._by_head:
                self._by_head[head] = tuple(
                    s
                    for s, other in zip(self.statements, heads)
                    if other is None or other == head
                )

    def candidates(self, head: Optional[object]) -> Tuple[Term, ...]:
        if head is None:
            return self.statements
        return self._by_head.get(head, self._flexible)


def hint_index(env: Environment) -> HintIndex:
    """``env``'s hint index, rebuilt on first use after any change.

    Built lazily, so loading a project never pays for it; a new
    declaration bumps ``generation`` and a new hint lengthens a hint
    list, and either one changes :meth:`Environment.hint_state`.
    """
    index = env.hint_index
    if index is None or index.state != env.hint_state():
        index = HintIndex(env)
        env.hint_index = index
    return index


# Goals ``auto`` failed to close during this task, valued by the
# deepest depth that failed; see :meth:`_Prover._memo_key`.
_FAILED = _cache.BoundedCache("auto_failed", capacity=16_384)


class _Prover:
    def __init__(
        self,
        env: Environment,
        store: MetaStore,
        allow_metas: bool,
        extra_hints: Sequence[Tuple[str, Term]] = (),
    ) -> None:
        self.env = env
        self.store = store
        self.allow_metas = allow_metas
        self.whnf = make_whnf(env)
        self.index = hint_index(env)
        self.extra = [
            (statement, _conclusion_head(env, statement))
            for _, statement in extra_hints
        ]
        self.hint_names = (
            tuple(name for name, _ in extra_hints) + self.index.names
        )

    # ------------------------------------------------------------------

    def solve(self, goal: Goal, depth: int) -> bool:
        check_deadline()
        concl = self.store.resolve(goal.concl)
        if isinstance(concl, TrueP):
            return True
        if isinstance(concl, (Forall, Impl)):
            return self.solve(self._intro(goal, concl), depth)
        key = self._memo_key(goal, concl)
        if key is not None:
            failed = _FAILED.get(key)
            if failed is not None and failed >= depth:
                return False
        if self._solve(goal, concl, depth):
            return True
        if key is not None:
            _FAILED.put(key, depth)
        return False

    def _memo_key(self, goal: Goal, concl: Term) -> Optional[tuple]:
        """The failure-memo key of ``goal``, or ``None`` to bypass it.

        Only ``auto`` on a metavariable-free goal uses the memo.  There
        every premise it tries is metavariable-free too, so its verdict
        depends on the goal, the hints and the depth alone, and it can
        only improve with depth: a failure at depth ``d`` answers every
        query at ``d`` or below.  A failed :meth:`solve` also leaves the
        store as it found it.  ``eauto`` solves metavariables across
        premises without backtracking, so its verdicts are not monotone
        in depth and it never reads or writes the memo.
        """
        if self.allow_metas or not _cache.enabled() or meta_set(concl):
            return None
        for decl in goal.decls:
            if isinstance(decl, HypDecl) and meta_set(decl.prop):
                return None
        return (
            self.env,
            self.env.generation,
            self.hint_names,
            goal.decls,
            concl,
        )

    def _solve(self, goal: Goal, concl: Term, depth: int) -> bool:
        if self._by_assumption(goal, concl):
            return True
        if self._by_reflexivity(concl):
            return True
        if self._by_contradiction(goal):
            return True
        if depth <= 0:
            return False
        for statement in self._candidates(goal, concl):
            snapshot = self.store.snapshot()
            if self._try_apply(goal, statement, concl, depth):
                return True
            self.store.restore(snapshot)
        return False

    def _candidates(self, goal: Goal, concl: Term) -> List[Term]:
        """Hypotheses, then hints, that may conclude ``concl``, in order.

        A candidate is left out only when its conclusion and ``concl``
        have different rigid heads, so that ``unify`` would fail on it.
        Leaving out a try that fails changes nothing: a failed try is
        rolled back, metavariable counter included.
        """
        head = rigid_head(self.env, concl)
        out: List[Term] = []
        for decl in goal.decls:
            if isinstance(decl, HypDecl):
                statement = self.store.resolve(decl.prop)
                if _compatible(head, _conclusion_head(self.env, statement)):
                    out.append(statement)
        out.extend(s for s, other in self.extra if _compatible(head, other))
        out.extend(self.index.candidates(head))
        return out

    # ------------------------------------------------------------------

    def _intro(self, goal: Goal, concl: Term) -> Goal:
        taken = set(goal.names())
        if isinstance(concl, Forall):
            name = fresh_name(concl.var, taken)
            body = subst_var(concl.body, concl.var, Var(name))
            assert concl.ty is not None
            return Goal(goal.decls + (VarDecl(name, concl.ty),), body)
        assert isinstance(concl, Impl)
        name = fresh_name("H", taken)
        return Goal(goal.decls + (HypDecl(name, concl.lhs),), concl.rhs)

    def _by_assumption(self, goal: Goal, concl: Term) -> bool:
        for decl in goal.decls:
            if not isinstance(decl, HypDecl):
                continue
            prop = self.store.resolve(decl.prop)
            if alpha_eq(prop, concl):
                return True
            snapshot = self.store.snapshot()
            try:
                unify(prop, concl, self.store, self.whnf)
                return True
            except UnificationError:
                self.store.restore(snapshot)
        return False

    def _by_reflexivity(self, concl: Term) -> bool:
        if not isinstance(concl, Eq):
            return False
        snapshot = self.store.snapshot()
        try:
            unify(concl.lhs, concl.rhs, self.store, self.whnf)
            return True
        except UnificationError:
            self.store.restore(snapshot)
            return False

    def _by_contradiction(self, goal: Goal) -> bool:
        hyps = [d for d in goal.decls if isinstance(d, HypDecl)]
        for hyp in hyps:
            prop = self.store.resolve(hyp.prop)
            if isinstance(prop, FalseP):
                return True
            if is_neg(prop):
                body = neg_body(prop)
                for other in hyps:
                    if alpha_eq(self.store.resolve(other.prop), body):
                        return True
        return False

    def _try_apply(
        self, goal: Goal, statement: Term, concl: Term, depth: int
    ) -> bool:
        metas, premises, conclusion = instantiate_statement(
            statement, self.store
        )
        try:
            unify(conclusion, concl, self.store, self.whnf)
        except UnificationError:
            return False
        if not self.allow_metas:
            for premise in premises:
                if metas_of(self.store.resolve(premise)):
                    return False
        for premise in premises:
            sub = goal.with_concl(self.store.resolve(premise))
            if not self.solve(sub, depth - 1):
                return False
        if not self.allow_metas:
            for meta in metas:
                if not self.store.is_solved(meta.uid):
                    return False
        return True


def _compatible(head: Optional[object], other: Optional[object]) -> bool:
    return head is None or other is None or head == other


def _run_auto(
    env: Environment, state: ProofState, node: Auto
) -> ProofState:
    goal = state.focused()
    extra: List[Tuple[str, Term]] = []
    for name in node.using:
        statement = env.statement_of(name)
        if statement is None:
            raise TacticError(f"auto: unknown lemma {name}")
        extra.append((name, statement))
    prover = _Prover(env, state.store, node.existential, extra)
    depth = node.depth if node.depth is not None else _DEFAULT_DEPTH
    snapshot = state.store.snapshot()
    if prover.solve(goal, depth):
        return state.replace_focused([])
    state.store.restore(snapshot)
    return state  # auto never fails


@executor(Auto)
def run_auto(env: Environment, state: ProofState, node: Auto) -> ProofState:
    return _run_auto(env, state, node)


@executor(Trivial)
def run_trivial(env: Environment, state: ProofState, node: Trivial) -> ProofState:
    return _run_auto(env, state, Auto(depth=1))


# ----------------------------------------------------------------------
# intuition
# ----------------------------------------------------------------------

_INTUITION_STEPS = 200


def _decompose(goal: Goal, steps: List[int]) -> List[Goal]:
    """One propositional decomposition pass; returns replacement goals."""
    steps[0] += 1
    if steps[0] > _INTUITION_STEPS:
        return [goal]
    check_deadline()
    concl = goal.concl
    # Goal-side rules.
    if isinstance(concl, (Forall, Impl)):
        taken = set(goal.names())
        if isinstance(concl, Forall):
            if concl.ty is None:
                return [goal]
            name = fresh_name(concl.var, taken)
            body = subst_var(concl.body, concl.var, Var(name))
            return _decompose(
                Goal(goal.decls + (VarDecl(name, concl.ty),), body), steps
            )
        name = fresh_name("H", taken)
        return _decompose(
            Goal(goal.decls + (HypDecl(name, concl.lhs),), concl.rhs), steps
        )
    if isinstance(concl, And):
        return _decompose(goal.with_concl(concl.lhs), steps) + _decompose(
            goal.with_concl(concl.rhs), steps
        )
    # Hypothesis-side rules.
    for decl in goal.decls:
        if not isinstance(decl, HypDecl):
            continue
        prop = decl.prop
        if isinstance(prop, FalseP):
            return []
        if isinstance(prop, TrueP):
            return _decompose(goal.remove_decl(decl.name), steps)
        if isinstance(prop, And):
            base = goal.remove_decl(decl.name)
            taken = set(base.names())
            n1 = fresh_name(decl.name, taken)
            taken.add(n1)
            n2 = fresh_name("H", taken)
            return _decompose(
                base.add(HypDecl(n1, prop.lhs)).add(HypDecl(n2, prop.rhs)),
                steps,
            )
        if isinstance(prop, Or):
            base = goal.remove_decl(decl.name)
            left = base.add(HypDecl(decl.name, prop.lhs))
            right = base.add(HypDecl(decl.name, prop.rhs))
            return _decompose(left, steps) + _decompose(right, steps)
        if isinstance(prop, Exists) and prop.ty is not None:
            base = goal.remove_decl(decl.name)
            taken = set(base.names())
            var_name = fresh_name(prop.var, taken)
            body = subst_var(prop.body, prop.var, Var(var_name))
            return _decompose(
                base.add(VarDecl(var_name, prop.ty)).add(
                    HypDecl(decl.name, body)
                ),
                steps,
            )
    # Modus ponens on implication hypotheses with available premises.
    for decl in goal.decls:
        if not isinstance(decl, HypDecl) or not isinstance(decl.prop, Impl):
            continue
        if is_neg(decl.prop):
            continue
        lhs, rhs = decl.prop.lhs, decl.prop.rhs
        for other in goal.decls:
            if (
                isinstance(other, HypDecl)
                and other.name != decl.name
                and alpha_eq(other.prop, lhs)
            ):
                base = goal.replace_decl(decl.name, HypDecl(decl.name, rhs))
                return _decompose(base, steps)
    return [goal]


@executor(Intuition)
def run_intuition(env: Environment, state: ProofState, node: Intuition) -> ProofState:
    goal = state.focused()
    steps = [0]
    residual = _decompose(goal, steps)
    survivors: List[Goal] = []
    for sub in residual:
        prover = _Prover(env, state.store, allow_metas=False)
        snapshot = state.store.snapshot()
        if not prover.solve(sub, _DEFAULT_DEPTH):
            state.store.restore(snapshot)
            survivors.append(sub)
    return state.replace_focused(survivors)
