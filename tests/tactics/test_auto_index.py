"""``auto``'s hint index, one-pass instantiation and failure memo.

The index skips a candidate only when its conclusion and the goal have
different rigid heads.  That is sound only if such a try always fails,
so the first test replays the human proofs of the ``test_large``
split, runs ``auto`` and ``eauto`` on every goal they
reach, and checks every skipped candidate with a full
``instantiate_statement`` plus ``unify``.  The other tests pin the
flexible heads that must never be skipped, the index's invalidation,
and the scope of the per-task failure memo.
"""

from __future__ import annotations

import pytest

from repro.corpus.splits import make_splits
from repro.errors import UnificationError
from repro.kernel import cache
from repro.kernel.env import Environment
from repro.kernel.goals import Goal, HypDecl, initial_state
from repro.kernel.parser import parse_statement
from repro.kernel.reduction import rigid_head
from repro.kernel.subst import subst_var
from repro.kernel.terms import Const, Forall, Impl, Meta, Var, app
from repro.kernel.types import NAT, PROP
from repro.kernel.unify import MetaStore, unify
from repro.tactics import auto_, script
from repro.tactics.ast import Auto
from repro.tactics.base import run_tactic
from repro.tactics.common import instantiate_statement, strip_statement
from repro.tactics.script import run_script


def _reached_states(env, theorem):
    """The proof state before each tactic of ``theorem``'s proof."""
    reached = []
    original = script.run_tactic

    def recording(env_, state, node, *args, **kwargs):
        reached.append(state.clone_store())
        return original(env_, state, node, *args, **kwargs)

    script.run_tactic = recording
    try:
        run_script(env, theorem.statement, theorem.proof_text)
    finally:
        script.run_tactic = original
    return reached


def _full_candidates(prover, goal):
    every = [
        prover.store.resolve(d.prop)
        for d in goal.decls
        if isinstance(d, HypDecl)
    ]
    every.extend(statement for statement, _ in prover.extra)
    every.extend(prover.index.statements)
    return every


class TestPruningIsExact:
    def test_every_pruned_try_fails_on_test_large_goals(
        self, project, monkeypatch
    ):
        checked = {"pruned": 0, "kept": 0}
        original = auto_._Prover._candidates

        def verified(prover, goal, concl):
            kept = original(prover, goal, concl)
            remaining = iter(kept)
            upcoming = next(remaining, None)
            for statement in _full_candidates(prover, goal):
                if upcoming is not None and statement == upcoming:
                    upcoming = next(remaining, None)
                    checked["kept"] += 1
                    continue
                checked["pruned"] += 1
                snapshot = prover.store.snapshot()
                _, _, conclusion = instantiate_statement(
                    statement, prover.store
                )
                with pytest.raises(UnificationError):
                    unify(conclusion, concl, prover.store, prover.whnf)
                prover.store.restore(snapshot)
            assert upcoming is None, "kept candidates out of order"
            return kept

        monkeypatch.setattr(auto_._Prover, "_candidates", verified)
        theorems = make_splits(project).test_large
        for theorem in theorems:
            env = project.env_for(theorem)
            cache.clear_caches()
            for state in _reached_states(env, theorem):
                for node in (Auto(), Auto(existential=True)):
                    run_tactic(env, state.clone_store(), node)
        # About 20,000 pruned tries over the whole split, in a few seconds.
        assert checked["pruned"] > 10_000
        assert checked["kept"] > 0


class TestFlexibleHeadsAreKept:
    def test_fixpoint_goal_head(self, env, prove):
        # ``In a (b :: l)`` unfolds to ``b = a \/ In a l``, the head of
        # the hypothesis: only _retry_whnf makes the two meet.
        goal = parse_statement(env, "forall (a : nat) (l : list nat), In a l")
        assert rigid_head(env, strip_statement(goal).conclusion) is None
        prove(
            "forall (a b : nat) (l : list nat), "
            "(0 = 0 -> b = a \\/ In a l) -> In a (b :: l)",
            "auto.",
        )

    def test_abbreviation_goal_head(self, env, prove):
        # ``0 < S n`` is ``S 0 <= S n`` only after unfolding ``lt``.
        goal = parse_statement(env, "forall (n : nat), 0 < S n")
        assert rigid_head(env, strip_statement(goal).conclusion) is None
        prove("forall (n : nat), 0 < S n", "auto.")

    def test_meta_goal_head_under_eauto(self, env):
        store = MetaStore()
        hole = store.fresh("P")
        prover = auto_._Prover(env, store, allow_metas=True)
        index = auto_.hint_index(env)
        assert prover._candidates(Goal((), hole), hole) == list(
            index.statements
        )
        assert prover.solve(Goal((), app(hole, Const("O"))), 1) is False
        assert prover.solve(Goal((), hole), 1)
        # The first hint in declaration order closed it.
        first = strip_statement(index.statements[0]).conclusion
        solution = store.resolve(hole)
        assert solution.__class__ is first.__class__

    def test_bound_variable_hypothesis_head(self, env, prove):
        applied = parse_statement(env, "forall (f : nat -> Prop) (n : nat), f n")
        assert auto_._conclusion_head(env, applied) is None
        bare = parse_statement(env, "forall (P : Prop), P")
        assert auto_._conclusion_head(env, bare) is None
        prove("(forall (P : Prop), P) -> 0 = 1", "auto.")


def _opaque_env():
    env = Environment()
    env.declare_opaque("P", PROP)
    env.declare_opaque("Q", PROP)
    env.add_axiom("p_holds", Const("P"))
    env.add_axiom("q_to_p", Impl(Const("Q"), Const("P")))
    return env


class TestIndexInvalidation:
    def test_a_hint_added_after_the_index_is_used(self):
        env = _opaque_env()
        state = initial_state(env, Const("P"))
        stuck = run_tactic(env, state, Auto())
        assert not stuck.is_complete()
        before = auto_.hint_index(env)
        generation = env.generation
        env.hint_resolve_add("p_holds")
        # Hints change no reduction, so the generation stays; the index
        # must notice the new hint anyway.
        assert env.generation == generation
        assert auto_.hint_index(env) is not before
        assert run_tactic(env, state, Auto()).is_complete()

    def test_index_buckets_keep_declaration_order(self):
        env = _opaque_env()
        env.add_axiom("q_holds", Const("Q"))
        env.hint_resolve_add("q_to_p", "q_holds", "p_holds")
        index = auto_.hint_index(env)
        names = dict(zip(index.statements, index.names))
        assert [names[s] for s in index.candidates(Const("P"))] == [
            "q_to_p",
            "p_holds",
        ]
        assert [names[s] for s in index.candidates(Const("Q"))] == [
            "q_holds"
        ]
        assert index.candidates(None) == index.statements


class TestOnePassInstantiation:
    def test_premises_see_only_earlier_binders_and_shadowing(self):
        # forall x, P x -> forall x, Q x  (the second x shadows the first)
        p = lambda t: app(Var("p"), t)  # noqa: E731
        q = lambda t: app(Var("q"), t)  # noqa: E731
        statement = Forall(
            "x", NAT, Impl(p(Var("x")), Forall("x", NAT, q(Var("x"))))
        )
        store = MetaStore(next_uid=7)
        metas, premises, conclusion = instantiate_statement(statement, store)
        assert metas == [Meta(7, "x"), Meta(8, "x")]
        assert premises == (p(Meta(7, "x")),)
        assert conclusion == q(Meta(8, "x"))
        assert store.next_uid == 9

    def test_matches_binder_by_binder_substitution(self, env):
        for name in ("le_n_S", "map_app", "NoDup_cons", "hoare_write"):
            statement = env.statement_of(name)
            one_pass = instantiate_statement(statement, MetaStore())
            store = MetaStore()
            metas, premises, current = [], [], statement
            while isinstance(current, (Forall, Impl)):
                if isinstance(current, Forall):
                    meta = store.fresh(current.var)
                    metas.append(meta)
                    current = subst_var(current.body, current.var, meta)
                else:
                    premises.append(current.lhs)
                    current = current.rhs
            assert one_pass == (metas, tuple(premises), current)


def _failing_goal(env):
    # No hint closes ``S n <= n``; le_S and le_n_S recurse into it.
    return Goal(
        (),
        parse_statement(env, "forall (n : nat), S n <= n"),
    )


@pytest.fixture()
def caches_on():
    """The memo is a kernel cache: run with the caches on, whatever the
    environment says."""
    previous = cache.enabled()
    cache.configure(True)
    try:
        yield
    finally:
        cache.configure(previous)


def _memo_counts():
    stats = auto_._FAILED
    return stats.hits, stats.misses, len(stats.data)


@pytest.mark.usefixtures("caches_on")
class TestFailureMemo:
    def test_eauto_never_touches_the_memo(self, env):
        cache.clear_caches()
        before = _memo_counts()
        prover = auto_._Prover(env, MetaStore(), allow_metas=True)
        assert not prover.solve(_failing_goal(env), 3)
        assert _memo_counts() == before

    def test_goals_with_unresolved_metas_bypass_the_memo(self, env):
        cache.clear_caches()
        before = _memo_counts()
        store = MetaStore()
        hole = store.fresh("n")
        goal = Goal((), parse_statement(env, "forall (n : nat), S n <= n"))
        with_meta = Goal((), subst_var(goal.concl.body, "n", hole))
        prover = auto_._Prover(env, store, allow_metas=False)
        prover.solve(with_meta, 2)
        assert _memo_counts() == before

    def test_a_failure_answers_only_shallower_queries(self, env):
        cache.clear_caches()
        goal = Goal((), parse_statement(env, "0 <= 0"))
        prover = auto_._Prover(env, MetaStore(), allow_metas=False)
        key = prover._memo_key(goal, goal.concl)
        assert key is not None
        # A planted (false) failure at depth 1 must decide depth 1 ...
        auto_._FAILED.put(key, 1)
        assert prover.solve(goal, 1) is False
        # ... and must not decide depth 2, which recomputes and proves.
        assert prover.solve(goal, 2) is True
        cache.clear_caches()
        assert prover.solve(goal, 1) is True

    def test_failures_are_recorded_at_their_depth(self, env):
        cache.clear_caches()
        goal = _failing_goal(env)
        prover = auto_._Prover(env, MetaStore(), allow_metas=False)
        assert not prover.solve(goal, 2)
        depths = set(auto_._FAILED.data.values())
        assert 2 in depths
        hits = auto_._FAILED.hits
        assert not prover.solve(goal, 2)
        assert auto_._FAILED.hits == hits + 1

    def test_clear_caches_empties_and_disabled_bypasses(self, env):
        cache.clear_caches()
        prover = auto_._Prover(env, MetaStore(), allow_metas=False)
        assert not prover.solve(_failing_goal(env), 2)
        assert auto_._FAILED.data
        cache.clear_caches()
        assert not auto_._FAILED.data
        before = _memo_counts()
        with cache.disabled():
            assert not prover.solve(_failing_goal(env), 2)
        assert _memo_counts() == before

    @pytest.mark.parametrize("existential", [False, True])
    def test_failed_solve_leaves_the_store_unchanged(self, env, existential):
        cache.clear_caches()
        store = MetaStore()
        solved = store.fresh("a")
        store.fresh("b")
        store.solve(solved.uid, Const("O"))
        before = (store.next_uid, dict(store.solutions))
        prover = auto_._Prover(env, store, allow_metas=existential)
        assert not prover.solve(_failing_goal(env), 3)
        assert (store.next_uid, store.solutions) == before


@pytest.mark.usefixtures("caches_on")
class TestObservability:
    def test_memo_is_reported_with_hits(self, project):
        from repro.eval import ExperimentConfig, Runner
        from repro.eval.tasks import TheoremTask
        from repro.obs.prometheus import render_prometheus

        cache.clear_caches()
        theorem = make_splits(project).test_large[0]
        runner = Runner(project, ExperimentConfig())
        task = TheoremTask(
            theorem=theorem.name, model="gpt-4o", hinted=True, fuel=16
        )
        result = runner.execute_task(task)
        stats = cache.cache_stats()["auto_failed"]
        assert stats["hits"] > 0
        assert result.metrics["counters"]["kernel.cache.auto_failed.hits"] > 0
        text = render_prometheus(result.metrics)
        assert 'repro_kernel_cache_hit_rate{cache="auto_failed"}' in text
