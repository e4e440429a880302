"""``cannot unify`` failures render their message only when read.

The unifier raises :meth:`UnificationError.mismatch` with the two
terms; the text must be exactly what the eager
``f"cannot unify {a} with {b}"`` produced, however late it is read,
and the error must survive pickling (process executors ship errors
across processes).
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import UnificationError
from repro.kernel.reduction import make_whnf
from repro.kernel.unify import MetaStore, unify
from repro.tactics.common import instantiate_statement


def _unify_conclusions(project, theorems):
    """Unify each theorem's conclusion against every other's, as
    ``auto``/``apply`` do; return the failures in order."""
    whnf = make_whnf(project.env)
    failures = []
    for goal_theorem in theorems:
        for lemma in theorems:
            store = MetaStore()
            _, _, goal = instantiate_statement(goal_theorem.statement, store)
            _, _, conclusion = instantiate_statement(lemma.statement, store)
            try:
                unify(conclusion, goal, store, whnf)
            except UnificationError as exc:
                failures.append(exc)
    return failures


@pytest.fixture()
def corpus_failures(project):
    # Fresh per test: reading a message renders it for good.
    return _unify_conclusions(project, project.theorems[:20])


def _eager_mismatch(cls, left, right):
    return cls(f"cannot unify {left} with {right}")


def test_messages_equal_the_eager_rendering(project, corpus_failures):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            UnificationError, "mismatch", classmethod(_eager_mismatch)
        )
        eager = _unify_conclusions(project, project.theorems[:20])
    # The lazy failures are read only now, after all the later work.
    lazy = [str(exc) for exc in corpus_failures]
    assert lazy == [str(exc) for exc in eager]
    mismatches = [m for m in lazy if m.startswith("cannot unify ")]
    assert len(mismatches) >= 50


def test_pickle_keeps_type_and_message(corpus_failures):
    exc = next(e for e in corpus_failures if e._terms)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is UnificationError
    assert str(copy) == str(exc)
    assert str(exc).startswith("cannot unify ")
    plain = pickle.loads(pickle.dumps(UnificationError("occurs check: ?3")))
    assert str(plain) == "occurs check: ?3"


def test_repr_and_args_show_the_message(corpus_failures):
    exc = next(e for e in corpus_failures if e._terms)
    assert repr(exc) == f"UnificationError({str(exc)!r})"
    assert exc.args == (str(exc),)
    assert repr(UnificationError("x")) == "UnificationError('x')"
