"""The stage table is folded from spans, so it agrees with the trace.

Stage timings have one clock, the spans.  An untraced task runs under
a record-less tracer and a traced one under a recording tracer; both
fold their span totals into the task's ``Metrics`` once, at task end.
So an untraced run's stage ``calls`` must equal a traced run's span
counts, at every pipeline depth, and ``checking`` must equal the
verdict histogram (one ``tactic`` span per checker call).
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import replace

import pytest

from repro.eval import ExperimentConfig, Runner
from repro.eval.tasks import TheoremTask
from repro.obs.trace import Tracer

CONFIG = ExperimentConfig(fuel=16)

# The stage each span kind is counted under.
STAGE_OF_SPAN = {
    "prompt_build": "prompt_build",
    "generation": "generation",
    "tactic": "checking",
    "qed_replay": "qed_replay",
}


def stage_calls(metrics: dict) -> dict:
    return {
        stage: cell["calls"] for stage, cell in metrics["stages"].items()
    }


def verdict_total(metrics: dict) -> int:
    return sum(
        count
        for name, count in metrics["counters"].items()
        if name.startswith("verdict.")
    )


def parity_tasks(project):
    runner = Runner(project, CONFIG)
    return [
        TheoremTask.from_config(theorem.name, "gpt-4o", hinted, CONFIG)
        for theorem in runner.splits.test[:3]
        for hinted in (False, True)
    ]


@pytest.mark.parametrize("depth", [1, 4])
def test_untraced_stage_calls_equal_traced_span_counts(project, depth):
    config = replace(CONFIG, pipeline_depth=depth)
    plain = Runner(project, config)
    traced = Runner(project, replace(config, trace=True))
    statuses = set()
    for task in parity_tasks(project):
        untraced = plain.execute_task(task)
        recorded = traced.execute_task(task)
        assert untraced.trace is None
        assert untraced.record == recorded.record
        statuses.add(untraced.record.status)
        spans = Counter(span["name"] for span in recorded.trace)
        expected = {
            STAGE_OF_SPAN[name]: count
            for name, count in spans.items()
            if name in STAGE_OF_SPAN
        }
        assert stage_calls(untraced.metrics) == expected
        assert stage_calls(recorded.metrics) == expected
        for result in (untraced, recorded):
            assert verdict_total(result.metrics) == expected["checking"]
    # The slice exercises the Qed replay stage and a failed search.
    assert "proved" in statuses and len(statuses) > 1


def test_caller_tracer_outliving_the_task_is_counted_once(project):
    # The service wraps each job in a "job" span of its own tracer; a
    # tracer reused across tasks must fold only each task's own spans.
    runner = Runner(project, CONFIG)
    task = parity_tasks(project)[0]
    alone = runner.execute_task(task)
    tracer = Tracer()
    with tracer.span("job"):
        first = runner.execute_task(task, tracer=tracer)
        second = runner.execute_task(task, tracer=tracer)
    assert stage_calls(first.metrics) == stage_calls(alone.metrics)
    assert stage_calls(second.metrics) == stage_calls(alone.metrics)


def test_untraced_service_job_reports_stage_rows(project):
    from repro.service import ProverClient, ProverService, ServerConfig

    service = ProverService(ServerConfig(port=0), project=project)
    httpd = service.make_http_server()
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address[:2]
    try:
        client = ProverClient(f"http://{host}:{port}", timeout=60.0)
        status = client.prove_and_wait(
            theorem="rev_involutive", model="gpt-4o", fuel=8, timeout=60.0
        )
        assert status["state"] == "done"
        metrics = client.metrics()["metrics"]
        text = client.metrics_text()
    finally:
        httpd.shutdown()
        httpd.server_close()
        assert service.close(timeout=30.0)
    calls = stage_calls(metrics)
    assert calls["prompt_build"] == calls["generation"] > 0
    assert calls["checking"] == verdict_total(metrics) > 0
    assert 'repro_stage_calls_total{stage="checking"}' in text
