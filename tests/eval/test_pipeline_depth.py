"""Where ``pipeline_depth`` enters the program: CLI flags, configs, runner.

Depth 1 is the floor (each expansion waits for its own query).  A
value below it is refused where it is typed — argparse exits 2, the
config dataclasses raise — instead of surfacing mid-task, and the
runner hands its configured depth to every search it starts.
"""

from __future__ import annotations

import pytest

from repro import cli
from repro.core import BestFirstSearch, SearchConfig
from repro.eval import ExperimentConfig, Runner
from repro.eval.tasks import TheoremTask
from repro.service.batching import BatchingGenerator

COMMANDS = {
    "prove": (["prove", "app_nil_l"], "_cmd_prove"),
    "repair": (["repair", "app_nil_l"], "_cmd_repair"),
    "eval": (["eval"], "_cmd_eval"),
    "server": (["server"], "_cmd_server"),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_cli_rejects_depth_below_one(command, value, capsys):
    argv, _ = COMMANDS[command]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + ["--pipeline-depth", value])
    assert exit_info.value.code == 2
    assert "--pipeline-depth" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_depth_defaults_to_one(command, monkeypatch):
    argv, handler = COMMANDS[command]
    seen = []
    monkeypatch.setattr(
        cli, handler, lambda args: seen.append(args.pipeline_depth) or 0
    )
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--pipeline-depth", "4"]) == 0
    assert seen == [1, 4]


def test_search_config_rejects_depth_below_one():
    assert SearchConfig().pipeline_depth == 1
    for depth in (0, -3):
        with pytest.raises(ValueError):
            SearchConfig(pipeline_depth=depth)


def test_experiment_config_rejects_negative_depth():
    assert ExperimentConfig().pipeline_depth == 1
    with pytest.raises(ValueError):
        ExperimentConfig(pipeline_depth=-1)
    # 0 was the serial loop's spelling; depth 1 replays that loop.
    assert ExperimentConfig(pipeline_depth=0).pipeline_depth == 1


def _recording(monkeypatch):
    """Record each search's depth and each intra-search batcher's."""
    depths, batchers = [], []
    prove = BestFirstSearch.prove
    for_search = BatchingGenerator.for_search.__func__

    def recording_prove(self, *args, **kwargs):
        depths.append(self.config.pipeline_depth)
        return prove(self, *args, **kwargs)

    def recording_for_search(cls, inner, depth, **kwargs):
        batchers.append(depth)
        return for_search(cls, inner, depth, **kwargs)

    monkeypatch.setattr(BestFirstSearch, "prove", recording_prove)
    monkeypatch.setattr(
        BatchingGenerator, "for_search", classmethod(recording_for_search)
    )
    return depths, batchers


def test_runner_hands_its_depth_to_the_search(project, monkeypatch):
    depths, batchers = _recording(monkeypatch)
    config = ExperimentConfig(fuel=4, pipeline_depth=4)
    runner = Runner(project, config)
    task = TheoremTask.from_config("le_trans", "gpt-4o", False, config)
    # The task's own search config carries the default depth; the
    # runner's depth must win.
    assert task.search_config().pipeline_depth == 1
    runner.execute_task(task)
    runner.run_theorem(
        project.theorem("le_trans"),
        "gpt-4o",
        False,
        search_config=SearchConfig(fuel=4),
    )
    assert depths == [4, 4]
    assert batchers == [4, 4]


def test_depth1_builds_no_batcher(project, monkeypatch):
    depths, batchers = _recording(monkeypatch)
    config = ExperimentConfig(fuel=4)
    task = TheoremTask.from_config("le_trans", "gpt-4o", False, config)
    Runner(project, config).execute_task(task)
    assert depths == [1]
    assert batchers == []
