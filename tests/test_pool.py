"""The fork-join runner: children compute the shares, results and errors come
back to the caller, and no child outlives a pass on any path."""

import os
import time
import traceback

import pytest

from hypmetrics import InputError, _pool, delta
from hypmetrics.cli import main


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_children_compute_the_shares_in_task_order():
    out = _pool._run(lambda shared, x: (shared + x, os.getpid()), 10, [(x,) for x in range(7)], 3)
    assert [value for value, _ in out] == list(range(10, 17))
    pids = [pid for _, pid in out]
    assert os.getpid() not in pids  # the caller runs no share
    assert len(set(pids)) == 3 and pids == [pids[x % 3] for x in range(7)]  # child w: tasks[w::3]
    _no_child_left()


def test_no_fork_runs_every_pass_in_the_caller(monkeypatch):
    monkeypatch.delattr(os, "fork")
    out = _pool._run(lambda shared, x: os.getpid(), None, [(x,) for x in range(5)], 4)
    assert out == [os.getpid()] * 5


@pytest.mark.parametrize("failing", [2, 3])
@pytest.mark.parametrize("exc", [InputError("bad entry (2, 3)"), ValueError("plain value")])
def test_a_child_exception_is_raised_in_the_caller(exc, failing):
    def task(shared, x):
        if x == failing:
            raise exc
        return x

    with pytest.raises(type(exc)) as info:
        _pool._run(task, None, [(x,) for x in range(4)], 2)
    assert type(info.value) is type(exc) and str(info.value) == str(exc)
    # the child's traceback is the exception's cause, so it names the task's frame
    assert ", in task\n" in "".join(traceback.format_exception(info.type, info.value, info.tb))
    _no_child_left()


class _TwoArgs(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_exception_that_does_not_unpickle_comes_back_as_its_repr():
    def task(shared, x):
        raise _TwoArgs(x, "b")

    message = r"^_TwoArgs\('0 and b'\) cannot be sent"
    with pytest.raises(RuntimeError, match=message) as info:
        _pool._run(task, None, [(0,), (1,)], 2)
    assert "in task" in str(info.value.__cause__)
    _no_child_left()


def test_a_child_that_dies_without_writing_is_named():
    def task(shared, x):
        if x == 1:
            os._exit(3)
        return x

    message = r"^worker process of share 2 of 2 ended \(exit code 3\) without sending its results$"
    with pytest.raises(RuntimeError, match=message):
        _pool._run(task, None, [(0,), (1,)], 2)
    _no_child_left()


def _interrupt():
    raise KeyboardInterrupt


class _Interrupting:
    """A result whose unpickling raises KeyboardInterrupt in the caller."""

    def __reduce__(self):
        return _interrupt, ()


def test_children_still_running_are_killed_when_the_caller_raises():
    def task(shared, x):
        if x == 1:
            time.sleep(60)
        return _Interrupting()

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _pool._run(task, None, [(0,), (1,)], 2)
    assert time.monotonic() - start < 30  # the sleeping child was killed, not waited for
    _no_child_left()


def test_cli_exits_2_on_an_input_error_raised_in_a_child(monkeypatch, tmp_path, capsys):
    caller = os.getpid()

    def screen(*args):
        raise InputError("raised in " + ("the caller" if os.getpid() == caller else "a child"))

    cloud = tmp_path / "cloud.csv"
    assert main(["gen", "--n", "130", "--seed", "1", "--out", str(cloud)]) == 0
    monkeypatch.setattr(delta, "_screen_middle", screen)
    capsys.readouterr()
    assert main(["delta", "--cloud", str(cloud), "--workers", "2"]) == 2
    assert capsys.readouterr().err == "error: raised in a child\n"
    _no_child_left()
