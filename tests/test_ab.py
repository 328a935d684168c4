"""``scripts/ab.py``: pair statistics and the failure path, with the
end-to-end benchmark stubbed out (no benchmark process is launched).

* the pair statistics on fixed numbers: medians and quartiles as
  ``statistics.quantiles`` cuts them, the head/base ratio of sums, and
  pair wins with ties counted for neither side;
* a side whose run reports ``"correct": false`` makes the script exit
  non-zero, and the temporary worktree is removed all the same;
* each side's engine core is printed from the ``core_info`` its result
  file records, and a pair in which one side ran compiled and the
  other interpreted makes the script exit non-zero, naming the
  loader's reason;
* SIGTERM in the middle of a sample ends the script normally: the
  temporary worktree is unregistered and its directory removed.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab.py"


@pytest.fixture
def ab():
    spec = importlib.util.spec_from_file_location("ab_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_stats_on_fixed_numbers(ab):
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    head = [1.0, 1.5, 3.5, 3.0, 4.0]  # tie, win, loss, win, win
    stats = ab.pair_stats(base, head, "lower")
    assert stats["base"] == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert stats["head"] == {"median": 3.0, "q1": 1.25, "q3": 3.75, "n": 5}
    assert stats["ratio_of_sums"] == pytest.approx(13.0 / 15.0)
    assert (stats["head_wins"], stats["base_wins"]) == (3, 1)
    # For a higher-is-better metric the same pairs swap winners.
    higher = ab.pair_stats(base, head, "higher")
    assert (higher["head_wins"], higher["base_wins"]) == (1, 3)
    assert ab.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5,
                                 "n": 1}


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                    "-c", "user.email=t@t", *args], check=True,
                   capture_output=True)


def _repo(ab, tmp_path, monkeypatch):
    """A one-commit repository declaring one workload, as ab's ROOT."""
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "fig1"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                        "bound": 0.25}]}))
    _git(repo, "init", "-q")
    _git(repo, "add", "BENCHMARK.json")
    _git(repo, "commit", "-q", "-m", "base")
    monkeypatch.setattr(ab, "ROOT", repo)
    monkeypatch.setattr(ab.tempfile, "tempdir", str(tmp_path))
    return repo


def _assert_worktree_removed(repo, base):
    assert base != repo and not base.exists()
    assert not base.parent.exists()
    listed = subprocess.run(["git", "-C", str(repo), "worktree", "list"],
                            capture_output=True, text=True, check=True)
    assert len(listed.stdout.strip().splitlines()) == 1


def _line(correct=True):
    return json.dumps({"correct": correct, "attempted": 1,
                       "failed": 0 if correct else 1,
                       "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}})


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_incorrect_side_fails_and_removes_the_worktree(ab, tmp_path,
                                                       monkeypatch):
    repo = _repo(ab, tmp_path, monkeypatch)
    checkouts = []

    def stub(checkout, *args):
        checkouts.append(checkout)
        assert checkout.exists()
        correct = checkout != repo  # the head side fails its checks
        return subprocess.CompletedProcess(
            args, 0 if correct else 1,
            stdout=("" if correct else "FAIL digest\n") + _line(correct)
            + "\n", stderr="")

    monkeypatch.setattr(ab, "run_e2e", stub)
    assert ab.main(["HEAD", "--pairs", "2"]) == 1
    base = checkouts[0]
    assert checkouts == [base, repo]  # pair 1 runs the base side first
    _assert_worktree_removed(repo, base)


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_core_mismatch_fails_naming_the_reason(ab, tmp_path, monkeypatch,
                                               capsys):
    repo = _repo(ab, tmp_path, monkeypatch)
    checkouts = []
    reason = "build failed: gcc not found"

    def stub(checkout, *args):
        # The base's core did not build, so it ran interpreted.
        checkouts.append(checkout)
        compiled = checkout == repo
        core = {"backend": "c-extension" if compiled else None,
                "reason": None if compiled else reason,
                "runs": {"compiled": 40 if compiled else 0,
                         "interpreted": 0 if compiled else 40,
                         "drawn": 40 if compiled else 0, "decided": {}}}
        result = checkout / ab.RESULT.format(args[1])
        result.parent.mkdir(exist_ok=True)
        result.write_text(json.dumps({"context": {"core_info": core}}))
        return subprocess.CompletedProcess(args, 0, stdout=_line() + "\n",
                                           stderr="")

    monkeypatch.setattr(ab, "run_e2e", stub)
    assert ab.main(["HEAD", "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    assert ("core fig1            base: no compiled backend, runs "
            "compiled=0 interpreted=40 drawn=0") in out
    assert ("core fig1            head: c-extension, runs compiled=40 "
            "interpreted=0 drawn=40") in out
    assert (f"FAIL fig1 pair 1: base ran interpreted, head ran compiled; "
            f"base: {reason}") in out
    assert len(checkouts) == 2  # stopped after the first pair
    _assert_worktree_removed(repo, checkouts[0])


#: Runs ab.main in a child process whose benchmark call blocks in a
#: sleeping subprocess until the test sends SIGTERM.
_SIGTERM_RUNNER = """
import importlib.util, subprocess, sys, tempfile
from pathlib import Path
script, repo, tmp, ready = sys.argv[1:]
spec = importlib.util.spec_from_file_location("ab_script", script)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)
ab.ROOT = Path(repo)
tempfile.tempdir = tmp

def blocked(checkout, *args):
    Path(ready).write_text(str(checkout))
    return subprocess.run([sys.executable, "-c",
                           "import time; time.sleep(120)"])

ab.run_e2e = blocked
raise SystemExit(ab.main(["HEAD", "--pairs", "1"]))
"""


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_sigterm_removes_the_worktree(ab, tmp_path, monkeypatch):
    repo = _repo(ab, tmp_path, monkeypatch)
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    ready = tmp_path / "ready"
    runner = tmp_path / "runner.py"
    runner.write_text(_SIGTERM_RUNNER)
    proc = subprocess.Popen([sys.executable, str(runner), str(SCRIPT),
                             str(repo), str(tmpdir), str(ready)])
    try:
        deadline = time.monotonic() + 60.0
        while not ready.exists() and proc.poll() is None \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert ready.exists(), "the script never reached its first sample"
        base = Path(ready.read_text())
        assert base.exists()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    _assert_worktree_removed(repo, base)
    assert not list(tmpdir.iterdir())
