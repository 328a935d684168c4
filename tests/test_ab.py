"""``scripts/ab.py``: pair statistics and the failure path, with the
end-to-end benchmark stubbed out (no benchmark process is launched).

* the pair statistics on fixed numbers: medians and quartiles as
  ``statistics.quantiles`` cuts them, the head/base ratio of sums, and
  pair wins with ties counted for neither side;
* a side whose run reports ``"correct": false`` makes the script exit
  non-zero, and the temporary worktree is removed all the same.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
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


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_incorrect_side_fails_and_removes_the_worktree(ab, tmp_path,
                                                       monkeypatch):
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
    checkouts = []

    def stub(checkout, *args):
        checkouts.append(checkout)
        assert checkout.exists()
        correct = checkout != repo  # the head side fails its checks
        line = json.dumps({"correct": correct, "attempted": 1,
                           "failed": 0 if correct else 1,
                           "metrics": {"wall_s": {"value": 1.0,
                                                  "unit": "s"}}})
        return subprocess.CompletedProcess(
            args, 0 if correct else 1,
            stdout=("" if correct else "FAIL digest\n") + line + "\n",
            stderr="")

    monkeypatch.setattr(ab, "run_e2e", stub)
    assert ab.main(["HEAD", "--pairs", "2"]) == 1
    base = checkouts[0]
    assert checkouts == [base, repo]  # pair 1 runs the base side first
    assert base != repo and not base.exists()
    assert not base.parent.exists()
    listed = subprocess.run(["git", "-C", str(repo), "worktree", "list"],
                            capture_output=True, text=True, check=True)
    assert len(listed.stdout.strip().splitlines()) == 1
