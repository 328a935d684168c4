"""Persistent content-addressed suite cache (DESIGN.md §8).

The contract under test: a ``(cell, seed)`` suite is keyed by a stable
fingerprint of everything that determines its result — workload id, x,
seed, policy set, horizon, run flags, fault plan and code epoch — so a
cached replay is byte-identical to a cold simulation, any change to the
sweep spec misses (never stale-hits), and corrupt entries degrade to
misses rather than errors.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.errors import ExperimentError
import repro.experiments.cache as cache_module
from repro.experiments.cache import (
    PolicySummary,
    SuiteCache,
    default_code_epoch,
    suite_fingerprint,
)
from repro.experiments.parallel import fork_available
from repro.experiments.runner import bcwc_model, standard_taskset, sweep
from repro.faults import FaultPlan, OverrunFault

HORIZON = 600.0
POLICIES = ("static", "ccEDF", "lpSTA")
WORKLOAD_ID = "test:cell-cache:n=5:bcwc=0.5"


def workload(u: float, seed: int):
    return standard_taskset(5, u, seed), bcwc_model(0.5, seed)


def payloads(cells) -> list[str]:
    return [json.dumps(cell.to_payload()) for cell in cells]


def fingerprint(**overrides) -> str:
    key = dict(workload_id=WORKLOAD_ID, x=0.7, seed=11,
               policies=POLICIES, horizon=HORIZON)
    key.update(overrides)
    digest, _ = suite_fingerprint(**key)
    return digest


class TestFingerprint:
    def test_stable_across_calls(self):
        assert fingerprint() == fingerprint()

    def test_policy_sequence_type_is_irrelevant(self):
        assert fingerprint(policies=list(POLICIES)) == fingerprint(
            policies=tuple(POLICIES))

    @pytest.mark.parametrize("change", (
        dict(workload_id="test:other"),
        dict(x=0.71),
        dict(seed=12),
        dict(policies=("static", "ccEDF")),
        dict(horizon=HORIZON * 2),
        dict(overhead_aware=True),
        dict(allow_misses=True),
        dict(faults=FaultPlan(seed=11, overrun=OverrunFault(
            factor=1.2, probability=0.5))),
        dict(code_epoch="0.0.0-dev"),
    ))
    def test_any_keyed_parameter_changes_the_digest(self, change):
        assert fingerprint(**change) != fingerprint()

    def test_payload_names_the_code_epoch(self):
        from repro import __version__
        _, payload = suite_fingerprint(
            workload_id=WORKLOAD_ID, x=0.7, seed=11,
            policies=POLICIES, horizon=HORIZON)
        assert payload["code_epoch"] == default_code_epoch()
        version, digest = payload["code_epoch"].split("+")
        assert version == __version__ and len(digest) == 16


class TestSuiteCache:
    def summaries(self) -> dict[str, PolicySummary]:
        return {
            name: PolicySummary(normalized=0.5 + 0.061 * i, misses=i,
                                switches=40 + i, overruns=0,
                                released=120, interventions=i,
                                dispatches=900 + i)
            for i, name in enumerate(("none",) + POLICIES)}

    def test_roundtrip_is_float_exact(self, tmp_path):
        cache = SuiteCache(tmp_path)
        digest = fingerprint()
        cache.put(digest, self.summaries())
        got = cache.get(digest)
        assert got == self.summaries()
        # Bit-exact floats — the property byte-identity rests on.
        for name, summary in got.items():
            assert summary.normalized.hex() == \
                self.summaries()[name].normalized.hex()

    def test_miss_on_absent_and_corrupt_entries(self, tmp_path):
        cache = SuiteCache(tmp_path)
        digest = fingerprint()
        assert cache.get(digest) is None
        cache.put(digest, self.summaries())
        path = tmp_path / digest[:2] / f"{digest}.json"
        path.write_text("{not json")
        assert cache.get(digest) is None  # corrupt → miss, not error

    def test_counters_and_clear(self, tmp_path):
        cache = SuiteCache(tmp_path)
        digest = fingerprint()
        assert cache.get(digest) is None
        cache.put(digest, self.summaries())
        assert cache.get(digest) is not None
        assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.get(digest) is None


class TestSweepIntegration:
    def run(self, tmp_path, **kwargs):
        kwargs.setdefault("horizon", HORIZON)
        return sweep((0.4, 0.7), workload, POLICIES, n_tasksets=2,
                     cache_dir=tmp_path, workload_id=WORKLOAD_ID,
                     **kwargs)

    def count_simulations(self, monkeypatch):
        import repro.experiments.runner as runner_mod
        calls = []
        original = runner_mod.run_suite

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "run_suite", counting)
        return calls

    def test_cache_dir_requires_workload_id(self, tmp_path):
        with pytest.raises(ExperimentError, match="workload_id"):
            sweep((0.5,), workload, POLICIES, n_tasksets=1,
                  horizon=HORIZON, cache_dir=tmp_path)

    def test_second_run_simulates_nothing(self, tmp_path, monkeypatch):
        reference = sweep((0.4, 0.7), workload, POLICIES,
                          n_tasksets=2, horizon=HORIZON)
        cold = self.run(tmp_path)
        assert payloads(cold) == payloads(reference)
        calls = self.count_simulations(monkeypatch)
        warm = self.run(tmp_path)
        assert calls == []  # every suite replayed from cache
        assert payloads(warm) == payloads(reference)

    def test_spec_change_invalidates(self, tmp_path, monkeypatch):
        self.run(tmp_path)
        calls = self.count_simulations(monkeypatch)
        self.run(tmp_path, horizon=HORIZON / 2)
        # Different horizon → different fingerprints → full re-run.
        assert len(calls) == 4

    def test_code_epoch_change_invalidates(self, tmp_path, monkeypatch):
        self.run(tmp_path)
        calls = self.count_simulations(monkeypatch)
        import repro
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        self.run(tmp_path)
        assert len(calls) == 4

    def assert_source_edit_invalidates(self, tmp_path, monkeypatch,
                                       relative: str) -> None:
        sources = tmp_path / "repro"
        shutil.copytree(cache_module.PACKAGE_ROOT, sources,
                        ignore=shutil.ignore_patterns("__pycache__", "*.so"))
        monkeypatch.setattr(cache_module, "PACKAGE_ROOT", sources)
        self.run(tmp_path / "cache")
        calls = self.count_simulations(monkeypatch)
        self.run(tmp_path / "cache")
        assert calls == []  # same sources: every suite replays
        edited = sources / relative
        edited.write_text(edited.read_text() + "# edited\n")
        # The digest is memoized per process; a new process rehashes.
        cache_module.source_digest.cache_clear()
        self.run(tmp_path / "cache")
        assert len(calls) == 4

    def test_policy_source_edit_invalidates(self, tmp_path, monkeypatch):
        self.assert_source_edit_invalidates(tmp_path, monkeypatch,
                                            "policies/ccedf.py")

    @pytest.mark.parametrize("relative",
                             ("types.py", "experiments/energy_norm.py"))
    def test_shared_source_edit_invalidates(self, tmp_path, monkeypatch,
                                            relative):
        self.assert_source_edit_invalidates(tmp_path, monkeypatch, relative)

    def test_numpy_version_changes_the_epoch(self, monkeypatch):
        before = default_code_epoch()
        monkeypatch.setattr(np, "__version__", "0.0.0")
        assert default_code_epoch() != before

    @pytest.mark.skipif(not fork_available(),
                        reason="parallel executor needs fork()")
    def test_parallel_writes_serial_reads(self, tmp_path, monkeypatch):
        reference = sweep((0.4, 0.7), workload, POLICIES,
                          n_tasksets=2, horizon=HORIZON)
        cold = self.run(tmp_path, workers=4)
        assert payloads(cold) == payloads(reference)
        calls = self.count_simulations(monkeypatch)
        warm = self.run(tmp_path)  # serial, same cache
        assert calls == []
        assert payloads(warm) == payloads(reference)

    @pytest.mark.skipif(not fork_available(),
                        reason="parallel executor needs fork()")
    def test_cache_with_checkpoint_resume(self, tmp_path):
        reference = sweep((0.4, 0.7), workload, POLICIES,
                          n_tasksets=2, horizon=HORIZON)
        ckpt = tmp_path / "ckpt"
        self.run(tmp_path / "cache", checkpoint_dir=ckpt)
        (ckpt / "cell_0001.json").unlink()
        resumed = self.run(tmp_path / "cache", workers=4,
                           checkpoint_dir=ckpt, resume=True)
        assert payloads(resumed) == payloads(reference)
        assert (ckpt / "cell_0001.json").exists()

    def test_faulted_sweeps_key_on_the_plan(self, tmp_path, monkeypatch):
        def plan_for(x: float, seed: int) -> FaultPlan:
            return FaultPlan(seed=seed, overrun=OverrunFault(
                factor=1.1, probability=1.0))

        kwargs = dict(n_tasksets=2, horizon=HORIZON, allow_misses=True,
                      cache_dir=tmp_path, workload_id=WORKLOAD_ID)
        sweep((0.6,), workload, POLICIES, **kwargs)
        calls = self.count_simulations(monkeypatch)
        # Same scalars, now with a fault plan: must not hit.
        faulted = sweep((0.6,), workload, POLICIES,
                        faults_factory=plan_for, **kwargs)
        assert len(calls) == 2
        reference = sweep((0.6,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON, allow_misses=True,
                          faults_factory=plan_for)
        assert payloads(faulted) == payloads(reference)
