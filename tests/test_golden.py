"""Golden output: the headline figure re-exports byte-equal.

Runs full EXP-F1 (energy vs utilization, every policy, 10 task sets
per cell) and writes it with the exporter ``repro run --out`` uses,
then compares the files against the checked-in ``results/exp_f1.*``.
Any change to the engine, a policy, the slack analysis, workload
generation or the exporter that moves a single digit of the paper's
headline figure fails here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.io import write_csv, write_json

RESULTS = Path(__file__).resolve().parents[1] / "results"


@pytest.mark.slow
def test_fig1_matches_checked_in_results(tmp_path):
    data = FIGURES["fig1"]()
    assert data.experiment_id == "EXP-F1"
    write_json(data, tmp_path / "exp_f1.json")
    write_csv(data, tmp_path / "exp_f1.csv")
    for name in ("exp_f1.json", "exp_f1.csv"):
        assert ((tmp_path / name).read_bytes()
                == (RESULTS / name).read_bytes()), name
