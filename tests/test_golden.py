"""Golden output: the headline figure and the real-world table
re-export byte-equal.

Runs full EXP-F1 (energy vs utilization, every policy, 10 task sets
per cell) and full EXP-T2 (the real-world task sets), writes each with
the exporter ``repro run --out`` uses, then compares the files against
the checked-in ``results/exp_f1.*`` and ``results/exp_t2.*``.  Any
change to the engine, a policy, the slack analysis, workload
generation or the exporter that moves a single digit of the paper's
headline figure fails here; EXP-T2's 17-task avionics set gives the
clairvoyant oracle its longest windows.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.io import write_csv, write_json
from repro.experiments.tables import realworld_table

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


def test_table2_matches_checked_in_results(tmp_path):
    data = realworld_table()
    assert data.experiment_id == "EXP-T2"
    write_json(data, tmp_path / "exp_t2.json")
    write_csv(data, tmp_path / "exp_t2.csv")
    for name in ("exp_t2.json", "exp_t2.csv"):
        assert ((tmp_path / name).read_bytes()
                == (RESULTS / name).read_bytes()), name
