"""scripts/compare_outputs.py: a checkout trains (and runs the depth-energy
study) to the bytes of itself, and a differing or failed run fails the
comparison."""

from __future__ import annotations

import csv
import importlib.util
import subprocess
from pathlib import Path

import numpy as np
import pytest

from adrgnn.data import TemporalDataset, make_planted_partition, save_bundle, save_temporal
from adrgnn.graph import erdos_renyi
from adrgnn.runtime import philox

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_inputs(work: Path) -> dict[str, Path]:
    bundle = make_planted_partition(24, 2, 0.35, 0.05, feat_dim=4, noise=0.6, seed=3,
                                    k_splits=1)
    series = 2.0 + np.sin(0.4 * np.arange(16))[:, None, None] + philox(9).random((16, 6, 1))
    temporal = TemporalDataset(graph=erdos_renyi(6, 0.6, seed=9), series=series,
                               timestamps=np.arange(16, dtype=np.float64), name="wave")
    return {"cora": save_bundle(bundle, work / "cora"),
            "chickenpox": save_temporal(temporal, work / "chickenpox")}


def test_a_checkout_matches_itself(script, tmp_path, capsys):
    assert script.compare(ROOT, ROOT, small_inputs(tmp_path), 1, tmp_path) == []
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(script.DTYPES) * sum(len(script.OUTPUTS[command])
                                                  for command, _, _ in script.CASES)
    assert all(line.endswith("identical") for line in lines)
    # float32 runs train in float32
    with np.load(tmp_path / "change" / "cora-float32" / "checkpoint.bin") as saved:
        assert saved["param:g_in.w"].dtype == np.float32
    # the energy study trains and reads out both models at depth 2
    for dtype in script.DTYPES:
        with open(tmp_path / "change" / f"energy-cora-{dtype}" / "energy.csv") as f:
            rows = list(csv.DictReader(f))
        assert {(r["model"], r["depth"]) for r in rows} == {("adr", "2"), ("gcn", "2")}


def test_a_differing_output_or_a_failed_run_fails(script, tmp_path, monkeypatch):
    def fake_run(checkout, command, config, dataset, dtype, epochs, out):
        out.mkdir(parents=True)
        for name in script.OUTPUTS[command]:
            (out / name).write_text(name)
        if checkout.name == "change" and (command, config) == ("train", "cora"):
            (out / "metrics.jsonl").write_text("another history")
        if checkout.name == "change" and command == "energy" and dtype == "float32":
            (out / "energy.csv").unlink()
        failed = checkout.name == "change" and config == "chickenpox"
        return subprocess.CompletedProcess([], 3 if failed else 0, "", "")

    monkeypatch.setattr(script, "run", fake_run)
    failures = script.compare(tmp_path / "parent", tmp_path / "change",
                              {"cora": None, "chickenpox": None}, 1, tmp_path / "runs")
    assert failures == [f"cora-{dtype}: metrics.jsonl differs or is missing"
                        for dtype in script.DTYPES] + [
        f"chickenpox-{dtype}: the change run exited 3" for dtype in script.DTYPES] + [
        "energy-cora-float32: energy.csv differs or is missing"]
