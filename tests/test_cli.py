from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adrgnn
from adrgnn import cli
from adrgnn.cli import main
from adrgnn.data import (TemporalDataset, make_planted_partition, save_bundle,
                         save_temporal)
from adrgnn.graph import erdos_renyi
from adrgnn.runtime import blas_threads, philox


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory) -> Path:
    bundle = make_planted_partition(24, 2, 0.35, 0.05, feat_dim=4, noise=0.6,
                                    seed=3, k_splits=2)
    out = tmp_path_factory.mktemp("data") / "toy"
    save_bundle(bundle, out)
    return out


@pytest.fixture(scope="module")
def toy_temporal(tmp_path_factory) -> Path:
    gen = philox(9)
    g = erdos_renyi(6, 0.6, seed=9)
    t = np.arange(30)[:, None, None]
    series = 2.0 + np.sin(0.4 * t) + 0.05 * gen.standard_normal((30, 6, 1))
    ds = TemporalDataset(graph=g, series=series,
                         timestamps=np.arange(30, dtype=np.float64), name="wave")
    out = tmp_path_factory.mktemp("data") / "wave"
    save_temporal(ds, out)
    return out


def read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def fast_config(tmp_path: Path) -> Path:
    cfg = {
        "lr": {g: 1e-2 for g in ("embedding", "advection", "diffusion", "reaction")},
        "weight_decay": {g: 0.0 for g in ("embedding", "advection", "diffusion", "reaction")},
        "dropout_io": 0.1, "dropout_hidden": 0.1, "h": 1.0, "layers": 2, "hidden": 8,
        "epochs": 25, "patience": 25, "seed": 1, "cg_iterations": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestTrainCommand:
    def test_toy_run_writes_contract_outputs(self, toy_dataset, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--dataset", str(toy_dataset), "--out", str(out),
                     "--config", str(fast_config(tmp_path)), "--splits", "1"])
        assert code == 0
        for name in ("metrics.csv", "metrics.jsonl", "manifest.json", "checkpoint.bin"):
            assert (out / name).exists()
        rows = read_csv(out / "metrics.csv")
        assert {"dataset", "split", "seed", "metric", "value"} == set(rows[0])
        assert any(r["metric"] == "accuracy" for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["epochs"] == 25
        assert manifest["dataset"]["checksum"]
        assert manifest["wall_clock_seconds"] is not None
        assert manifest["blas_threads"] == blas_threads()

    def test_blas_thread_count_is_read_from_the_library(self):
        if blas_threads() is None:
            pytest.skip("no loaded OpenBLAS answers a thread-count getter")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(adrgnn.__file__).parents[1])}
        child = subprocess.run(
            [sys.executable, "-c", "from adrgnn.runtime import blas_threads; "
                                   "print(blas_threads())"],
            env=env, capture_output=True, text=True, check=True)
        assert child.stdout.strip() == "1"

    @pytest.mark.parametrize("recorded, current, warns", [
        (2, 4, True), (4, 4, False), (None, 4, False), (2, None, False)])
    def test_rerun_from_manifest_warns_on_another_blas_thread_count(
            self, toy_dataset, tmp_path, monkeypatch, caplog, recorded, current, warns):
        first = tmp_path / "first"
        assert main(["train", "--dataset", str(toy_dataset), "--out", str(first),
                     "--config", str(fast_config(tmp_path)), "--splits", "1",
                     "--epochs", "1"]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["blas_threads"] = recorded
        (first / "manifest.json").write_text(json.dumps(manifest))
        monkeypatch.setattr(cli, "blas_threads", lambda: current)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="adrgnn.cli"):
            assert main(["train", "--dataset", str(toy_dataset), "--out",
                         str(tmp_path / "rerun"), "--config", str(first / "manifest.json"),
                         "--splits", "1"]) == 0
        messages = [r.getMessage() for r in caplog.records if r.name == "adrgnn.cli"]
        if warns:
            assert len(messages) == 1
            assert "2 BLAS threads" in messages[0] and "has 4" in messages[0]
        else:
            assert messages == []

    def test_missing_dataset_exits_2_with_path(self, tmp_path, capsys):
        code = main(["train", "--dataset", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "absent" in capsys.readouterr().err

    def test_bad_config_exits_2(self, toy_dataset, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"unknown_key": 5}))
        code = main(["train", "--dataset", str(toy_dataset), "--config", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("key, value", [("layers", "2"), ("lr", 0.01), ("epochs", 1.5)])
    def test_wrongly_typed_config_field_exits_2_naming_it(self, key, value, toy_dataset,
                                                          tmp_path, capsys):
        path = fast_config(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        code = main(["train", "--dataset", str(toy_dataset), "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config {key} must be" in capsys.readouterr().err

    def test_seeded_reruns_byte_identical(self, toy_dataset, tmp_path):
        cfg = fast_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--dataset", str(toy_dataset), "--out", str(out),
                         "--config", str(cfg), "--splits", "1"]) == 0
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_rerun_from_manifest_reproduces_metrics(self, toy_dataset, tmp_path):
        cfg = fast_config(tmp_path)
        first = tmp_path / "first"
        assert main(["train", "--dataset", str(toy_dataset), "--out", str(first),
                     "--config", str(cfg), "--splits", "1"]) == 0
        second = tmp_path / "second"
        assert main(["train", "--dataset", str(toy_dataset), "--out", str(second),
                     "--config", str(first / "manifest.json"), "--splits", "1"]) == 0
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()

    @staticmethod
    def run_outputs(out: Path) -> dict:
        return {name: (out / name).read_bytes()
                for name in ("metrics.csv", "metrics.jsonl", "checkpoint.bin")}

    def test_rerun_from_manifest_keeps_the_split_count(self, toy_dataset, tmp_path):
        first = tmp_path / "first"
        assert main(["train", "--dataset", str(toy_dataset), "--out", str(first),
                     "--config", str(fast_config(tmp_path)), "--epochs", "3",
                     "--splits", "1"]) == 0
        assert json.loads((first / "manifest.json").read_text())["run_options"] == {
            "splits": 1, "normalize": "per_node"}
        rerun = tmp_path / "rerun"
        assert main(["train", "--dataset", str(toy_dataset), "--out", str(rerun),
                     "--config", str(first / "manifest.json")]) == 0
        assert self.run_outputs(rerun) == self.run_outputs(first)
        # a flag given wins over the manifest's record
        both = tmp_path / "both"
        assert main(["train", "--dataset", str(toy_dataset), "--out", str(both),
                     "--config", str(first / "manifest.json"), "--splits", "all"]) == 0
        assert {r["split"] for r in read_csv(both / "metrics.csv")} == {
            "0", "1", "mean", "std"}

    def test_rerun_from_manifest_keeps_the_normalization(self, toy_temporal, tmp_path):
        first = tmp_path / "first"
        assert main(["train", "--dataset", str(toy_temporal), "--out", str(first),
                     "--splits", "1", "--epochs", "2", "--layers", "2", "--loss", "mse",
                     "--hidden", "8", "--normalize", "global"]) == 0
        rerun = tmp_path / "rerun"
        assert main(["train", "--dataset", str(toy_temporal), "--out", str(rerun),
                     "--config", str(first / "manifest.json")]) == 0
        assert self.run_outputs(rerun) == self.run_outputs(first)
        per_node = tmp_path / "per_node"
        assert main(["train", "--dataset", str(toy_temporal), "--out", str(per_node),
                     "--config", str(first / "manifest.json"), "--normalize", "per_node"]) == 0
        assert (per_node / "metrics.csv").read_bytes() != (first / "metrics.csv").read_bytes()

    def test_worker_processes_match_in_process_splits(self, tmp_path):
        bundle = make_planted_partition(24, 2, 0.35, 0.05, feat_dim=4, noise=0.6,
                                        seed=3, k_splits=3)
        save_bundle(bundle, tmp_path / "toy3")
        cfg = fast_config(tmp_path)
        outs = {}
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            assert main(["train", "--dataset", str(tmp_path / "toy3"), "--out", str(out),
                         "--config", str(cfg), "--splits", "3", "--epochs", "5",
                         "--workers", workers]) == 0
            outs[workers] = {name: (out / name).read_bytes()
                             for name in ("metrics.csv", "metrics.jsonl", "checkpoint.bin")}
        assert outs["1"] == outs["2"]
        assert {r["split"] for r in read_csv(tmp_path / "workers2" / "metrics.csv")} == {
            "0", "1", "2", "mean", "std"}

    def test_temporal_dataset_trains(self, toy_temporal, tmp_path):
        out = tmp_path / "trun"
        code = main(["train", "--dataset", str(toy_temporal), "--out", str(out),
                     "--splits", "1", "--epochs", "3", "--layers", "2", "--loss", "mse",
                     "--hidden", "8", "--dropout-io", "0.0", "--dropout-hidden", "0.0"])
        assert code == 0
        rows = read_csv(out / "metrics.csv")
        assert any(r["metric"] == "mse" for r in rows)

    def test_temporal_dataset_rejects_classification_loss(self, toy_temporal, tmp_path,
                                                          capsys):
        code = main(["train", "--dataset", str(toy_temporal), "--out", str(tmp_path / "t"),
                     "--splits", "1", "--epochs", "1"])
        assert code == 2
        assert "'cross_entropy'" in capsys.readouterr().err


    def test_temporal_dataset_refuses_worker_processes(self, toy_temporal, tmp_path, capsys):
        out = tmp_path / "t"
        code = main(["train", "--dataset", str(toy_temporal), "--out", str(out),
                     "--splits", "2", "--epochs", "1", "--loss", "mse", "--workers", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--workers 2" in err and "temporal" in err
        assert not (out / "metrics.csv").exists()


class TestEvalCommand:
    def test_checkpoint_eval_roundtrip(self, toy_dataset, tmp_path):
        run = tmp_path / "run"
        assert main(["train", "--dataset", str(toy_dataset), "--out", str(run),
                     "--config", str(fast_config(tmp_path)), "--splits", "1"]) == 0
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--dataset", str(toy_dataset), "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "metrics.csv")
        assert any(r["metric"] == "accuracy" for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["checkpoint"] == {
            "path": str(run / "checkpoint.bin"),
            "sha256": hashlib.sha256((run / "checkpoint.bin").read_bytes()).hexdigest()}
        assert manifest["run_options"] == {"normalize": "per_node"}

    def test_manifest_is_written_before_the_checkpoint_is_loaded(self, toy_dataset,
                                                                 tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(tmp_path / "missing.bin"),
                     "--dataset", str(toy_dataset), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "eval" and manifest["outputs"] == []
        assert manifest["resolved_config"]["checkpoint"]["sha256"] is None

    @pytest.mark.parametrize("terms", ["A", "AD"])
    def test_term_ablated_checkpoint_eval_matches_training_metrics(self, toy_dataset,
                                                                   tmp_path, capsys, terms):
        run = tmp_path / "run"
        assert main(["train", "--dataset", str(toy_dataset), "--out", str(run),
                     "--config", str(fast_config(tmp_path)), "--splits", "1",
                     "--terms", terms]) == 0
        trained = {r["metric"]: float(r["value"])
                   for r in read_csv(run / "metrics.csv") if r["split"] == "0"}
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--dataset", str(toy_dataset)]) == 0
        evaluated = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert evaluated == trained

    def test_temporal_checkpoint_eval_matches_training_metric(self, toy_temporal,
                                                              tmp_path, capsys):
        run = tmp_path / "trun"
        assert main(["train", "--dataset", str(toy_temporal), "--out", str(run),
                     "--splits", "1", "--epochs", "3", "--layers", "2", "--loss", "mse",
                     "--hidden", "8", "--dropout-io", "0.0",
                     "--dropout-hidden", "0.0"]) == 0
        trained = {r["metric"]: float(r["value"])
                   for r in read_csv(run / "metrics.csv") if r["split"] == "0"}
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--dataset", str(toy_temporal)]) == 0
        evaluated = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert evaluated["mse"] == pytest.approx(trained["mse"], rel=1e-12)


class TestTransportCommand:
    def test_study_outputs_and_mass_column(self, tmp_path):
        out = tmp_path / "transport"
        code = main(["transport", "--terms", "A", "--epochs", "120",
                     "--out", str(out)])
        assert code == 0
        trace = read_csv(out / "trace_A.csv")
        for row in trace:
            assert abs(float(row["mass"]) - 1.0) < 1e-9
        summary = read_csv(out / "transport.csv")
        assert summary[0]["terms"] == "A"
        values = read_csv(out / "node_values_A.csv")
        assert {"node", "value", "target"} == set(values[0])


class TestSplitStudyCommand:
    def test_csv_columns_and_quartic_shrinkage(self, tmp_path):
        out = tmp_path / "split"
        code = main(["split-study", "--trials", "20", "--dt", "0.05",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "split_study.csv")
        assert {"trial", "dt", "discrepancy"} == set(rows[0])
        by_trial = {}
        for row in rows:
            by_trial.setdefault(row["trial"], {})[float(row["dt"])] = float(row["discrepancy"])
        ratios = [vals[0.05] / vals[0.025] for vals in by_trial.values()]
        assert 3.3 <= np.mean(ratios) <= 4.7


class TestGradcheckCommand:
    def test_exits_zero_and_writes_csv(self, tmp_path):
        out = tmp_path / "gc"
        code = main(["gradcheck", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "gradcheck.csv")
        assert all(r["status"] == "pass" for r in rows)
        assert len(rows) >= 20
        assert "linear" in {r["check"] for r in rows}  # the fused rule Linear runs


class TestEnergyCommand:
    def test_layer_zero_relative_energy_is_one(self, toy_dataset, tmp_path):
        out = tmp_path / "energy"
        code = main(["energy", "--dataset", str(toy_dataset), "--depths", "2",
                     "--epochs", "5", "--patience", "5", "--hidden", "8",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "energy.csv")
        for row in rows:
            if row["layer"] == "0":
                assert float(row["relative_energy"]) == 1.0
        assert {r["model"] for r in rows} == {"adr", "gcn"}


class TestAblateCommand:
    def test_rows_per_term_subset(self, toy_dataset, tmp_path):
        out = tmp_path / "ablate"
        code = main(["ablate", "--dataset", str(toy_dataset), "--terms-list", "A,ADR",
                     "--splits", "1", "--epochs", "5", "--patience", "5",
                     "--hidden", "8", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "ablation.csv")
        assert {r["terms"] for r in rows} == {"A", "ADR"}


# each command with its non-default run options, their record, and its outputs
RERUNS = {
    "train": (["--splits", "1"], {"splits": 1, "normalize": "per_node"},
              ["metrics.csv", "metrics.jsonl", "checkpoint.bin"]),
    "energy": (["--depths", "2,4", "--split", "1"], {"depths": [2, 4], "split": 1},
               ["energy.csv"]),
    "ablate": (["--terms-list", "a,DR", "--splits", "1"],
               {"terms_list": ["A", "DR"], "splits": 1}, ["ablation.csv"]),
}


@pytest.mark.parametrize("command", sorted(RERUNS))
def test_rerun_from_own_manifest_is_byte_identical(command, toy_dataset, tmp_path):
    flags, recorded, outputs = RERUNS[command]
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    assert main([command, "--dataset", str(toy_dataset), "--out", str(first),
                 "--config", str(fast_config(tmp_path)), "--epochs", "3", *flags]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["run_options"] == recorded
    assert main([command, "--dataset", str(toy_dataset), "--out", str(rerun),
                 "--config", str(first / "manifest.json")]) == 0
    for name in outputs:
        assert (rerun / name).read_bytes() == (first / name).read_bytes(), name


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["mystery"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", "/tmp/x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("splits", ["0", "-2", "two", "1.5"])
    def test_split_count_below_one_or_not_a_count_exits_2(self, command, splits, toy_dataset,
                                                         tmp_path, capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", str(toy_dataset), "--out", str(out),
                  "--splits", splits])
        assert exc.value.code == 2
        assert "--splits" in capsys.readouterr().err
        assert not out.exists()

    def test_temporal_split_count_zero_exits_2(self, toy_temporal, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--dataset", str(toy_temporal), "--out", str(out), "--splits", "0"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_epochs_zero_exits_2(self, toy_dataset, tmp_path, capsys):
        code = main(["train", "--dataset", str(toy_dataset), "--out", str(tmp_path / "run"),
                     "--config", str(fast_config(tmp_path)), "--epochs", "0"])
        assert code == 2
        assert "epochs must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["2", "-1"])
    def test_split_index_outside_the_bundle_exits_2(self, split, toy_dataset, tmp_path,
                                                    capsys):
        run = tmp_path / "run"
        assert main(["train", "--dataset", str(toy_dataset), "--out", str(run),
                     "--config", str(fast_config(tmp_path)), "--epochs", "2",
                     "--splits", "1"]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--dataset", str(toy_dataset), "--split", split]) == 2
        assert main(["energy", "--dataset", str(toy_dataset), "--depths", "2",
                     "--epochs", "2", "--split", split, "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"split {split} out of range: the bundle has 2 split(s)") == 2

    def test_split_count_above_the_bundle_runs_every_split(self, toy_dataset, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--dataset", str(toy_dataset), "--out", str(out),
                     "--config", str(fast_config(tmp_path)), "--epochs", "2",
                     "--splits", "5"]) == 0
        splits = {r["split"] for r in read_csv(out / "metrics.csv")}
        assert splits == {"0", "1", "mean", "std"}
