"""Every taped primitive of ``adrgnn.autodiff`` is one that a shipped training
path records: a differentiable form that only tests or the gradient checks
reach belongs in the tests (as the op-by-op oracles of ``conftest.py`` do)."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import adrgnn.autodiff as ad
from adrgnn import training
from adrgnn.data import TemporalDataset, make_planted_partition, make_transport_task
from adrgnn.graph import erdos_renyi
from adrgnn.runtime import philox
from adrgnn.training import (TrainConfig, train_gcn_baseline, train_node_classification,
                             train_temporal, transport_fit)

from conftest import bag_of_words_bundle


def taped_primitives() -> set[str]:
    """The public functions of ``adrgnn.autodiff`` that emit a tape record."""
    return {name for name, fn in vars(ad).items()
            if inspect.isfunction(fn) and fn.__module__ == ad.__name__
            and not name.startswith("_") and "_emit(" in inspect.getsource(fn)}


@pytest.fixture
def recorded(monkeypatch) -> set[str]:
    """The ops whose records each taped training step backpropagates, by the
    function that defines the record's rule."""
    ops, backward = set(), training.backward

    def spy(tape, loss):
        ops.update(rule.__qualname__.split(".")[0] for _node, _slots, rule in tape.records)
        return backward(tape, loss)

    monkeypatch.setattr(training, "backward", spy)
    return ops


def one_step(**kwargs) -> TrainConfig:
    return TrainConfig(**{"epochs": 1, "patience": 1, "layers": 1, "hidden": 4,
                          "dropout_io": 0.3, "dropout_hidden": 0.2, **kwargs})


def test_every_taped_primitive_is_recorded_by_a_shipped_path(recorded):
    dense = make_planted_partition(30, 2, 0.3, 0.05, feat_dim=5, noise=0.5, seed=0,
                                   k_splits=1)
    for bundle in (dense, bag_of_words_bundle()):
        for use_batchnorm in (False, True):
            train_node_classification(bundle, one_step(use_batchnorm=use_batchnorm))
    train_gcn_baseline(dense, one_step())
    series = philox(4).standard_normal((12, 5, 1))
    temporal = TemporalDataset(graph=erdos_renyi(5, 0.8, seed=3), series=series,
                               timestamps=np.arange(12, dtype=np.float64))
    for loss in ("mse", "mae"):
        train_temporal(temporal, one_step(loss=loss, n_frequencies=2))
    transport_fit(make_transport_task(5, 0.55, 2, seed=2), "ADR", layers=1, epochs=1,
                  channels=2)

    assert "fixed_sparse_matmul" in recorded and "advection" in recorded
    unrecorded = sorted(taped_primitives() - recorded)
    assert not unrecorded, f"taped primitives no shipped path records: {unrecorded}"
