"""Mass-conserving advection-diffusion-reaction dynamics on graphs with a
scratch reverse-mode tape, training harnesses and study drivers."""

import os as _os

# Propagate the thread cap before any BLAS-backed import reads its env.
if _os.environ.get("ADRGNN_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["ADRGNN_THREADS"])

from .autodiff import Tape, Variable, backward, cg_solve
from .graph import Graph, build_graph, dirichlet_energy, erdos_renyi, laplacian_apply
from .operators import (AdrLayerParams, AdvectionParams, DiffusionParams,
                        EdgeVelocities, ReactionParams, adr_layer, advect,
                        diffuse, edge_velocities, react, splitting_error_study)
from .models import (AdrGnnStatic, AdrGnnTemporal, GcnBaseline, load_checkpoint,
                     save_checkpoint, time_embedding)
from .data import (DatasetBundle, TemporalDataset, TransportTask,
                   generate_splits, load_graph_dataset, load_temporal_dataset,
                   make_transport_task, make_windows, normalize_series,
                   save_bundle, save_temporal)
from .training import (AdamW, Metrics, TrainConfig, TrainingDiverged,
                       ablation_study, depth_energy_study, evaluate,
                       train_node_classification, train_temporal, transport_fit)

__version__ = "0.1.0"
