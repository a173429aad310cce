"""handrift: physics-aware diffusion refinement of noisy 3D hand motion."""

from .config import TrainConfig, default_config, load_config
from .datagen import PerturbSpec, ScriptSpec, generate_sequence, perturb, sample_script
from .denoiser import Denoiser, DenoiserConfig
from .diffusion import DiffusionSchedule, forward_sample, make_schedule, refine, reverse_transition
from .hand import HandModel, HandModelConfig, build_hand_model
from .metrics import EvalReport, accl_error, f_score, kin_metric, mje, p_mje, procrustes_align, sta_metric
from .motion import Normalizer
from .physics import (MotionState, ObjectTrack, StateTrack, annotate_states, kinetics_loss,
                      stability_loss, state_loss)
from .pipeline import RefineBundle, load_bundle, refine_sequence, save_bundle
from .rng import RandomStream
from .trainer import CorpusItem, total_loss, train

__version__ = "0.1.0"

__all__ = [
    "CorpusItem", "Denoiser", "DenoiserConfig", "DiffusionSchedule", "EvalReport", "HandModel",
    "HandModelConfig", "MotionState", "Normalizer", "ObjectTrack", "PerturbSpec", "RandomStream",
    "RefineBundle", "ScriptSpec", "StateTrack", "TrainConfig", "accl_error", "annotate_states",
    "build_hand_model", "default_config", "f_score", "forward_sample", "generate_sequence",
    "kin_metric", "kinetics_loss", "load_bundle", "load_config", "make_schedule", "mje", "p_mje",
    "perturb", "procrustes_align", "refine", "refine_sequence", "reverse_transition",
    "sample_script", "save_bundle", "sta_metric", "stability_loss", "state_loss", "total_loss",
    "train",
]
