"""Temporal BEV 3D object detection on synthetic LiDAR scenes.

Pipeline: point cloud -> pillar/voxel grid -> BEV backbone -> across-frame
feature aggregation -> center-based multi-task head -> decoded boxes ->
distance-matched detection metrics. Everything runs on numpy with a small
reverse-mode autodiff core, so training and inference need no GPU.
"""

from .augment import AugmentConfig, AugTransform, apply_transform, sample_transform
from .backbone import BackboneConfig, Neck, PillarFeatureNet
from .decode import Detection, MatchConfig, decode, find_peaks
from .errors import ConfigError, DataError, DivergenceError, ShapeError, StateError
from .fmf import FMFConfig, FMFState, fmf_step, warp_feature_map
from .frameio import read_frame, read_sequence, write_frame, write_sequence
from .geometry import MapGeometry, Pose2D, relative_pose, rot2d, wrap_angle
from .heads import (DetectionHead, FocalParams, HeadOutput, LossWeights,
                    TargetMaps, focal_loss, gaussian_radius, regression_losses,
                    render_targets, total_loss)
from .metrics import EvalResult, evaluate, match_and_ap, nds, read_detections, write_detections
from .model import Detector, run_inference
from .optim import AdamW, one_cycle_lr
from .scene import Box3D, PointCloudFrame, SceneSequence, SceneSpec, generate_scene
from .train import TrainConfig, build_model, load_checkpoint, save_checkpoint, train
from .voxelizer import (GridConfig, PillarTensor, desk_pillar_config,
                        desk_voxel_config, voxelize)

__version__ = "0.1.0"

__all__ = [
    "AdamW", "AugTransform", "AugmentConfig", "BackboneConfig", "Box3D",
    "ConfigError", "DataError", "Detection", "DetectionHead", "Detector",
    "DivergenceError", "EvalResult", "FMFConfig", "FMFState",
    "FocalParams", "GridConfig", "HeadOutput", "LossWeights",
    "MapGeometry", "MatchConfig", "Neck", "PillarFeatureNet", "PillarTensor",
    "PointCloudFrame", "Pose2D", "SceneSequence", "SceneSpec", "ShapeError",
    "StateError", "TargetMaps", "TrainConfig", "apply_transform",
    "build_model", "decode", "desk_pillar_config", "desk_voxel_config",
    "evaluate", "find_peaks", "fmf_step", "focal_loss",
    "gaussian_radius", "generate_scene", "load_checkpoint", "match_and_ap",
    "nds", "one_cycle_lr", "read_detections", "read_frame", "read_sequence",
    "regression_losses", "relative_pose", "render_targets", "rot2d",
    "run_inference", "sample_transform", "save_checkpoint", "total_loss",
    "train", "voxelize", "warp_feature_map", "wrap_angle", "write_detections",
    "write_frame", "write_sequence",
]
