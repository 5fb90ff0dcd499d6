"""The assembled detector: voxelize -> PFN -> neck -> temporal fusion -> head.

With fusion disabled the temporal block is an identity pass-through of the
current map, which removes exactly the fusion parameters from the model.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .backbone import BackboneConfig, Neck, PillarFeatureNet
from .fmf import FMFConfig, FMFState, fmf_step
from .geometry import MapGeometry
from .heads import DetectionHead
from .layers import ConvBNReLU, Module
from .voxelizer import GridConfig, voxelize


STAGES = ("voxelize", "backbone", "neck", "fmf", "head", "decode")


def _no_stamp(stage):
    """Default per-stage callback: records nothing."""


class Detector(Module):
    def __init__(self, grid: GridConfig, backbone: BackboneConfig,
                 fmf_cfg: FMFConfig, num_classes: int, head_channels: int,
                 seed: int = 0, compute_dtype="float32"):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.grid = grid
        self.fmf_cfg = fmf_cfg
        self.num_classes = num_classes
        self.geometry = MapGeometry.from_grid(grid, backbone.s_out)
        self.pfn = self.add_child(
            "pfn", PillarFeatureNet(grid.feature_dim, backbone.pfn_channels, rng))
        self.neck = self.add_child("neck", Neck(backbone, rng))
        self.fmf = None
        if fmf_cfg.enabled:
            self.fmf = self.add_child("fmf", ConvBNReLU(
                2 * backbone.out_channels, backbone.out_channels, fmf_cfg.kernel_size, rng))
        self.head = self.add_child(
            "head", DetectionHead(backbone.out_channels, head_channels,
                                  num_classes, rng))
        # the init draws above are float64, so both dtypes start alike
        dtype = np.dtype(compute_dtype)
        for _key, t in self.named_state():
            t.data = t.data.astype(dtype, copy=False)

    def fusion_pose(self, frame):
        """The ego pose fusion sees: `frame.ego_pose`, or None with odometry off."""
        return frame.ego_pose if self.fmf_cfg.use_odometry else None

    def extract(self, frame, vox_seed=0, stamp=_no_stamp):
        """Point cloud -> BEV feature map [1, C, h, w]."""
        pillars = voxelize(frame, self.grid, vox_seed)
        stamp("voxelize")
        pseudo = self.pfn(pillars)
        stamp("backbone")
        bev = self.neck(pseudo)
        stamp("neck")
        return bev

    def forward_frame(self, frame, state: FMFState = None, vox_seed=0,
                      stamp=_no_stamp, cells=None):
        """One sequence step: returns (HeadOutput, new state). `stamp(stage)`
        is called as each stage of STAGES up to head finishes, in order. With
        fusion disabled the map passes to the head unchanged. `cells` is the
        head's (see DetectionHead)."""
        bev = self.extract(frame, vox_seed, stamp)
        if self.fmf is not None:
            bev, state = fmf_step(bev, state, self.fmf, self.fusion_pose(frame), self.geometry)
        stamp("fmf")
        out = self.head(bev, cells)
        stamp("head")
        return out, state

    def forward_pair(self, prev_frame, cur_frame, vox_seeds=(0, 0), cells=None):
        """Training-style pair forward from the state a streaming step leaves after
        `prev_frame`; both frames' features stay in the graph, the head sees `cur_frame`."""
        state = FMFState(prev_map=self.extract(prev_frame, vox_seeds[0]),
                         prev_pose=self.fusion_pose(prev_frame))
        return self.forward_frame(cur_frame, state, vox_seeds[1], cells=cells)[0]


def run_inference(model: Detector, sequence, match_cfg, stamp=_no_stamp):
    """Frame-ordered inference over one sequence; returns per-frame detections.
    `stamp(stage)` is called as in Detector.forward_frame, then after decode.
    The head evaluates its regression maps at the peaks decode then reads."""
    # imported per call, so a wrapper set on the decode module's decode is the one run
    from .decode import decode, select_peaks

    model.eval()
    det_frames = []
    state = None
    chosen = []

    def peak_cells(heatmap):
        chosen.append(select_peaks(heatmap, match_cfg))
        return chosen[-1][1:3]

    with ad.no_grad():
        for frame in sequence.frames:
            out, state = model.forward_frame(frame, state, stamp=stamp, cells=peak_cells)
            out.peaks = match_cfg, chosen.pop()
            det_frames.append(decode(out, model.geometry, match_cfg))
            stamp("decode")
    return det_frames
