"""Center-based multi-task head, Gaussian heatmap targets, and losses.

The head predicts, per BEV cell: a per-class center heatmap plus offset,
height, log-size, (sin, cos) rotation, and velocity regression maps. The
regression maps hold values at the cells the head evaluated (object centres
in training, decoded peaks in inference) and are zero elsewhere; `decode`
and `regression_losses` read only those cells. Targets
render one Gaussian per object onto the class channel (max-combined), with
regression supervised only at the integer center cells.

The head runs in the model's compute dtype; the loss tail is float64 on
every NumPy version. Targets are float64, and each loss is one autodiff op
(`ad.focal`, `ad.l1_mean`) that casts its input to float64, so a float32
head and its float64 cast give the same losses. Of the gradients that flow
back, only the K-channel heatmap one is float64 in a float32 model, up to the
heatmap's final conv, whose backward works in the compute dtype.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError
from .geometry import MapGeometry
from .layers import Conv2d, Module

REG_BRANCHES = (("offset", 2), ("height", 1), ("size", 3), ("rotation", 2),
                ("velocity", 2))
# The one order of the regression losses: regression_losses returns them in
# it, train's trace columns L_l..L_v follow it, and total_loss weights them in it.
LOSS_TERMS = ("offset", "size", "height", "rotation", "velocity")


@dataclasses.dataclass(frozen=True)
class FocalParams:
    alpha: float = 2.0
    beta: float = 4.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("focal exponents must be positive")


@dataclasses.dataclass(frozen=True)
class LossWeights:
    offset: float = 1.0
    size: float = 1.0
    height: float = 1.0
    rotation: float = 0.2
    velocity: float = 1.0

    def __post_init__(self):
        if min(dataclasses.astuple(self)) < 0:
            raise ConfigError("loss weights must be nonnegative")


@dataclasses.dataclass
class HeadOutput:
    """One frame's head maps; the regression maps are zero outside the cells
    the head evaluated. `peaks`, not a field, is (MatchConfig, select_peaks
    result) when run_inference chose those cells, for decode to reuse."""

    heatmap: object   # [1,K,h,w], post-sigmoid
    offset: object    # [1,2,h,w], cells (dx, dy)
    height: object    # [1,1,h,w], meters
    size: object      # [1,3,h,w], (log w, log l, log h)
    rotation: object  # [1,2,h,w], (sin yaw, cos yaw)
    velocity: object  # [1,2,h,w], m/s
    peaks = None


@dataclasses.dataclass
class TargetMaps:
    """Rendered supervision for one frame.

    center_mask lists ((iy, ix), class_id, object_index) for every kept box;
    the regression target rows align with that order.
    """

    heatmap: np.ndarray        # [K,h,w]
    center_mask: list
    offset: np.ndarray         # [N,2]
    height: np.ndarray         # [N,1]
    size: np.ndarray           # [N,3] log-space
    rotation: np.ndarray       # [N,2]
    velocity: np.ndarray       # [N,2]
    num_objects: int

    def centers(self):
        """(ys, xs) of the center cells, in center_mask order."""
        return np.array([c[0] for c in self.center_mask], np.int64).reshape(-1, 2).T


class DetectionHead(Module):
    """Per-branch conv(C->Ch,3x3) -> ReLU -> conv(Ch->out,1x1).

    The heatmap branch ends in a sigmoid; its final conv starts at zero
    weights with bias -log((1-p)/p), p=0.1, so a fresh model predicts 0.1
    everywhere. Regression branches are row GEMMs on the 3x3 windows at the
    (ys, xs) = cells(sigmoid heatmap [K,h,w]), every cell if cells is None.
    """

    def __init__(self, in_channels, head_channels, num_classes, rng):
        super().__init__()
        if num_classes < 1:
            raise ConfigError("need at least one class")
        self.branches = {}
        for name, out in (("heatmap", num_classes),) + REG_BRANCHES:
            hidden = self.add_child(f"{name}.hidden",
                                    Conv2d(in_channels, head_channels, 3, rng))
            final = self.add_child(f"{name}.final",
                                   Conv2d(head_channels, out, 1, rng))
            if name == "heatmap":
                final.weight.data[:] = 0.0
                final.bias.data[:] = -math.log((1.0 - 0.1) / 0.1)
            self.branches[name] = (hidden, final)

    def __call__(self, bev, cells=None):
        if bev.data.ndim != 4:
            raise ShapeError("head expects a [1,C,h,w] map")
        hidden, final = self.branches["heatmap"]
        maps = {"heatmap": ad.sigmoid(final(ad.relu(hidden(bev))))}
        h, w = bev.data.shape[2:]
        ys, xs = np.indices((h, w)) if cells is None else cells(maps["heatmap"].data[0])
        # scatter_to_grid needs ascending unique cells; two boxes may share a centre
        flat = np.unique(np.asarray(ys, np.int64) * w + xs)
        windows = ad.gather_pixels(bev, *np.divmod(flat, w), k=3)
        for name, _ in REG_BRANCHES:
            hidden, final = self.branches[name]
            rows = ad.relu(ad.conv_rows(windows, hidden.weight, hidden.bias))
            rows = ad.conv_rows(rows, final.weight, final.bias)
            maps[name] = ad.scatter_to_grid(rows, flat, (w, h))
        return HeadOutput(**maps)


def gaussian_radius(box, cell_size, min_overlap=0.1):
    """Gaussian spread (in cells) for a box's heatmap blob.

    The radius is the largest integer displacement of the box's axis-aligned
    BEV footprint that still guarantees IoU >= min_overlap (three-case
    quadratic construction), clamped to >= 2 cells; sigma = radius / 3.
    """
    bw = box.w / cell_size
    bl = box.l / cell_size

    a1 = 1.0
    b1 = bl + bw
    c1 = bw * bl * (1.0 - min_overlap) / (1.0 + min_overlap)
    r1 = (b1 + math.sqrt(b1 * b1 - 4.0 * a1 * c1)) / 2.0

    a2 = 4.0
    b2 = 2.0 * (bl + bw)
    c2 = (1.0 - min_overlap) * bw * bl
    r2 = (b2 + math.sqrt(b2 * b2 - 4.0 * a2 * c2)) / 2.0

    a3 = 4.0 * min_overlap
    b3 = -2.0 * min_overlap * (bl + bw)
    c3 = (min_overlap - 1.0) * bw * bl
    r3 = (b3 + math.sqrt(b3 * b3 - 4.0 * a3 * c3)) / 2.0

    radius = max(2.0, min(r1, r2, r3))
    return radius / 3.0


def render_targets(gt_boxes, geom: MapGeometry, num_classes, min_overlap=0.1):
    """Rasterize boxes into heatmap + per-center regression targets.

    Boxes whose centers fall outside the grid are dropped. Per class, the
    heatmap is the elementwise max over that class's object Gaussians,
    evaluated on integer cell offsets so each center cell is exactly 1.
    Every target array is float64, whatever the model's compute dtype.
    """
    h, w = geom.h, geom.w
    heatmap = np.zeros((num_classes, h, w))
    center_mask = []
    rows = {name: [] for name, _ in REG_BRANCHES}
    gy, gx = np.mgrid[0:h, 0:w]
    for obj_idx, box in enumerate(gt_boxes):
        if not (0 <= box.class_id < num_classes):
            raise ConfigError(f"class_id {box.class_id} outside [0, {num_classes})")
        px, py = geom.to_cell(box.cx, box.cy)
        ix, iy = int(math.floor(px)), int(math.floor(py))
        if not (0 <= ix < w and 0 <= iy < h):
            continue
        sigma = gaussian_radius(box, geom.cell, min_overlap)
        d2 = (gx - ix) ** 2 + (gy - iy) ** 2
        blob = np.exp(-d2 / (2.0 * sigma * sigma))
        np.maximum(heatmap[box.class_id], blob, out=heatmap[box.class_id])
        center_mask.append(((iy, ix), box.class_id, obj_idx))
        rows["offset"].append((px - ix, py - iy))
        rows["height"].append((box.cz,))
        rows["size"].append((math.log(box.w), math.log(box.l), math.log(box.h)))
        rows["rotation"].append((math.sin(box.yaw), math.cos(box.yaw)))
        rows["velocity"].append((box.vx, box.vy))
    n = len(center_mask)
    arrays = {name: np.asarray(rows[name], dtype=np.float64).reshape(n, width)
              for name, width in REG_BRANCHES}
    return TargetMaps(heatmap=heatmap, center_mask=center_mask, num_objects=n,
                      **arrays)


def focal_loss(pred_heatmap, target: TargetMaps, fp: FocalParams):
    """Penalty-reduced pixelwise focal loss, normalized by object count.

    Center pixels (y = 1) contribute (1-z)^alpha log z; all others contribute
    (1-y)^beta z^alpha log(1-z). Predictions are clamped away from {0, 1}.
    `ad.focal` computes it in float64, whatever the heatmap's dtype.
    """
    y = target.heatmap[None]
    if pred_heatmap.data.shape != y.shape:
        raise ShapeError(f"heatmap shape {pred_heatmap.data.shape} != target "
                         f"{y.shape}")
    return ad.mul(ad.focal(pred_heatmap, y, fp.alpha, fp.beta),
                  -1.0 / max(target.num_objects, 1))


def regression_losses(head: HeadOutput, target: TargetMaps):
    """Mean absolute error at center cells for each regression branch.

    Returns one loss per LOSS_TERMS entry, in that order; all zero when the
    frame has no annotated centers. `ad.l1_mean` computes each in float64;
    the gather back into the maps keeps their dtype.
    """
    if target.num_objects == 0:
        return (ad.Tensor(0.0),) * len(LOSS_TERMS)
    ys, xs = target.centers()
    return tuple(ad.l1_mean(ad.gather_pixels(getattr(head, name), ys, xs),
                            getattr(target, name))
                 for name in LOSS_TERMS)


def total_loss(parts, weights: LossWeights):
    """Weighted sum of `train.pair_losses`' parts: the heatmap loss, then the
    regression losses in LOSS_TERMS order."""
    out = parts[0]
    for term, name in zip(parts[1:], LOSS_TERMS, strict=True):
        out = ad.add(out, ad.mul(term, getattr(weights, name)))
    return out
