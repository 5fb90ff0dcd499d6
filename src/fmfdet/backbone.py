"""Pillar feature network and the multi-scale BEV neck.

The PFN embeds the flat point rows of every cell, max-pools per cell, and
scatters to a dense pseudo-image. Every batch norm here ends in its ReLU
(`layers.BatchNormReLU`). The neck runs strided conv stages,
downsamples every stage to the output resolution (the last stage's stride),
concatenates them once, and fuses to the final channel width.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError
from .layers import BatchNormReLU, ConvBNReLU, Module
from .voxelizer import PillarTensor


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclasses.dataclass(frozen=True)
class BackboneConfig:
    """Widths and strides; neck_strides are per-stage downsample factors
    relative to the pseudo-image, and the last one is the output stride."""

    pfn_channels: int = 32
    neck_channels: tuple = (32, 64)
    neck_strides: tuple = (1, 2)
    out_channels: int = 64

    def __post_init__(self):
        if self.pfn_channels < 1 or self.out_channels < 1:
            raise ConfigError("channel counts must be >= 1")
        if len(self.neck_channels) != len(self.neck_strides) or not self.neck_channels:
            raise ConfigError("neck_channels and neck_strides must be equal-length, nonempty")
        if any(c < 1 for c in self.neck_channels):
            raise ConfigError("neck channel counts must be >= 1")
        prev = 1
        for s in self.neck_strides:
            if not _is_pow2(s):
                raise ConfigError(f"neck strides must be powers of two, got {s}")
            if s % prev:
                raise ConfigError("neck strides must be nondecreasing by integer factors")
            prev = s

    @property
    def s_out(self):
        return self.neck_strides[-1]


class PillarFeatureNet(Module):
    """Per-point projection [C, D] (no bias: BN would cancel it) -> BN -> ReLU,
    max per cell, scatter to grid. The float64 point rows are cast to the
    projection's dtype, the compute dtype. Voxel mode averages the maxima over
    each BEV column, whose voxels arrive adjacent."""

    def __init__(self, in_dim, channels, rng):
        super().__init__()
        self.in_dim = in_dim
        self.channels = channels
        std = math.sqrt(2.0 / in_dim)  # Kaiming-normal for a ReLU net
        self.proj = self.add_param(
            "proj", ad.Tensor(rng.normal(0.0, std, size=(in_dim, channels)).T))
        self.bn = self.add_child("bn", BatchNormReLU(channels))

    def __call__(self, pillars: PillarTensor):
        w, h = pillars.grid_dims
        dtype = self.proj.data.dtype
        if pillars.num_cells == 0:
            return ad.Tensor(np.zeros((1, self.channels, h, w), dtype))
        if pillars.features.shape[1] != self.in_dim:
            raise ShapeError(f"pillar feature dim {pillars.features.shape[1]} "
                             f"!= configured {self.in_dim}")
        counts = pillars.point_counts
        rows = ad.Tensor(pillars.features, dtype=dtype)
        embedded = self.bn(ad.conv_rows(rows, self.proj))
        cell_feats = ad.segment_max(embedded, np.cumsum(counts) - counts)
        cells = pillars.coords[:, 1] * w + pillars.coords[:, 0]
        if pillars.coords.shape[1] == 3:
            # voxel mode: average the per-voxel features over each BEV column
            col_starts = np.flatnonzero(np.diff(cells, prepend=-1))
            cell_feats = ad.segment_mean(cell_feats, col_starts)
            cells = cells[col_starts]
        return ad.scatter_to_grid(cell_feats, cells, (w, h))


class Neck(Module):
    def __init__(self, cfg: BackboneConfig, rng):
        super().__init__()
        self.cfg = cfg
        in_c = cfg.pfn_channels
        prev_stride = 1
        self.stages = []
        for i, (c, s) in enumerate(zip(cfg.neck_channels, cfg.neck_strides)):
            rel = s // prev_stride
            stage = [ConvBNReLU(in_c, c, 3, rng, stride=rel),
                     ConvBNReLU(c, c, 3, rng)]
            for j, block in enumerate(stage):
                self.add_child(f"stage{i}.{j}", block)
            self.stages.append(stage)
            in_c = c
            prev_stride = s
        self.resample_convs = []
        for i, c in enumerate(cfg.neck_channels):
            block = self.add_child(f"resample{i}", ConvBNReLU(c, c, 3, rng))
            self.resample_convs.append(block)
        self.fuse = self.add_child(
            "fuse", ConvBNReLU(sum(cfg.neck_channels), cfg.out_channels, 3, rng))

    def __call__(self, x):
        n, c, h, w = x.data.shape
        cfg = self.cfg
        if h % cfg.s_out or w % cfg.s_out:
            raise ShapeError(f"input {h}x{w} not divisible by output stride {cfg.s_out}")
        oh, ow = h // cfg.s_out, w // cfg.s_out
        outs = []
        cur = x
        for stage, conv in zip(self.stages, self.resample_convs):
            for block in stage:
                cur = block(cur)
            outs.append(conv(ad.resample_nearest(cur, (oh, ow))))
        return self.fuse(ad.concat_channels(*outs))

