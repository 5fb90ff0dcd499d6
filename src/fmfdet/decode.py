"""Turn head outputs back into scored boxes via heatmap peak picking.

A cell is a peak when it equals its 3x3 neighborhood maximum; among equal
neighbors only the lexicographically-first (row, then column) survives, so
the peak set is deterministic even on plateaus.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigError, DataError
from .geometry import MapGeometry
from .heads import HeadOutput
from .scene import Box3D
from . import autodiff as ad


@dataclasses.dataclass(frozen=True)
class MatchConfig:
    """Decode and evaluation knobs shared across the metric stack."""

    distance_thresholds: tuple = (0.5, 1.0, 2.0, 4.0)
    score_threshold: float = 0.1
    top_k: int = 100

    def __post_init__(self):
        t = self.distance_thresholds
        if not t or any(x <= 0 for x in t) or any(b <= a for a, b in zip(t, t[1:])):
            raise ConfigError("distance thresholds must be positive and ascending")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ConfigError("score_threshold must be in [0, 1]")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")


@dataclasses.dataclass(frozen=True)
class Detection:
    box: Box3D
    score: float
    class_id: int

    def rank(self):
        """The one detection order: score descending, then class, cx, cy."""
        return (-self.score, self.class_id, self.box.cx, self.box.cy)


def find_peaks(heatmap):
    """Boolean [K,h,w] mask of 3x3 local maxima with the lexicographic tie rule:
    a cell equal to its left, up-left, up or up-right in-map neighbour loses."""
    peaks = heatmap >= ad.maxpool2d(heatmap[None]).data[0]
    peaks[:, :, 1:] &= heatmap[:, :, 1:] != heatmap[:, :, :-1]
    peaks[:, 1:, 1:] &= heatmap[:, 1:, 1:] != heatmap[:, :-1, :-1]
    peaks[:, 1:, :] &= heatmap[:, 1:, :] != heatmap[:, :-1, :]
    peaks[:, 1:, :-1] &= heatmap[:, 1:, :-1] != heatmap[:, :-1, 1:]
    return peaks


def select_peaks(heatmap, cfg: MatchConfig):
    """(ks, iys, ixs, scores) of decode's peaks in heatmap [K,h,w]: find_peaks,
    the score threshold, then top_k (by score, ties by class, row, column)."""
    ks, iys, ixs = np.nonzero(find_peaks(heatmap))
    scores = heatmap[ks, iys, ixs]
    keep = scores >= cfg.score_threshold
    ks, iys, ixs, scores = ks[keep], iys[keep], ixs[keep], scores[keep]
    if scores.size > cfg.top_k:
        order = np.lexsort((ixs, iys, ks, -scores))[:cfg.top_k]
        ks, iys, ixs, scores = ks[order], iys[order], ixs[order], scores[order]
    return ks, iys, ixs, scores


def decode(head: HeadOutput, geom: MapGeometry, cfg: MatchConfig):
    """Extract up to top_k scored detections from one frame's head output, at
    select_peaks of its heatmap, or at `head.peaks` if selected under cfg."""
    made_under, chosen = head.peaks or (None, None)
    ks, iys, ixs, scores = chosen if made_under == cfg else select_peaks(head.heatmap.data[0], cfg)
    offs, sizes, rots, vels = (m.data[0][:, iys, ixs] for m in
                               (head.offset, head.size, head.rotation, head.velocity))
    cxs, cys = geom.to_world(ixs + offs[0], iys + offs[1])
    dims = np.exp(sizes)
    bad = np.flatnonzero(~(dims > 0).all(axis=0))
    if bad.size:
        j = bad[0]
        raise DataError(f"decoded box size {dims[:, j].tolist()} is not positive: class "
                        f"{ks[j]}, cell (iy, ix) = ({iys[j]}, {ixs[j]})")
    dets = []
    for k, score, cx, cy, cz, bw, bl, bh, r0, r1, vx, vy in zip(
            ks.tolist(), scores.tolist(), cxs.tolist(), cys.tolist(),
            head.height.data[0, 0, iys, ixs].tolist(), *dims.tolist(),
            *rots.tolist(), *vels.tolist()):
        box = Box3D(cx, cy, cz, bw, bl, bh, math.atan2(r0, r1), vx, vy, k)
        dets.append(Detection(box, score, k))
    dets.sort(key=Detection.rank)
    return dets
