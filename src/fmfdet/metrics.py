"""Detection scoring: center-distance AP, true-positive errors, and the
composite detection score, plus detection-file serialization.

Matching follows the center-distance convention: per class, detections in
descending score order greedily claim the nearest unmatched ground-truth box
of the same frame within the threshold. AP is the mean of interpolated
precision over 101 recall points spanning [0.1, 1], clamped to [0, 1].
True-positive errors are computed at the 2 m threshold; classes with ground
truth but no matches score the worst-case 1.0.
"""
from __future__ import annotations

import dataclasses
import json
import math
import pathlib

import numpy as np

from .decode import Detection, MatchConfig
from .errors import ConfigError, DataError, atomic_file
from .geometry import wrap_angle
from .scene import Box3D

TP_ERROR_NAMES = ("ate", "ase", "aoe", "ave")
_TP_THRESHOLD = 2.0
_RECALL_GRID = np.linspace(0.1, 1.0, 101)


def bev_distance(a: Box3D, b: Box3D) -> float:
    return math.hypot(a.cx - b.cx, a.cy - b.cy)


def aligned_size_iou(a: Box3D, b: Box3D) -> float:
    """3D IoU of the two boxes after aligning centers and headings."""
    inter = min(a.w, b.w) * min(a.l, b.l) * min(a.h, b.h)
    union = a.w * a.l * a.h + b.w * b.l * b.h - inter
    return inter / union


def _tp_errors(det: Box3D, gt: Box3D) -> dict:
    return {
        "ate": bev_distance(det, gt),
        "ase": 1.0 - aligned_size_iou(det, gt),
        "aoe": abs(wrap_angle(det.yaw - gt.yaw)),
        "ave": math.hypot(det.vx - gt.vx, det.vy - gt.vy),
    }


def _group_by_frame(dets, gts):
    """Per class with ground truth, in class order: (class_id, number of gt
    boxes, one row per detection in greedy order). A row holds the frame
    index, the detection, its frame's boxes of that class in input order, and
    its center distance to each of them."""
    gt_by_class = {}
    for fi, g in gts:
        gt_by_class.setdefault(g.class_id, {}).setdefault(fi, []).append(g)
    groups = []
    for cid, frame_gts in sorted(gt_by_class.items()):
        class_dets = sorted((d for d in dets if d[1].class_id == cid),
                            key=lambda fd: fd[1].rank())
        rows = []
        for fi, det in class_dets:
            boxes = frame_gts.get(fi, ())
            rows.append((fi, det, boxes, [bev_distance(det.box, g) for g in boxes]))
        groups.append((cid, sum(map(len, frame_gts.values())), rows))
    return groups


def _match_groups(groups, threshold):
    """Greedy matching at one threshold over _group_by_frame's output: each
    detection claims the first nearest unmatched box of its frame (strict
    `<`) when that distance is <= threshold."""
    ap = {}
    errors = {}
    for cid, num_gt, rows in groups:
        matched = {}
        tp_flags = []
        pair_errors = []
        for fi, det, boxes, dists in rows:
            taken = matched.setdefault(fi, [False] * len(boxes))
            best = -1
            best_dist = float("inf")
            for gi, dist in enumerate(dists):
                if not taken[gi] and dist < best_dist:
                    best = gi
                    best_dist = dist
            if best >= 0 and best_dist <= threshold:
                taken[best] = True
                tp_flags.append(True)
                pair_errors.append(_tp_errors(det.box, boxes[best]))
            else:
                tp_flags.append(False)
        ap[cid] = _ap_from_flags(tp_flags, num_gt)
        if pair_errors:
            errors[cid] = {k: float(np.mean([e[k] for e in pair_errors]))
                           for k in TP_ERROR_NAMES}
        else:
            errors[cid] = {k: 1.0 for k in TP_ERROR_NAMES}
    return ap, errors


def match_and_ap(dets, gts, threshold):
    """Greedy center-distance matching and AP, per class.

    `dets` is a list of (frame_index, Detection), `gts` of (frame_index,
    Box3D). Returns (ap, errors): dicts keyed by class_id covering every
    class present in the ground truth. `errors` holds the mean ate/ase/aoe/
    ave over matched pairs, or 1.0 each when the class has no matches.
    """
    return _match_groups(_group_by_frame(dets, gts), threshold)


def _ap_from_flags(tp_flags, num_gt):
    if num_gt == 0 or not tp_flags:
        return 0.0
    tps = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    n = np.arange(1, len(tp_flags) + 1)
    recall = tps / num_gt
    precision = tps / n
    interp = np.interp(_RECALL_GRID, recall, precision, right=0.0)
    return float(np.clip(interp.mean(), 0.0, 1.0))


def nds(mAP, mATE, mASE, mAOE, mAVE, mAAE):
    """Composite score: (1/10) [5 mAP + sum(1 - min(1, err))] over 5 errors."""
    score = 5.0 * mAP
    for err in (mATE, mASE, mAOE, mAVE, mAAE):
        score += 1.0 - min(1.0, err)
    return score / 10.0


@dataclasses.dataclass
class EvalResult:
    mAP: float
    mATE: float
    mASE: float
    mAOE: float
    mAVE: float
    mAAE: float
    nds: float
    per_class_ap: dict  # class name -> {threshold: AP}

    def headline(self):
        """The seven summary metrics as (report name, value), in report order."""
        names = ("mAP", "mATE", "mASE", "mAOE", "mAVE", "mAAE")
        return [(n, getattr(self, n)) for n in names] + [("NDS", self.nds)]

    def to_dict(self):
        return dict(self.headline(),
                    per_class_ap={c: {str(t): v for t, v in row.items()}
                                  for c, row in self.per_class_ap.items()})

    def to_table(self):
        lines = ["metric  value",
                 "------  -----"]
        for name, v in self.headline():
            lines.append(f"{name:<6}  {v:.4f}")
        lines.append("")
        lines.append("class AP by distance threshold (m):")
        for cname, row in self.per_class_ap.items():
            cells = "  ".join(f"{t:g}:{v:.4f}" for t, v in sorted(row.items()))
            lines.append(f"  {cname:<12} {cells}")
        return "\n".join(lines)


def evaluate(det_frames, gt_frames, class_names, cfg: MatchConfig) -> EvalResult:
    """Score per-frame detection lists against per-frame ground truth.

    mAP averages AP over every (class with ground truth) x (distance
    threshold); the attribute error has no labels here and is fixed to 0.
    """
    if len(det_frames) != len(gt_frames):
        raise ConfigError(f"detection frames ({len(det_frames)}) != ground "
                          f"truth frames ({len(gt_frames)})")
    k = len(class_names)
    dets = [(i, d) for i, frame in enumerate(det_frames) for d in frame]
    gts = [(i, g) for i, frame in enumerate(gt_frames) for g in frame]
    for _, d in dets:
        if not (0 <= d.class_id < k):
            raise ConfigError(f"detection class_id {d.class_id} outside [0, {k})")
    for _, g in gts:
        if not (0 <= g.class_id < k):
            raise ConfigError(f"gt class_id {g.class_id} outside [0, {k})")

    classes_with_gt = sorted({g.class_id for _, g in gts})
    per_class_ap = {class_names[c]: {} for c in classes_with_gt}
    groups = _group_by_frame(dets, gts)
    matches = {t: _match_groups(groups, t) for t in {*cfg.distance_thresholds, _TP_THRESHOLD}}
    ap_values = []
    for thr in cfg.distance_thresholds:
        ap, _ = matches[thr]
        for c in classes_with_gt:
            per_class_ap[class_names[c]][float(thr)] = ap[c]
            ap_values.append(ap[c])
    mAP = float(np.mean(ap_values)) if ap_values else 0.0

    _, errors = matches[_TP_THRESHOLD]
    tp = [float(np.mean([errors[c][name] for c in classes_with_gt])) if classes_with_gt
          else 1.0 for name in TP_ERROR_NAMES]
    return EvalResult(mAP, *tp, 0.0, nds(mAP, *tp, 0.0), per_class_ap)


# -- detection file serialization -------------------------------------------

def write_detections(det_frames, class_names, path):
    """Write per-frame detections as line-delimited JSON records. A NaN or
    Inf in any field is a DataError naming `path` and the frame, raised
    before anything is written: `read_detections` would reject the file."""
    lines = []
    for i, frame in enumerate(det_frames):
        for d in frame:
            b = d.box
            rec = {"frame": i, "class": class_names[d.class_id], "score": d.score,
                   "center": [b.cx, b.cy, b.cz], "size": [b.w, b.l, b.h],
                   "yaw": b.yaw, "velocity": [b.vx, b.vy]}
            try:
                lines.append(json.dumps(rec, allow_nan=False))
            except ValueError as e:
                raise DataError(f"{path}: frame {i}: non-finite values in "
                                f"detection {rec}") from e
    with atomic_file(path, encoding="utf-8") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


def _numbers(rec, key, n=None):
    """rec[key] as floats: one JSON number, or a list of n of them. A bool
    or a numeric string is not a number."""
    value = rec[key]
    items = [value] if n is None else value
    if (not isinstance(items, list) or len(items) != (n or 1)
            or not all(type(v) in (int, float) for v in items)):
        want = "a number" if n is None else f"a list of {n} numbers"
        raise TypeError(f"{key} must be {want}, got {value!r}")
    return [float(v) for v in items]


def read_detections(path, class_names, num_frames):
    """Read a detections file back into per-frame lists. A file that cannot
    be read, or a malformed record, is a DataError naming `path`. `center`,
    `size`, `velocity` hold 3, 3, 2 JSON numbers; `score`, `yaw` one each."""
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as e:  # ValueError: bytes that are not UTF-8
        raise DataError(f"cannot read detections {path}: {e}") from e
    name_to_id = {name: i for i, name in enumerate(class_names)}
    frames = [[] for _ in range(num_frames)]
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as e:
            raise DataError(f"{path}:{ln}: invalid JSON record: {e}") from e
        try:
            fi = rec["frame"]
            if isinstance(fi, bool) or not isinstance(fi, int):
                raise DataError(f"{path}:{ln}: frame index {fi!r} is not an "
                                f"integer")
            cid = name_to_id[rec["class"]]
            cx, cy, cz = _numbers(rec, "center", 3)
            w, l, h = _numbers(rec, "size", 3)
            vx, vy = _numbers(rec, "velocity", 2)
            (yaw,) = _numbers(rec, "yaw")
            (score,) = _numbers(rec, "score")
            fields = (cx, cy, cz, w, l, h, yaw, vx, vy)
            if not all(map(math.isfinite, fields + (score,))):
                raise DataError(f"{path}:{ln}: non-finite value in detection record")
            det = Detection(Box3D(*fields, cid), score, cid)
        except (KeyError, ValueError, TypeError, OverflowError) as e:
            raise DataError(f"{path}:{ln}: malformed detection record: {e}") from e
        if not 0 <= fi < num_frames:
            raise DataError(f"{path}:{ln}: frame index {fi} outside sequence")
        frames[fi].append(det)
    return frames
