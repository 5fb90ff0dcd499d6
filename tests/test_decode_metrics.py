"""Peak decoding and the detection metric stack against brute-force oracles."""
import bisect
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmfdet.autodiff as ad
from fmfdet.decode import Detection, MatchConfig, decode, find_peaks
from fmfdet.errors import ConfigError, DataError
from fmfdet.geometry import MapGeometry
from fmfdet.heads import HeadOutput, render_targets
from fmfdet.metrics import (TP_ERROR_NAMES, EvalResult, _ap_from_flags,
                            _tp_errors, aligned_size_iou, bev_distance,
                            evaluate, match_and_ap, nds, read_detections,
                            write_detections)
from fmfdet.scene import Box3D

GEOM = MapGeometry(x_min=-12.8, y_min=-12.8, cell=0.64, h=40, w=40)


def box_at(cx, cy, w=1.9, l=4.4, h=1.6, yaw=0.0, vx=0.0, vy=0.0, class_id=0):
    return Box3D(cx, cy, h / 2, w, l, h, yaw, vx, vy, class_id)


def head_from_targets(tgt, geom, k):
    """Head output whose maps encode the targets perfectly."""
    maps = {"offset": np.zeros((1, 2, geom.h, geom.w)),
            "height": np.zeros((1, 1, geom.h, geom.w)),
            "size": np.zeros((1, 3, geom.h, geom.w)),
            "rotation": np.zeros((1, 2, geom.h, geom.w)),
            "velocity": np.zeros((1, 2, geom.h, geom.w))}
    rows = {"offset": tgt.offset, "height": tgt.height, "size": tgt.size,
            "rotation": tgt.rotation, "velocity": tgt.velocity}
    for row, ((iy, ix), _cid, _obj) in enumerate(tgt.center_mask):
        for name in maps:
            maps[name][0, :, iy, ix] = rows[name][row]
    return HeadOutput(heatmap=ad.Tensor(tgt.heatmap[None].copy()),
                      **{k_: ad.Tensor(v) for k_, v in maps.items()})


def oracle_peaks(hm):
    """Literal neighborhood enumeration with the lexicographic tie rule."""
    k, h, w = hm.shape
    out = np.zeros((k, h, w), dtype=bool)
    for c in range(k):
        for y in range(h):
            for x in range(w):
                v = hm[c, y, x]
                ok = True
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if dy == 0 and dx == 0:
                            continue
                        yy, xx = y + dy, x + dx
                        if not (0 <= yy < h and 0 <= xx < w):
                            continue
                        nv = hm[c, yy, xx]
                        if nv > v or (nv == v and (dy, dx) < (0, 0)):
                            ok = False
                out[c, y, x] = ok
    return out


def oracle_ap(flags, num_gt):
    """Grid-point-by-grid-point PR evaluation (duplicate recalls keep the
    last precision, matching linear-interpolation-with-right-fill-zero)."""
    if num_gt == 0 or not flags:
        return 0.0
    tp, rec, prec = 0, [], []
    for i, f in enumerate(flags):
        tp += 1 if f else 0
        rec.append(tp / num_gt)
        prec.append(tp / (i + 1))
    vals = []
    for r in np.linspace(0.1, 1.0, 101):
        if r > rec[-1]:
            vals.append(0.0)
        elif r < rec[0]:
            vals.append(prec[0])
        else:
            j = bisect.bisect_right(rec, r) - 1  # last point with rec <= r
            if rec[j] == r:
                vals.append(prec[j])
            else:
                t = (r - rec[j]) / (rec[j + 1] - rec[j])
                vals.append(prec[j] + t * (prec[j + 1] - prec[j]))
    return float(np.clip(np.mean(vals), 0.0, 1.0))


class TestFindPeaks:
    def test_matches_enumeration_on_random_maps(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            hm = rng.integers(0, 5, size=(2, 12, 12)) / 4.0
            assert np.array_equal(find_peaks(hm), oracle_peaks(hm))
            # infinite plateaus: outside the map is not a neighbour, -inf or not
            hm[hm == 0.0], hm[hm == 1.0] = -np.inf, np.inf
            assert np.array_equal(find_peaks(hm), oracle_peaks(hm))

    def test_plateau_keeps_lexicographic_first(self):
        hm = np.zeros((1, 8, 8))
        hm[0, 2:5, 3:6] = 0.7
        peaks = np.argwhere(find_peaks(hm))
        # the zero background is a plateau too; each keeps its first cell
        assert peaks.tolist() == [[0, 0, 0], [0, 2, 3]]

    @pytest.mark.parametrize("level", [0.3, -np.inf, np.inf])
    def test_constant_map_keeps_origin_only(self, level):
        peaks = np.argwhere(find_peaks(np.full((1, 5, 5), level)))
        assert peaks.tolist() == [[0, 0, 0]]

    def test_isolated_maxima_all_found(self):
        hm = np.zeros((1, 9, 9))
        for y, x in ((1, 1), (4, 7), (7, 3)):
            hm[0, y, x] = 0.9
        got = {tuple(p) for p in np.argwhere(find_peaks(hm)).tolist()}
        assert {(0, 1, 1), (0, 4, 7), (0, 7, 3)} <= got


class TestDecode:
    cfg = MatchConfig()

    def test_center_arithmetic_by_hand(self):
        geom = MapGeometry(x_min=-51.2, y_min=-51.2, cell=0.64, h=160, w=160)
        hm = np.zeros((1, 1, 160, 160))
        hm[0, 0, 10, 44] = 0.9
        maps = {n: np.zeros((1, c, 160, 160)) for n, c in
                (("offset", 2), ("height", 1), ("size", 3), ("rotation", 2),
                 ("velocity", 2))}
        maps["offset"][0, :, 10, 44] = [0.5, 0.25]
        maps["rotation"][0, 1, :, :] = 1.0
        head = HeadOutput(heatmap=ad.Tensor(hm),
                          **{n: ad.Tensor(v) for n, v in maps.items()})
        dets = decode(head, geom, self.cfg)
        assert len(dets) == 1
        assert dets[0].box.cx == pytest.approx(-22.72, abs=1e-12)
        assert dets[0].box.cy == pytest.approx((10.25) * 0.64 - 51.2, abs=1e-12)
        assert dets[0].score == pytest.approx(0.9)

    def test_round_trip_recovers_rendered_boxes(self):
        boxes = [box_at(0.5, -3.1, yaw=0.7, vx=1.0, vy=-0.5),
                 box_at(4.0, 6.0, w=0.7, l=0.8, h=1.75, yaw=-2.9, class_id=1),
                 box_at(-7.7, -6.1, w=2.5, l=7.0, h=2.9, yaw=3.0)]
        tgt = render_targets(boxes, GEOM, 2)
        dets = decode(head_from_targets(tgt, GEOM, 2), GEOM, self.cfg)
        assert len(dets) == len(boxes)
        for box in boxes:
            best = min(dets, key=lambda d: math.hypot(d.box.cx - box.cx,
                                                      d.box.cy - box.cy))
            assert math.hypot(best.box.cx - box.cx, best.box.cy - box.cy) < 1e-9
            assert best.class_id == box.class_id
            for attr in ("w", "l", "h", "cz", "vx", "vy"):
                assert getattr(best.box, attr) == pytest.approx(
                    getattr(box, attr), abs=1e-9)
            d_yaw = (best.box.yaw - box.yaw + math.pi) % (2 * math.pi) - math.pi
            assert abs(d_yaw) < 1e-9

    def test_score_threshold_filters(self):
        hm = np.zeros((1, 1, 8, 8))
        hm[0, 0, 2, 2] = 0.05
        hm[0, 0, 5, 5] = 0.4
        maps = {n: np.zeros((1, c, 8, 8)) for n, c in
                (("offset", 2), ("height", 1), ("size", 3), ("rotation", 2),
                 ("velocity", 2))}
        maps["rotation"][0, 1] = 1.0
        head = HeadOutput(heatmap=ad.Tensor(hm),
                          **{n: ad.Tensor(v) for n, v in maps.items()})
        geom = MapGeometry(x_min=0, y_min=0, cell=1.0, h=8, w=8)
        dets = decode(head, geom, MatchConfig(score_threshold=0.1))
        assert [d.score for d in dets] == [pytest.approx(0.4)]

    def test_top_k_keeps_highest_scores(self):
        rng = np.random.default_rng(1)
        hm = np.zeros((1, 1, 16, 16))
        scores = rng.uniform(0.2, 0.9, size=16)
        for i, s in enumerate(scores):
            hm[0, 0, 1 + 3 * (i // 4), 1 + 3 * (i % 4)] = s
        maps = {n: np.zeros((1, c, 16, 16)) for n, c in
                (("offset", 2), ("height", 1), ("size", 3), ("rotation", 2),
                 ("velocity", 2))}
        maps["rotation"][0, 1] = 1.0
        head = HeadOutput(heatmap=ad.Tensor(hm),
                          **{n: ad.Tensor(v) for n, v in maps.items()})
        geom = MapGeometry(x_min=0, y_min=0, cell=1.0, h=16, w=16)
        dets = decode(head, geom, MatchConfig(top_k=5))
        assert len(dets) == 5
        expect = sorted(scores, reverse=True)[:5]
        assert [d.score for d in dets] == pytest.approx(expect)

    def test_match_config_validation(self):
        with pytest.raises(ConfigError):
            MatchConfig(distance_thresholds=(1.0, 0.5))
        with pytest.raises(ConfigError):
            MatchConfig(score_threshold=1.5)
        with pytest.raises(ConfigError):
            MatchConfig(top_k=0)


def per_peak_decode(head, geom, cfg):
    """Reference decode: one box per peak from NumPy scalars, in score order."""
    hm = head.heatmap.data[0]
    peaks = find_peaks(hm)
    ks, iys, ixs = np.nonzero(peaks)
    scores = hm[ks, iys, ixs]
    keep = scores >= cfg.score_threshold
    ks, iys, ixs, scores = ks[keep], iys[keep], ixs[keep], scores[keep]
    if scores.size > cfg.top_k:
        order = np.lexsort((ixs, iys, ks, -scores))[:cfg.top_k]
        ks, iys, ixs, scores = ks[order], iys[order], ixs[order], scores[order]
    offs = head.offset.data[0]
    heights = head.height.data[0]
    sizes = head.size.data[0]
    rots = head.rotation.data[0]
    vels = head.velocity.data[0]
    dets = []
    for k, iy, ix, score in zip(ks, iys, ixs, scores):
        cx = (ix + offs[0, iy, ix]) * geom.cell + geom.x_min
        cy = (iy + offs[1, iy, ix]) * geom.cell + geom.y_min
        bw, bl, bh = np.exp(sizes[:, iy, ix])
        yaw = math.atan2(rots[0, iy, ix], rots[1, iy, ix])
        box = Box3D(float(cx), float(cy), float(heights[0, iy, ix]),
                    float(bw), float(bl), float(bh), float(yaw),
                    float(vels[0, iy, ix]), float(vels[1, iy, ix]),
                    int(k))
        dets.append(Detection(box, float(score), int(k)))
    dets.sort(key=lambda d: (-d.score, d.class_id, d.box.cx, d.box.cy))
    return dets


class TestDecodeOracle:
    @given(seed=st.integers(0, 2 ** 32 - 1), top_k=st.integers(1, 40),
           level=st.integers(0, 4), dtype=st.sampled_from(["float32", "float64"]))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_peak_reference(self, seed, top_k, level, dtype):
        # Heatmap values on a grid of eighths make plateaus and peaks exactly
        # at the score threshold; small top_k values bind.
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(1, 14)), int(rng.integers(1, 14))
        maps = {"heatmap": rng.integers(0, 9, size=(1, 2, h, w)) / 8.0}
        for name, c in (("offset", 2), ("height", 1), ("size", 3),
                        ("rotation", 2), ("velocity", 2)):
            maps[name] = rng.normal(0.0, 2.0, size=(1, c, h, w))
        head = HeadOutput(**{n: ad.Tensor(v.astype(dtype)) for n, v in maps.items()})
        geom = MapGeometry(x_min=-3.2, y_min=-1.6, cell=0.32, h=h, w=w)
        cfg = MatchConfig(score_threshold=level / 8.0, top_k=top_k)
        assert decode(head, geom, cfg) == per_peak_decode(head, geom, cfg)


class TestAP:
    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        from fmfdet.metrics import _ap_from_flags
        for _ in range(200):
            n = int(rng.integers(1, 20))
            flags = rng.random(n) < 0.5
            num_gt = int(rng.integers(1, 12))
            got = _ap_from_flags(list(flags), num_gt)
            assert got == pytest.approx(oracle_ap(list(flags), num_gt),
                                        abs=1e-9)

    def test_single_perfect_detection(self):
        from fmfdet.metrics import _ap_from_flags
        assert _ap_from_flags([True], 1) == pytest.approx(1.0)

    def test_half_recall_plateau(self):
        from fmfdet.metrics import _ap_from_flags
        # one TP of two gts: precision 1 up to recall 0.5, zero beyond
        assert _ap_from_flags([True], 2) == pytest.approx(45 / 101)

    def test_fp_then_tp_ramps_linearly(self):
        from fmfdet.metrics import _ap_from_flags
        grid = np.linspace(0.1, 1.0, 101)
        assert _ap_from_flags([False, True], 1) == pytest.approx(
            float(np.mean(0.5 * grid)))

    def test_adding_trailing_tp_never_hurts(self):
        from fmfdet.metrics import _ap_from_flags
        rng = np.random.default_rng(3)
        for _ in range(50):
            flags = list(rng.random(8) < 0.5)
            base = _ap_from_flags(flags, 10)
            assert _ap_from_flags(flags + [True], 10) >= base - 1e-12


class TestMatching:
    def test_greedy_claims_nearest_unmatched(self):
        gts = [(0, box_at(0.0, 0.0)), (0, box_at(1.5, 0.0))]
        dets = [(0, Detection(box_at(0.1, 0.0), 0.9, 0)),
                (0, Detection(box_at(0.2, 0.0), 0.8, 0))]
        ap, _ = match_and_ap(dets, gts, threshold=2.0)
        assert ap[0] == pytest.approx(1.0)
        ap_tight, _ = match_and_ap(dets, gts, threshold=0.5)
        assert ap_tight[0] == pytest.approx(45 / 101)

    def test_no_cross_frame_matches(self):
        gts = [(1, box_at(0.0, 0.0))]
        dets = [(0, Detection(box_at(0.0, 0.0), 0.9, 0))]
        ap, errors = match_and_ap(dets, gts, threshold=2.0)
        assert ap[0] == 0.0
        assert errors[0] == {"ate": 1.0, "ase": 1.0, "aoe": 1.0, "ave": 1.0}

    def test_tp_error_values_by_hand(self):
        gt = box_at(0.0, 0.0, w=2.0, l=4.0, h=2.0, yaw=0.0, vx=1.0, vy=0.0)
        det = box_at(0.3, 0.4, w=2.0, l=4.0, h=1.0, yaw=0.25, vx=1.0, vy=-2.0)
        _, errors = match_and_ap([(0, Detection(det, 0.9, 0))], [(0, gt)], 2.0)
        e = errors[0]
        assert e["ate"] == pytest.approx(0.5)
        assert e["ase"] == pytest.approx(1.0 - 8.0 / 16.0)
        assert e["aoe"] == pytest.approx(0.25)
        assert e["ave"] == pytest.approx(2.0)

    def test_yaw_error_wraps(self):
        gt = box_at(0, 0, yaw=math.pi - 0.05)
        det = box_at(0, 0, yaw=-math.pi + 0.05)
        _, errors = match_and_ap([(0, Detection(det, 0.9, 0))], [(0, gt)], 2.0)
        assert errors[0]["aoe"] == pytest.approx(0.1, abs=1e-12)

    def test_aligned_size_iou_identical_boxes(self):
        b = box_at(3.0, -2.0, yaw=1.0)
        assert aligned_size_iou(b, b) == pytest.approx(1.0)


class TestNDS:
    def test_composite_anchor_values(self):
        assert nds(0.5719, 0.2964, 0.2552, 0.3258, 0.2793, 0.1860) == \
            pytest.approx(0.6517, abs=5e-5)
        assert nds(0.5024, 0.3130, 0.2593, 0.3936, 0.3260, 0.1976) == \
            pytest.approx(0.6023, abs=5e-5)

    def test_errors_clamp_at_one(self):
        assert nds(0.0, 3.0, 1.0, 1.0, 1.0, 1.0) == 0.0
        assert nds(1.0, 0.0, 0.0, 0.0, 0.0, 0.0) == 1.0


class TestEvaluate:
    cfg = MatchConfig()

    def test_perfect_detections_score_one(self):
        gt = [[box_at(1.0, 2.0), box_at(-5.0, 3.0, class_id=1)],
              [box_at(0.0, -4.0)]]
        dets = [[Detection(b, 0.9, b.class_id) for b in frame] for frame in gt]
        res = evaluate(dets, gt, ("car", "pedestrian"), self.cfg)
        assert res.mAP == pytest.approx(1.0)
        assert res.mATE == pytest.approx(0.0)
        assert res.mASE == pytest.approx(0.0, abs=1e-12)
        assert res.mAOE == pytest.approx(0.0)
        assert res.mAVE == pytest.approx(0.0)
        assert res.mAAE == 0.0
        assert res.nds == pytest.approx(1.0)

    def test_no_detections_scores_zero(self):
        gt = [[box_at(1.0, 2.0)]]
        res = evaluate([[]], gt, ("car",), self.cfg)
        assert res.mAP == 0.0
        assert res.mATE == 1.0
        assert res.nds == pytest.approx(0.1)  # only the fixed mAAE term

    def test_empty_everything(self):
        res = evaluate([[]], [[]], ("car",), self.cfg)
        assert res.mAP == 0.0
        assert res.nds == pytest.approx(0.1)  # only the fixed mAAE term

    def test_frame_count_mismatch_raises(self):
        with pytest.raises(ConfigError):
            evaluate([[]], [[], []], ("car",), self.cfg)

    def test_per_class_ap_table_shape(self):
        gt = [[box_at(1.0, 2.0), box_at(-5.0, 3.0, class_id=1)]]
        dets = [[Detection(b, 0.9, b.class_id) for b in gt[0]]]
        res = evaluate(dets, gt, ("car", "pedestrian"), self.cfg)
        assert set(res.per_class_ap) == {"car", "pedestrian"}
        assert set(res.per_class_ap["car"]) == {0.5, 1.0, 2.0, 4.0}
        table = res.to_table()
        assert "NDS" in table and "car" in table

    def test_near_miss_counts_at_wide_thresholds_only(self):
        gt = [[box_at(0.0, 0.0)]]
        dets = [[Detection(box_at(1.5, 0.0), 0.9, 0)]]
        res = evaluate(dets, gt, ("car",), self.cfg)
        row = res.per_class_ap["car"]
        assert row[0.5] == 0.0 and row[1.0] == 0.0
        assert row[2.0] == pytest.approx(1.0) and row[4.0] == pytest.approx(1.0)
        assert res.mAP == pytest.approx(0.5)


def scan_all_match_and_ap(dets, gts, threshold):
    """Reference matching: each detection scans every box of its class in
    every frame and skips the other frames."""
    gt_by_class = {}
    for fi, g in gts:
        gt_by_class.setdefault(g.class_id, []).append((fi, g))
    ap = {}
    errors = {}
    for cid, class_gts in sorted(gt_by_class.items()):
        class_dets = sorted((d for d in dets if d[1].class_id == cid),
                            key=lambda fd: (-fd[1].score, fd[1].class_id,
                                            fd[1].box.cx, fd[1].box.cy))
        matched = [False] * len(class_gts)
        tp_flags = []
        pair_errors = []
        for fi, det in class_dets:
            best = -1
            best_dist = float("inf")
            for gi, (gfi, gt) in enumerate(class_gts):
                if matched[gi] or gfi != fi:
                    continue
                dist = bev_distance(det.box, gt)
                if dist < best_dist:
                    best = gi
                    best_dist = dist
            if best >= 0 and best_dist <= threshold:
                matched[best] = True
                tp_flags.append(True)
                pair_errors.append(_tp_errors(det.box, class_gts[best][1]))
            else:
                tp_flags.append(False)
        ap[cid] = _ap_from_flags(tp_flags, len(class_gts))
        if pair_errors:
            errors[cid] = {k: float(np.mean([e[k] for e in pair_errors]))
                           for k in TP_ERROR_NAMES}
        else:
            errors[cid] = {k: 1.0 for k in TP_ERROR_NAMES}
    return ap, errors


def scan_all_evaluate(det_frames, gt_frames, class_names, cfg):
    """evaluate() composed from the reference matching."""
    dets = [(i, d) for i, frame in enumerate(det_frames) for d in frame]
    gts = [(i, g) for i, frame in enumerate(gt_frames) for g in frame]
    classes_with_gt = sorted({g.class_id for _, g in gts})
    per_class_ap = {class_names[c]: {} for c in classes_with_gt}
    ap_values = []
    for thr in cfg.distance_thresholds:
        ap, _ = scan_all_match_and_ap(dets, gts, thr)
        for c in classes_with_gt:
            per_class_ap[class_names[c]][float(thr)] = ap[c]
            ap_values.append(ap[c])
    mAP = float(np.mean(ap_values)) if ap_values else 0.0
    _, errors = scan_all_match_and_ap(dets, gts, 2.0)
    means = {name: (float(np.mean([errors[c][name] for c in classes_with_gt]))
                    if classes_with_gt else 1.0) for name in TP_ERROR_NAMES}
    return EvalResult(mAP, means["ate"], means["ase"], means["aoe"], means["ave"],
                      0.0, nds(mAP, means["ate"], means["ase"], means["aoe"],
                               means["ave"], 0.0), per_class_ap)


# Boxes on a coarse lattice with few scores: equal distances, equal scores
# and equal sort keys all occur.
_lattice_box = st.builds(
    lambda x, y, w, yaw, c: Box3D(x * 0.5, y * 0.5, 0.8, w, 2 * w, 1.5, yaw,
                                  0.5 * x, 0.0, c),
    st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from([0.0, 1.0, -3.0]), st.integers(0, 2))
_frame_pair = st.tuples(
    st.lists(_lattice_box, max_size=5),
    st.lists(st.tuples(_lattice_box, st.sampled_from([0.2, 0.5, 0.5, 0.9])),
             max_size=7))


class TestEvaluateOracle:
    @given(frames=st.lists(_frame_pair, min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_equals_scan_all_reference(self, frames):
        gt_frames = [gt for gt, _ in frames]
        det_frames = [[Detection(b, s, b.class_id) for b, s in dets]
                      for _, dets in frames]
        names = ("car", "pedestrian", "cyclist")
        cfg = MatchConfig()
        got = evaluate(det_frames, gt_frames, names, cfg).to_dict()
        want = scan_all_evaluate(det_frames, gt_frames, names, cfg).to_dict()
        assert json.dumps(got) == json.dumps(want)
        dets = [(i, d) for i, frame in enumerate(det_frames) for d in frame]
        gts = [(i, g) for i, frame in enumerate(gt_frames) for g in frame]
        for thr in (*cfg.distance_thresholds, 0.7):
            assert match_and_ap(dets, gts, thr) == scan_all_match_and_ap(dets, gts, thr)


class TestDetectionFiles:
    def test_round_trip_is_exact(self, tmp_path):
        frames = [[Detection(box_at(1.234567891234, -2.5, yaw=0.77,
                                    vx=0.1, vy=-0.2), 0.875, 0)],
                  [],
                  [Detection(box_at(0.0, 0.0, class_id=1), 0.25, 1)]]
        path = tmp_path / "dets.jsonl"
        write_detections(frames, ("car", "pedestrian"), path)
        back = read_detections(path, ("car", "pedestrian"), 3)
        assert back == frames

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text('{"frame": 0ml,\n')
        with pytest.raises(DataError):
            read_detections(path, ("car",), 1)

    def test_unknown_class_rejected(self, tmp_path):
        frames = [[Detection(box_at(0, 0), 0.5, 0)]]
        path = tmp_path / "dets.jsonl"
        write_detections(frames, ("car",), path)
        with pytest.raises(DataError):
            read_detections(path, ("truck",), 1)

    def test_frame_out_of_range_rejected(self, tmp_path):
        frames = [[], [Detection(box_at(0, 0), 0.5, 0)]]
        path = tmp_path / "dets.jsonl"
        write_detections(frames, ("car",), path)
        with pytest.raises(DataError):
            read_detections(path, ("car",), 1)

    @pytest.mark.parametrize("frame", [1.7, True, "2"])
    def test_non_integer_frame_rejected(self, tmp_path, frame):
        path = tmp_path / "dets.jsonl"
        write_detections([[Detection(box_at(0, 0), 0.5, 0)]], ("car",), path)
        rec = json.loads(path.read_text())
        rec["frame"] = frame
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(DataError, match=":1: frame index"):
            read_detections(path, ("car",), 3)

    @pytest.mark.parametrize("field,value,match", [
        ("size", "123", "size must be a list of 3 numbers, got '123'"),
        ("center", {"1": 0, "2": 0, "3": 0}, "center must be a list of 3 numbers"),
        ("score", "0.5", "score must be a number, got '0.5'"),
        ("yaw", True, "yaw must be a number, got True")])
    def test_non_number_field_rejected(self, tmp_path, field, value, match):
        """A string, an object or a bool that float() would accept is not a
        JSON number."""
        path = tmp_path / "dets.jsonl"
        write_detections([[Detection(box_at(0, 0), 0.5, 0)]], ("car",), path)
        rec = json.loads(path.read_text())
        rec[field] = value
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:1: malformed "
                                                      f"detection record: {match}")):
            read_detections(path, ("car",), 1)

    @pytest.mark.parametrize("field,value", [("score", math.nan), ("w", math.inf),
                                             ("yaw", -math.inf), ("vy", math.nan)])
    def test_non_finite_detection_is_not_written(self, tmp_path, field, value):
        """write_detections refuses what read_detections would reject, naming
        the path and the frame, and writes nothing."""
        fields = {"score": 0.5, "box": box_at(0, 0)}
        if field == "score":
            fields["score"] = value
        else:
            fields["box"] = box_at(0, 0, **{field: value})
        frames = [[Detection(box_at(1, 1), 0.5, 0)], [Detection(class_id=0, **fields)]]
        path = tmp_path / "dets.jsonl"
        with pytest.raises(DataError, match=re.escape(f"{path}: frame 1: non-finite")):
            write_detections(frames, ("car",), path)
        assert not path.exists()

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_unreadable_file_is_data_error(self, tmp_path, case):
        path = tmp_path / "dets.jsonl"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(b'{"frame": 0, "class": "c\xe1r"}\n')
        with pytest.raises(DataError, match=re.escape(f"cannot read detections {path}")):
            read_detections(path, ("car",), 1)

    def test_empty_file_gives_empty_frames(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_detections([[], []], ("car",), path)
        assert read_detections(path, ("car",), 2) == [[], []]
