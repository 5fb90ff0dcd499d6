"""Center head, Gaussian target rendering, focal and regression losses."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmfdet.autodiff as ad
from fmfdet.errors import ConfigError
from fmfdet.geometry import MapGeometry
from fmfdet.heads import (LOSS_TERMS, REG_BRANCHES, DetectionHead, FocalParams,
                          HeadOutput, LossWeights, TargetMaps, focal_loss, gaussian_radius,
                          regression_losses, render_targets, total_loss)
from fmfdet.scene import Box3D

GEOM = MapGeometry(x_min=-12.8, y_min=-12.8, cell=0.64, h=40, w=40)


def box_at(cx, cy, w=1.9, l=4.4, h=1.6, yaw=0.0, vx=0.0, vy=0.0, class_id=0):
    return Box3D(cx, cy, h / 2, w, l, h, yaw, vx, vy, class_id)


def oracle_radius(box, cell, min_overlap):
    """Independent evaluation: max real root per case via np.roots."""
    bw, bl = box.w / cell, box.l / cell
    cases = [
        (1.0, bl + bw, bw * bl * (1 - min_overlap) / (1 + min_overlap)),
        (4.0, 2 * (bl + bw), (1 - min_overlap) * bw * bl),
        (4.0 * min_overlap, -2 * min_overlap * (bl + bw),
         (min_overlap - 1) * bw * bl),
    ]
    roots = [max(np.roots([1.0, -b, a * c]).real) for a, b, c in cases]
    return max(2.0, min(roots)) / 3.0


def oracle_render(boxes, geom, num_classes, min_overlap):
    """Loop rasterizer for comparison with the vectorized renderer."""
    hm = np.zeros((num_classes, geom.h, geom.w))
    for box in boxes:
        px = (box.cx - geom.x_min) / geom.cell
        py = (box.cy - geom.y_min) / geom.cell
        ix, iy = int(math.floor(px)), int(math.floor(py))
        if not (0 <= ix < geom.w and 0 <= iy < geom.h):
            continue
        sigma = oracle_radius(box, geom.cell, min_overlap)
        for y in range(geom.h):
            for x in range(geom.w):
                d2 = (x - ix) ** 2 + (y - iy) ** 2
                hm[box.class_id, y, x] = max(
                    hm[box.class_id, y, x], math.exp(-d2 / (2 * sigma * sigma)))
    return hm


class TestGaussianRadius:
    def test_matches_independent_root_finder(self):
        for w, l, cell, o in [(1.9, 4.4, 0.64, 0.1), (2.5, 7.0, 0.32, 0.1),
                              (0.8, 1.8, 0.16, 0.3), (4.0, 4.0, 0.5, 0.5)]:
            box = box_at(0, 0, w=w, l=l)
            assert gaussian_radius(box, cell, o) == pytest.approx(
                oracle_radius(box, cell, o), rel=1e-12)

    def test_small_boxes_clamp_to_two_cells(self):
        ped = box_at(0, 0, w=0.7, l=0.8, h=1.75)
        assert gaussian_radius(ped, 0.32, 0.1) == pytest.approx(2.0 / 3.0)

    def test_radius_scales_with_footprint(self):
        sigmas = [gaussian_radius(box_at(0, 0, w=s, l=2 * s), 0.32, 0.1)
                  for s in np.linspace(1.0, 6.0, 12)]
        assert all(b >= a for a, b in zip(sigmas, sigmas[1:]))

    def test_radius_halves_when_cells_double(self):
        big = box_at(0, 0, w=6.0, l=9.0)
        assert gaussian_radius(big, 0.32, 0.1) == pytest.approx(
            2 * gaussian_radius(big, 0.64, 0.1))


class TestRenderTargets:
    def test_matches_loop_oracle(self):
        boxes = [box_at(1.0, 2.0, class_id=0),
                 box_at(-5.3, 7.7, w=0.7, l=0.8, h=1.75, class_id=1),
                 box_at(1.5, 2.2, yaw=0.9, class_id=0)]
        tgt = render_targets(boxes, GEOM, num_classes=2, min_overlap=0.1)
        expect = oracle_render(boxes, GEOM, 2, 0.1)
        assert np.allclose(tgt.heatmap, expect, atol=1e-12)

    def test_center_cells_are_exactly_one(self):
        tgt = render_targets([box_at(0.5, -3.1)], GEOM, 1)
        (iy, ix), cid, obj = tgt.center_mask[0]
        assert tgt.heatmap[cid, iy, ix] == 1.0
        assert obj == 0

    def test_gaussian_value_two_cells_out_with_sigma_two(self):
        # square side (in cells) whose binding third-case root is exactly 6
        s = 12.0 / (math.sqrt(1.6) - 0.4)
        box = box_at(GEOM.x_min + 20.5 * GEOM.cell, GEOM.y_min + 20.5 * GEOM.cell,
                     w=s * GEOM.cell, l=s * GEOM.cell)
        assert gaussian_radius(box, GEOM.cell, 0.1) == pytest.approx(2.0)
        tgt = render_targets([box], GEOM, 1)
        assert tgt.heatmap[0, 20, 22] == pytest.approx(math.exp(-0.5), rel=1e-9)
        assert tgt.heatmap[0, 20, 22] == pytest.approx(0.6065306597, rel=1e-9)

    def test_same_class_blobs_max_combine(self):
        a, b = box_at(0.0, 0.0), box_at(1.28, 0.0)
        combo = render_targets([a, b], GEOM, 1).heatmap
        sep = np.maximum(render_targets([a], GEOM, 1).heatmap,
                         render_targets([b], GEOM, 1).heatmap)
        assert np.array_equal(combo, sep)

    def test_out_of_grid_centers_dropped(self):
        tgt = render_targets([box_at(100.0, 0.0), box_at(0.0, 0.0)], GEOM, 1)
        assert tgt.num_objects == 1
        assert tgt.center_mask[0][2] == 1  # surviving box keeps its index

    def test_regression_rows(self):
        box = box_at(0.5, -3.1, w=1.9, l=4.4, h=1.6, yaw=0.7, vx=1.0, vy=-2.0)
        tgt = render_targets([box], GEOM, 1)
        px = (box.cx - GEOM.x_min) / GEOM.cell
        py = (box.cy - GEOM.y_min) / GEOM.cell
        assert np.allclose(tgt.offset[0], [px - math.floor(px), py - math.floor(py)])
        assert np.allclose(tgt.height[0], [0.8])
        assert np.allclose(tgt.size[0], np.log([1.9, 4.4, 1.6]))
        assert np.allclose(tgt.rotation[0], [math.sin(0.7), math.cos(0.7)])
        assert np.allclose(tgt.velocity[0], [1.0, -2.0])
        assert np.all((tgt.offset >= 0) & (tgt.offset < 1))

    def test_scaling_invariance(self):
        k = 2.5
        geom2 = MapGeometry(x_min=GEOM.x_min * k, y_min=GEOM.y_min * k,
                            cell=GEOM.cell * k, h=GEOM.h, w=GEOM.w)
        boxes1 = [box_at(1.0, 2.0), box_at(-5.3, 7.7, class_id=1)]
        boxes2 = [box_at(b.cx * k, b.cy * k, w=b.w * k, l=b.l * k, h=b.h,
                         class_id=b.class_id) for b in boxes1]
        t1 = render_targets(boxes1, GEOM, 2)
        t2 = render_targets(boxes2, geom2, 2)
        assert np.allclose(t1.heatmap, t2.heatmap, atol=1e-12)

    def test_bad_class_id_raises(self):
        with pytest.raises(ConfigError):
            render_targets([box_at(0, 0, class_id=3)], GEOM, num_classes=2)


def fake_target(heatmap, n_objects, centers=()):
    return TargetMaps(heatmap=heatmap, center_mask=list(centers),
                      offset=np.zeros((0, 2)), height=np.zeros((0, 1)),
                      size=np.zeros((0, 3)), rotation=np.zeros((0, 2)),
                      velocity=np.zeros((0, 2)), num_objects=n_objects)


class TestFocalLoss:
    fp = FocalParams()

    def test_positive_pixel_hand_value(self):
        # y=1, z=0.5: -(1-z)^2 log z = 0.25 * log 2
        tgt = fake_target(np.ones((1, 1, 1)), 1)
        pred = ad.Tensor(np.full((1, 1, 1, 1), 0.5))
        assert focal_loss(pred, tgt, self.fp).data == pytest.approx(
            0.25 * math.log(2.0), rel=1e-12)
        assert focal_loss(pred, tgt, self.fp).data == pytest.approx(0.173287,
                                                                    abs=1e-6)

    def test_negative_pixel_hand_value(self):
        # y=0.5, z=0.5: -(1-y)^4 z^2 log(1-z) = 0.0625 * 0.25 * log 2
        tgt = fake_target(np.full((1, 1, 1), 0.5), 1)
        pred = ad.Tensor(np.full((1, 1, 1, 1), 0.5))
        assert focal_loss(pred, tgt, self.fp).data == pytest.approx(
            0.0625 * 0.25 * math.log(2.0), rel=1e-12)
        assert focal_loss(pred, tgt, self.fp).data == pytest.approx(0.010830,
                                                                    abs=1e-6)

    def test_normalized_by_object_count(self):
        hm = np.zeros((1, 4, 4))
        hm[0, 1, 1] = 1.0
        hm[0, 2, 3] = 1.0
        pred = ad.Tensor(np.full((1, 1, 4, 4), 0.3))
        one = focal_loss(pred, fake_target(hm, 1), self.fp).data
        two = focal_loss(pred, fake_target(hm, 2), self.fp).data
        assert two == pytest.approx(one / 2, rel=1e-12)

    def test_perfect_prediction_is_tiny(self):
        hm = np.zeros((1, 4, 4))
        hm[0, 1, 1] = 1.0
        pred = ad.Tensor(hm[None].copy())
        assert focal_loss(pred, fake_target(hm, 1), self.fp).data < 1e-9

    def test_empty_frame_normalizes_by_one(self):
        hm = np.zeros((1, 2, 2))
        pred = ad.Tensor(np.full((1, 1, 2, 2), 0.5))
        loss = focal_loss(pred, fake_target(hm, 0), self.fp).data
        assert loss == pytest.approx(4 * 0.25 * math.log(2.0), rel=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        hm = np.zeros((2, 5, 5))
        hm[0, 2, 2] = 1.0
        hm[1, 1:4, 1:4] = 0.4
        hm[1, 2, 2] = 1.0
        pred = ad.Tensor(rng.uniform(0.1, 0.9, size=(1, 2, 5, 5)),
                         requires_grad=True)
        tgt = fake_target(hm, 2)
        loss = focal_loss(pred, tgt, self.fp)
        ad.backward(loss)
        h = 1e-6
        idx = (0, 1, 2, 3)
        with ad.no_grad():
            pred.data[idx] += h
            up = focal_loss(pred, tgt, self.fp).data
            pred.data[idx] -= 2 * h
            down = focal_loss(pred, tgt, self.fp).data
            pred.data[idx] += h
        assert pred.grad[idx] == pytest.approx((up - down) / (2 * h), rel=1e-6)


def head_output_like(tgt, geom, k, offset_error=0.0):
    """Perfect regression maps for `tgt` except a uniform offset error."""
    hm = np.full((1, k, geom.h, geom.w), 0.5)
    offset = np.zeros((1, 2, geom.h, geom.w))
    height = np.zeros((1, 1, geom.h, geom.w))
    size = np.zeros((1, 3, geom.h, geom.w))
    rotation = np.zeros((1, 2, geom.h, geom.w))
    velocity = np.zeros((1, 2, geom.h, geom.w))
    for row, ((iy, ix), _cid, _obj) in enumerate(tgt.center_mask):
        offset[0, :, iy, ix] = tgt.offset[row] + offset_error
        height[0, :, iy, ix] = tgt.height[row]
        size[0, :, iy, ix] = tgt.size[row]
        rotation[0, :, iy, ix] = tgt.rotation[row]
        velocity[0, :, iy, ix] = tgt.velocity[row]
    return HeadOutput(heatmap=ad.Tensor(hm), offset=ad.Tensor(offset),
                      height=ad.Tensor(height), size=ad.Tensor(size),
                      rotation=ad.Tensor(rotation), velocity=ad.Tensor(velocity))


class TestRegressionLosses:
    def test_uniform_offset_error_gives_its_magnitude(self):
        boxes = [box_at(0.5, -3.1), box_at(4.0, 6.0, class_id=1)]
        tgt = render_targets(boxes, GEOM, 2)
        head = head_output_like(tgt, GEOM, 2, offset_error=0.2)
        l_off, l_size, l_height, l_rot, l_vel = regression_losses(head, tgt)
        assert l_off.data == pytest.approx(0.2, rel=1e-12)
        for other in (l_size, l_height, l_rot, l_vel):
            assert other.data == pytest.approx(0.0, abs=1e-15)

    def test_no_objects_gives_zeros(self):
        tgt = render_targets([], GEOM, 1)
        head = head_output_like(tgt, GEOM, 1)
        for term in regression_losses(head, tgt):
            assert term.data == 0.0

    def test_mean_over_rows_and_components(self):
        boxes = [box_at(0.5, -3.1), box_at(4.0, 6.0)]
        tgt = render_targets(boxes, GEOM, 1)
        head = head_output_like(tgt, GEOM, 1)
        head.velocity.data[:] = 0.0  # targets vx,vy default 0 so keep exact
        vel = np.array(tgt.velocity)
        tgt.velocity = vel + np.array([[1.0, 3.0], [0.0, 0.0]])
        l_vel = regression_losses(head, tgt)[4]
        assert l_vel.data == pytest.approx(4.0 / 4.0, rel=1e-12)


class TestLossTail:
    """The focal and regression losses of one supervised frame."""

    @staticmethod
    def frame(dtype, requires_grad=False):
        boxes = [box_at(0.5, -3.1, yaw=0.4, vx=1.5), box_at(4.0, 6.0, class_id=1)]
        tgt = render_targets(boxes, GEOM, 2)
        rng = np.random.default_rng(3)
        hm = rng.uniform(0.0, 1.0, size=(1, 2, GEOM.h, GEOM.w)).astype(np.float32)
        hm[0, 0, 0, :2] = (0.0, 1.0)
        maps = {"heatmap": hm}
        for name, out in REG_BRANCHES:
            maps[name] = rng.normal(size=(1, out, GEOM.h, GEOM.w)).astype(np.float32)
        head = HeadOutput(**{name: ad.Tensor(m, requires_grad=requires_grad, dtype=dtype)
                             for name, m in maps.items()})
        return head, tgt

    @staticmethod
    def losses(head, tgt):
        return (focal_loss(head.heatmap, tgt, FocalParams()),) + regression_losses(head, tgt)

    def test_float32_head_gives_the_float64_cast_losses(self):
        single = self.losses(*self.frame(np.float32))
        double = self.losses(*self.frame(np.float64))
        for a, b in zip(single, double):
            assert a.data.dtype == np.float64
            assert a.data == b.data

    def test_one_frame_builds_twelve_graph_nodes(self):
        head, tgt = self.frame(np.float64, requires_grad=True)
        counts = []
        for loss in self.losses(head, tgt):
            nodes, stack = set(), [loss]
            while stack:
                node = stack.pop()
                if node._backward_fn is not None and id(node) not in nodes:
                    nodes.add(id(node))
                    stack.extend(node._parents)
            counts.append(len(nodes))
        assert counts == [2] + [2] * len(LOSS_TERMS)    # focal and mul; gather and l1


class TestTotalLoss:
    def test_hand_sum(self):
        w = LossWeights()
        t = total_loss((ad.Tensor(5.0), ad.Tensor(0.2), ad.Tensor(0.0),
                        ad.Tensor(0.0), ad.Tensor(0.0), ad.Tensor(0.0)), w)
        assert t.data == pytest.approx(5.2, rel=1e-12)

    def test_rotation_weight_applies(self):
        w = LossWeights()
        t = total_loss((ad.Tensor(0.0), ad.Tensor(0.0), ad.Tensor(0.0),
                        ad.Tensor(0.0), ad.Tensor(1.0), ad.Tensor(0.0)), w)
        assert t.data == pytest.approx(0.2, rel=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(rotation=-0.1)


class TestDetectionHead:
    def test_fresh_model_predicts_point_one_everywhere(self):
        head = DetectionHead(8, 16, 3, np.random.default_rng(0))
        x = ad.Tensor(np.random.default_rng(1).normal(size=(1, 8, 6, 6)))
        out = head(x)
        assert np.allclose(out.heatmap.data, 0.1, atol=1e-12)

    def test_branch_shapes(self):
        head = DetectionHead(8, 16, 3, np.random.default_rng(0))
        out = head(ad.Tensor(np.zeros((1, 8, 6, 7))))
        assert out.heatmap.data.shape == (1, 3, 6, 7)
        assert out.offset.data.shape == (1, 2, 6, 7)
        assert out.height.data.shape == (1, 1, 6, 7)
        assert out.size.data.shape == (1, 3, 6, 7)
        assert out.rotation.data.shape == (1, 2, 6, 7)
        assert out.velocity.data.shape == (1, 2, 6, 7)

    def test_heatmap_bias_matches_prior(self):
        head = DetectionHead(4, 8, 2, np.random.default_rng(0))
        _, final = head.branches["heatmap"]
        assert np.allclose(final.bias.data, -math.log(9.0))
        assert not final.weight.data.any()

    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_regression_at_cells_equals_dense_chain(self, seed, cells):
        """Regression maps equal final(relu(hidden(bev))) at the cells (map
        borders, duplicates and no cells included) and are 0 elsewhere; under
        a loss that reads only those cells, bev and every regression branch
        parameter get the dense chain's gradients. Float64 throughout."""
        rng = np.random.default_rng(seed)
        head = DetectionHead(3, 4, 2, rng)
        for key, p in head.named_parameters():
            if key.endswith(".bias"):
                p.data = rng.normal(size=p.data.shape)
        bev_data = rng.normal(size=(1, 3, 5, 7))
        ys, xs = np.array(cells, dtype=np.int64).reshape(-1, 2).T
        weights = {name: rng.normal(size=(ys.size, out)) for name, out in REG_BRANCHES}
        at_cells = np.zeros((5, 7), dtype=bool)
        at_cells[ys, xs] = True

        def heatmap_only(hm):
            assert hm.shape == (2, 5, 7)
            return ys, xs

        def run(maps_of):
            head.zero_grad()
            bev = ad.Tensor(bev_data, requires_grad=True)
            maps = maps_of(bev)
            loss = ad.Tensor(0.0)
            for name, _ in REG_BRANCHES:
                loss = ad.add(loss, ad.sum(ad.mul(
                    ad.gather_pixels(maps[name], ys, xs), weights[name])))
            ad.backward(loss)
            grads = {key: p.grad for key, p in head.named_parameters()
                     if not key.startswith("heatmap.")}
            return maps, bev.grad, grads

        def dense(bev):
            return {name: final(ad.relu(hidden(bev)))
                    for name, (hidden, final) in head.branches.items()}

        def close(got, want):
            assert np.max(np.abs(got - want), initial=0.0) <= (
                1e-12 * np.max(np.abs(want), initial=1.0))

        got, got_bev, got_params = run(
            lambda bev: vars(head(bev, heatmap_only)))
        want, want_bev, want_params = run(dense)
        for name, _ in REG_BRANCHES:
            got_map, want_map = got[name].data[0], want[name].data[0]
            close(got_map[:, at_cells], want_map[:, at_cells])
            assert not got_map[:, ~at_cells].any()
        close(got_bev, want_bev)
        assert got_params.keys() == want_params.keys()
        for key in want_params:
            close(got_params[key], want_params[key])
