"""Finite-difference verification of analytic gradients.

Two layers: a per-op suite where every operator's inputs are checked against
central differences, and an end-to-end check that differentiates the full
training loss of a small model through every parameter tensor. Inputs are
constructed to stay away from kinks and ties (relu/abs at zero, clip edges,
max ties), where one-sided derivatives make the comparison meaningless.
"""
from __future__ import annotations

import time

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig
from .backbone import BackboneConfig
from .fmf import FMFConfig
from .heads import focal_loss, regression_losses, render_targets, total_loss
from .scene import SceneSpec, generate_scene
from .train import TrainConfig, build_model
from .voxelizer import GridConfig

OP_TOLERANCE = 1e-5
PIPELINE_TOLERANCE = 1e-4
_H = 1e-5

_OP_CASES = []


def _op_case(name):
    def register(fn):
        _OP_CASES.append((name, fn))
        return fn
    return register


def _rel_err(analytic, numeric):
    return float(np.max(np.abs(analytic - numeric)
                        / np.maximum(1.0, np.abs(numeric))))


def _spread(rng, shape, lo=-1.0, hi=1.0):
    """Values with pairwise gaps, so max-style ops have unambiguous argmaxes."""
    n = int(np.prod(shape))
    return rng.permutation(np.linspace(lo, hi, n)).reshape(shape)


def _away_from_zero(rng, shape, min_abs=0.05):
    x = _spread(rng, shape)
    return x + np.sign(x) * min_abs


def _weights(rng, shape):
    return rng.normal(size=shape)


def _leaf(data):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


@_op_case("add_broadcast")
def _case_add():
    rng = np.random.default_rng(10)
    a = _leaf(rng.normal(size=(2, 1, 4)))
    b = _leaf(rng.normal(size=(3, 1)))
    w = _weights(rng, (2, 3, 4))
    return {"a": a, "b": b}, lambda: ad.sum(ad.mul(ad.add(a, b), w))


@_op_case("mul_broadcast")
def _case_mul():
    rng = np.random.default_rng(11)
    a = _leaf(rng.normal(size=(3, 4)))
    b = _leaf(rng.normal(size=(4,)))
    w = _weights(rng, (3, 4))
    return {"a": a, "b": b}, lambda: ad.sum(ad.mul(ad.mul(a, b), w))


@_op_case("neg")
def _case_neg():
    rng = np.random.default_rng(12)
    a = _leaf(rng.normal(size=(5,)))
    w = _weights(rng, (5,))
    return {"a": a}, lambda: ad.sum(ad.mul(ad.neg(a), w))


@_op_case("pow")
def _case_pow():
    rng = np.random.default_rng(13)
    a = _leaf(rng.uniform(0.5, 2.0, size=(3, 3)))
    w = _weights(rng, (3, 3))
    return {"a": a}, lambda: ad.sum(ad.mul(ad.pow(a, 1.7), w))


@_op_case("log")
def _case_log():
    rng = np.random.default_rng(15)
    a = _leaf(rng.uniform(0.5, 3.0, size=(4,)))
    w = _weights(rng, (4,))
    return {"a": a}, lambda: ad.sum(ad.mul(ad.log(a), w))


@_op_case("abs")
def _case_abs():
    rng = np.random.default_rng(17)
    a = _leaf(_away_from_zero(rng, (3, 4)))
    w = _weights(rng, (3, 4))
    return {"a": a}, lambda: ad.sum(ad.mul(ad.abs(a), w))


@_op_case("clip")
def _case_clip():
    rng = np.random.default_rng(18)
    vals = np.concatenate([np.linspace(-1.0, -0.6, 8),
                           np.linspace(-0.4, 0.4, 8),
                           np.linspace(0.6, 1.0, 8)])
    a = _leaf(rng.permutation(vals).reshape(4, 6))
    w = _weights(rng, (4, 6))
    return {"a": a}, lambda: ad.sum(ad.mul(ad.clip(a, -0.5, 0.5), w))


@_op_case("relu")
def _case_relu():
    rng = np.random.default_rng(19)
    a = _leaf(_away_from_zero(rng, (4, 5)))
    w = _weights(rng, (4, 5))
    return {"a": a}, lambda: ad.sum(ad.mul(ad.relu(a), w))


@_op_case("sigmoid")
def _case_sigmoid():
    rng = np.random.default_rng(20)
    a = _leaf(rng.normal(size=(4, 5)) * 3.0)
    w = _weights(rng, (4, 5))
    return {"a": a}, lambda: ad.sum(ad.mul(ad.sigmoid(a), w))


@_op_case("sum_axis")
def _case_sum():
    rng = np.random.default_rng(21)
    a = _leaf(rng.normal(size=(3, 4, 2)))
    w = _weights(rng, (3, 1, 2))
    return {"a": a}, lambda: ad.sum(
        ad.mul(ad.sum(a, axis=1, keepdims=True), w))


@_op_case("mean_axis")
def _case_mean():
    rng = np.random.default_rng(22)
    a = _leaf(rng.normal(size=(3, 4)))
    w = _weights(rng, (3,))
    return {"a": a}, lambda: ad.sum(ad.mul(ad.mean(a, axis=1), w))


@_op_case("concat")
def _case_concat():
    rng = np.random.default_rng(26)
    a = _leaf(rng.normal(size=(2, 3)))
    b = _leaf(rng.normal(size=(2, 1)))
    c = _leaf(rng.normal(size=(2, 2)))
    w = _weights(rng, (2, 6))
    return {"a": a, "b": b, "c": c}, lambda: ad.sum(
        ad.mul(ad.concat((a, b, c), axis=1), w))


@_op_case("concat_channels")
def _case_concat_channels():
    rng = np.random.default_rng(27)
    a = _leaf(rng.normal(size=(1, 2, 3, 3)))
    b = _leaf(rng.normal(size=(1, 3, 3, 3)))
    w = _weights(rng, (1, 5, 3, 3))
    return {"a": a, "b": b}, lambda: ad.sum(
        ad.mul(ad.concat_channels(a, b), w))


@_op_case("index_rows")
def _case_index_rows():
    rng = np.random.default_rng(28)
    a = _leaf(rng.normal(size=(4, 3)))
    idx = np.array([0, 2, 1, 2, 0])
    w = _weights(rng, (5, 3))
    return {"a": a}, lambda: ad.sum(ad.mul(ad.index_rows(a, idx), w))


@_op_case("matmul")
def _case_matmul():
    rng = np.random.default_rng(29)
    a = _leaf(rng.normal(size=(3, 4)))
    b = _leaf(rng.normal(size=(4, 2)))
    w = _weights(rng, (3, 2))
    return {"a": a, "b": b}, lambda: ad.sum(ad.mul(ad.matmul(a, b), w))


@_op_case("linear")
def _case_linear():
    rng = np.random.default_rng(30)
    x = _leaf(rng.normal(size=(5, 3)))
    weight = _leaf(rng.normal(size=(3, 4)))
    bias = _leaf(rng.normal(size=(4,)))
    w = _weights(rng, (5, 4))
    return ({"x": x, "weight": weight, "bias": bias},
            lambda: ad.sum(ad.mul(ad.linear(x, weight, bias), w)))


@_op_case("conv2d_same")
def _case_conv_same():
    rng = np.random.default_rng(31)
    x = _leaf(rng.normal(size=(2, 3, 5, 6)))
    weight = _leaf(rng.normal(size=(4, 3, 3, 3)) * 0.5)
    bias = _leaf(rng.normal(size=(4,)))
    w = _weights(rng, (2, 4, 5, 6))
    return ({"x": x, "weight": weight, "bias": bias},
            lambda: ad.sum(ad.mul(
                ad.conv2d(x, weight, bias, stride=1, padding="same"), w)))


@_op_case("conv2d_stride2")
def _case_conv_stride():
    rng = np.random.default_rng(32)
    x = _leaf(rng.normal(size=(1, 2, 6, 6)))
    weight = _leaf(rng.normal(size=(3, 2, 3, 3)) * 0.5)
    w = _weights(rng, (1, 3, 3, 3))
    return ({"x": x, "weight": weight},
            lambda: ad.sum(ad.mul(
                ad.conv2d(x, weight, stride=2, padding=1), w)))


@_op_case("conv2d_stride2_batch")
def _case_conv_stride_batch():
    rng = np.random.default_rng(42)
    x = _leaf(rng.normal(size=(2, 3, 7, 6)))
    weight = _leaf(rng.normal(size=(4, 3, 3, 3)) * 0.5)
    bias = _leaf(rng.normal(size=(4,)))
    w = _weights(rng, (2, 4, 4, 3))
    return ({"x": x, "weight": weight, "bias": bias},
            lambda: ad.sum(ad.mul(
                ad.conv2d(x, weight, bias, stride=2, padding=1), w)))


@_op_case("conv2d_1x1")
def _case_conv_1x1():
    rng = np.random.default_rng(43)
    x = _leaf(rng.normal(size=(2, 3, 4, 5)))
    weight = _leaf(rng.normal(size=(4, 3, 1, 1)) * 0.5)
    bias = _leaf(rng.normal(size=(4,)))
    w = _weights(rng, (2, 4, 4, 5))
    return ({"x": x, "weight": weight, "bias": bias},
            lambda: ad.sum(ad.mul(ad.conv2d(x, weight, bias), w)))


@_op_case("conv2d_k5_stride3")
def _case_conv_k5_stride3():
    rng = np.random.default_rng(44)
    x = _leaf(rng.normal(size=(1, 2, 8, 7)))
    weight = _leaf(rng.normal(size=(3, 2, 5, 5)) * 0.5)
    w = _weights(rng, (1, 3, 3, 3))
    return ({"x": x, "weight": weight},
            lambda: ad.sum(ad.mul(
                ad.conv2d(x, weight, stride=3, padding=2), w)))


@_op_case("batchnorm_train")
def _case_bn_train():
    rng = np.random.default_rng(33)
    x = _leaf(rng.normal(size=(2, 3, 4, 4)))
    gamma = _leaf(rng.uniform(0.5, 1.5, size=(3,)))
    beta = _leaf(rng.normal(size=(3,)))
    w = _weights(rng, (2, 3, 4, 4))

    def forward():
        stats = ad.RunningStats(3)
        return ad.sum(ad.mul(
            ad.batchnorm(x, gamma, beta, stats, training=True), w))

    return {"x": x, "gamma": gamma, "beta": beta}, forward


@_op_case("batchnorm_eval")
def _case_bn_eval():
    rng = np.random.default_rng(34)
    x = _leaf(rng.normal(size=(2, 3, 4, 4)))
    gamma = _leaf(rng.uniform(0.5, 1.5, size=(3,)))
    beta = _leaf(rng.normal(size=(3,)))
    stats = ad.RunningStats(3)
    stats.mean = rng.normal(size=3)
    stats.var = rng.uniform(0.5, 2.0, size=3)
    w = _weights(rng, (2, 3, 4, 4))
    return ({"x": x, "gamma": gamma, "beta": beta},
            lambda: ad.sum(ad.mul(
                ad.batchnorm(x, gamma, beta, stats, training=False), w)))


@_op_case("segment_max")
def _case_segment_max():
    rng = np.random.default_rng(35)
    x = _leaf(_spread(rng, (8, 3)))
    starts = np.array([0, 3, 5])
    w = _weights(rng, (3, 3))
    return {"x": x}, lambda: ad.sum(ad.mul(ad.segment_max(x, starts), w))


@_op_case("segment_mean")
def _case_segment_mean():
    rng = np.random.default_rng(36)
    x = _leaf(rng.normal(size=(8, 3)))
    starts = np.array([0, 2, 7])
    w = _weights(rng, (3, 3))
    return {"x": x}, lambda: ad.sum(ad.mul(ad.segment_mean(x, starts), w))


@_op_case("scatter_to_grid")
def _case_scatter():
    rng = np.random.default_rng(37)
    feats = _leaf(rng.normal(size=(4, 3)))
    coords = np.array([[0, 0], [4, 3], [2, 1], [1, 3]])
    w = _weights(rng, (1, 3, 4, 5))
    return {"feats": feats}, lambda: ad.sum(
        ad.mul(ad.scatter_to_grid(feats, coords, (5, 4)), w))


@_op_case("gather_pixels")
def _case_gather():
    rng = np.random.default_rng(38)
    x = _leaf(rng.normal(size=(1, 3, 4, 5)))
    ys = np.array([0, 3, 3, 1])
    xs = np.array([4, 2, 2, 0])
    w = _weights(rng, (4, 3))
    return {"x": x}, lambda: ad.sum(ad.mul(ad.gather_pixels(x, ys, xs), w))


@_op_case("bilinear_sample")
def _case_bilinear():
    rng = np.random.default_rng(39)
    x = _leaf(rng.normal(size=(2, 3, 6, 7)))
    base = rng.integers(-1, 6, size=(2, 2, 3, 2)).astype(np.float64)
    grid = base + rng.uniform(0.2, 0.8, size=base.shape)
    w = _weights(rng, (2, 3, 2, 3))
    return {"x": x}, lambda: ad.sum(ad.mul(ad.bilinear_sample(x, grid), w))


@_op_case("resample_up")
def _case_resample_up():
    rng = np.random.default_rng(40)
    x = _leaf(rng.normal(size=(1, 2, 3, 4)))
    w = _weights(rng, (1, 2, 6, 8))
    return {"x": x}, lambda: ad.sum(ad.mul(ad.resample_nearest(x, (6, 8)), w))


@_op_case("resample_down")
def _case_resample_down():
    rng = np.random.default_rng(41)
    x = _leaf(rng.normal(size=(1, 2, 6, 8)))
    w = _weights(rng, (1, 2, 3, 4))
    return {"x": x}, lambda: ad.sum(ad.mul(ad.resample_nearest(x, (3, 4)), w))


def _fd_error(tensor, analytic, indices, forward, h=_H):
    """Worst relative error of `analytic` against the central difference
    (f(x + h e_i) - f(x - h e_i)) / 2h over coordinates i of `tensor`; each
    coordinate is restored after it is perturbed."""
    worst = 0.0
    for idx in indices:
        orig = tensor.data[idx]
        tensor.data[idx] = orig + h
        with ad.no_grad():
            fp = forward().item()
        tensor.data[idx] = orig - h
        with ad.no_grad():
            fm = forward().item()
        tensor.data[idx] = orig
        worst = max(worst, _rel_err(analytic[idx], (fp - fm) / (2.0 * h)))
    return worst


def check_ops():
    """Run every op case; returns [(name, max rel err)], worst first-order
    mismatch across all inputs of all cases."""
    results = []
    for name, build in _OP_CASES:
        tensors, forward = build()
        loss = forward()
        ad.backward(loss)
        worst = 0.0
        for t in tensors.values():
            analytic = (t.grad if t.grad is not None
                        else np.zeros_like(t.data))
            worst = max(worst, _fd_error(t, analytic, np.ndindex(t.data.shape),
                                         forward))
        results.append((name, worst))
    return results


def tiny_grid_config():
    return GridConfig(x_range=(-2.56, 2.56), y_range=(-2.56, 2.56),
                      z_range=(-2.0, 4.0), cell_size=(0.32, 0.32, 6.0),
                      max_points_per_cell=8, max_cells=4000, mode="pillar")


def tiny_train_config(seed=0):
    backbone = BackboneConfig(pfn_channels=6, neck_channels=(6,),
                              neck_strides=(2,), out_channels=6)
    return TrainConfig(grid=tiny_grid_config(), backbone=backbone,
                       head_channels=4, seed=seed,
                       fmf=FMFConfig(enabled=True, use_odometry=True),
                       augment=AugmentConfig(enabled=False))


def tiny_scene_spec(seed=7):
    return SceneSpec(num_frames=2, num_objects=2, range=2.56, margin=0.5,
                     min_separation=1.2, points_per_object=30,
                     clutter_points=10, ego_speed=0.3, seed=seed,
                     class_names=("pedestrian", "cyclist"))


def check_pipeline(full=False, seed=0, h=_H):
    """Finite-difference check of d(total loss)/d(parameter) through the whole
    frame-pair pipeline on a small model. Checks two coordinates per
    parameter tensor, or every coordinate with full=True."""
    t_start = time.perf_counter()
    cfg = tiny_train_config(seed)
    seq = generate_scene(tiny_scene_spec())
    prev, cur = seq.frames[0], seq.frames[1]
    model = build_model(cfg, len(seq.class_names))
    model.train()
    target = render_targets(cur.gt_boxes, model.geometry, len(seq.class_names),
                            cfg.min_overlap)

    snapshot = {n: getter().copy() for n, getter, _ in model.named_buffers()}

    def forward():
        for n, _getter, setter in model.named_buffers():
            setter(snapshot[n].copy())
        out = model.forward_pair(prev, cur, vox_seeds=(11, 12))
        l_hm = focal_loss(out.heatmap, target, cfg.focal)
        return total_loss(l_hm, *regression_losses(out, target),
                          cfg.loss_weights)

    loss = forward()
    ad.backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None
                       else np.zeros_like(p.data))
                for name, p in model.named_parameters()}

    rng = np.random.default_rng(123)
    per_param = {}
    for name, p in model.named_parameters():
        size = p.data.size
        if full or size <= 2:
            flat_indices = np.arange(size)
        else:
            flat_indices = rng.choice(size, size=2, replace=False)
        indices = (np.unravel_index(int(flat), p.data.shape)
                   for flat in flat_indices)
        per_param[name] = _fd_error(p, analytic[name], indices, forward, h)

    return {"param_count": model.param_count(),
            "loss": loss.item(),
            "worst": max(per_param.values()),
            "per_param": per_param,
            "seconds": time.perf_counter() - t_start}


def run_gradcheck(full=False):
    """Full verification pass; returns (ok, report dict)."""
    ops = check_ops()
    ops_worst = max(err for _, err in ops)
    pipeline = check_pipeline(full=full)
    ok = ops_worst < OP_TOLERANCE and pipeline["worst"] < PIPELINE_TOLERANCE
    report = {"ops": ops, "ops_worst": ops_worst,
              "ops_tolerance": OP_TOLERANCE,
              "pipeline_worst": pipeline["worst"],
              "pipeline_tolerance": PIPELINE_TOLERANCE,
              "pipeline_param_count": pipeline["param_count"],
              "pipeline_seconds": pipeline["seconds"],
              "ok": ok}
    return ok, report
