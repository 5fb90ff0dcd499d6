"""Finite-difference verification of analytic gradients.

Two layers: a per-op suite where every operator's inputs are checked against
central differences, and an end-to-end check that differentiates the full
training loss of a small model through every parameter tensor. Inputs are
constructed to stay away from kinks and ties (relu/abs at zero, clip edges,
max ties), where one-sided derivatives make the comparison meaningless.
Both layers run in float64, whatever the training default: the tolerances
are float64 numbers, so the pipeline model sets compute_dtype="float64".
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


def _op_case(name, seed):
    """Register `build(rng) -> (inputs, op)`. The harness makes the input
    arrays leaves, then draws a weight w of op's output shape from the same
    rng and differentiates sum(op(*leaves) * w)."""
    def register(build):
        _OP_CASES.append((name, seed, build))
        return build
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


def _leaf(data):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


@_op_case("add_broadcast", 10)
def _case_add(rng):
    return (rng.normal(size=(2, 1, 4)), rng.normal(size=(3, 1))), ad.add


@_op_case("mul_broadcast", 11)
def _case_mul(rng):
    return (rng.normal(size=(3, 4)), rng.normal(size=(4,))), ad.mul


@_op_case("neg", 12)
def _case_neg(rng):
    return (rng.normal(size=(5,)),), ad.neg


@_op_case("pow", 13)
def _case_pow(rng):
    return (rng.uniform(0.5, 2.0, size=(3, 3)),), lambda a: ad.pow(a, 1.7)


@_op_case("log", 15)
def _case_log(rng):
    return (rng.uniform(0.5, 3.0, size=(4,)),), ad.log


@_op_case("abs", 17)
def _case_abs(rng):
    return (_away_from_zero(rng, (3, 4)),), ad.abs


@_op_case("clip", 18)
def _case_clip(rng):
    vals = np.concatenate([np.linspace(-1.0, -0.6, 8),
                           np.linspace(-0.4, 0.4, 8),
                           np.linspace(0.6, 1.0, 8)])
    return (rng.permutation(vals).reshape(4, 6),), lambda a: ad.clip(a, -0.5, 0.5)


@_op_case("relu", 19)
def _case_relu(rng):
    return (_away_from_zero(rng, (4, 5)),), ad.relu


@_op_case("sigmoid", 20)
def _case_sigmoid(rng):
    return (rng.normal(size=(4, 5)) * 3.0,), ad.sigmoid


@_op_case("sum", 21)
def _case_sum(rng):
    return (rng.normal(size=(3, 4, 2)),), ad.sum


@_op_case("mean", 22)
def _case_mean(rng):
    return (rng.normal(size=(3, 4)),), ad.mean


@_op_case("concat_channels_3", 26)
def _case_concat_channels_3(rng):
    return ((rng.normal(size=(2, 3, 2, 3)), rng.normal(size=(2, 1, 2, 3)),
             rng.normal(size=(2, 2, 2, 3))), ad.concat_channels)


@_op_case("concat_channels", 27)
def _case_concat_channels(rng):
    return (rng.normal(size=(1, 2, 3, 3)), rng.normal(size=(1, 3, 3, 3))), ad.concat_channels


@_op_case("index_rows", 28)
def _case_index_rows(rng):
    return (rng.normal(size=(4, 3)),), lambda a: ad.index_rows(a, [0, 2, 1, 2, 0])


@_op_case("matmul", 29)
def _case_matmul(rng):
    return (rng.normal(size=(3, 4)), rng.normal(size=(4, 2))), ad.matmul


@_op_case("conv2d_same", 31)
def _case_conv_same(rng):
    return ((rng.normal(size=(2, 3, 5, 6)), rng.normal(size=(4, 3, 3, 3)) * 0.5,
             rng.normal(size=(4,))),
            lambda x, weight, bias: ad.conv2d(x, weight, bias, padding=1))


@_op_case("conv2d_stride2", 32)
def _case_conv_stride(rng):
    return ((rng.normal(size=(1, 2, 6, 6)), rng.normal(size=(3, 2, 3, 3)) * 0.5),
            lambda x, weight: ad.conv2d(x, weight, stride=2, padding=1))


@_op_case("conv2d_stride2_batch", 42)
def _case_conv_stride_batch(rng):
    return ((rng.normal(size=(2, 3, 7, 6)), rng.normal(size=(4, 3, 3, 3)) * 0.5,
             rng.normal(size=(4,))),
            lambda x, weight, bias: ad.conv2d(x, weight, bias, stride=2, padding=1))


@_op_case("conv2d_1x1", 43)
def _case_conv_1x1(rng):
    return ((rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(4, 3, 1, 1)) * 0.5,
             rng.normal(size=(4,))), ad.conv2d)


@_op_case("conv2d_k5_stride3", 44)
def _case_conv_k5_stride3(rng):
    return ((rng.normal(size=(1, 2, 8, 7)), rng.normal(size=(3, 2, 5, 5)) * 0.5),
            lambda x, weight: ad.conv2d(x, weight, stride=3, padding=2))


def _bn_inputs(rng):
    return (rng.normal(size=(2, 3, 4, 4)), rng.uniform(0.5, 1.5, size=(3,)),
            rng.normal(size=(3,)))


@_op_case("batchnorm_train", 33)
def _case_bn_train(rng):
    return _bn_inputs(rng), lambda x, gamma, beta: ad.batchnorm(
        x, gamma, beta, ad.Tensor(np.zeros(3)), ad.Tensor(np.ones(3)),
        training=True)


@_op_case("batchnorm_eval", 34)
def _case_bn_eval(rng):
    inputs = _bn_inputs(rng)
    mean = ad.Tensor(rng.normal(size=3))
    var = ad.Tensor(rng.uniform(0.5, 2.0, size=3))
    return inputs, lambda x, gamma, beta: ad.batchnorm(
        x, gamma, beta, mean, var, training=False)


@_op_case("segment_max", 35)
def _case_segment_max(rng):
    return (_spread(rng, (8, 3)),), lambda x: ad.segment_max(x, [0, 3, 5])


@_op_case("segment_mean", 36)
def _case_segment_mean(rng):
    return (rng.normal(size=(8, 3)),), lambda x: ad.segment_mean(x, [0, 2, 7])


@_op_case("scatter_to_grid", 37)
def _case_scatter(rng):
    coords = np.array([[0, 0], [4, 3], [2, 1], [1, 3]])
    return (rng.normal(size=(4, 3)),), lambda f: ad.scatter_to_grid(f, coords, (5, 4))


@_op_case("gather_pixels", 38)
def _case_gather(rng):
    return (rng.normal(size=(1, 3, 4, 5)),), lambda x: ad.gather_pixels(
        x, [0, 3, 3, 1], [4, 2, 2, 0])


@_op_case("bilinear_sample", 39)
def _case_bilinear(rng):
    x = rng.normal(size=(2, 3, 6, 7))
    base = rng.integers(-1, 6, size=(2, 2, 3, 2)).astype(np.float64)
    grid = base + rng.uniform(0.2, 0.8, size=base.shape)
    return (x,), lambda m: ad.bilinear_sample(m, grid)


@_op_case("resample_down", 41)
def _case_resample_down(rng):
    return (rng.normal(size=(1, 2, 6, 8)),), lambda x: ad.resample_nearest(x, (3, 4))


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
    for name, seed, build in _OP_CASES:
        rng = np.random.default_rng(seed)
        inputs, op = build(rng)
        leaves = [_leaf(x) for x in inputs]
        w = rng.normal(size=op(*leaves).shape)

        def forward():
            return ad.sum(ad.mul(op(*leaves), w))

        ad.backward(forward())
        worst = 0.0
        for t in leaves:
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
                       augment=AugmentConfig(enabled=False),
                       compute_dtype="float64")


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

    def forward():
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
