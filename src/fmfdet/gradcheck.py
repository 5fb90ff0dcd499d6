"""Finite-difference verification of analytic gradients.

One list of checks, each (name, tensor, analytic gradient, coordinates,
forward): one per input of every op case, over all its coordinates, and one
per parameter tensor of a small model whose forward is the full training
loss, the `total_loss` of `train.pair_losses` as training builds it. Every
(check, coordinate) central difference is one job of a single `forkmap`
map. Inputs are constructed to stay away from kinks and ties (relu and L1
at zero, the focal clip edges, max ties), where one-sided derivatives make
the comparison meaningless.
Both kinds run in float64, whatever the training default: the tolerances
are float64 numbers, so the pipeline model sets compute_dtype="float64".
"""
from __future__ import annotations

import time

import numpy as np

from . import autodiff as ad
from . import forkmap
from .augment import AugmentConfig
from .backbone import BackboneConfig
from .fmf import FMFConfig
from .heads import total_loss
from .scene import SceneSpec, generate_scene
from .train import TrainConfig, build_model, pair_losses
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


@_op_case("relu", 19)
def _case_relu(rng):
    return (_away_from_zero(rng, (4, 5)),), ad.relu


@_op_case("sigmoid", 20)
def _case_sigmoid(rng):
    return (rng.normal(size=(4, 5)) * 3.0,), ad.sigmoid


@_op_case("sum", 21)
def _case_sum(rng):
    return (rng.normal(size=(3, 4, 2)),), ad.sum


@_op_case("focal", 22)
def _case_focal(rng):
    shape = (1, 2, 4, 5)    # a [1,K,h,w] heatmap
    target = np.where(rng.random(shape) < 0.3, 1.0, rng.uniform(0.0, 0.9, size=shape))
    return ((rng.uniform(0.2, 0.8, size=shape),),
            lambda pred: ad.focal(pred, target, 2.0, 4.0))


@_op_case("l1_mean", 23)
def _case_l1_mean(rng):
    target = rng.normal(size=(3, 4))
    return ((target + _away_from_zero(rng, (3, 4)),),
            lambda a: ad.l1_mean(a, target))


@_op_case("concat_channels_3", 26)
def _case_concat_channels_3(rng):
    return ((rng.normal(size=(2, 3, 2, 3)), rng.normal(size=(2, 1, 2, 3)),
             rng.normal(size=(2, 2, 2, 3))), ad.concat_channels)


@_op_case("concat_channels", 27)
def _case_concat_channels(rng):
    return (rng.normal(size=(1, 2, 3, 3)), rng.normal(size=(1, 3, 3, 3))), ad.concat_channels


@_op_case("conv_rows_no_bias", 29)
def _case_conv_rows_no_bias(rng):
    return (rng.normal(size=(3, 4)), rng.normal(size=(2, 4))), ad.conv_rows


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


_BN_SHAPE, _CH = (2, 3, 4, 4), (1, 3, 1, 1)


@_op_case("batchnorm_train", 33)
def _case_bn_train(rng):
    # any per-channel affine map of z normalizes back to z (to eps) under
    # gamma = std(z), beta = mean(z), so the relu sees z: away from its kink
    z = _away_from_zero(rng, _BN_SHAPE)
    x = z * rng.uniform(0.5, 2.0, size=_CH) + rng.normal(size=_CH)
    gamma, beta = z.std(axis=(0, 2, 3)), z.mean(axis=(0, 2, 3))
    return (x, gamma, beta), lambda x, gamma, beta: ad.batchnorm(
        x, gamma, beta, ad.Tensor(np.zeros(3)), ad.Tensor(np.ones(3)), training=True)


@_op_case("batchnorm_eval", 34)
def _case_bn_eval(rng):
    # x is chosen so that the running statistics normalize it to z (to eps)
    z = _away_from_zero(rng, _BN_SHAPE)
    gamma, beta = rng.uniform(0.5, 1.5, size=3), rng.normal(size=3)
    mean, var = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
    x = (z - beta.reshape(_CH)) * (np.sqrt(var) / gamma).reshape(_CH) + mean.reshape(_CH)
    return (x, gamma, beta), lambda x, gamma, beta: ad.batchnorm(
        x, gamma, beta, ad.Tensor(mean), ad.Tensor(var), training=False)


@_op_case("segment_max", 35)
def _case_segment_max(rng):
    return (_spread(rng, (8, 3)),), lambda x: ad.segment_max(x, [0, 3, 5])


@_op_case("segment_mean", 36)
def _case_segment_mean(rng):
    return (rng.normal(size=(8, 3)),), lambda x: ad.segment_mean(x, [0, 2, 7])


@_op_case("scatter_to_grid", 37)
def _case_scatter(rng):
    cells = np.array([0, 7, 16, 19])  # (ix, iy) = (0, 0), (2, 1), (1, 3), (4, 3)
    return (rng.normal(size=(4, 3)),), lambda f: ad.scatter_to_grid(f, cells, (5, 4))


@_op_case("gather_pixels", 38)
def _case_gather(rng):
    return (rng.normal(size=(1, 3, 4, 5)),), lambda x: ad.gather_pixels(
        x, [0, 3, 3, 1], [4, 2, 2, 0])


@_op_case("gather_pixels_3x3", 45)
def _case_gather_windows(rng):
    # corner and edge windows reach outside the map; (3, 4) comes twice
    return (rng.normal(size=(1, 2, 4, 5)),), lambda x: ad.gather_pixels(
        x, [0, 3, 1, 3, 2], [0, 4, 2, 4, 0], k=3)


@_op_case("conv_rows", 46)
def _case_conv_rows(rng):
    return ((rng.normal(size=(5, 12)), rng.normal(size=(3, 2, 2, 3)) * 0.5,
             rng.normal(size=(3,))), ad.conv_rows)


@_op_case("bilinear_sample", 39)
def _case_bilinear(rng):
    x = rng.normal(size=(2, 3, 6, 7))
    base = rng.integers(-1, 6, size=(2, 3, 2)).astype(np.float64)
    grid = base + rng.uniform(0.2, 0.8, size=base.shape)
    return (x,), lambda m: ad.bilinear_sample(m, grid)


@_op_case("resample_down", 41)
def _case_resample_down(rng):
    return (rng.normal(size=(1, 2, 6, 8)),), lambda x: ad.resample_nearest(x, (3, 4))


def _grad(t):
    """A snapshot of t's gradient, which no later forward can overwrite."""
    return t.grad.copy() if t.grad is not None else np.zeros_like(t.data)


def _fd_error(check, idx):
    """Relative error of the check's analytic gradient at coordinate idx
    against the central difference (f(x + h e_idx) - f(x - h e_idx)) / 2h,
    h = _H; the coordinate is restored after it is perturbed."""
    _name, tensor, analytic, _coords, forward = check
    orig = tensor.data[idx]
    with ad.no_grad():
        tensor.data[idx] = orig + _H
        fp = forward().item()
        tensor.data[idx] = orig - _H
        fm = forward().item()
    tensor.data[idx] = orig
    return _rel_err(analytic[idx], (fp - fm) / (2.0 * _H))


def _op_checks():
    """One check per input of every op case, over all its coordinates."""
    checks = []
    for name, seed, build in _OP_CASES:
        rng = np.random.default_rng(seed)
        inputs, op = build(rng)
        leaves = [_leaf(x) for x in inputs]
        w = rng.normal(size=op(*leaves).shape)

        def forward(op=op, leaves=leaves, w=w):
            return ad.sum(ad.mul(op(*leaves), w))

        ad.backward(forward())
        checks += [(name, t, _grad(t), list(np.ndindex(t.data.shape)), forward)
                   for t in leaves]
    return checks


def tiny_grid_config():
    return GridConfig(x_range=(-2.56, 2.56), y_range=(-2.56, 2.56),
                      z_range=(-2.0, 4.0), cell_size=(0.32, 0.32, 6.0),
                      max_points_per_cell=8, max_cells=4000, mode="pillar")


def tiny_train_config():
    backbone = BackboneConfig(pfn_channels=6, neck_channels=(6,),
                              neck_strides=(2,), out_channels=6)
    return TrainConfig(grid=tiny_grid_config(), backbone=backbone,
                       head_channels=4, seed=0,
                       fmf=FMFConfig(enabled=True, use_odometry=True),
                       augment=AugmentConfig(enabled=False),
                       compute_dtype="float64")


def tiny_scene_spec(seed=7):
    return SceneSpec(num_frames=2, num_objects=2, range=2.56, margin=0.5,
                     min_separation=1.2, points_per_object=30,
                     clutter_points=10, ego_speed=0.3, seed=seed,
                     class_names=("pedestrian", "cyclist"))


def _pipeline_checks(full):
    """(parameter count, checks): one check of d(total loss)/d(parameter)
    through the whole frame-pair pipeline, `train.pair_losses`, on a small
    model, per parameter tensor: over two sampled coordinates, or every one
    with full=True."""
    cfg = tiny_train_config()
    seq = generate_scene(tiny_scene_spec())
    prev, cur = seq.frames[0], seq.frames[1]
    model = build_model(cfg, len(seq.class_names))
    model.train()

    def forward():
        return total_loss(pair_losses(model, prev, cur, cfg, (11, 12)), cfg.loss_weights)

    ad.backward(forward())
    rng = np.random.default_rng(123)
    checks = []
    for name, p in model.named_parameters():
        size = p.data.size
        flat = np.arange(size) if full or size <= 2 else rng.choice(size, size=2, replace=False)
        checks.append((name, p, _grad(p),
                       [np.unravel_index(int(i), p.data.shape) for i in flat], forward))
    return model.param_count(), checks


def run_gradcheck(full=False):
    """Full verification pass: every (check, coordinate) central difference
    is one job of a single `forkmap` map. Returns (ok, report dict): the
    worst error per op case, in `_OP_CASES` order, and over the pipeline;
    `seconds` times the whole pass."""
    t_start = time.perf_counter()
    ops = _op_checks()
    param_count, pipeline = _pipeline_checks(full)
    checks = ops + pipeline
    jobs = [(c, idx) for c, (*_, coords, _forward) in enumerate(checks) for idx in coords]
    worst = [0.0] * len(checks)
    with forkmap.pool(len(jobs) - 1, lambda job: _fd_error(checks[job[0]], job[1])) as run:
        for (c, _idx), err in zip(jobs, run(jobs)):
            worst[c] = max(worst[c], err)
    per_case = {}
    for (name, *_), err in zip(ops, worst):
        per_case[name] = max(per_case.get(name, 0.0), err)
    ops_worst = max(per_case.values())
    pipeline_worst = max(worst[len(ops):])
    ok = ops_worst < OP_TOLERANCE and pipeline_worst < PIPELINE_TOLERANCE
    report = {"ops": list(per_case.items()), "ops_worst": ops_worst,
              "ops_tolerance": OP_TOLERANCE,
              "pipeline_worst": pipeline_worst,
              "pipeline_tolerance": PIPELINE_TOLERANCE,
              "pipeline_param_count": param_count,
              "seconds": time.perf_counter() - t_start,
              "ok": ok}
    return ok, report
