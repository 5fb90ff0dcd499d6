"""Training loop: paired-frame batches, one-cycle AdamW, loss traces,
and npz checkpoints that restore a model bit-exactly.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig, apply_transform, sample_transform
from .backbone import BackboneConfig
from .config import from_dict, to_dict
from .decode import MatchConfig
from .errors import ConfigError, DivergenceError, FormatError
from .fmf import FMFConfig
from .heads import (FocalParams, LossWeights, focal_loss, regression_losses,
                    render_targets, total_loss)
from .model import Detector
from .optim import AdamW, one_cycle_lr
from .voxelizer import GridConfig, desk_pillar_config

TRACE_COLUMNS = ("step", "lr", "L_hm", "L_l", "L_s", "L_H", "L_r", "L_v",
                 "L_total")


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    lr_init: float = 0.003
    weight_decay: float = 0.01
    momentum_range: tuple = (0.85, 0.95)
    beta2: float = 0.99
    adam_eps: float = 1e-8
    epochs: int = 32
    batch_size: int = 2
    seed: int = 0
    max_steps: int = 0            # 0 = run the full epoch budget
    head_channels: int = 64
    min_overlap: float = 0.1
    grid: GridConfig = desk_pillar_config()
    backbone: BackboneConfig = BackboneConfig()
    fmf: FMFConfig = FMFConfig()
    focal: FocalParams = FocalParams()
    loss_weights: LossWeights = LossWeights()
    match: MatchConfig = MatchConfig()
    augment: AugmentConfig = AugmentConfig()
    compute_dtype: str = "float32"  # parameters and activations; losses stay float64

    def __post_init__(self):
        if self.lr_init <= 0:
            raise ConfigError("lr_init must be positive")
        lo, hi = self.momentum_range
        if not (0.0 < lo <= hi < 1.0):
            raise ConfigError("momentum_range must be ascending within (0, 1)")
        if not 0.0 < self.beta2 < 1.0:
            raise ConfigError("beta2 must lie in (0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be at least 1")
        if self.max_steps < 0:
            raise ConfigError("max_steps must be nonnegative")
        if self.head_channels < 1:
            raise ConfigError("head_channels must be at least 1")
        if not 0.0 < self.min_overlap < 1.0:
            raise ConfigError("min_overlap must lie in (0, 1)")
        if self.compute_dtype not in ("float32", "float64"):
            raise ConfigError(f"compute_dtype must be \"float32\" or "
                              f"\"float64\", got {self.compute_dtype!r}")


def build_model(cfg: TrainConfig, num_classes) -> Detector:
    return Detector(cfg.grid, cfg.backbone, cfg.fmf, num_classes,
                    head_channels=cfg.head_channels, seed=cfg.seed,
                    compute_dtype=cfg.compute_dtype)


def _shared_class_names(scenes):
    if not scenes:
        raise ConfigError("training needs at least one scene")
    names = scenes[0].class_names
    for seq in scenes[1:]:
        if seq.class_names != names:
            raise ConfigError(f"scene class names differ: {seq.class_names} "
                              f"vs {names}")
    return names


def _frame_pairs(scenes):
    """(scene index, prev frame, cur frame) samples; a single-frame scene
    pairs with itself so the aggregation step still runs."""
    pairs = []
    for si, seq in enumerate(scenes):
        if len(seq.frames) == 1:
            pairs.append((si, 0, 0))
        else:
            pairs.extend((si, t - 1, t) for t in range(1, len(seq.frames)))
    return pairs


def train(cfg: TrainConfig, scenes, trace_path=None, print_every=0):
    """Train a detector on scene sequences. Returns (model, opt, trace rows).

    Every batch draws temporally adjacent frame pairs, applies one shared
    augmentation per pair, and supervises the current frame only. The
    learning rate and beta1 follow a one-cycle schedule over the whole run.
    """
    class_names = _shared_class_names(scenes)
    model = build_model(cfg, len(class_names))
    model.train()
    opt = AdamW(model.named_parameters(), lr=cfg.lr_init,
                weight_decay=cfg.weight_decay, beta1=cfg.momentum_range[1],
                beta2=cfg.beta2, eps=cfg.adam_eps)

    pairs = _frame_pairs(scenes)
    n_batches = math.ceil(len(pairs) / cfg.batch_size)
    planned = cfg.epochs * n_batches
    total_steps = min(planned, cfg.max_steps) if cfg.max_steps else planned

    rng = np.random.default_rng(cfg.seed)
    trace = []
    for step in range(total_steps):
        b = step % n_batches
        if b == 0:
            order = rng.permutation(len(pairs))
        batch = [pairs[i] for i in order[b * cfg.batch_size:
                                         (b + 1) * cfg.batch_size]]
        lr, momentum = one_cycle_lr(step, total_steps, cfg.lr_init,
                                    cfg.momentum_range)
        opt.lr = lr
        opt.beta1 = momentum

        sums = None
        for si, tp, tc in batch:
            seeds = rng.integers(0, 2 ** 31 - 1, size=3)
            prev = scenes[si].frames[tp]
            cur = scenes[si].frames[tc]
            if cfg.augment.enabled:
                tf = sample_transform(np.random.default_rng(seeds[0]),
                                      cfg.augment)
                prev = apply_transform(prev, tf)
                cur = apply_transform(cur, tf)
            out = model.forward_pair(prev, cur,
                                     vox_seeds=(int(seeds[1]),
                                                int(seeds[2])))
            target = render_targets(cur.gt_boxes, model.geometry,
                                    len(class_names), cfg.min_overlap)
            l_hm = focal_loss(out.heatmap, target, cfg.focal)
            comps = (l_hm,) + regression_losses(out, target)
            sums = comps if sums is None else tuple(
                ad.add(a, c) for a, c in zip(sums, comps))

        scale = 1.0 / len(batch)
        means = tuple(ad.mul(s, scale) for s in sums)
        loss = total_loss(*means, cfg.loss_weights)

        values = [m.item() for m in means] + [loss.item()]
        if not all(np.isfinite(values)):
            raise DivergenceError(f"non-finite loss at step {step}: "
                                  f"{values}")
        ad.backward(loss)
        grad_norm = math.sqrt(sum(float(np.vdot(p.grad, p.grad))
                                  for p in model.parameters()
                                  if p.grad is not None))
        if not math.isfinite(grad_norm):
            raise DivergenceError(f"non-finite gradient norm at step "
                                  f"{step}: {grad_norm}")
        opt.step()
        opt.zero_grad()

        trace.append((step, lr) + tuple(values))
        if print_every and step % print_every == 0:
            print(f"step {step}/{total_steps} lr {lr:.6f} "
                  f"loss {values[-1]:.6f}")

    if trace_path is not None:
        write_trace(trace_path, trace)
    return model, opt, trace


def write_trace(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow([f"{v:.10g}" if isinstance(v, float) else v
                             for v in row])


def read_trace(path):
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = tuple(next(reader))
        if header != TRACE_COLUMNS:
            raise ConfigError(f"unexpected trace columns {header}")
        return [tuple(float(v) for v in row) for row in reader]


def save_checkpoint(path, model, cfg: TrainConfig, class_names, step=0,
                    opt: AdamW = None):
    arrays = dict(model.state_dict())
    if opt is not None:
        for key, val in opt.state_dict().items():
            arrays["opt." + key] = val
    arrays["meta.step"] = np.array(step, dtype=np.int64)
    arrays["meta.config"] = np.array(json.dumps(to_dict(cfg)))
    arrays["meta.class_names"] = np.array(list(class_names))
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_checkpoint(path):
    """Rebuild (model, cfg, class_names, step, opt_state) from an npz file.
    A parameter or buffer array that is missing, misshapen, not in the
    config's model (ShapeError) or non-finite (FormatError) is rejected."""
    with np.load(path, allow_pickle=False) as data:
        cfg = from_dict(TrainConfig, json.loads(str(data["meta.config"][()])))
        class_names = tuple(str(s) for s in data["meta.class_names"])
        step = int(data["meta.step"][()])
        state = {k: data[k] for k in data.files
                 if k.startswith(("param.", "buffer."))}
        opt_state = {k[len("opt."):]: data[k] for k in data.files
                     if k.startswith("opt.")}
    model = build_model(cfg, len(class_names))
    model.load_state_dict(state)
    for key, t in model.named_state():
        if not np.isfinite(t.data).all():
            raise FormatError(f"non-finite values in {key}")
    model.eval()
    return model, cfg, class_names, step, opt_state or None
