"""Training loop: paired-frame batches, one-cycle AdamW, loss traces,
and npz checkpoints that restore a model bit-exactly.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import tokenize
import zipfile

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig, apply_transform, sample_transform
from .backbone import BackboneConfig
from .config import from_dict, to_dict
from .decode import MatchConfig
from .errors import ConfigError, DataError, DivergenceError, ShapeError, atomic_file
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
        if self.lr_init <= 0 or self.adam_eps <= 0:
            raise ConfigError("lr_init and adam_eps must be positive")
        if len(self.momentum_range) != 2:
            raise ConfigError(f"momentum_range takes 2 values, got {len(self.momentum_range)}")
        lo, hi = self.momentum_range
        if not (0.0 < lo <= hi < 1.0):
            raise ConfigError("momentum_range must be ascending within (0, 1)")
        if not 0.0 < self.beta2 < 1.0:
            raise ConfigError("beta2 must lie in (0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be at least 1")
        if min(self.max_steps, self.seed, self.weight_decay) < 0:
            raise ConfigError("max_steps, seed and weight_decay must be nonnegative")
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


def shared_class_names(scenes, sources=None):
    """The class names every scene lists, in one order; a DataError names the
    odd scene and the first by their `sources` (e.g. directories) or index."""
    if not scenes:
        raise ConfigError("training needs at least one scene")
    names = scenes[0].class_names
    sources = sources or [f"scene {i}" for i in range(len(scenes))]
    for src, seq in zip(sources, scenes):
        if seq.class_names != names:
            raise DataError(f"scene class names differ: {src} lists "
                            f"{seq.class_names}, {sources[0]} lists {names}")
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


def pair_losses(model, prev, cur, cfg: TrainConfig, vox_seeds):
    """The one supervised pass, which training and the gradient check both
    differentiate: render `cur`'s targets, run the pair forward with the
    regression branches at the target centres, and return the float64
    scalars (L_hm,) + regression_losses in LOSS_TERMS order."""
    target = render_targets(cur.gt_boxes, model.geometry, model.num_classes,
                            cfg.min_overlap)
    out = model.forward_pair(prev, cur, vox_seeds=vox_seeds,
                             cells=lambda _: target.centers())
    return (focal_loss(out.heatmap, target, cfg.focal),) + regression_losses(out, target)


def train(cfg: TrainConfig, scenes, trace_path=None, print_every=0):
    """Train a detector on scene sequences. Returns (model, opt, trace rows).

    Every batch draws temporally adjacent frame pairs, applies one shared
    augmentation per pair, and supervises the current frame only. Each pair's
    `pair_losses` total, times 1/batch size, is backpropagated before the next
    pair is built, so gradients sum in `.grad` and one pair's graph is alive
    at a time; the trace row holds the batch means. The learning rate and
    beta1 follow a one-cycle schedule over the whole run.
    """
    class_names = shared_class_names(scenes)
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
        batch = [pairs[i] for i in order[b * cfg.batch_size:(b + 1) * cfg.batch_size]]
        lr, momentum = one_cycle_lr(step, total_steps, cfg.lr_init, cfg.momentum_range)
        opt.lr = lr
        opt.beta1 = momentum

        scale = 1.0 / len(batch)
        sums = None
        for si, tp, tc in batch:
            seeds = rng.integers(0, 2 ** 31 - 1, size=3)
            prev, cur = scenes[si].frames[tp], scenes[si].frames[tc]
            if cfg.augment.enabled:
                tf = sample_transform(np.random.default_rng(seeds[0]), cfg.augment)
                prev = apply_transform(prev, tf)
                cur = apply_transform(cur, tf)
            parts = pair_losses(model, prev, cur, cfg, (int(seeds[1]), int(seeds[2])))
            loss = total_loss(parts, cfg.loss_weights)
            values = [t.item() for t in parts + (loss,)]
            if not all(np.isfinite(values)):
                raise DivergenceError(f"non-finite loss at step {step}: {values}")
            ad.backward(ad.mul(loss, scale))
            sums = values[:-1] if sums is None else [a + v for a, v in zip(sums, values)]

        means = [s * scale for s in sums]
        values = means + [total_loss(means, cfg.loss_weights).item()]
        grad_norm = math.sqrt(sum(float(np.vdot(p.grad, p.grad))
                                  for p in model.parameters() if p.grad is not None))
        if not math.isfinite(grad_norm):
            raise DivergenceError(f"non-finite gradient norm at step {step}: {grad_norm}")
        opt.step()
        model.zero_grad()

        trace.append((step, lr) + tuple(values))
        if print_every and step % print_every == 0:
            print(f"step {step}/{total_steps} lr {lr:.6f} loss {values[-1]:.6f}")

    if trace_path is not None:
        write_trace(trace_path, trace)
    return model, opt, trace


def write_trace(path, rows):
    with atomic_file(path, newline="", encoding="utf-8") as f:
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
    with atomic_file(path, "wb") as f:
        np.savez(f, **arrays)


def load_checkpoint(path):
    """Rebuild (model, cfg, class_names, step, opt_state) from an npz file.
    A file that cannot be opened, or is anything but such a checkpoint, is
    a DataError naming `path`: a bad archive, a missing or malformed meta.*
    entry or stored config, parameter and buffer arrays that do not fit the
    config's model (named), or a parameter, buffer or optimizer (opt.*)
    array that is non-numeric or non-finite."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot open checkpoint {path}: {e.strerror}") from e
    with f:
        try:
            arrays = dict(np.load(f, allow_pickle=False))
        # RuntimeError: a member flagged encrypted; Syntax/TokenError: a garbled .npy header
        except (EOFError, NotImplementedError, OSError, RuntimeError, SyntaxError,
                TypeError, ValueError, tokenize.TokenError, zipfile.BadZipFile) as e:
            raise DataError(f"invalid checkpoint {path}: not an npz archive ({e})") from e
    try:
        cfg = from_dict(TrainConfig, json.loads(str(arrays["meta.config"][()])))
        class_names = tuple(str(s) for s in arrays["meta.class_names"])
        step = int(arrays["meta.step"][()])
    except (IndexError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"invalid checkpoint {path}: bad meta entry "
                        f"({type(e).__name__}: {e})") from e
    state = {k: v for k, v in arrays.items() if k.startswith(("param.", "buffer."))}
    opt_state = {k[len("opt."):]: v for k, v in arrays.items() if k.startswith("opt.")}
    try:
        model = build_model(cfg, len(class_names))
        model.load_state_dict(state)
    except (ConfigError, ShapeError) as e:
        raise DataError(f"invalid checkpoint {path}: {e}") from e
    named = [(key, t.data) for key, t in model.named_state()]
    for key, v in named + [("opt." + k, v) for k, v in opt_state.items()]:
        if not (np.issubdtype(v.dtype, np.number) and np.isfinite(v).all()):
            raise DataError(f"invalid checkpoint {path}: non-finite or non-numeric "
                            f"values in {key}")
    model.eval()
    return model, cfg, class_names, step, opt_state or None
