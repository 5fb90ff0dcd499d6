"""AdamW with decoupled weight decay, and the one-cycle LR/momentum schedule."""
from __future__ import annotations

import math

import numpy as np

_WARMUP_FRACTION = 0.4


class AdamW:
    """Adam with the weight-decay term applied directly to the parameters.

    `beta1` and `lr` are mutable so a schedule can drive them between steps.
    With zero gradients and fresh moments, one step multiplies every
    parameter by exactly (1 - lr * weight_decay).
    """

    def __init__(self, named_params, lr=0.003, weight_decay=0.01,
                 beta1=0.9, beta2=0.99, eps=1e-8):
        self.params = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data * (1.0 - self.lr * self.weight_decay) - self.lr * update

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None

    def state_dict(self):
        state = {"t": self.t}
        for name in self.m:
            state["m." + name] = self.m[name].copy()
            state["v." + name] = self.v[name].copy()
        return state


def one_cycle_lr(step, total_steps, lr_init, momentum_range=(0.85, 0.95)):
    """Cosine one-cycle schedule: (lr, momentum) at an integer step.

    lr climbs from lr_init/10 to lr_init over the first 40% of steps, then
    anneals to lr_init/1000; momentum runs opposite between the range's high
    and low ends. Both segments are cosine-shaped and meet continuously.
    """
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    lo_m, hi_m = momentum_range
    peak = _WARMUP_FRACTION * total_steps
    if step <= peak:
        u = step / peak
        ramp = 0.5 * (1.0 - math.cos(math.pi * u))
        lr = lr_init / 10.0 + (lr_init - lr_init / 10.0) * ramp
        momentum = hi_m + (lo_m - hi_m) * ramp
    else:
        u = (step - peak) / (total_steps - peak)
        ramp = 0.5 * (1.0 - math.cos(math.pi * u))
        lr = lr_init + (lr_init / 1000.0 - lr_init) * ramp
        momentum = lo_m + (hi_m - lo_m) * ramp
    return lr, momentum
