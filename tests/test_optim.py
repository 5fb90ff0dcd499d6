"""AdamW update mechanics and the one-cycle schedule shape."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmfdet.autodiff as ad
from fmfdet.optim import AdamW, one_cycle_lr


def leaf(values):
    t = ad.Tensor(np.asarray(values, dtype=np.float64))
    t.requires_grad = True
    return t


class TestAdamW:
    def test_zero_gradient_shrinks_by_decay_exactly(self):
        p = leaf([1.0, -2.0, 0.5])
        opt = AdamW([("p", p)], lr=0.01, weight_decay=0.1)
        p.grad = np.zeros(3)
        opt.step()
        assert np.array_equal(p.data, np.array([1.0, -2.0, 0.5]) * (1 - 0.001))

    def test_first_step_moves_by_lr_against_gradient_sign(self):
        # bias correction makes the first update m/sqrt(v) = sign(g)
        p = leaf([1.0, 1.0])
        opt = AdamW([("p", p)], lr=0.01, weight_decay=0.0)
        p.grad = np.array([0.5, -3.0])
        opt.step()
        expect = 1.0 - 0.01 * np.array([1.0, -1.0]) / (1.0 + 1e-8 /
                                                       np.sqrt([0.5, 3.0]))
        assert np.allclose(p.data, expect, atol=1e-12)

    def test_decay_is_decoupled_from_moments(self):
        # two parameters, same gradients, different data: the adaptive part
        # of the update must be identical
        a, b = leaf([2.0]), leaf([10.0])
        opt = AdamW([("a", a), ("b", b)], lr=0.01, weight_decay=0.5)
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        opt.step()
        adaptive_a = a.data - 2.0 * (1 - 0.01 * 0.5)
        adaptive_b = b.data - 10.0 * (1 - 0.01 * 0.5)
        assert adaptive_a == pytest.approx(adaptive_b, abs=1e-15)

    def test_missing_grad_treated_as_zero(self):
        p = leaf([4.0])
        opt = AdamW([("p", p)], lr=0.1, weight_decay=0.01)
        opt.step()
        assert p.data[0] == pytest.approx(4.0 * (1 - 0.001))

    def test_schedule_can_drive_lr_and_beta1(self):
        p = leaf([1.0])
        opt = AdamW([("p", p)], lr=0.003, weight_decay=0.0)
        lr, mom = one_cycle_lr(0, 100, 0.003)
        opt.lr, opt.beta1 = lr, mom
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - lr, rel=1e-6)


class TestOneCycle:
    def test_endpoints_and_peak(self):
        lr0 = 0.003
        lr, mom = one_cycle_lr(0, 1000, lr0)
        assert lr == pytest.approx(lr0 / 10)
        assert mom == pytest.approx(0.95)
        lr, mom = one_cycle_lr(400, 1000, lr0)
        assert lr == pytest.approx(lr0)
        assert mom == pytest.approx(0.85)
        lr, mom = one_cycle_lr(1000, 1000, lr0)
        assert lr == pytest.approx(lr0 / 1000)
        assert mom == pytest.approx(0.95)

    def test_monotone_up_then_down(self):
        lrs = [one_cycle_lr(s, 200, 0.003)[0] for s in range(201)]
        peak = 80
        assert all(b >= a for a, b in zip(lrs[:peak + 1], lrs[1:peak + 1]))
        assert all(b <= a for a, b in zip(lrs[peak:], lrs[peak + 1:]))
        assert max(lrs) == pytest.approx(0.003)

    def test_momentum_mirrors_lr(self):
        total, lr0 = 200, 0.003
        peak = int(0.4 * total)
        for s in range(0, total + 1, 7):
            lr, mom = one_cycle_lr(s, total, lr0)
            if s <= peak:
                ramp = (lr - lr0 / 10) / (lr0 - lr0 / 10)
                assert mom == pytest.approx(0.95 - 0.1 * ramp, abs=1e-12)
            else:
                ramp = (lr - lr0) / (lr0 / 1000 - lr0)
                assert mom == pytest.approx(0.85 + 0.1 * ramp, abs=1e-12)
            assert 0.85 <= mom <= 0.95

    @given(total=st.integers(10, 5000), lr0=st.floats(1e-5, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_continuity_bound(self, total, lr0):
        # cosine segments keep successive steps within ~pi/2 x the linear rate
        lrs = [one_cycle_lr(s, total, lr0)[0] for s in range(total + 1)]
        max_jump = max(abs(b - a) for a, b in zip(lrs, lrs[1:]))
        assert max_jump < 4.0 * lr0 / total

    def test_warmup_boundary_is_continuous(self):
        total, lr0 = 250, 0.01
        peak = 0.4 * total
        before = one_cycle_lr(math.floor(peak), total, lr0)[0]
        after = one_cycle_lr(math.ceil(peak), total, lr0)[0]
        assert abs(after - before) < 4.0 * lr0 / total

    def test_out_of_range_step_rejected(self):
        with pytest.raises(ValueError):
            one_cycle_lr(-1, 100, 0.003)
        with pytest.raises(ValueError):
            one_cycle_lr(101, 100, 0.003)
        with pytest.raises(ValueError):
            one_cycle_lr(0, 0, 0.003)
