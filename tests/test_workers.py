"""Training's forked workers (`train.train` runs a batch's pairs across
processes where `train._can_fork` allows).

Each check runs in a fresh interpreter with one BLAS thread, the state in
which `train` forks, and compares against the in-process path forced by
patching `_can_fork`: a forked run gives the bytes of an in-process one;
each process backpropagates each of its pairs before it builds its next; a
failing pair raises in the parent as it would in one process; a worker that
dies ends `fmfdet train` with exit 5; and no worker outlives `train`,
whether it returns or raises.
"""
import contextlib
import hashlib
import importlib
import io
import json
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from fmfdet import autodiff as ad
from fmfdet.augment import AugmentConfig
from fmfdet.backbone import BackboneConfig
from fmfdet.cli import main
from fmfdet.config import to_dict
from fmfdet.errors import DataError
from fmfdet.fmf import FMFConfig
from fmfdet.model import Detector
from fmfdet.scene import SceneSpec, generate_scene
from fmfdet.train import TrainConfig, train
from fmfdet.voxelizer import GridConfig

train_mod = importlib.import_module("fmfdet.train")

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
SPEC = dict(num_frames=4, num_objects=2, range=3.2, margin=1.0, ego_speed=0.3,
            class_names=["car", "pedestrian"], points_per_object=40,
            clutter_points=10)

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
    or not hasattr(os, "fork"), reason="train forks workers only with os.fork and 2 CPUs")


def small_cfg(**kw):
    base = dict(grid=GridConfig(x_range=(-5.12, 5.12), y_range=(-5.12, 5.12),
                                cell_size=(0.32, 0.32, 6.0)),
                backbone=BackboneConfig(pfn_channels=8, neck_channels=(8,),
                                        neck_strides=(2,), out_channels=8),
                head_channels=8, epochs=4, batch_size=2, max_steps=5, seed=1,
                augment=AugmentConfig(enabled=False))
    base.update(kw)
    return TrainConfig(**base)


def small_scenes():
    """Two scenes, of 3 and 2 frame pairs: batches of 2 leave a 1-pair batch."""
    return [generate_scene(SceneSpec(**dict(SPEC, seed=5))),
            generate_scene(SceneSpec(**dict(SPEC, seed=6, num_frames=3)))]


def in_child(name, *args):
    """Run this module's `name`(*args) in a fresh interpreter with one BLAS
    thread; returns (its JSON result, its stderr)."""
    code = (f"import json, sys; sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]; "
            f"import test_workers as m; "
            f"print(json.dumps(m.{name}(*json.loads(sys.argv[1]))))")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(args)],
                          env=dict(os.environ, **ONE_BLAS_THREAD),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), done.stderr


# --------------------------------------------------------------------------
# run inside the child interpreter
# --------------------------------------------------------------------------

def _count_forks():
    """Wrap os.fork (in this interpreter for good); returns the list of
    worker pids it forks."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    os.fork = fork
    return pids


@contextlib.contextmanager
def _in_process():
    real = train_mod._can_fork
    train_mod._can_fork = lambda: False
    try:
        yield
    finally:
        train_mod._can_fork = real


def _no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _digests(model, opt, trace):
    arrays = dict(model.state_dict())
    arrays.update(("opt." + k, v) for k, v in opt.state_dict().items())
    out = {"trace": hashlib.sha256(repr(trace).encode()).hexdigest()}
    for key, val in arrays.items():
        val = np.asarray(val)
        out[key] = hashlib.sha256(val.dtype.str.encode() + repr(val.shape).encode()
                                  + val.tobytes()).hexdigest()
    return out


def child_digests(batch_size, dtype):
    forks = _count_forks()
    runs = {}
    for fusion in (True, False):
        cfg = small_cfg(batch_size=batch_size, compute_dtype=dtype,
                        fmf=FMFConfig(enabled=fusion), augment=AugmentConfig())
        with _in_process():
            alone = _digests(*train(cfg, small_scenes()))
        runs[f"fusion={fusion}"] = {"forked": _digests(*train(cfg, small_scenes())),
                                    "in_process": alone}
    return {"forks": len(forks), "runs": runs, "reaped": _no_child_left()}


def child_pair_events(path):
    """Every forward_pair and backward, as [pid, event], in file order."""
    forks = _count_forks()
    real_forward, real_backward = Detector.forward_pair, ad.backward

    def note(event):
        with open(path, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {event}\n")

    def spy_forward(self, *args, **kw):
        note("forward_pair")
        return real_forward(self, *args, **kw)

    def spy_backward(loss):
        note("backward")
        real_backward(loss)

    Detector.forward_pair, ad.backward = spy_forward, spy_backward
    train(small_cfg(batch_size=3, max_steps=2), small_scenes())
    lines = pathlib.Path(path).read_text(encoding="utf-8").split()
    return {"forks": len(forks), "parent": os.getpid(),
            "events": [[int(pid), event] for pid, event in zip(lines[::2], lines[1::2])]}


def _cli_train(root, cfg, *extra):
    """gen-data (once) and `fmfdet train`; returns (exit code, stderr)."""
    root = pathlib.Path(root)
    data = root / "data"
    if not data.exists():
        spec = root / "spec.json"
        spec.write_text(json.dumps(dict(SPEC, seed=11, count=1)))
        assert main(["gen-data", "--spec", str(spec), "--out", str(data)]) == 0
    cfg_path = root / "train.json"
    cfg_path.write_text(json.dumps(to_dict(cfg)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["train", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(root / "m.npz"), *extra])
    return code, err.getvalue()


def child_worker_data_error(root):
    forks = _count_forks()
    parent, real = os.getpid(), train_mod.pair_losses

    def pair_losses(model, prev, cur, cfg, vox_seeds):
        if os.getpid() != parent:
            raise DataError(f"unreadable pair in worker at t={cur.timestamp}")
        return real(model, prev, cur, cfg, vox_seeds)

    train_mod.pair_losses = pair_losses
    code, err = _cli_train(root, small_cfg(max_steps=2))
    return {"forks": len(forks), "code": code, "err": err, "reaped": _no_child_left()}


def child_divergence(root, position):
    """`fmfdet train` with the loss of the pair at `position` in step 0's
    batch made NaN, in process and forked."""
    forks = _count_forks()
    real = train_mod.pair_losses
    seen = []

    def record(model, prev, cur, cfg, vox_seeds):
        seen.append(cur.timestamp)
        return real(model, prev, cur, cfg, vox_seeds)

    cfg = small_cfg(max_steps=2)
    train_mod.pair_losses = record
    with _in_process():
        assert _cli_train(root, cfg)[0] == 0
    target = seen[position]

    def poisoned(model, prev, cur, cfg, vox_seeds):
        parts = real(model, prev, cur, cfg, vox_seeds)
        if cur.timestamp == target:
            parts = (ad.mul(parts[0], float("nan")),) + parts[1:]
        return parts

    train_mod.pair_losses = poisoned
    with _in_process():
        alone = _cli_train(root, cfg)
    forks.clear()
    forked = _cli_train(root, cfg)
    return {"forks": len(forks), "in_process": alone, "forked": forked,
            "reaped": _no_child_left()}


def child_parent_interrupt():
    """KeyboardInterrupt from this process's own pair at step 1, while the
    worker runs the other."""
    forks = _count_forks()
    parent, real = os.getpid(), train_mod.pair_losses
    calls = []

    def pair_losses(model, prev, cur, cfg, vox_seeds):
        if os.getpid() == parent:
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
        return real(model, prev, cur, cfg, vox_seeds)

    train_mod.pair_losses = pair_losses
    raised = None
    try:
        train(small_cfg(), small_scenes())
    except KeyboardInterrupt:
        raised = "KeyboardInterrupt"
    return {"forks": len(forks), "raised": raised, "reaped": _no_child_left()}


def child_second_fork_fails():
    """Three usable CPUs claimed, batch size 3: the first worker forks, the
    second fork fails."""
    real_fork, calls = os.fork, []

    def fork():
        calls.append(1)
        if len(calls) == 2:
            raise OSError(11, "Resource temporarily unavailable")
        return real_fork()

    os.fork = fork
    os.sched_getaffinity = lambda _pid: {0, 1, 2}
    fds = sorted(os.listdir("/proc/self/fd"))
    raised = None
    try:
        train(small_cfg(batch_size=3), small_scenes())
    except OSError as e:
        raised = str(e)
    return {"raised": raised, "reaped": _no_child_left(),
            "fds_kept": sorted(os.listdir("/proc/self/fd")) == fds}


def child_digests_on_three_cpus(dtype):
    """`child_digests` at batch size 3 with three usable CPUs claimed, so each
    forked `train` call runs two workers."""
    os.sched_getaffinity = lambda _pid: {0, 1, 2}
    return child_digests(3, dtype)


def child_worker_dies(root, how):
    """`fmfdet train` with the worker gone mid-run: "killed" sends itself
    SIGKILL inside its first pair, "cut" dies halfway through writing its
    first result, and "exits" exits right after sending it."""
    forks = _count_forks()
    parent, real_losses, real_send = os.getpid(), train_mod.pair_losses, train_mod._send
    sent = []

    def pair_losses(model, prev, cur, cfg, vox_seeds):
        if how == "killed" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_losses(model, prev, cur, cfg, vox_seeds)

    def send(pid, f, obj):
        if os.getpid() == parent:
            if how == "exits" and sent:
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)   # gone, not yet reaped
            sent.append(pid)
            return real_send(pid, f, obj)
        if how == "cut":
            data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            f.write(data[:len(data) // 2])
            f.flush()
        else:
            real_send(pid, f, obj)
        os._exit(0)

    train_mod.pair_losses, train_mod._send = pair_losses, send
    code, err = _cli_train(root, small_cfg(max_steps=3))   # steps of 2, 1 and 2 pairs
    return {"forks": forks, "code": code, "err": err, "reaped": _no_child_left(),
            "files": sorted(p.name for p in pathlib.Path(root).iterdir())}


class _TwoArgError(Exception):
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def child_unpicklable_error():
    parent, real = os.getpid(), train_mod.pair_losses

    def pair_losses(model, prev, cur, cfg, vox_seeds):
        if os.getpid() != parent:
            raise _TwoArgError("no luck", "the worker")
        return real(model, prev, cur, cfg, vox_seeds)

    train_mod.pair_losses = pair_losses
    try:
        train(small_cfg(), small_scenes())
    except RuntimeError as e:
        return {"error": str(e), "reaped": _no_child_left()}
    return {"error": None, "reaped": _no_child_left()}


# --------------------------------------------------------------------------
# the tests
# --------------------------------------------------------------------------

@needs_two_cpus
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("batch_size", [2, 3])
def test_forked_training_is_byte_identical(batch_size, dtype):
    """Every trace row and param.*, buffer.* and opt.* array, with fusion on
    and off and augmentation on. At batch size 3 a worker owns two pairs."""
    got, _err = in_child("child_digests", batch_size, dtype)
    assert got["forks"] == 2 * (min(batch_size, len(os.sched_getaffinity(0))) - 1)
    for name, run in got["runs"].items():
        differ = sorted(k for k in run["in_process"] if run["forked"][k] != run["in_process"][k])
        assert differ == [], name
        assert set(run["forked"]) == set(run["in_process"])
    assert got["reaped"]


@needs_two_cpus
def test_each_process_backpropagates_each_pair_before_building_its_next(tmp_path):
    got, _err = in_child("child_pair_events", str(tmp_path / "events.txt"))
    assert got["forks"] >= 1
    by_pid = {}
    for pid, event in got["events"]:
        by_pid.setdefault(pid, []).append(event)
    assert len(by_pid) == 1 + got["forks"] and got["parent"] in by_pid
    for events in by_pid.values():
        assert events == ["forward_pair", "backward"] * (len(events) // 2)
    # batches of 3 and 2 pairs; the parent runs the second of each
    assert sum(len(e) for e in by_pid.values()) == 2 * (3 + 2)
    assert len(by_pid[got["parent"]]) == 2 * 2


@needs_two_cpus
def test_data_error_in_a_worker_exits_3(tmp_path):
    got, _err = in_child("child_worker_data_error", str(tmp_path))
    assert got["forks"] == 1
    assert got["code"] == 3
    assert "data error: unreadable pair in worker at t=" in got["err"]
    assert got["reaped"]


@needs_two_cpus
@pytest.mark.parametrize("position", [0, 1], ids=["pair1", "pair2"])
def test_non_finite_pair_names_the_same_step_forked(tmp_path, position):
    got, _err = in_child("child_divergence", str(tmp_path), position)
    assert got["forks"] == 1
    code, err = got["forked"]
    assert code == 4 and "numeric divergence: non-finite loss at step 0: [nan" in err
    assert got["forked"] == got["in_process"]
    assert got["reaped"]


@needs_two_cpus
def test_exception_in_the_parent_mid_step_reaps_the_workers():
    got, _err = in_child("child_parent_interrupt")
    assert got == {"forks": 1, "raised": "KeyboardInterrupt", "reaped": True}


@needs_two_cpus
def test_a_failed_fork_reaps_the_forked_and_closes_every_pipe():
    got, _err = in_child("child_second_fork_fails")
    assert got == {"raised": "[Errno 11] Resource temporarily unavailable",
                   "reaped": True, "fds_kept": True}


@needs_two_cpus
def test_worker_exception_that_does_not_pickle_keeps_type_and_message():
    got, _err = in_child("child_unpicklable_error")
    assert got == {"error": "_TwoArgError: no luck at the worker", "reaped": True}


def test_a_second_thread_keeps_training_in_process():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not train_mod._can_fork()
    finally:
        release.set()
        thread.join()


def test_one_cpu_keeps_training_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
    assert not train_mod._can_fork()


def test_import_loads_no_multiprocessing():
    code = ("import sys, fmfdet, fmfdet.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'multiprocessing'])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@needs_two_cpus
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_two_workers_are_byte_identical(dtype):
    """Three processes share each batch of 3 (worker w gets pair w - 1, this
    process pair 2), which a 2-CPU machine reaches only by claiming a third CPU."""
    got, _err = in_child("child_digests_on_three_cpus", dtype)
    assert got["forks"] == 2 * 2     # two workers per forked call, fusion on and off
    for name, run in got["runs"].items():
        differ = sorted(k for k in run["in_process"] if run["forked"][k] != run["in_process"][k])
        assert differ == [], name
        assert set(run["forked"]) == set(run["in_process"])
    assert got["reaped"]


@needs_two_cpus
@pytest.mark.parametrize("how, message", [
    ("killed", "exited without a result"),
    ("cut", "exited without a result"),
    ("exits", "exited before a step reached it"),
])
def test_a_worker_that_dies_exits_5(tmp_path, how, message):
    got, err = in_child("child_worker_dies", str(tmp_path), how)
    assert len(got["forks"]) == 1 and got["code"] == 5
    assert got["err"] == f"worker error: training process {got['forks'][0]} {message}\n"
    assert "Traceback" not in err
    assert got["files"] == ["data", "spec.json", "train.json"]   # no checkpoint, no trace
    assert got["reaped"]
