"""One ordered map of independent jobs over forked workers, for training's
pairs, the gradient check's coordinates and `fmfdet infer`'s sequences. A
job names what the copy-on-write fork already holds; jobs, results and the
state for `install` cross the pipes pickled."""
import contextlib
import os
import pickle

from .errors import WorkerError


def _can_fork():
    """The one fork predicate: os.fork, two usable CPUs and exactly one OS
    thread, the state in which fork is safe. An unpinned OpenBLAS (a thread
    pool) or any other thread keeps every job in-process, as do Windows and
    macOS, which lack sched_getaffinity or /proc."""
    try:
        return (hasattr(os, "fork") and len(os.sched_getaffinity(0)) >= 2
                and len(os.listdir("/proc/self/task")) == 1)
    except (AttributeError, OSError):
        return False


def _portable(exc):
    """`exc` if it survives pickling, else a RuntimeError with its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _send(pid, f, obj):
    """Pickle `obj` into pipe `f`, read by process `pid`: a WorkerError if it exited."""
    try:
        pickle.dump(obj, f, protocol=pickle.HIGHEST_PROTOCOL)
        f.flush()
    except BrokenPipeError:
        raise WorkerError(f"worker process {pid} exited before a step reached it") from None


def _receive(pid, f):
    """The next object process `pid` pickled into pipe `f`: a WorkerError if it exited."""
    try:
        return pickle.load(f)
    except (EOFError, pickle.UnpicklingError):   # UnpicklingError: it died mid-object
        raise WorkerError(f"worker process {pid} exited without a result") from None


@contextlib.contextmanager
def _forked(n, serve):
    """Fork `n` workers, each running serve(down, up) on its ends of two pipes
    of pickled messages, and yield them as (pid, down, up). A worker leaves by
    os._exit. On the way out the pipes close, so an idle worker reads EOF and
    returns; if the block raised, workers are killed first; all are reaped."""
    workers = []
    try:
        for _ in range(n):
            fds = down_r, down_w, up_r, up_w = os.pipe() + os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in fds:
                    os.close(fd)
                raise
            if pid == 0:
                code = 1
                try:
                    for _pid, down, _up in workers:   # held here, it would hide EOF from a sibling
                        down.close()
                    os.close(down_w)
                    os.close(up_r)
                    serve(os.fdopen(down_r, "rb"), os.fdopen(up_w, "wb"))
                    code = 0
                finally:
                    os._exit(code)
            os.close(down_r)
            os.close(up_w)
            workers.append((pid, os.fdopen(down_w, "wb"), os.fdopen(up_r, "rb")))
        yield workers
    except BaseException:
        import signal   # only here: a module a run would otherwise not load

        for pid, *_files in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, *files in workers:
            for f in files:
                with contextlib.suppress(OSError):   # a dead worker's unsent bytes
                    f.close()
            os.waitpid(pid, 0)


def _run(fn, jobs, caught=lambda exc: exc):
    """fn(job) for each job in order; the first to raise ends the list with caught(exc)."""
    results = []
    for job in jobs:
        try:
            results.append(fn(job))
        except Exception as e:
            results.append(caught(e))
            break
    return results


@contextlib.contextmanager
def pool(limit, fn, install=lambda state: None):
    """Fork min(limit, usable CPUs - 1) workers where `_can_fork` allows, and
    yield `run(jobs, state=None)`, one step of the map: with P processes, job
    i runs in process (i + 1) % P, so worker w runs jobs w - 1, w - 1 + P, ...
    after one install(state), and this process the rest. `run` returns every
    fn(job) in job order, or raises the first failing job's exception (one
    that does not pickle as a RuntimeError with its type and message). A
    worker that has exited is a WorkerError."""
    def serve(down, up):
        with contextlib.suppress(WorkerError):   # the parent closed the pipe: the pool is done
            while True:
                state, jobs = _receive(os.getppid(), down)
                install(state)
                _send(os.getppid(), up, _run(fn, jobs, _portable))

    n = min(limit, len(os.sched_getaffinity(0)) - 1) if _can_fork() else 0
    with _forked(n, serve) as workers:
        def run(jobs, state=None):
            jobs = list(jobs)
            procs = max(1, min(1 + len(workers), len(jobs)))
            for w, (pid, down, _up) in enumerate(workers[:procs - 1], 1):
                _send(pid, down, (state, jobs[w - 1::procs]))
            lists = [_run(fn, jobs[procs - 1::procs])]
            lists += [_receive(pid, up) for pid, _down, up in workers[:procs - 1]]
            results = []
            for i in range(len(jobs)):   # a list an exception cut short holds it first
                results.append(lists[(i + 1) % procs][i // procs])
                if isinstance(results[-1], BaseException):
                    raise results[-1]
            return results
        yield run
