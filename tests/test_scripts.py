"""The scripts on fake checkouts and stubbed work.

scripts/ab_pairs.py: each checkout holds a BENCHMARK.json and a stub
perfbench/run.py that prints what the real one prints, a detail line and then
a result line, so the parser and the verdict run without a real benchmark.
scripts/same_outputs.py: each checkout holds a stub fmfdet package whose
command line writes fixed bytes to every output, in both modes. scripts/run_ablation.py and
scripts/bench_snapshot.py: their measurements are monkeypatched, and only
their report writing runs."""
import importlib.util
import json
from hashlib import sha256
import os
import pathlib
import re
import sys

import pytest

from fmfdet.errors import DataError

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 1,
    "workloads": [{"name": "tiny", "why": "stub"}, {"name": "small", "why": "stub"}],
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "quality_loss", "unit": "1", "better": "lower", "bound": 0.1},
    ],
}

STUB = """import json, sys
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
workload = args[args.index("--workload") + 1]
print("warming up")
print(json.dumps({{"detail": {{"argv": args, "env": {{
    "git_commit": {commit!r}, "src_lines": {lines}, "python": "3"}}}}}}))
print(json.dumps({{"correct": {correct}, "attempted": 4, "failed": 0, "metrics": {{
    "latency_p50_ms": {{"value": {p50} + 0.01 * seed, "unit": "ms"}},
    "quality_loss": {{"value": 0.5, "unit": "1"}}}}}}))
sys.exit(0 if {correct} else 1)
"""

GARBAGE = """import sys
print("no json here")
print("workload crashed", file=sys.stderr)
sys.exit(1)
"""


def checkout(root, name, p50=2.0, correct=True, garbage=False):
    """A fake checkout under root/name whose stub reports `p50` + 0.01 * seed;
    `p50` may be a Python expression in `seed` and `workload`."""
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    source = GARBAGE if garbage else STUB.format(
        commit=name, lines=100 + len(name), correct=correct, p50=p50)
    (path / "perfbench" / "run.py").write_text(source, encoding="utf-8")
    return path


def run_main(capsys, base, change, pairs=2, metric="latency_p50_ms", workloads=("tiny",)):
    """main's exit status, its last stdout line as JSON, and its stderr."""
    code, out, err = run_main_output(capsys, base, change, pairs, metric, workloads)
    return code, json.loads(out.strip().splitlines()[-1]), err


def run_main_output(capsys, base, change, pairs=2, metric="latency_p50_ms",
                    workloads=("tiny",)):
    """main's exit status, its whole stdout and its stderr."""
    argv = [str(base), str(change), "--seed", "5", "--pairs", str(pairs), "--metric", metric]
    for workload in workloads:
        argv += ["--workload", workload]
    code = ab_pairs.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestRunPerfbench:
    def test_parses_detail_and_result_and_attaches_env(self, tmp_path):
        run = ab_pairs.run_perfbench(checkout(tmp_path, "abc"), "tiny", 3, 1, timeout=60)
        assert run["exit_code"] == 0 and "stderr_tail" not in run
        assert run["detail"]["argv"] == ["--workload", "tiny", "--seed", "3",
                                         "--seconds", "1", "--trace", "0"]
        assert run["result"]["env"] == {"git_commit": "abc", "src_lines": 103}
        assert run["result"]["metrics"]["latency_p50_ms"]["value"] == pytest.approx(2.03)
        assert run["result"]["correct"] is True

    def test_garbage_output_gives_stderr_tail(self, tmp_path):
        run = ab_pairs.run_perfbench(checkout(tmp_path, "abc", garbage=True), "tiny", 3, 1,
                                     timeout=60)
        assert run["exit_code"] == 1
        assert "workload crashed" in run["stderr_tail"]
        assert "result" not in run and "detail" not in run


class TestMain:
    def test_every_run_good_exits_0(self, tmp_path, capsys):
        code, last, err = run_main(capsys, checkout(tmp_path, "base", p50=2.0),
                                   checkout(tmp_path, "change", p50=1.0))
        assert code == 0 and not err
        assert last["wins"] == 2 and last["pairs"] == 2
        assert last["env"] == {"base": {"git_commit": "base", "src_lines": 104},
                               "change": {"git_commit": "change", "src_lines": 106}}
        assert last["summary"]["quality_loss"]["largest_pair_relative_change"] == 0.0
        assert [r["metrics"]["latency_p50_ms"]["value"] for r in last["runs"]["base"]] \
            == pytest.approx([2.05, 2.06])

    @pytest.mark.parametrize("broken", [{"correct": False}, {"garbage": True}],
                             ids=["incorrect", "unparsable"])
    def test_one_bad_run_exits_1(self, tmp_path, capsys, broken):
        code, last, err = run_main(capsys, checkout(tmp_path, "base"),
                                   checkout(tmp_path, "change", p50=1.0, **broken))
        assert code == 1
        assert last["wins"] == 0  # a pair with a bad run counts for neither side
        assert "2 of 4 runs missing, incorrect or with failed operations" in err


class TestVerdicts:
    """Seeds 5..14: BASE's p50 values are 2.05..2.14, an IQR of 0.045."""

    @pytest.mark.parametrize("change,verdict", [
        ("1.0", "claim met"),
        ("1.99", "claim not met"),                              # 10/10, gain within IQR
        ("2.0 - (0.5 if seed % 5 else 0.0)", "claim not met"),  # 2 ties: 8/10
        ("3.0", "claim not met"),
    ], ids=["met", "gain-within-iqr", "eight-of-ten", "worse"])
    def test_claim_needs_nine_tenths_of_pairs_and_a_gain_beyond_the_iqr(
            self, tmp_path, capsys, change, verdict):
        code, last, _ = run_main(capsys, checkout(tmp_path, "base"),
                                 checkout(tmp_path, "change", p50=change), pairs=10)
        assert code == 0
        assert last["claim"] == last["summary"]["latency_p50_ms"]["verdict"] == verdict
        assert last["summary"]["quality_loss"]["verdict"] == "within bound"

    @pytest.mark.parametrize("change,verdict", [
        ("[1.0, 2.0][seed % 2]", "unresolved"),   # base spread > 25%, runs overlap
        ("[0.1, 0.2][seed % 2]", "within bound"),  # every change run is better
        ("[2.9, 3.0][seed % 2]", "unresolved"),
    ], ids=["overlap", "every-run-better", "worse-but-wide"])
    def test_wide_base_spread_is_unresolved_unless_every_change_run_is_better(
            self, tmp_path, capsys, change, verdict):
        base = checkout(tmp_path, "base", p50="[1.0, 2.0][seed % 2]")
        code, last, _ = run_main(capsys, base, checkout(tmp_path, "change", p50=change),
                                 pairs=4, metric="quality_loss")
        assert code == 0
        assert last["summary"]["latency_p50_ms"]["verdict"] == verdict
        assert last["claim"] == "claim not met"   # quality_loss ties in every pair

    @pytest.mark.parametrize("change,verdict", [("2.4", "within bound"),
                                                ("2.6", "WORSE than bound")])
    def test_narrow_spread_is_judged_by_the_bound(self, tmp_path, capsys, change, verdict):
        code, last, _ = run_main(capsys, checkout(tmp_path, "base"),
                                 checkout(tmp_path, "change", p50=change),
                                 pairs=4, metric="quality_loss")
        assert code == 0
        assert last["summary"]["latency_p50_ms"]["verdict"] == verdict


class TestSeveralWorkloads:
    """The first --workload carries the claim; the others get bound verdicts."""

    def test_claim_on_the_first_and_bound_verdicts_on_the_rest(self, tmp_path, capsys):
        change = checkout(tmp_path, "change", p50="1.0 if workload == 'tiny' else 2.6")
        code, out, err = run_main_output(capsys, checkout(tmp_path, "base"), change,
                                         pairs=10, workloads=("tiny", "small"))
        assert code == 0 and not err
        assert "tiny (claim), 10 pairs" in out and "small (no regression), 10 pairs" in out
        last = json.loads(out.strip().splitlines()[-1])
        assert last["workload"] == "tiny" and last["claim"] == "claim met"
        assert last["wins"] == 10
        assert list(last["no_regression"]) == ["small"]
        small = last["no_regression"]["small"]
        assert "claim" not in small and "wins" not in small
        assert small["summary"]["latency_p50_ms"]["verdict"] == "WORSE than bound"
        assert small["summary"]["quality_loss"]["verdict"] == "within bound"
        assert len(small["runs"]["base"]) == len(small["runs"]["change"]) == 10
        assert small["runs"]["base"][0]["env"]["git_commit"] == "base"

    def test_a_bad_run_in_a_later_workload_exits_1(self, tmp_path, capsys):
        change = checkout(tmp_path, "change",
                          p50="1.0 if workload == 'tiny' else 1 / (seed % 2)")
        code, last, err = run_main(capsys, checkout(tmp_path, "base"), change,
                                   workloads=("tiny", "small"))
        assert code == 1
        assert last["claim"] == "claim met"     # the first workload's runs are all good
        assert last["no_regression"]["small"]["runs"]["change"][1] is None   # seed 6 crashed
        assert "1 of 8 runs missing, incorrect or with failed operations" in err

    @pytest.mark.parametrize("workloads", [("tiny", "tiny"), ("tiny", "huge")],
                             ids=["repeated", "unknown"])
    def test_a_repeated_or_unknown_workload_is_refused(self, tmp_path, capsys, workloads):
        with pytest.raises(SystemExit) as exc:
            run_main(capsys, checkout(tmp_path, "base"), checkout(tmp_path, "change"),
                     workloads=workloads)
        assert exc.value.code == 2


# -- report writers and scripts/same_outputs.py --------------------------------

SCRIPTS = SCRIPT.parent


def load_script(name, monkeypatch):
    """scripts/<name>.py as a module, with its directory on sys.path."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def failing_replace(src, dst):
    raise OSError(28, "No space left on device")


def unreached(*args, **kwargs):
    raise AssertionError("reached past a bad output path")


class TestReportsAreAtomic:
    """The scripts' reports go through errors.atomic_file: a failed move
    leaves neither the report nor its temporary file. An output path under
    a regular file is a DataError naming it before any training."""

    REPORT = {"nds_a": 0.5, "nds_b": 0.25}

    def ablation(self, monkeypatch):
        module = load_script("run_ablation", monkeypatch)
        monkeypatch.setattr(module, "make_scene_set", lambda seed, count: [])
        monkeypatch.setattr(module, "ablation_run", lambda *args, **kw: self.REPORT)
        monkeypatch.setattr(module, "format_ablation", lambda report: "table")
        return module

    def test_ablation_writes_its_report(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "reports" / "ablation.json"
        assert self.ablation(monkeypatch).main(["--steps", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8")) == self.REPORT
        assert [p.name for p in out.parent.iterdir()] == ["ablation.json"]

    def test_ablation_leaves_nothing_when_the_move_fails(self, tmp_path, monkeypatch, capsys):
        module = self.ablation(monkeypatch)
        monkeypatch.setattr(os, "replace", failing_replace)
        out = tmp_path / "reports" / "ablation.json"
        with pytest.raises(DataError, match="ablation.json"):
            module.main(["--steps", "1", "--out", str(out)])
        assert list(out.parent.iterdir()) == []

    def test_ablation_refuses_a_bad_out_before_training(self, tmp_path, monkeypatch):
        module = self.ablation(monkeypatch)
        monkeypatch.setattr(module, "ablation_run", unreached)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "ablation.json"
        with pytest.raises(DataError, match=re.escape(f"cannot write {out}")):
            module.main(["--steps", "1", "--out", str(out)])

    def test_overfit_demo_refuses_a_bad_ckpt_before_training(self, tmp_path, monkeypatch):
        module = load_script("overfit_demo", monkeypatch)
        monkeypatch.setattr(module, "generate_scene", lambda spec: None)
        monkeypatch.setattr(module, "train", unreached)
        (tmp_path / "file").write_text("")
        ckpt = tmp_path / "file" / "m.npz"
        monkeypatch.setattr(sys, "argv", ["overfit_demo.py", "--ckpt", str(ckpt)])
        with pytest.raises(DataError, match=re.escape(f"cannot write {ckpt}")):
            module.main()

    def test_snapshot_leaves_nothing_when_the_move_fails(self, tmp_path, monkeypatch, capsys):
        module = load_script("bench_snapshot", monkeypatch)
        monkeypatch.setattr(module, "ROOT", tmp_path)
        for name in ("environment", "source_lines", "stage_bench", "train_peak", "tier1"):
            monkeypatch.setattr(module, name, lambda: {})
        monkeypatch.setattr(module, "perfbench_runs", lambda seeds: [])
        assert module.main(["--tag", "ok"]) == 0
        assert json.loads((tmp_path / "BENCH_ok.json").read_text())["tag"] == "ok"
        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(DataError, match="BENCH_failed.json"):
            module.main(["--tag", "failed"])
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_ok.json"]


STUB_CLI = """import os, pathlib, sys, time
args = sys.argv[1:]
command = args[0]
if command == {fail!r}:
    print("stub {{}} failed".format(command), file=sys.stderr)
    sys.exit(3)
if command == "grad-check":
    print("pipeline worst 1e-9 in {{:.1f}}s".format(time.perf_counter()))
    print("gradient check PASSED")
    sys.exit(0)
out = pathlib.Path(args[args.index("--out") + 1])
if command == "gen-data":
    out.mkdir(parents=True)
    out = out / "frame_000000.bin"
out.write_text(command + (" changed" if out.suffix == {changed!r} else "")
               + (f" {{os.environ.get('OPENBLAS_NUM_THREADS')}} {{len(os.sched_getaffinity(0))}}"
                  if {where!r} else ""))
if command == "train":
    pathlib.Path(str(out) + ".trace.csv").write_text("step,loss")
"""


def stub_checkout(root, name, fail=None, changed=None, where=False):
    """A checkout whose src/fmfdet/cli.py writes a fixed text to each output;
    `fail` names a command that exits 3, outputs with suffix `changed` get
    other bytes, and with `where` each output ends with its command's
    OPENBLAS_NUM_THREADS and usable CPU count. Its grad-check prints a time
    that differs every run."""
    package = root / name / "src" / "fmfdet"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_CLI.format(fail=fail, changed=changed, where=where))
    return root / name


def run_same_outputs(monkeypatch, capsys, base, change):
    """same_outputs.main's exit status, its printed lines and its JSON summary,
    on two of its scene specs and two of its runs, to keep the test short."""
    module = load_script("same_outputs", monkeypatch)
    monkeypatch.setattr(module, "SPECS", {k: module.SPECS[k] for k in ("dense", "flow")})
    monkeypatch.setattr(module, "RUNS", [("float32", "on"), ("float64", "off")])
    code = module.main([str(base), str(change)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


class TestSameOutputs:
    def test_identical_outputs_exit_0(self, tmp_path, monkeypatch, capsys):
        code, lines, summary = run_same_outputs(monkeypatch, capsys,
                                                stub_checkout(tmp_path, "base"),
                                                stub_checkout(tmp_path, "change"))
        assert code == 0 and lines == []
        # per spec: 1 frame file, then 2 runs of checkpoint, trace, detections
        # and report; plus the grad-check printout, whose seconds are stripped
        assert summary["files"] == summary["identical"] == 2 * (1 + 2 * 4) + 1
        assert summary["differ"] == summary["failed"] == []

    def test_a_differing_file_is_named_and_exits_1(self, tmp_path, monkeypatch, capsys):
        code, lines, summary = run_same_outputs(monkeypatch, capsys,
                                                stub_checkout(tmp_path, "base"),
                                                stub_checkout(tmp_path, "change",
                                                              changed=".json"))
        assert code == 1 and summary["failed"] == []
        assert summary["differ"] == [f"{spec}/{run}.json" for spec in ("dense", "flow")
                                     for run in ("float32-fusion-on", "float64-fusion-off")]
        base, change = (sha256(f"eval{tail}".encode()).hexdigest()[:16] for tail in ("", " changed"))
        assert lines[0] == (f"differs: dense/float32-fusion-on.json: base forked {base}, "
                            f"base in-process {base}, change forked {change}, "
                            f"change in-process {change}")

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs to tell the modes apart")
    def test_in_process_flows_run_on_one_cpu_with_one_blas_thread(self, tmp_path,
                                                                   monkeypatch, capsys):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        code, lines, summary = run_same_outputs(monkeypatch, capsys,
                                                stub_checkout(tmp_path, "base", where=True),
                                                stub_checkout(tmp_path, "change", where=True))
        assert code == 1 and summary["failed"] == []
        # each output the stub writes through `--out`: not the trace or grad-check
        assert summary["differ"] == sorted(
            f"{spec}/{name}" for spec in ("dense", "flow")
            for name in ["data/frame_000000.bin"] + [
                run + suffix for run in ("float32-fusion-on", "float64-fusion-off")
                for suffix in (".json", ".jsonl", ".npz")])
        forked, in_process = (sha256(f"gen-data 1 {n}".encode()).hexdigest()[:16]
                              for n in (len(os.sched_getaffinity(0)), 1))
        assert lines[0] == (f"differs: dense/data/frame_000000.bin: base forked {forked}, "
                            f"base in-process {in_process}, change forked {forked}, "
                            f"change in-process {in_process}")

    def test_a_failing_command_is_named_and_exits_1(self, tmp_path, monkeypatch, capsys):
        change = stub_checkout(tmp_path, "change", fail="infer")
        code, lines, summary = run_same_outputs(monkeypatch, capsys,
                                                stub_checkout(tmp_path, "base"), change)
        assert code == 1
        assert len(summary["failed"]) == 8      # 2 specs x 2 runs x 2 BLAS modes
        assert all(f.startswith(f"{change}: fmfdet infer --ckpt ") and
                   f.endswith("exit 3: stub infer failed") for f in summary["failed"])
        # the detections are missing on the change side; the stub's eval
        # does not read them, so its reports still match
        assert len(summary["differ"]) == 4
        assert all(n.endswith(".jsonl") for n in summary["differ"])
        assert any(line.startswith("failed: ") for line in lines)
