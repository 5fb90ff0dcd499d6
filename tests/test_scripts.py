"""scripts/ab_pairs.py on fake checkouts: each holds a BENCHMARK.json and a stub
perfbench/run.py that prints what the real one prints, a detail line and then
a result line, so the parser and the verdict run without a real benchmark."""
import importlib.util
import json
import pathlib

import pytest

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
