"""Tests of the benchmark itself, at tiny sizes; no timing is asserted."""
import json

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_bench(capsys, monkeypatch, workload, trace):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)  # one fresh-process probe
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    out = capsys.readouterr()
    return json.loads(out.out.splitlines()[-1]), out.err


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_pass_is_correct_and_reports_every_metric(capsys, monkeypatch, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, err = run_bench(capsys, monkeypatch, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, err
        assert result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # the default seed's digests were compared, not skipped
    assert run.load_expected(workload, 1, "tiny", 1)


def test_gate_counts_a_wrong_expected_output_as_failure():
    workloads = run.import_program()
    jobs = workloads.build_jobs("orbit", 1, "tiny")
    done = run.Pass(jobs)
    expected = run.load_expected("orbit", 1, "tiny", workloads.DEFAULT_SEED)
    assert run.check_pass(workloads, jobs, done, expected) == []

    corrupted = dict(expected)
    corrupted[jobs[0].id] = "0" * 64
    failures = run.check_pass(workloads, jobs, done, corrupted)
    assert len(failures) == 1 and failures[0].startswith(jobs[0].id)

    # an oracle catches a wrong result at any seed, with no digest to compare
    word = done.results[0]
    done.results[0] = word[:-1] + ("1" if word[-1] != "1" else "2")
    failures = run.check_pass(workloads, jobs, done, {})
    assert len(failures) == 1 and "reference orbit" in failures[0]
