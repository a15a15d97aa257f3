"""Tests of the benchmark itself: contract, checks, tracing.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import invpoly  # noqa: E402
from invpoly import enumeration, expansions, graded  # noqa: E402


def run_bench(*args, cwd=ROOT, reference=None):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed,trace", [(run.DEFAULT_SEED, "0"),
                                        (run.HELDOUT_SEED, "0"),
                                        (run.DEFAULT_SEED, "1")])
def test_smoke_matches_reference(workload, seed, trace):
    done = run_bench("--workload", workload, "--seed", str(seed), "--smoke",
                     "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result == {"correct": True, "attempted": result["attempted"],
                      "failed": 0, "metrics": {}}
    assert result["attempted"] >= 1
    report = json.loads(done.stdout.strip().splitlines()[-2])["report"]
    assert report["digest"] == [report["reference_digest"]]
    assert report["kernel_backend"] == invpoly.KERNEL_BACKEND


def test_smoke_at_an_unrecorded_seed_uses_independent_checks():
    done = run_bench("--workload", "poset", "--seed", "77", "--smoke")
    assert done.returncode == 0, done.stderr
    assert last_json(done.stdout)["correct"] is True


@pytest.mark.parametrize("workload,section", [
    ("conjecture", "seed_free"),
    ("poset", "seeds"),
])
def test_corrupted_reference_fails_the_run(tmp_path, workload, section):
    ref = json.loads(run.REFERENCE.read_text())
    entry = ref["smoke"][workload][section]
    if section == "seeds":
        entry = entry[str(run.DEFAULT_SEED)]["units"]
    key = sorted(entry)[0]
    entry[key] = "0" * len(entry[key])
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    done = run_bench("--workload", workload, "--smoke", reference=bad)
    assert done.returncode == 1
    result = last_json(done.stdout)
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "conjecture", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_independent_checks_catch_wrong_answers():
    plan = workloads.make_plan("oracle", 3, smoke=True)
    results = workloads.canonical(plan, workloads.run_pass(plan))
    assert all(plan.check(results).values())
    results["Ih/tail3/0"]["perms"].pop()
    verdict = workloads.judge(plan, results, {})
    assert {"Ih/tail3/0", "graded/tail3/0"} <= set(verdict.failed_units)

    plan = workloads.make_plan("poset", 3, smoke=True)
    results = workloads.canonical(plan, workloads.run_pass(plan))
    results["set/0"]["degree"] += 1
    verdict = workloads.judge(plan, results, {})
    assert verdict.failed_units == ["set/0"] and verdict.failed == 1


def test_unchecked_units_fail():
    plan = workloads.make_plan("conjecture", 3, smoke=True)
    results = workloads.canonical(plan, workloads.run_pass(plan))
    verdict = workloads.judge(plan, results, {})  # no reference hashes
    assert verdict.failed_units == [plan.units[0].key]


def test_tracer_patches_every_binding_and_restores_them():
    originals = {
        "a_counts": enumeration.a_counts,
        "B_k_set": enumeration.B_k_set,
        "from_exponents": invpoly.QPoly.__dict__["from_exponents"],
    }
    tracer = tracing.Tracer()
    with tracer.installed():
        assert expansions.a_counts is enumeration.a_counts
        assert enumeration.a_counts is not originals["a_counts"]
        assert graded.B_k_set is enumeration.B_k_set is invpoly.B_k_set
        assert graded.B_k_set is not originals["B_k_set"]
        invpoly.QPoly.from_exponents([0, 1, 1])
    assert tracer.calls["polynomials.QPoly.from_exponents"] == 1
    assert enumeration.a_counts is originals["a_counts"] is expansions.a_counts
    assert graded.B_k_set is originals["B_k_set"] is invpoly.B_k_set
    assert invpoly.QPoly.__dict__["from_exponents"] is originals["from_exponents"]


def traced_pass(plan):
    tracer = tracing.Tracer()
    with tracer.installed():
        raw = workloads.run_pass(plan)
    return workloads.canonical(plan, raw), tracer.snapshot()


@pytest.fixture(scope="module")
def conjecture_runs():
    plan = workloads.make_plan("conjecture", run.DEFAULT_SEED)
    untraced = workloads.canonical(plan, workloads.run_pass(plan))
    return untraced, traced_pass(plan), traced_pass(plan)


def test_traced_conjecture_counts(conjecture_runs):
    _, (outputs, (exact, timed)), _ = conjecture_runs
    assert outputs["tail3"]["output"]["checked"] == 1023
    assert exact["enumeration.enumerate_admissible.calls"] == 1
    assert exact["enumeration.B_k_set.calls"] == 5802
    assert exact["kernels.matching_perms_sorted_suffix.calls"] == 5802
    assert exact["graded.b_q_coefficients.calls"] == 1023
    assert exact["kernels.admissible_counts.calls"] == 1
    assert timed["kernels.matching_perms_sorted_suffix.self_s"] > 0


def test_traced_outputs_equal_untraced(conjecture_runs):
    untraced, (first, _), (second, _) = conjecture_runs
    assert first == untraced and second == untraced


def test_traced_counts_repeat_exactly(conjecture_runs):
    _, (_, (first, _)), (_, (second, _)) = conjecture_runs
    assert first == second


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_counts_repeat_and_outputs_match(workload):
    plan = workloads.make_plan(workload, run.DEFAULT_SEED, smoke=True)
    untraced = workloads.canonical(plan, workloads.run_pass(plan))
    first, (exact1, _) = traced_pass(plan)
    second, (exact2, _) = traced_pass(plan)
    assert first == untraced == second
    assert exact1 == exact2
    assert set(exact1) == {n for n in tracing.metric_units()
                           if not n.endswith("_s")}
