"""Tests of the benchmark itself: seeded inputs, the oracle, failure
accounting, the tracer, and a short smoke run of the full command.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tatedual import cli, duality, gamma, numutil, padic, tate  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "N_MAX", 40)
    monkeypatch.setattr(workloads, "LIMIT_N_MAX", 40)
    monkeypatch.setattr(workloads, "FRESH_N_MAX", 16)
    monkeypatch.setattr(workloads, "MODULUS_MAX", 64)


def execute(op):
    return run.Runner(cli).execute(op)


def first_op(workload, command, seed=3):
    g = workloads.Generator(workload, seed)
    return next(op for op in g.take(500) if op.kind == command)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_argv_digest(workload):
    first = workloads.argv_digest(workloads.Generator(workload, 5).take(300))
    again = workloads.argv_digest(workloads.Generator(workload, 5).take(300))
    other = workloads.argv_digest(workloads.Generator(workload, 6).take(300))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_agrees_with_program_on_small_sample(workload, small_sizes):
    ops = workloads.Generator(workload, 11).take(250)
    for op in ops:
        code, out, err, _ = execute(op)
        assert oracle.check(op, code, out, err) is None, op.argv


def test_every_command_family_has_an_oracle_and_a_workload(small_sizes):
    seen = set()
    for workload in WORKLOADS:
        seen |= {op.command for op in workloads.Generator(workload, 2).take(400)}
    assert set(oracle.EXPECTED) <= seen


def test_tate_oracle_matches_the_per_term_series():
    # the Lambert closed form against the package's truncated per-n series
    for p, q, n in [(2, 2, 9), (3, 6, 12), (5, 25 * 7, 10), (7, 7 * 3, 8)]:
        argv = ("tate", "coeffs", "--p", str(p), "--prec", str(n), "--q", str(q))
        coeffs = tate.tate_coefficients(padic.padic_from_integer(q, p, n))
        expected = oracle.expected_result(argv)
        assert expected["a4"] == str(coeffs.a4)
        assert expected["a6"] == str(coeffs.a6)


def test_corrupted_output_is_flagged():
    op = first_op("tate-series", "tate coeffs")
    code, out, err, _ = execute(op)
    assert oracle.check(op, code, out, err) is None
    doc = json.loads(out)
    doc["result"]["a4_digits"][0] = (doc["result"]["a4_digits"][0] + 1) % int(op.argv[3])
    corrupted = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert "oracle" in oracle.check(op, code, corrupted, err)
    assert "exactly one JSON" in oracle.check(op, code, out + out, err)
    assert "exactly one JSON" in oracle.check(op, code, out, "warning\n")
    assert "outside" in oracle.check(op, 1, out, err)
    assert "expected 0" in oracle.check(op, 3, out, err)
    assert "raised ValueError" in oracle.check(op, ValueError("boom"), "", "")


def test_probe_must_be_rejected_with_its_exit_class():
    g = workloads.Generator("tate-series", 1)
    probe = next(op for op in g.take(400) if op.kind.startswith("probe:"))
    code, out, err, _ = execute(probe)
    assert oracle.check(probe, code, out, err) is None
    accepted = workloads.Op(argv=probe.argv, expect_exit=0, kind=probe.kind)
    assert oracle.check(accepted, code, out, err) is not None


def test_run_records_failures_without_aborting(monkeypatch):
    ops = [first_op("dual-scan", "dual check"), first_op("dual-scan", "dual pair")]
    real = cli.run

    def flaky(argv):
        if argv[1] == "check":
            raise RuntimeError("injected")
        return real(argv)

    monkeypatch.setattr(cli, "run", flaky)
    runner = run.Runner(cli)
    failures = run.failures_of([runner.run_op(op) for op in ops])
    assert [f["op"] for f in failures] == [0]
    assert "RuntimeError" in failures[0]["reason"]
    assert failures[0]["argv"] == list(ops[0].argv)


def test_times_are_scaled_by_the_nearest_calibrations():
    ref = calibration.REFERENCE_S
    # a host running at half the reference speed doubles every calibration
    assert calibration.scaled([0.2, 0.4], [2 * ref, 2 * ref]) == pytest.approx([0.1, 0.2])
    # one slow calibration among its neighbours does not move the scale
    spent = [ref] * 11
    spent[5] = 10 * ref
    assert calibration.scaled([0.3] * 11, spent)[5] == pytest.approx(0.3)


def test_middle_mean_drops_the_outer_quarters():
    assert run.middle_mean([1.0, 2.0, 3.0, 100.0]) == 2.5
    assert run.middle_mean([4.0, 1.0]) == 2.5


def test_tracer_rebinds_aliases_patches_methods_and_restores():
    originals = (tate.padic_from_integer, duality.check_prime, gamma.gcd_with_coefficients,
                 padic.PAdicInt.__dict__["__post_init__"], numutil.xgcd)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tate.padic_from_integer.__wrapped__ is originals[0]
        assert duality.check_prime.__wrapped__ is originals[1]
        assert gamma.gcd_with_coefficients.__wrapped__ is originals[2]
        assert padic.PAdicInt.__dict__["__post_init__"].__wrapped__ is originals[3]
        assert numutil.xgcd is originals[4]  # per-step helpers stay unwrapped
        op = workloads.Op(argv=("gamma", "limit", "--p", "3", "--prec", "6", "--q", "6", "--json"))
        code, out, err, _ = execute(op)
    finally:
        tracer.uninstall()
    assert oracle.check(op, code, out, err) is None
    assert (tate.padic_from_integer, duality.check_prime, gamma.gcd_with_coefficients,
            padic.PAdicInt.__dict__["__post_init__"], numutil.xgcd) == originals
    metrics = tracer.metrics(overhead_ratio=1.0)
    assert metrics["cli.run.calls"] == 1
    assert metrics["gamma.supernatural_limit.calls"] == 1
    assert metrics["gamma.hulls_built"] == 6  # one hull per truncation
    assert metrics["numutil.gcd_coeff_updates"] == sum(n * (n - 1) // 2 for n in range(1, 7))
    assert metrics["gamma.certificate_use_ratio"] == 0.0
    assert abs(sum(metrics[f"{layer}.self_share"] for layer in tracing.LAYERS) - 1) < 1e-9


def test_tracer_skips_names_that_no_longer_exist(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "kernels", ("mul", "no_such_kernel"))
    tracer = tracing.Tracer()
    skipped = tracer.install()
    tracer.uninstall()
    assert skipped == ["kernels.no_such_kernel"]


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dual-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
