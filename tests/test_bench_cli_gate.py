"""`cyrus bench` smoke tests, the BENCH_*.json schema, and the CI
regression-gate comparator."""

import json
import os

import pytest

from repro.bench.gate import (
    BASELINE_SCHEMA,
    check_report,
    check_reports,
    load_baseline,
    validate_baseline,
)
from repro.bench.harness import bench_codec, bench_e2e, run_bench
from repro.bench.reporting import (
    BENCH_SCHEMA,
    load_bench_report,
    validate_bench_report,
    write_bench_report,
)


def _report(kind="codec", metrics=None):
    return {
        "schema": BENCH_SCHEMA,
        "kind": kind,
        "quick": True,
        "params": {"t": 2},
        "metrics": metrics if metrics is not None else {"m": 1.0},
    }


def _baseline(floors, tolerance=0.5):
    return {
        "schema": BASELINE_SCHEMA,
        "tolerance": tolerance,
        "floors": floors,
    }


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------


def test_valid_report_passes():
    validate_bench_report(_report())


@pytest.mark.parametrize("mutate", [
    lambda r: r.pop("schema"),
    lambda r: r.update(schema="cyrus-bench/v0"),
    lambda r: r.update(kind="nonsense"),
    lambda r: r.update(quick="yes"),
    lambda r: r.update(params=[1, 2]),
    lambda r: r.update(metrics={}),
    lambda r: r.update(metrics={"m": "fast"}),
    lambda r: r.update(metrics={"m": float("nan")}),
    lambda r: r.update(metrics={"m": float("inf")}),
    lambda r: r.update(metrics={"m": True}),
])
def test_malformed_reports_rejected(mutate):
    report = _report()
    mutate(report)
    with pytest.raises(ValueError):
        validate_bench_report(report)


def test_write_and_load_roundtrip(tmp_path):
    path = tmp_path / "BENCH_codec.json"
    write_bench_report(_report(metrics={"encode": 42.5}), path)
    loaded = load_bench_report(path)
    assert loaded["metrics"] == {"encode": 42.5}


def test_write_rejects_malformed(tmp_path):
    with pytest.raises(ValueError):
        write_bench_report({"schema": "nope"}, tmp_path / "x.json")
    assert not (tmp_path / "x.json").exists()


def test_baseline_validation():
    validate_baseline(_baseline({"codec": {"m": 1.0}}))
    with pytest.raises(ValueError):
        validate_baseline(_baseline({"codec": {"m": 0.0}}))  # non-positive
    with pytest.raises(ValueError):
        validate_baseline(_baseline({"weird-kind": {"m": 1.0}}))
    with pytest.raises(ValueError):
        validate_baseline(_baseline({"codec": {"m": 1.0}}, tolerance=1.0))
    with pytest.raises(ValueError):
        validate_baseline({"schema": "other", "tolerance": 0.1, "floors": {}})


def test_committed_baseline_is_valid():
    """The floors CI actually uses must always parse."""
    from pathlib import Path

    baseline = load_baseline(
        Path(__file__).parent.parent / "benchmarks" / "bench_baseline.json"
    )
    assert baseline["floors"]["codec"]["encode_speedup"] >= 10.0


# ----------------------------------------------------------------------
# gate comparator: improve / regress / tolerance edge
# ----------------------------------------------------------------------


def test_gate_improvement_passes():
    result = check_report(
        _report(metrics={"m": 20.0}), _baseline({"codec": {"m": 10.0}})
    )
    assert result.passed and not result.failures


def test_gate_regression_fails():
    result = check_report(
        _report(metrics={"m": 2.0}), _baseline({"codec": {"m": 10.0}})
    )
    assert not result.passed
    assert [c.metric for c in result.failures] == ["m"]
    assert "FAIL" in result.describe()


def test_gate_tolerance_edge_equality_passes():
    # threshold = 10 * (1 - 0.5) = 5.0; exactly 5.0 must PASS
    result = check_report(
        _report(metrics={"m": 5.0}), _baseline({"codec": {"m": 10.0}})
    )
    assert result.passed
    # and one ulp under fails
    result = check_report(
        _report(metrics={"m": 4.999999}), _baseline({"codec": {"m": 10.0}})
    )
    assert not result.passed


def test_gate_zero_tolerance_is_exact_floor():
    baseline = _baseline({"codec": {"m": 10.0}}, tolerance=0.0)
    assert check_report(_report(metrics={"m": 10.0}), baseline).passed
    assert not check_report(_report(metrics={"m": 9.999}), baseline).passed


def test_gate_missing_metric_fails():
    result = check_report(
        _report(metrics={"other": 99.0}), _baseline({"codec": {"m": 10.0}})
    )
    assert not result.passed
    assert result.failures[0].current is None
    assert "missing" in result.failures[0].describe()


def test_gate_extra_metrics_ignored():
    result = check_report(
        _report(metrics={"m": 20.0, "new_metric": 0.001}),
        _baseline({"codec": {"m": 10.0}}),
    )
    assert result.passed and len(result.checks) == 1


def test_gate_tolerance_override():
    baseline = _baseline({"codec": {"m": 10.0}}, tolerance=0.5)
    assert check_report(_report(metrics={"m": 6.0}), baseline).passed
    assert not check_report(
        _report(metrics={"m": 6.0}), baseline, tolerance=0.1
    ).passed


def test_gate_combines_kinds():
    reports = {
        "codec": _report("codec", {"m": 20.0}),
        "e2e": _report("e2e", {"p": 1.0}),
    }
    baseline = _baseline({"codec": {"m": 10.0}, "e2e": {"p": 5.0}})
    result = check_reports(reports, baseline)
    assert not result.passed
    assert [(c.kind, c.metric) for c in result.failures] == [("e2e", "p")]


# ----------------------------------------------------------------------
# bench harness smoke (tiny payloads; the real --quick run is the CI job)
# ----------------------------------------------------------------------


def test_bench_codec_smoke_schema_valid():
    report = bench_codec(quick=True, vec_bytes=64 * 1024,
                         sca_bytes=8 * 1024, repeats=1)
    validate_bench_report(report)
    assert report["kind"] == "codec"
    for key in ("encode_vector_mbps", "encode_scalar_mbps", "encode_speedup",
                "decode_speedup", "chunk_rabin_speedup"):
        assert report["metrics"][key] > 0


def test_bench_e2e_smoke_schema_valid():
    report = bench_e2e(quick=True, size=512 * 1024)
    validate_bench_report(report)
    assert report["kind"] == "e2e"
    assert report["metrics"]["put_mbps"] > 0
    assert report["metrics"]["get_mbps"] > 0


def test_run_bench_writes_both_files(tmp_path, monkeypatch):
    # shrink the payloads through the harness entry itself
    import repro.bench.harness as harness

    monkeypatch.setattr(
        harness, "bench_codec",
        lambda quick=True: bench_codec(quick=quick, vec_bytes=64 * 1024,
                                       sca_bytes=8 * 1024, repeats=1),
    )
    monkeypatch.setattr(
        harness, "bench_e2e",
        lambda quick=True: bench_e2e(quick=quick, size=256 * 1024),
    )
    reports = run_bench(quick=True, out_dir=tmp_path)
    for kind in ("codec", "e2e"):
        path = tmp_path / f"BENCH_{kind}.json"
        assert path.exists()
        on_disk = json.loads(path.read_text())
        validate_bench_report(on_disk)
        assert on_disk == reports[kind]


def test_cli_bench_gate_failure_exit_code(tmp_path, monkeypatch):
    """`cyrus bench --gate` exits 1 on regression, 0 on pass."""
    import repro.bench.harness as harness
    from repro.cli import main

    monkeypatch.setattr(
        harness, "bench_codec",
        lambda quick=True: bench_codec(quick=quick, vec_bytes=64 * 1024,
                                       sca_bytes=8 * 1024, repeats=1),
    )
    monkeypatch.setattr(
        harness, "bench_e2e",
        lambda quick=True: bench_e2e(quick=quick, size=256 * 1024),
    )
    passing = tmp_path / "pass.json"
    passing.write_text(json.dumps(_baseline(
        {"codec": {"encode_speedup": 0.001}})))
    failing = tmp_path / "fail.json"
    failing.write_text(json.dumps(_baseline(
        {"codec": {"encode_vector_mbps": 10_000_000.0}})))
    out = tmp_path / "bench-out"
    assert main(["bench", "--quick", "--out-dir", str(out),
                 "--gate", str(passing)]) == 0
    assert (out / "BENCH_codec.json").exists()
    assert (out / "BENCH_e2e.json").exists()
    assert main(["bench", "--quick", "--out-dir", str(out),
                 "--gate", str(failing)]) == 1


@pytest.mark.slow
@pytest.mark.skipif(
    bool(os.environ.get("CYRUS_NO_NUMPY_ACCEL")),
    reason="floors are for the vectorized path; scalar fallback is forced",
)
def test_real_quick_bench_meets_committed_floors(tmp_path):
    """The actual `cyrus bench --quick` run passes the committed gate."""
    from pathlib import Path

    baseline = load_baseline(
        Path(__file__).parent.parent / "benchmarks" / "bench_baseline.json"
    )
    reports = run_bench(quick=True, out_dir=tmp_path)
    result = check_reports(reports, baseline)
    assert result.passed, result.describe()
