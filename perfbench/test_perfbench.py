"""Smoke test of the benchmark itself.  Not in ``testpaths``; run it with

    python3 -m pytest perfbench/test_perfbench.py -q

It runs all five workloads at a twentieth of their size (``--seconds
0.5``), both passes each, and checks the shape of what comes out — not
the numbers.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def perfbench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "perfbench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def result(spec) -> dict:
    OUT.mkdir(exist_ok=True)
    out = OUT / "smoke-result.json"
    done = perfbench("--seed", "5", "--seconds", "0.5", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_every_named_metric_is_emitted_finite_with_its_unit(spec, result):
    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, record in result["workloads"].items():
        assert record["failed"] == 0 and record["attempted"] >= 1, name
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                entry = record[section][metric["name"]]
                assert entry["unit"] == metric["unit"], (name, metric["name"])
                assert math.isfinite(entry["value"]), (name, metric["name"])
        for metric in spec["end_to_end"]:
            assert record["end_to_end"][metric["name"]]["value"] > 0, (
                name, metric["name"])
        assert math.isfinite(record["per_layer"]["trace.overhead_share"]["value"])


def test_names_follow_the_contract(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_trace_files_are_well_formed(spec, result):
    for workload in result["workloads"]:
        doc = json.loads((OUT / f"trace-{workload}.json").read_text())
        assert doc["columns"] == ["name", "start", "end", "parent", "op_id"]
        spans = doc["spans"]
        assert spans, workload
        for index, (name, start, end, parent, _op) in enumerate(spans):
            assert start <= end, (workload, name)
            # a parent is opened before its children: -1 or an earlier row
            assert -1 <= parent < index, (workload, name)
        assert set(doc["layers"]) == {s[0] for s in spans}


def test_one_pass_prints_the_contract_line(spec):
    done = perfbench("--workload", "versions_dedup", "--seed", "9",
                     "--seconds", "0.5", "--trace", "0")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]


def test_agree_and_compare_read_result_files(result):
    path = str(OUT / "smoke-result.json")
    assert perfbench("--agree", path, path).returncode == 0
    done = perfbench("--compare", path, path)
    assert done.returncode == 0 and "equal" in done.stdout


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/: no result, non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = perfbench("--workload", "bulk_mem", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_suite_does_not_pass_off_an_earlier_run(result, tmp_path):
    """A broken program over an ``out/`` that holds a good run's files:
    the suite must fail, not report the old numbers as a fresh pass."""
    assert (OUT / "pass-bulk_mem-trace0.json").exists()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path / "fresh.json"
    done = perfbench("--workload", "bulk_mem", "--seed", "5", "--seconds",
                     "0.5", "--out", str(out), cwd=tmp_path)
    assert done.returncode != 0
    assert not out.exists()


def test_calibrator_discards_samples_the_program_contended():
    """A slow kernel is the host's doing only if the program was idle."""
    from perfbench.calibrate import Calibrator

    calibrator = Calibrator()
    for _ in range(3):
        calibrator.sample()
    clean = calibrator.clean_factors()
    assert len(clean) >= 2  # idle: (nearly) every sample counts
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    thread = threading.Thread(target=spin)
    thread.start()
    try:
        for _ in range(3):
            calibrator.sample()
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert calibrator.factors[3:] == [None, None, None]
    # with only contended samples nearby, the run's clean median applies
    start, end = calibrator.ends[-1], calibrator.ends[-1] + 1.0
    assert calibrator.calibrated(start, end) == pytest.approx(
        1.0 / statistics.median(clean))
