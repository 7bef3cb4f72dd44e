"""Command line: one pass, the whole suite, ``--agree`` and ``--compare``.

* ``python3 -m perfbench --workload W --seed N --seconds S --trace 0|1``
  runs one pass of one workload in this process and prints, as the last
  line, ``{"correct", "attempted", "failed", "metrics"}`` — the
  end-to-end metrics untraced, the per-layer metrics traced.
* ``python3 -m perfbench [--workload W ...] [--seed 12] [--out FILE]``
  runs every workload in fresh subprocesses, one after another, each
  untraced then traced, prints every metric and writes the result file.
* ``--agree A.json B.json`` / ``--compare BASE.json NEW.json`` judge two
  result files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from perfbench.spec import OUT_DIR, ROOT, Spec

SETUP_REPEATS = 3
RESULT_SCHEMA = "perfbench-result/v1"

#: Same commit, same seed: counts may differ by a metadata timestamp's
#: width, simulated latencies not at all.
AGREE_RATIO_BOUND = 0.001
BYTE_RATIOS = ("bytes_up_per_user_byte", "bytes_down_per_user_byte",
               "stored_bytes_per_user_byte")
SIMULATED = {"fleet_netsim": ("put_p50_ms", "get_p50_ms")}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="python3 -m perfbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-section length the op counts are sized "
                             "for (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE pass in this process: 0 = end-to-end "
                             "metrics, 1 = per-layer metrics + trace file")
    parser.add_argument("--out", default=None, help="suite result file")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite: untraced passes per workload (the "
                             "median is reported, the spread recorded)")
    parser.add_argument("--vary-seed", action="store_true",
                        help="suite: untraced pass i uses seed + i, so the "
                             "recorded spread is the cross-seed one")
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"))
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--detail", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- one pass -------------------------------------------------------------------


def _child(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``python3 -m perfbench ARGS`` and wait for it to end."""
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=900,
    )


def measure_setup(workload: str, seed: int, seconds: float) -> list[dict]:
    """Set-up time of fresh processes, interpreter start to warm-up done,
    as ``{"calibrated": s, "raw": s}`` per process.

    Measured in children because most of set-up is paid once per process
    (imports, chunker tables, the first solver call): repeating it inside
    one process would time only the part that repeats.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        done = _child(["--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--setup-only"])
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def run_pass(args, spec: Spec, started: float) -> int:
    # imported here so that --agree/--compare work without the program
    from perfbench import trace, workloads
    from perfbench.calibrate import Calibrator

    (name,) = args.workload
    if name not in spec.workloads or name not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {name!r}; BENCHMARK.json names "
                 f"{sorted(spec.workloads)}")
    tracer = trace.Tracer() if args.trace else None
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # scratch space for the journal and ledger, gone when the pass ends
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as workdir:
        workload = workloads.WORKLOADS[name](args.seed, args.seconds, tracer,
                                             Path(workdir))
        workload.setup()
        if args.setup_only:
            # All CPU time so far is the set-up's.  Kernel time is left
            # out: on the reference VM the first touch of fresh memory
            # costs a process 0.05 or 0.45 s at random (same user time
            # either way), more than the 0.25 bound on a 1.2 s set-up.
            # What a change allocates shows in peak_rss_mb instead.
            wall_s, cpu = time.perf_counter() - started, os.times()
            print(json.dumps({
                "calibrated": Calibrator().calibrated_past(
                    wall_s - cpu.system, cpu.user),
                "raw": wall_s,
            }))
            return 0
        workload.run()
        workload.finish()
        values = workload.per_layer() if tracer else workload.end_to_end()
    log = workload.log
    samples = log.samples
    detail = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": int(bool(tracer)),
        "timed_s": workload.timed_s(), "cpu_s": workload.cpu_s,
        "put_samples": len(samples["put"]), "get_samples": len(samples["get"]),
        "errors": log.errors[:20],
    }
    if tracer is None:
        setups = measure_setup(name, args.seed, args.seconds)
        values["setup_s"] = statistics.median(
            s["calibrated"] for s in setups)
        detail["setup_samples_s"] = setups
        # the same timings on the uncalibrated clock (the fleet's put and
        # get latencies are simulated and have none)
        detail["raw"] = workload.raw_timings()
        detail["raw"]["setup_s"] = statistics.median(
            s["raw"] for s in setups)
        # not gated: about nine samples lie beyond a p99 here
        for kind in ("put", "get"):
            detail[f"client.{kind}_p99_ms"] = 1e3 * workloads.percentile(
                [s for _b, s in samples[kind]], 99)
        clean = log.calibrator.clean_factors()
        detail["slowdown_factor_p50"] = (statistics.median(clean)
                                         if clean else None)
        detail["contended_sample_share"] = log.calibrator.contended_share()
    else:
        detail["dropped"] = tracer.dropped
        tracer.dump(OUT_DIR / f"trace-{name}.json", {
            "workload": name, "seed": args.seed, "seconds": args.seconds,
        })
    metrics = {}
    for metric, entry in spec.metrics(bool(tracer)).items():
        if metric not in values:
            if tracer is None:
                raise RuntimeError(f"{name} did not produce {metric}")
            values[metric] = 0.0  # a layer this workload does not enter
        value = float(values[metric])
        if not math.isfinite(value):
            raise RuntimeError(f"{name}: {metric} is {value}")
        metrics[metric] = {"value": value, "unit": entry["unit"]}
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump({**detail, **result}, handle, indent=1)
    for error in log.errors[:20]:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- the suite ------------------------------------------------------------------


def host_info() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    for module in ("numpy", "scipy"):
        try:
            info[module] = __import__(module).__version__
        except ImportError:
            info[module] = None
    try:
        info["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        info["commit"] = None
    return info


def _suite_pass(name: str, seed: int, args, trace: int) -> dict:
    detail_path = OUT_DIR / f"pass-{name}-trace{trace}.json"
    # an earlier run's file must never stand in for a child that crashed
    detail_path.unlink(missing_ok=True)
    started = time.perf_counter()
    done = _child(["--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--detail", str(detail_path)])
    sys.stderr.write(done.stderr)
    # 0 = all correct, 1 = ran to the end with failed operations
    if done.returncode not in (0, 1) or not detail_path.exists():
        sys.exit(f"{name} (trace {trace}) ended with code "
                 f"{done.returncode} and no result")
    with open(detail_path, encoding="utf-8") as handle:
        detail = json.load(handle)
    # what one driver-form run costs all told (the time cap is on this)
    detail["pass_wall_s"] = time.perf_counter() - started
    return detail


def spread(values: list[float]) -> float | None:
    """Interquartile range over the median, once there are enough runs."""
    if len(values) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_suite(args, spec: Spec) -> int:
    names = args.workload or list(spec.workloads)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    seeds = [args.seed + i * args.vary_seed for i in range(args.repeat)]
    result = {"schema": RESULT_SCHEMA, "seed": args.seed, "seeds": seeds,
              "seconds": args.seconds, "host": host_info(), "workloads": {}}
    failed = 0
    for name in names:
        print(f"== {name}: {spec.workloads[name]}", flush=True)
        runs = [_suite_pass(name, seed, args, 0) for seed in seeds]
        traced = _suite_pass(name, args.seed, args, 1)
        end_to_end = {}
        for metric, entry in spec.end_to_end.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            end_to_end[metric] = {
                "value": statistics.median(values), "unit": entry["unit"],
                "runs": values, "spread": spread(values),
            }
            if metric in runs[0]["raw"]:
                # every run on the uncalibrated clock too, so the two
                # spreads can be told apart from this file alone
                raw = [r["raw"][metric] for r in runs]
                end_to_end[metric]["raw_runs"] = raw
                end_to_end[metric]["raw_spread"] = spread(raw)
        per_layer = dict(traced["metrics"])
        untraced_wall = statistics.median(r["timed_s"] for r in runs)
        per_layer["trace.overhead_share"] = {
            "value": (traced["timed_s"] - untraced_wall) / untraced_wall,
            "unit": "ratio",
        }
        first = runs[0]
        record = {
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "samples": {"put": first["put_samples"], "get": first["get_samples"]},
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "diagnostics": {
                "client.put_p99_ms": first["client.put_p99_ms"],
                "client.get_p99_ms": first["client.get_p99_ms"],
                "timed_s": untraced_wall,
                "traced_timed_s": traced["timed_s"],
                "pass_wall_s": [r["pass_wall_s"] for r in runs],
                "setup_samples_s": [r["setup_samples_s"] for r in runs],
                "slowdown_factor_p50": [r["slowdown_factor_p50"]
                                        for r in runs],
                "contended_sample_share": [r["contended_sample_share"]
                                           for r in runs],
                "trace_dropped": traced["dropped"],
            },
        }
        record["correct"] = record["failed"] == 0
        failed += record["failed"]
        result["workloads"][name] = record
        print_workload(name, record)
    out = args.out or str(OUT_DIR / "result.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"result written to {out}; traces in {OUT_DIR}/trace-<workload>.json")
    if failed:
        print(f"{failed} operations FAILED verification", file=sys.stderr)
    return 1 if failed else 0


def print_workload(name: str, record: dict) -> None:
    samples = record["samples"]
    print(f"   ops attempted {record['attempted']}, failed {record['failed']} "
          f"(all passes); timed samples per pass: put n={samples['put']}, "
          f"get n={samples['get']}")
    for metric, entry in record["end_to_end"].items():
        note = ""
        if metric.startswith(("put_", "get_")):
            note = f"  (n={samples[metric[:3]]})"
        if entry["spread"] is not None:
            note += f"  spread {entry['spread']:.1%}"
            if "raw_spread" in entry:
                note += f" (raw clock {entry['raw_spread']:.1%})"
        print(f"   {metric:32s} {entry['value']:14.4f} {entry['unit']}{note}")
    for metric in ("client.put_p99_ms", "client.get_p99_ms"):
        kind = metric.split(".")[1][:3]
        print(f"   {metric:32s} {record['diagnostics'][metric]:14.4f} ms"
              f"  (n={samples[kind]}, not gated)")
    for metric, entry in record["per_layer"].items():
        print(f"     {metric:30s} {entry['value']:14.4f} {entry['unit']}")


# -- judging two result files -----------------------------------------------------


def load_result(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema") != RESULT_SCHEMA:
        sys.exit(f"{path}: not a {RESULT_SCHEMA} file")
    return doc


def shared_pairs(a: dict, b: dict):
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ea = a["workloads"][name]["end_to_end"]
        eb = b["workloads"][name]["end_to_end"]
        for metric in ea:
            if metric in eb:
                yield name, metric, ea[metric], eb[metric]


def agree(args, spec: Spec) -> int:
    """Two runs of one commit and seed must tell the same story."""
    a, b = (load_result(p) for p in args.agree)
    if set(a["seeds"]) != set(b["seeds"]) or a["seconds"] != b["seconds"]:
        sys.exit("--agree compares runs of the same seeds and --seconds")
    bad = 0
    for name, metric, ea, eb in shared_pairs(a, b):
        if metric in SIMULATED.get(name, ()):
            allowed = 0.0
        elif metric in BYTE_RATIOS:
            allowed = AGREE_RATIO_BOUND
        else:
            allowed = spec.end_to_end[metric]["bound"]
        differs = abs(eb["value"] - ea["value"]) / abs(ea["value"])
        verdict = "ok" if differs <= allowed else "DISAGREE"
        bad += verdict != "ok"
        print(f"{name:16s} {metric:28s} {ea['value']:12.4f} {eb['value']:12.4f} "
              f"{differs:8.4f} <= {allowed:<6g} {verdict}")
    print("agree" if not bad else f"{bad} metrics disagree")
    return 1 if bad else 0


def compare(args, spec: Spec) -> int:
    """Delta table, one row per (workload, metric), every ratio with its base."""
    base, new = (load_result(p) for p in args.compare)
    regressed = 0
    print(f"{'workload':16s} {'metric':28s} {'base':>12s} {'new':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for name, metric, eb, en in shared_pairs(base, new):
        worse = spec.worse_by(metric, eb["value"], en["value"])
        bound = spec.end_to_end[metric]["bound"]
        spreads = [s for s in (eb.get("spread"), en.get("spread"))
                   if s is not None]
        if metric in SIMULATED.get(name, ()) and base["seed"] == new["seed"]:
            noise = 0.0  # bit-reproducible: any difference is the commit's
        elif spreads:
            noise = max(spreads)
        else:
            # without repeated runs, fall back on the steadiness the
            # benchmark was tuned to: a third of the bound
            noise = bound / 3
        if worse == 0.0:
            verdict = "equal"
        elif abs(worse) <= noise:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSED"
            regressed += 1
        else:
            verdict = "worse" if worse > 0 else "better"
        print(f"{name:16s} {metric:28s} {eb['value']:12.4f} {en['value']:12.4f} "
              f"{worse:+9.2%} {bound:6g}  {verdict} "
              f"(spread {noise:.2%} of base {eb['value']:.4g} {eb['unit']})")
    return 1 if regressed else 0


def main(argv, started: float) -> int:
    args = parse_args(argv)
    spec = Spec.load()
    if args.seconds is None:
        args.seconds = float(spec.run_seconds)
    if args.agree:
        return agree(args, spec)
    if args.compare:
        return compare(args, spec)
    if args.trace is not None or args.setup_only:
        if not args.workload or len(args.workload) != 1:
            sys.exit("one pass needs exactly one --workload")
        return run_pass(args, spec, started)
    return run_suite(args, spec)
