"""boolcube benchmark: sweep and analyze workloads, each pass in a fresh interpreter.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload battery3 --seed 0 --seconds 10 --trace 0

Workloads (sizes in spec.py, reasons in BENCHMARK.json): battery3, search_q1,
andnet3, analyze_w8. The package is imported from the checkout's src/, never
from an installed copy, so a run measures the tree it sits in.

--trace 0 starts fresh worker interpreters one after another until --seconds
have passed. Each runs every operation of the workload once, untraced, and
the end-to-end metrics are taken over those passes. --trace 1 runs one
untraced pass, then a traced replay of the workload's candidates through each
layer's public functions for --seconds, and reports the per-layer metrics.

The bounded timings (wall_s, throughput_per_s, latency_*) are scaled to a
nominal host speed by a reference loop sampled while the operations run (see
spec.py); the unscaled wall-clock figures are printed beside them. setup_s
and peak_rss_mb are as measured.

Every operation is checked: the invariants of its reports at any seed, the
same report digests in every pass of the run, and at the seeds listed in
expected.json the digests recorded there. A check that fails, an exception
or a worker that dies counts the operation as failed.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it give provenance, the digest of every
report, and each metric with its unit. The run exits 2 without a result when
the checkout holds no boolcube sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

PASS_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Workers


def launch(workload: str, seed: int, mode: str, workdir: Path, seconds: float = 1.0) -> dict:
    """Run one fresh worker; its set-up time runs from launch to READY."""
    cmd = [
        sys.executable, "-I", str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--workdir", str(workdir), "--seconds", str(seconds),
    ]
    started = time.perf_counter()
    # Unbuffered, so readline takes only the READY line and communicate()
    # gets everything after it.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0
    )
    try:
        ready = proc.stdout.readline().decode()
        setup_s = time.perf_counter() - started
        out, err = (data.decode() for data in proc.communicate(timeout=PASS_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        return {"error": f"worker ran longer than {PASS_TIMEOUT_S} s"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "READY" or proc.returncode != 0 or not out.strip():
        return {"error": f"worker exited {proc.returncode}: {err.strip()[-2000:]}"}
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


# ---------------------------------------------------------------------------
# Correctness gate


def op_digest(reports: list) -> str:
    """One digest over an operation's (report name, report digest) pairs."""
    return spec.sha256("".join(f"{name} {digest}\n" for name, digest in reports))


def gate_passes(workload: str, seed: int, passes: list, expected: dict) -> list[list[str]]:
    """Errors of every attempted operation, pass by pass, op by op.

    A dead worker fails every operation of its pass. A digest must match the
    first pass of the run and, where expected.json lists the seed, the digest
    recorded there.
    """
    want = expected.get(workload, {}).get(str(seed))
    per_pass = spec.WORKLOADS[workload]["ops"]
    first = None
    out = []
    for result in passes:
        if "error" in result:
            out.extend([[result["error"]]] * per_pass)
            continue
        digests = [op_digest(op["reports"]) for op in result["ops"]]
        if first is None:
            first = digests
        for k, op in enumerate(result["ops"]):
            errors = list(op["errors"])
            if digests[k] != first[k]:
                errors.append(f"op {k}: reports differ from the first pass")
            if want is not None and (k >= len(want) or digests[k] != want[k]):
                errors.append(f"op {k}: digest differs from expected.json at seed {seed}")
            out.append(errors)
        if len(result["ops"]) != per_pass:
            out.extend([[f"pass ran {len(result['ops'])} of {per_pass} ops"]])
    return out


def count_failed(op_errors: list[list[str]]) -> tuple[int, int]:
    """(attempted, failed) operations."""
    return len(op_errors), sum(1 for errors in op_errors if errors)


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    samples above it; with too few samples, the maximum at percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(workload: str, passes: list, setups: list[float]) -> tuple[dict, dict]:
    """(metric values, details: sample counts, CPU seconds, unscaled timings)
    over the passes that ran. wall_s is the mean time of one pass's
    operations; throughput_per_s is candidates over all measured time."""
    ran = [p for p in passes if "error" not in p]
    if not ran:
        return {}, {}
    per_op = spec.candidates_per_op(workload)

    def timings(scale) -> dict:
        walls = [sum(op["wall_s"] * scale(op) for op in p["ops"]) for p in ran]
        latencies = [op["wall_s"] * scale(op) * 1000.0 for p in ran for op in p["ops"]]
        tail_ms, tail_pct = tail(latencies)
        return {
            "wall_s": statistics.fmean(walls),
            "throughput_per_s": per_op * len(latencies) / sum(walls),
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail_ms,
            "latency_tail_percentile": tail_pct,
            "latency_samples": len(latencies),
        }

    raw = timings(lambda op: 1.0)
    values = timings(lambda op: spec.REFERENCE_NOMINAL_S / op["reference_s"])
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = statistics.median(p["maxrss_kb"] / 1024.0 for p in ran)
    detail = {
        "passes": len(ran),
        "setup_samples": len(setups),
        "latency_samples": values.pop("latency_samples"),
        "latency_tail_percentile": values.pop("latency_tail_percentile"),
        "candidates_per_op": per_op,
        "cpu_s": sum(p["cpu_s"] for p in ran),
        "measured_wall_s": sum(op["wall_s"] for p in ran for op in p["ops"]),
        "reference_s_median": statistics.median(op["reference_s"] for p in ran for op in p["ops"]),
        "unscaled": raw,
    }
    return values, detail


def per_layer(workload: str, untraced: dict, traced: dict) -> dict:
    values = {}
    for span, (name, unit, _) in spec.LAYER_SPANS.items():
        total_ns, calls = traced["spans"].get(span, (0, 0))
        scale = 1e-6 if unit == "ms" else 1e-3
        values[name] = total_ns * scale / calls if calls else 0.0
        values[f"{name}.calls"] = calls
    hits, lookups = untraced["cycle_cache"]
    values["siggraph.cycle_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    values["siggraph.cycle_cache_lookups"] = lookups
    untraced_wall = sum(op["wall_s"] for op in untraced["ops"])
    untraced_per = untraced_wall / (spec.candidates_per_op(workload) * len(untraced["ops"]))
    traced_per = traced["wall_s"] / max(1, len(traced["candidates"]))
    values["trace.overhead_frac"] = traced_per / untraced_per - 1.0
    return values


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


# ---------------------------------------------------------------------------
# Provenance


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    commit = "none: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown: {exc}"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "cpu_model": cpu_model,
    }


# ---------------------------------------------------------------------------


def run_measure(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[list, list]:
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(launch(workload, seed, "measure", workdir))
        if "error" in passes[-1] or time.perf_counter() >= deadline:
            break
    setups = [p["setup_s"] for p in passes if "error" not in p]
    while len(setups) < MIN_SETUP_SAMPLES and "error" not in passes[-1]:
        probe = launch(workload, seed, "setup", workdir)
        if "error" in probe:
            passes.append(probe)
            break
        setups.append(probe["setup_s"])
    return passes, setups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "boolcube" / "__init__.py").is_file():
        print(f"error: no boolcube sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = load_expected()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    try:
        # Compile bytecode once, so every measured start-up reads the same files.
        launch(args.workload, args.seed, "setup", workdir)
        if args.trace:
            passes = [launch(args.workload, args.seed, "measure", workdir)]
            traced = launch(args.workload, args.seed, "trace", workdir, args.seconds)
        else:
            passes, setups = run_measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_errors = gate_passes(args.workload, args.seed, passes, expected)
    info = {"provenance": provenance(args.workload, args.seed, args.seconds, args.trace)}
    if args.trace:
        units = {name: unit for name, unit, _ in spec.per_layer_metrics()}
        cand_errors = [["traced replay: " + traced["error"]]] if "error" in traced else [
            c["errors"] for c in traced["candidates"]
        ]
        if args.workload == "analyze_w8" and "error" not in traced and "error" not in passes[0]:
            # The replay's analyze output must equal the untraced pass's.
            for k, cand in enumerate(traced["candidates"]):
                if [["analyze", cand["analyze"]]] != passes[0]["ops"][k]["reports"]:
                    cand_errors[k] = cand_errors[k] + [f"replayed analyze {k} differs"]
        op_errors += cand_errors
        values = {}
        if "error" not in traced and "error" not in passes[0]:
            values = per_layer(args.workload, passes[0], traced)
            info["replayed_candidates"] = len(traced["candidates"])
            info["traced_wall_s"] = traced["wall_s"]
    else:
        units = {name: unit for name, unit, _ in spec.END_TO_END}
        values, info["samples"] = end_to_end(args.workload, passes, setups)
    if passes and "error" not in passes[0]:
        info["reports"] = [op["reports"] for op in passes[0]["ops"]]

    attempted, failed = count_failed(op_errors)
    info["errors"] = [e for errors in op_errors for e in errors][:20]
    info["error_rate"] = failed / attempted if attempted else 1.0
    print("info " + json.dumps(info))
    moves = spec.layer_moves() if args.trace else {}
    for name, unit in units.items():
        if name in values:
            note = f"  (moves {moves[name]})" if name in moves else ""
            print(f"{name} = {values[name]!r} {unit}{note}")
    for name, value in info.get("samples", {}).get("unscaled", {}).items():
        if name in units:
            print(f"unscaled {name} = {value!r} {units[name]}")
    print(f"error_rate = {failed}/{attempted}")
    correct = failed == 0 and len(values) == len(units)
    print(result_line(correct, attempted, failed, values, units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
