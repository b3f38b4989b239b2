"""One pass of a benchmark workload, in the fresh interpreter run.py starts.

Usage (normally started by run.py):

    python3 perfbench/worker.py --workload battery3 --seed 0 --mode measure \
        --workdir DIR [--seconds N]

Protocol on stdout: the line READY once boolcube is imported from the
checkout's src/ and the inputs are built, then one JSON line with the result.
Modes:
  setup    stop after READY (times start-up alone)
  measure  run every operation of the workload untraced
  trace    replay the workload's candidates through each layer's public
           functions for --seconds, one span per call
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spec  # noqa: E402
from boolcube import cli, siggraph  # noqa: E402
from boolcube.dynamics import attractors, weak_convergence  # noqa: E402
from boolcube.network import (  # noqa: E402
    BooleanNetwork,
    fixed_point_codes,
    is_conjugate_bijective,
    is_non_expansive,
    is_self_dual,
    load_bn,
    parity_class,
    render_bn,
)
from boolcube.subnetwork import criticality, find_eosd_subnetwork  # noqa: E402
from boolcube.theorems import (  # noqa: E402
    AndNets,
    Exhaustive,
    Sample,
    VerdictKind,
    candidate_network,
    check,
    open_question_search,
    sweep_many,
)

ANALYZE_WIDTH = 8
ANALYZE_KEYS = (
    "attractors", "circular", "conjugate_bijective", "counting_condition",
    "criticality", "eosd_class", "eosd_subnetwork", "fixed_points",
    "non_expansive", "parity_class", "self_dual", "shih_dong",
    "strong_convergence", "weak_convergence",
)
# Global cycle enumeration and the catalog checks run on networks of width at
# most this. One global enumeration at width 8 lists about 2.3 million cycles
# (18 s and 0.9 GB on a 2-core Xeon), and neither lies on the analyze path, so
# analyze_w8 replays them on width-4 companion networks from the same seed.
SWEEP_MAX_WIDTH = 4
# Replay order over the and-net family: a stride coprime to 3^9, so a replay
# cut short by time still sees graphs of every density, not only the sparse
# ones at the start of the index order.
ANDNET_STRIDE = 9973


def code_text(code: int, width: int) -> str:
    """A point as .bn writes it: component 1 first."""
    return "".join("1" if code >> k & 1 else "0" for k in range(width))


# ---------------------------------------------------------------------------
# Inputs


def analyze_table(seed: int, index: int) -> list[int]:
    """Network `index` of analyze_w8, drawn from the benchmark's own RNG."""
    rng = random.Random(f"analyze_w8:{seed}:{index}")
    return [rng.getrandbits(ANALYZE_WIDTH) for _ in range(1 << ANALYZE_WIDTH)]


def write_bn(path: Path, table: list[int], width: int) -> None:
    rows = [f"{code_text(x, width)} -> {code_text(v, width)}" for x, v in enumerate(table)]
    labels = " ".join(str(i) for i in range(1, width + 1))
    path.write_text(f"components {labels}\n" + "\n".join(rows) + "\n", encoding="utf-8")


def build_inputs(workload: str, seed: int, workdir: Path) -> list:
    """One input per operation; the same seed gives the same inputs."""
    ops, batch = spec.WORKLOADS[workload]["ops"], spec.WORKLOADS[workload]["batch"]
    if workload == "battery3":
        return [Sample(3, batch, spec.op_seed(seed, k)) for k in range(ops)]
    if workload == "search_q1":
        return [
            (Sample(3, batch, spec.op_seed(seed, k)), Sample(4, batch, spec.op_seed(seed, k)))
            for k in range(ops)
        ]
    if workload == "andnet3":
        return [AndNets(3)]
    inputs = []
    for k in range(ops):
        table = analyze_table(seed, k)
        path = workdir / f"analyze_w8-{k}.bn"
        write_bn(path, table, ANALYZE_WIDTH)
        inputs.append((path, table))
    return inputs


# ---------------------------------------------------------------------------
# Correctness checks that hold at any seed


def sweep_errors(reports: dict, count: int) -> list[str]:
    errors = []
    for key, report in reports.items():
        if report.counterexample_count:
            errors.append(f"{key}: {report.counterexample_count} counterexamples")
        if report.vacuous + report.confirmed != report.candidates:
            errors.append(f"{key}: vacuous + confirmed != candidates")
        if report.candidates != count:
            errors.append(f"{key}: {report.candidates} candidates, asked for {count}")
    return errors


def search_errors(report, count: int) -> list[str]:
    if report.examined != count:
        return [f"{report.question}: examined {report.examined}, asked for {count}"]
    return []


def analyze_errors(code: int, text: str, table) -> list[str]:
    """Exit code, the set of output lines, and the fixed points recomputed
    from the table the benchmark itself wrote."""
    if code != 0:
        return [f"analyze exited {code}"]
    fields = dict(line.partition(": ")[::2] for line in text.splitlines())
    if tuple(fields) != ANALYZE_KEYS:
        return [f"analyze printed fields {sorted(fields)}"]
    width = len(table).bit_length() - 1
    fixed = "{" + ",".join(code_text(x, width) for x, v in enumerate(table) if v == x) + "}"
    if fields["fixed_points"] != fixed:
        return [f"analyze fixed_points {fields['fixed_points']}, expected {fixed}"]
    return []


def run_analyze(path) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["analyze", str(path)])
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# Operations: each returns [(report name, canonical text)] and its errors.


def op_battery3(gen):
    reports = sweep_many(spec.CRITERION2_KEYS, gen, jobs=1)
    texts = [(key, reports[key].canonical_text()) for key in spec.CRITERION2_KEYS]
    return texts, sweep_errors(reports, gen.count)


def op_search_q1(gens):
    texts, errors = [], []
    for gen in gens:
        report = open_question_search("Q1_NEG_LOCAL_CYCLES", gen, jobs=1)
        texts.append((f"Q1_NEG_LOCAL_CYCLES.w{gen.n}", report.canonical_text()))
        errors += search_errors(report, gen.count)
    return texts, errors


def op_andnet3(gen):
    reports = sweep_many(spec.ANDNET_KEYS, gen, jobs=1)
    texts = [(key, reports[key].canonical_text()) for key in spec.ANDNET_KEYS]
    errors = sweep_errors(reports, spec.ANDNET_FAMILY_SIZE)
    q2 = open_question_search("Q2_0CRITICAL_ANDNET", gen, jobs=1)
    texts.append(("Q2_0CRITICAL_ANDNET", q2.canonical_text()))
    return texts, errors + search_errors(q2, spec.ANDNET_FAMILY_SIZE)


def op_analyze_w8(item):
    path, table = item
    code, text = run_analyze(path)
    return [("analyze", text)], analyze_errors(code, text, table)


OPS = {
    "battery3": op_battery3,
    "search_q1": op_search_q1,
    "andnet3": op_andnet3,
    "analyze_w8": op_analyze_w8,
}


def cycle_cache_counts() -> tuple[int, int]:
    """(hits, lookups) of the cross-network cycle cache; read only."""
    info = getattr(siggraph, "_cycles_by_rows", None)
    if info is None or not hasattr(info, "cache_info"):
        return 0, 0
    info = info.cache_info()
    return info.hits, info.hits + info.misses


def reference_cpu_s() -> float:
    """CPU seconds of the calling thread for a loop that touches no boolcube
    code and allocates nothing the garbage collector tracks."""
    started = time.thread_time()
    total = 0
    for i in range(spec.REFERENCE_LOOP):
        total += i * i
    return time.thread_time() - started


class ReferenceSampler:
    """Times the reference loop every REFERENCE_INTERVAL_S on a background
    thread while the operations run (see spec.py)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, loop CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            loop_s = reference_cpu_s()
            self.samples.append((time.perf_counter(), loop_s))
            if self._stop.wait(spec.REFERENCE_INTERVAL_S):
                return

    def __enter__(self) -> "ReferenceSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise RuntimeError("reference sampler did not stop")

    def around(self, start: float, end: float) -> float:
        """Median loop time over the samples taken during [start, end],
        widened by one interval on each side."""
        pad = spec.REFERENCE_INTERVAL_S
        near = [s for t, s in self.samples if start - pad <= t <= end + pad]
        return statistics.median(near or [s for _, s in self.samples])


def measure(workload: str, inputs: list) -> dict:
    run = OPS[workload]
    ops = []
    cpu0 = time.process_time()
    with ReferenceSampler() as sampler:
        for item in inputs:
            started = time.perf_counter()
            try:
                texts, errors = run(item)
            except Exception:  # a raising operation is a failed one; keep going
                texts, errors = [], [traceback.format_exc(limit=-3)]
            ended = time.perf_counter()
            ops.append({
                "wall_s": ended - started,
                "span": (started, ended),
                "reports": [[name, spec.sha256(text)] for name, text in texts],
                "errors": errors,
            })
    for op in ops:
        op["reference_s"] = sampler.around(*op.pop("span"))
    hits, lookups = cycle_cache_counts()
    return {
        "ops": ops,
        "cpu_s": time.process_time() - cpu0,
        "cycle_cache": [hits, lookups],
    }


# ---------------------------------------------------------------------------
# Traced replay


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent span index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: int = -1):
        record = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(record)
        try:
            yield len(self.spans) - 1
        finally:
            record[2] = time.perf_counter_ns()


def replay_candidates(workload: str, seed: int, inputs: list):
    """(generator, index, .bn path or None, companion generator and index for
    the sweep-only spans or None) in the order the workload meets them."""
    if workload == "battery3":
        for gen in inputs:
            for i in range(gen.count):
                yield gen, i, None, None
    elif workload == "search_q1":
        for g3, g4 in inputs:
            for i in range(g3.count):
                yield g3, i, None, None
                yield g4, i, None, None
    elif workload == "andnet3":
        size = spec.ANDNET_FAMILY_SIZE
        for j in range(size):
            yield inputs[0], j * ANDNET_STRIDE % size, None, None
    else:
        companions = Sample(SWEEP_MAX_WIDTH, len(inputs), seed)
        for k, (path, table) in enumerate(inputs):
            # candidate_network decodes an exhaustive index with no width cap.
            index = sum(v << (c * ANALYZE_WIDTH) for c, v in enumerate(table))
            yield Exhaustive(ANALYZE_WIDTH), index, path, (companions, k)


def replay_one(tr: Tracer, workload: str, gen, index: int, path, companion, workdir: Path) -> dict:
    keys = spec.WORKLOADS[workload]["keys"]
    own = {"battery3": spec.CRITERION2_KEYS, "andnet3": spec.ANDNET_KEYS}.get(workload, ())
    errors = []
    with tr.span("replay.candidate") as top:
        with tr.span("theorems.candidate", top):
            f = candidate_network(gen, index)

        # Each group runs on a fresh copy so its per-instance caches start cold.
        g = BooleanNetwork(f.components, f.table)
        with tr.span("network.kernels", top):
            fixed_point_codes(g)
            parity_class(g)
            is_self_dual(g)
            is_non_expansive(g)
            is_conjugate_bijective(g)
        with tr.span("siggraph.local_rows", top):
            siggraph.local_rows(g)
        with tr.span("siggraph.global_rows", top):
            siggraph.global_rows(g)
        with tr.span("siggraph.local_cycle_signs", top):
            check("REMY_RUET_THIEFFRY", g)
        with tr.span("siggraph.counting", top):
            siggraph.counting_condition(g)
        with tr.span("siggraph.circular", top):
            siggraph.detect_circular(g)
            siggraph.is_and_net(g)

        g = BooleanNetwork(f.components, f.table)
        with tr.span("subnetwork.tables", top):
            find_eosd_subnetwork(g)
        with tr.span("subnetwork.criticality", top):
            criticality(g)
        with tr.span("dynamics.attractors", top):
            attractors(g)
        with tr.span("dynamics.weak_convergence", top):
            weak_convergence(g)

        # Sweep-only spans; one object through every key in sweep order, as
        # _evaluate_keys does.
        s = f if companion is None else candidate_network(*companion)
        if s.width > SWEEP_MAX_WIDTH:
            raise ValueError(f"sweep spans capped at width {SWEEP_MAX_WIDTH}, got {s.width}")
        with tr.span("siggraph.global_cycles", top):
            siggraph.enumerate_cycles(siggraph.global_interaction_graph(
                BooleanNetwork(s.components, s.table)
            ))
        for key in keys:
            with tr.span(f"theorems.check.{key}", top):
                verdict = check(key, s)
            if key in own and verdict.kind is VerdictKind.COUNTEREXAMPLE:
                errors.append(f"{key}: counterexample at candidate {index}")

        if path is None:
            path = workdir / "replay.bn"
            path.write_text(render_bn(f), encoding="utf-8")
        with tr.span("cli.parse", top):
            load_bn(str(path))
        with tr.span("cli.analyze", top):
            code, text = run_analyze(path)
    errors += analyze_errors(code, text, f.table)
    return {"errors": errors, "analyze": spec.sha256(text)}


def trace(workload: str, seed: int, inputs: list, seconds: float, workdir: Path) -> dict:
    tr = Tracer()
    candidates = []
    started = time.perf_counter()
    deadline = started + seconds
    for gen, index, path, companion in replay_candidates(workload, seed, inputs):
        if candidates and time.perf_counter() >= deadline:
            break
        try:
            candidates.append(replay_one(tr, workload, gen, index, path, companion, workdir))
        except Exception:  # a raising layer call is a failed candidate
            candidates.append({"errors": [traceback.format_exc(limit=-3)], "analyze": ""})
    wall = time.perf_counter() - started

    totals: dict[str, list[int]] = {}
    for name, start, end, _ in tr.spans:
        slot = totals.setdefault(name, [0, 0])
        slot[0] += end - start
        slot[1] += 1
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}-seed{seed}.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "spans": tr.spans}, handle)
    return {"wall_s": wall, "candidates": candidates, "spans": totals}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()

    inputs = build_inputs(args.workload, args.seed, args.workdir)
    print("READY", flush=True)
    if args.mode == "setup":
        result: dict = {}
    elif args.mode == "measure":
        result = measure(args.workload, inputs)
    else:
        result = trace(args.workload, args.seed, inputs, args.seconds, args.workdir)
    # ru_maxrss is in KiB on Linux.
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
