"""What the benchmark runs and reports, shared by run.py and worker.py.

Nothing here imports boolcube: run.py never loads the package, so
every measured call happens in a fresh worker interpreter.
"""

from __future__ import annotations

import hashlib

DEFAULT_SEED = 0

# The theorem set of acceptance criterion 2, in the order a sweep evaluates it.
CRITERION2_KEYS = (
    "MAIN_EOSD",
    "COR11_EQUIVALENCE",
    "ROBERT",
    "DICHOTOMY_UNIQUE",
    "DICHOTOMY_EXIST",
    "SHIH_DONG",
    "REMY_RUET_THIEFFRY",
    "RICHARD2010",
    "RICHARD2011",
    "COR_COUNTING",
    "COR_GEODESIC",
    "THM_CIRCULAR_EOSD",
    "THM_CRITICAL_NONEXP",
    "PROP_ODD_OUTDEGREE",
    "LOCAL_SUBGRAPH_CONTAINMENT",
    "DYNAMICS_ISOMORPHISM",
)

ANDNET_KEYS = (
    "ANDNET_2CRITICAL",
    "EOSD_ANDNET_CIRCULAR",
    "CIRCULAR_SUBNETWORK_CRITERION",
    "ANDNET_CHORDLESS",
)

ANDNET_FAMILY_SIZE = 3**9  # AndNets(3): every simple signed digraph on 3 vertices

# Each pass is one fresh interpreter running `ops` operations; an operation is
# the unit of latency, and `batch` networks go through it (for search_q1,
# `batch` at each width).
#   battery3    one sweep_many(CRITERION2_KEYS, Sample(3, batch, ...)) call
#   search_q1   one Q1 search over Sample(3, batch, ...), then one over
#               Sample(4, batch, ...)
#   andnet3     sweep_many(ANDNET_KEYS, AndNets(3)), then the Q2 search over
#               the same family; it takes no seed
#   analyze_w8  one `boolcube analyze` call on a random width-8 network
WORKLOADS = {
    "battery3": {"ops": 8, "batch": 250, "keys": CRITERION2_KEYS + ANDNET_KEYS},
    "search_q1": {"ops": 10, "batch": 1000, "keys": CRITERION2_KEYS + ANDNET_KEYS},
    "andnet3": {"ops": 1, "batch": ANDNET_FAMILY_SIZE, "keys": ANDNET_KEYS + CRITERION2_KEYS},
    "analyze_w8": {"ops": 12, "batch": 1, "keys": CRITERION2_KEYS + ANDNET_KEYS},
}
# `keys` is the order in which the traced replay times check(key, f) on one
# network object: the workload's own sweep keys first, so the per-instance
# caches fill as they do in that sweep.


# Host-speed reference. On a shared virtual CPU the host's speed swings by a
# third and more, in spells of seconds to minutes, so raw timings of the same
# code spread wider than any useful bound. While the operations run, a
# background thread times a fixed integer loop that touches no boolcube code
# every REFERENCE_INTERVAL_S, in its own CPU seconds. Each operation's time is
# then reported at the speed where that loop takes REFERENCE_NOMINAL_S:
# time * REFERENCE_NOMINAL_S / (median loop time during the operation).
REFERENCE_LOOP = 50_000
REFERENCE_INTERVAL_S = 0.2
REFERENCE_NOMINAL_S = 0.003


def sha256(text: str) -> str:
    """The digest the correctness gate compares."""
    return hashlib.sha256(text.encode()).hexdigest()


def op_seed(seed: int, op: int) -> int:
    """The Sample seed of operation `op`; distinct across ops and run seeds."""
    return seed * 1000 + op


def candidates_per_op(workload: str) -> int:
    spec = WORKLOADS[workload]
    return spec["batch"] * (2 if workload == "search_q1" else 1)


# End-to-end metrics, reported with tracing off. (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer spans recorded by the traced replay: span name -> (metric name,
# unit, the end-to-end metric and workload a change to that layer should move).
LAYER_SPANS = {
    "theorems.candidate": (
        "theorems.candidate_us", "us",
        "throughput_per_s on search_q1 (about a quarter of its per-candidate "
        "time); a small share on battery3",
    ),
    "network.kernels": (
        "network.kernels_us", "us",
        "throughput_per_s on every workload, small share",
    ),
    "siggraph.local_rows": (
        "siggraph.local_rows_us", "us",
        "throughput_per_s on search_q1; latency_* on analyze_w8",
    ),
    "siggraph.global_rows": (
        "siggraph.global_rows_us", "us",
        "throughput_per_s on search_q1; latency_* on analyze_w8",
    ),
    "siggraph.local_cycle_signs": (
        "siggraph.local_cycle_signs_us", "us",
        "throughput_per_s on search_q1 (the Q1 hypothesis kernel)",
    ),
    "siggraph.global_cycles": (
        "siggraph.global_cycles_us", "us",
        "throughput_per_s on battery3, whose ARACENA_*, DICHOTOMY_* and "
        "RICHARD2010 keys enumerate global cycles; off the analyze path, so "
        "analyze_w8 times it on width-4 companion networks",
    ),
    "siggraph.counting": (
        "siggraph.counting_us", "us",
        "latency_* and peak_rss_mb on analyze_w8; COR_COUNTING on battery3",
    ),
    "siggraph.circular": (
        "siggraph.circular_us", "us",
        "throughput_per_s on andnet3",
    ),
    "subnetwork.tables": (
        "subnetwork.tables_us", "us",
        "throughput_per_s on battery3 and andnet3, latency_* on analyze_w8; "
        "no change on search_q1",
    ),
    "subnetwork.criticality": (
        "subnetwork.criticality_us", "us",
        "throughput_per_s on battery3 and andnet3, latency_* on analyze_w8; "
        "no change on search_q1",
    ),
    "dynamics.attractors": (
        "dynamics.attractors_us", "us",
        "throughput_per_s on battery3; latency_* on analyze_w8",
    ),
    "dynamics.weak_convergence": (
        "dynamics.weak_convergence_us", "us",
        "throughput_per_s on battery3; latency_* on analyze_w8",
    ),
    "cli.parse": ("cli.parse_us", "us", "latency_* on analyze_w8"),
    "cli.analyze": (
        "cli.analyze_ms", "ms",
        "latency_* on analyze_w8; timed after the layer spans on the same "
        "table, so its cycle-cache lookups hit",
    ),
}
for _key in CRITERION2_KEYS + ANDNET_KEYS:
    LAYER_SPANS[f"theorems.check.{_key}"] = (
        f"theorems.check_us.{_key}", "us",
        "throughput_per_s on battery3 (above all LOCAL_SUBGRAPH_CONTAINMENT, "
        "DYNAMICS_ISOMORPHISM) and on andnet3 (CIRCULAR_SUBNETWORK_CRITERION); "
        "COR_COUNTING follows siggraph.counting on the same table, so its "
        "cycle-cache lookups hit",
    )
del _key

# Per-layer metrics that are not span averages. (name, unit, better, moves)
LAYER_EXTRA = (
    ("siggraph.cycle_cache_hit_ratio", "ratio", "higher",
     "throughput_per_s on andnet3 against battery3; read after the untraced "
     "pass, since the replay looks up each table twice"),
    ("siggraph.cycle_cache_lookups", "count", "higher",
     "base of siggraph.cycle_cache_hit_ratio"),
    ("trace.overhead_frac", "ratio", "lower",
     "none: traced replay time per candidate over untraced, minus one"),
)


def layer_moves() -> dict[str, str]:
    """Per-layer metric name -> the end-to-end metric and workload it should move."""
    moves = {name: text for name, _, text in LAYER_SPANS.values()}
    moves.update((name, text) for name, _, _, text in LAYER_EXTRA)
    return moves


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name, unit, _ in LAYER_SPANS.values():
        out.append((name, unit, "lower"))
        out.append((f"{name}.calls", "count", "higher"))
    out.extend((name, unit, better) for name, unit, better, _ in LAYER_EXTRA)
    return out
