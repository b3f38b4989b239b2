import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
from boolcube import (
    ParityClass,
    all_subnetworks_fixed_point_census,
    delocalizing_vertices,
    enumerate_cycles,
    eosd_class,
    global_interaction_graph,
    is_chordless,
    load_bn,
    local_interaction_graph,
    random_network,
    render_bn,
    subnetworks,
)
from boolcube import cli, network, siggraph, subnetwork
from boolcube.hypercube import format_code, parse_point
from boolcube.network import fixed_point_codes
from boolcube.cli import main
from boolcube.dotfmt import digraph_dot

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
EX1 = str(DATA / "example1.bn")

ANALYZE_EX1 = """\
attractors: {000}
circular: none
conjugate_bijective: true
counting_condition: true
criticality: none
eosd_class: none
eosd_subnetwork: none
fixed_points: {000}
non_expansive: false
parity_class: Neither
self_dual: false
shih_dong: false
strong_convergence: false
weak_convergence: true
"""

GRAPH_EX1 = """\
1 + 2
1 - 3
2 - 1
2 + 3
3 + 1
3 - 2
cycle (1 + 2 -) sign=negative chordless=true delocalizing={3}
cycle (1 - 3 +) sign=negative chordless=true delocalizing={2}
cycle (2 + 3 -) sign=negative chordless=true delocalizing={1}
cycle (1 + 2 + 3 +) sign=positive chordless=false delocalizing={1,2,3}
cycle (1 - 3 - 2 -) sign=negative chordless=false delocalizing={1,2,3}
"""

DYNAMICS_EX1 = """\
100 -> 000
100 -> 110
010 -> 000
010 -> 011
110 -> 010
001 -> 000
001 -> 101
101 -> 100
011 -> 001
111 -> 110
111 -> 101
111 -> 011
attractor {000} punctual
weak_convergence: true
strong_convergence: false
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_worked_example(capsys):
    code, out, _ = run(capsys, "analyze", EX1)
    assert code == 0
    assert out == ANALYZE_EX1


def test_analyze_classifies_the_fixtures(capsys):
    _, out, _ = run(capsys, "analyze", str(DATA / "crit2.bn"))
    assert "criticality: 2-critical" in out
    assert "eosd_class: none" in out
    assert "fixed_points: {000,111}" in out

    _, out, _ = run(capsys, "analyze", str(DATA / "crit0.bn"))
    assert "criticality: 0-critical" in out
    assert "eosd_class: none" in out
    assert "fixed_points: {}" in out

    _, out, _ = run(capsys, "analyze", str(DATA / "esd4.bn"))
    assert "criticality: 2-critical" in out
    assert "eosd_class: EvenSelfDual" in out
    assert "circular: none" in out


def test_subnets_worked_example(capsys):
    code, out, _ = run(capsys, "subnets", EX1)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "I={1} z[2]=0 z[3]=0 fixed_points=1 eosd=none"
    assert lines[-2] == "census: min=1 max=1"
    assert lines[-1] == "listed: 18"
    assert sum("fixed_points=1" in line for line in lines) == 18


def test_subnets_eosd_filter(capsys):
    code, out, _ = run(capsys, "subnets", str(DATA / "esd4.bn"), "--eosd-only")
    assert code == 0
    assert out == "census: min=1 max=2\nlisted: 0\n"
    code, out, _ = run(
        capsys, "subnets", str(DATA / "esd4.bn"), "--eosd-only", "--include-self"
    )
    assert out.splitlines()[0] == "I={1,2,3,4} fixed_points=2 eosd=EvenSelfDual"
    assert out.splitlines()[-1] == "listed: 1"


def test_subnets_lists_what_the_subnetwork_api_builds(tmp_path, capsys):
    """subnets reads tables and counts from the plan; each line matches the
    BooleanNetwork that subnetworks() builds for the same item."""
    f = random_network(4, 7)
    path = tmp_path / "w4.bn"
    path.write_text(render_bn(f), encoding="utf-8")
    names = {None: "none", ParityClass.EVEN: "EvenSelfDual", ParityClass.ODD: "OddSelfDual"}
    for flags in ((), ("--include-self",), ("--eosd-only", "--include-self")):
        code, out, _ = run(capsys, "subnets", str(path), *flags)
        assert code == 0
        expected = [
            f"{spec} fixed_points={len(fixed_point_codes(g))} eosd={names[eosd_class(g)]}"
            for spec, g in subnetworks(f, include_self="--include-self" in flags)
            if "--eosd-only" not in flags or eosd_class(g) is not None
        ]
        lo, hi = all_subnetworks_fixed_point_census(f)
        expected += [f"census: min={lo} max={hi}", f"listed: {len(expected)}"]
        assert out.splitlines() == expected


# sha256 of subnets' output per (network, flags), recorded before the sub-tables
# were built one mask at a time; the random network is `gen --random 6 1`
SUBNETS_DIGESTS = {
    ("esd4", ()): "bee965ad1cbf60f9696bb4231bbece8d0ac95fa44b5321bc4d65f4629623c875",
    ("esd4", ("--include-self",)): (
        "8018e43e015848599f8270f76968a5ab3f255d07f3440a892aa589e5313c9203"
    ),
    ("esd4", ("--eosd-only", "--include-self")): (
        "221ea96f0179c543eb2a0f073b48ece93689cd6e6d152275d3e12a9fcfb0d87d"
    ),
    ("w6", ()): "65b3c9109b1f4df82f4b65420b7ccef64fc988cf5d7981283196c94cee402d9a",
    ("w6", ("--include-self",)): (
        "e727a1c5a1f4e2343638477205a0d7b0d0d367f1869ffbad02d6710a6977a596"
    ),
    ("w6", ("--eosd-only", "--include-self")): (
        "2e790bdc3ee4f6240ed9c249ce93f65c5f90a7800e377e54a3fa515bbd8bf3a2"
    ),
}


def test_subnets_output_is_pinned(tmp_path, capsys):
    """subnets prints the same bytes, per flag set, as when each sub-table was
    built item by item."""
    code, out, _ = run(capsys, "gen", "--random", "6", "1")
    assert code == 0
    paths = {"esd4": DATA / "esd4.bn", "w6": tmp_path / "w6.bn"}
    paths["w6"].write_text(out, encoding="utf-8")
    for (name, flags), digest in SUBNETS_DIGESTS.items():
        code, out, _ = run(capsys, "subnets", str(paths[name]), *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, flags)


def test_graph_worked_example(capsys):
    code, out, _ = run(capsys, "graph", EX1)
    assert code == 0
    assert out == GRAPH_EX1


def test_graph_at_point(capsys):
    code, out, _ = run(capsys, "graph", EX1, "--at", "000")
    assert code == 0
    assert out == (
        "1 + 2\n2 + 3\n3 + 1\n"
        "cycle (1 + 2 + 3 +) sign=positive chordless=true delocalizing={}\n"
    )


def test_dynamics_worked_example(capsys):
    code, out, _ = run(capsys, "dynamics", EX1)
    assert code == 0
    assert out == DYNAMICS_EX1


def test_verify_exhaustive(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "MAIN_EOSD", "--mode", "exhaustive", "--n", "2"
    )
    assert code == 0
    assert "candidates=256" in out
    assert "counterexamples=0" in out
    assert "generator=exhaustive(n=2)" in out
    assert "wall_time_s=" in out


def test_verify_lemma1_uses_subsets(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--theorem",
        "LEMMA1_HYPERCUBE",
        "--mode",
        "exhaustive",
        "--n",
        "3",
    )
    assert code == 0
    assert "generator=subsets(n=3)" in out
    assert "confirmed=2" in out


def test_verify_family(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--theorem",
        "ANDNET_2CRITICAL",
        "--mode",
        "family",
        "--family",
        "andnets",
        "--n",
        "2",
    )
    assert code == 0
    assert "candidates=81" in out
    assert "counterexamples=0" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--theorem", "NO_SUCH", "--mode", "exhaustive", "--n", "2"),
        ("verify", "--theorem", "ROBERT", "--mode", "sample", "--n", "2"),
        ("verify", "--theorem", "ROBERT", "--mode", "family", "--n", "2"),
        ("verify", "--theorem", "LEMMA1_HYPERCUBE", "--mode", "sample", "--n", "2", "--seed", "1"),
        ("search", "--question", "Q9", "--mode", "exhaustive", "--n", "2"),
        ("analyze", str(DATA / "missing.bn")),
        ("gen",),
        ("gen", "--circular", "3", "++", "--random", "1", "2"),
        ("gen", "--circular", "x", "++"),
        ("gen", "--circular", "2", "+*"),
        ("export-dot", "--input", EX1, "--what", "gfx", "--out", "/tmp/x.dot"),
        ("export-dot", "--input", EX1, "--what", "gf", "000", "--out", "/tmp/x.dot"),
        ("export-dot", "--input", EX1, "--what", "nope", "--out", "/tmp/x.dot"),
        ("export-dot", "--input", str(DATA / "example1.sg"), "--what", "gamma", "--out", "/tmp/x.dot"),
        ("verify", "--theorem", "ROBERT", "--mode", "exhaustive", "--n", "2", "--jobs", "0"),
        ("search", "--question", "Q1_NEG_LOCAL_CYCLES", "--mode", "exhaustive", "--n", "2", "--jobs", "0"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "--theorem", "MAIN_EOSD", "--mode", "sample", "--n", "3",
          "--count", "-5", "--seed", "1"), "--count must be at least 0, got -5"),
        (("search", "--question", "Q1_NEG_LOCAL_CYCLES", "--mode", "sample", "--n", "3",
          "--count", "-1", "--seed", "1"), "--count must be at least 0, got -1"),
        (("search", "--question", "Q1_NEG_LOCAL_CYCLES", "--mode", "sample", "--n", "3",
          "--seed", "1", "--budget", "-1"), "--budget must be at least 0, got -1"),
        (("verify", "--theorem", "ROBERT", "--mode", "exhaustive", "--n", "0"),
         "--n must be at least 1, got 0"),
        (("verify", "--theorem", "ROBERT", "--mode", "sample", "--n", "-2", "--seed", "1"),
         "--n must be at least 1, got -2"),
        (("verify", "--theorem", "ROBERT", "--mode", "family", "--family", "andnets",
          "--n", "0"), "--n must be at least 1, got 0"),
        (("verify", "--theorem", "ROBERT", "--mode", "family", "--family", "circular",
          "--n", "0"), "--n must be at least 1, got 0"),
        (("verify", "--theorem", "ROBERT", "--mode", "family", "--family", "circular",
          "--n", "-2"), "--n must be at least 1, got -2"),
        (("verify", "--theorem", "ROBERT", "--mode", "family", "--family",
          "nonexpansive", "--n", "0", "--seed", "1"), "--n must be at least 1, got 0"),
        (("verify", "--theorem", "LEMMA1_HYPERCUBE", "--mode", "exhaustive", "--n", "0"),
         "--n must be at least 1, got 0"),
        (("search", "--question", "Q2_0CRITICAL_ANDNET", "--mode", "family", "--family",
          "andnets", "--n", "-1"), "--n must be at least 1, got -1"),
        (("gen", "--random", "-1", "5"), "--random needs a width of at least 1, got -1"),
        (("gen", "--random", "0", "5"), "--random needs a width of at least 1, got 0"),
        (("gen", "--random", "x", "1"), "--random needs integer width and seed"),
        # the count is checked before the width cap: --count 5 at width 17 exits 3
        (("verify", "--theorem", "ROBERT", "--mode", "sample", "--n", "17",
          "--count", "-1", "--seed", "1"), "--count must be at least 0, got -1"),
    ],
)
def test_negative_counts_budgets_and_widths_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "--theorem", "NO_SUCH", "--mode", "exhaustive", "--n", "2"),
         "unknown theorem 'NO_SUCH'; known: ROBERT, ARACENA_POS, ARACENA_NEG, "
         "DICHOTOMY_UNIQUE, DICHOTOMY_EXIST, RICHARD2010, SHIH_DONG, REMY_RUET_THIEFFRY, "
         "RICHARD2011, MAIN_EOSD, COR_COUNTING, COR_GEODESIC, THM_CIRCULAR_EOSD, "
         "THM_CRITICAL_NONEXP, COR_NONEXP_DICHOTOMY, COR_COUNTING_SIGNED, ANDNET_2CRITICAL, "
         "ANDNET_CHORDLESS, LEMMA1_HYPERCUBE, PROP_ODD_OUTDEGREE, PROP_CRITICAL_DYNAMICS, "
         "PROP_MINIMAL_FORBIDDEN, DICHOTOMY_UNIQUE_WEAK, COR11_EQUIVALENCE, "
         "DYNAMICS_ISOMORPHISM, LOCAL_SUBGRAPH_CONTAINMENT, EOSD_ANDNET_CIRCULAR, "
         "CHORDLESS_LOCAL_CYCLE_CIRCULAR, CIRCULAR_SUBNETWORK_CRITERION"),
        (("search", "--question", "Q9", "--mode", "exhaustive", "--n", "2"),
         "unknown question 'Q9'; known: Q1_NEG_LOCAL_CYCLES, Q2_0CRITICAL_ANDNET, "
         "Q3_ANDNET_NO_NEG_CIRCULAR_SUB"),
    ],
)
def test_unknown_keys_list_the_known_ones(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_zero_count_and_budget_are_empty_runs(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "MAIN_EOSD", "--mode", "sample", "--n", "3",
        "--count", "0", "--seed", "1",
    )
    assert code == 0
    assert "candidates=0" in out
    code, out, _ = run(
        capsys, "search", "--question", "Q1_NEG_LOCAL_CYCLES", "--mode", "sample",
        "--n", "3", "--seed", "1", "--budget", "0",
    )
    assert code == 0
    assert "examined=0" in out


def test_width_cap_exits_3(capsys):
    code, _, err = run(
        capsys, "verify", "--theorem", "ROBERT", "--mode", "exhaustive", "--n", "4"
    )
    assert code == 3
    assert "error:" in err
    code, out, err = run(
        capsys, "verify", "--theorem", "COR_NONEXP_DICHOTOMY", "--mode", "family",
        "--family", "nonexpansive", "--n", "4",
    )
    assert (code, out) == (3, "")
    assert err == "error: the non-expansive family is capped at width 3, got 4\n"


def test_gen_random_width_cap_exits_3(capsys):
    code, out, err = run(capsys, "gen", "--random", "17", "1")
    assert code == 3
    assert out == ""
    assert "capped at width 16" in err


# analyze on random_network(10, 0), recorded with the cycle-enumerating
# counting_condition (29 s and 1 GB on a 2-core host).
ANALYZE_W10_SEED0 = """\
attractors: {0001111100} {1001100111}
circular: none
conjugate_bijective: false
counting_condition: false
criticality: none
eosd_class: none
eosd_subnetwork: I={1} z[2]=0 z[3]=0 z[4]=0 z[5]=0 z[6]=0 z[7]=0 z[8]=0 z[9]=0 z[10]=1
fixed_points: {0001111100,1001100111}
non_expansive: false
parity_class: Neither
self_dual: false
shih_dong: false
strong_convergence: false
weak_convergence: false
"""


def test_analyze_at_the_width_cap(tmp_path, capsys):
    path = tmp_path / "w10.bn"
    path.write_text(render_bn(random_network(10, 0)), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert out == ANALYZE_W10_SEED0


# sha256 of analyze's output on the constant width-10 network, every entry 0,
# recorded while the EOSD search still built and classified every item's
# table: no subnetwork of it is even- or odd-self-dual, so the search tests
# every mask
ANALYZE_W10_CONSTANT_SHA256 = "ac1c77b51cec49426277fe4ec64f7a922e2cce58147f7026b14b22449c2e8189"


def test_analyze_of_the_constant_network_at_the_width_cap_is_pinned(tmp_path, capsys):
    path = tmp_path / "c10.bn"
    path.write_text(render_bn(oracles.constant_network(10, 0)), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "eosd_subnetwork: none\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_W10_CONSTANT_SHA256


def test_graph_judges_each_cycle_like_the_graph_api(tmp_path, capsys):
    """graph judges chords and delocalizers once per vertex sequence; the
    lines match is_chordless and delocalizing_vertices cycle by cycle."""
    f = random_network(5, 3)
    path = tmp_path / "w5.bn"
    path.write_text(render_bn(f), encoding="utf-8")
    for at in ("01101", None):
        if at is None:
            g = global_interaction_graph(f)
            code, out, _ = run(capsys, "graph", str(path))
        else:
            g = local_interaction_graph(f, parse_point(at, f.components))
            code, out, _ = run(capsys, "graph", str(path), "--at", at)
        assert code == 0
        cycles = enumerate_cycles(g)
        expected = [
            f"cycle {c} sign={'positive' if c.sign == 1 else 'negative'} "
            f"chordless={'true' if is_chordless(g, c) else 'false'} "
            f"delocalizing={{{','.join(delocalizing_vertices(g, c))}}}"
            for c in cycles
        ]
        assert out.splitlines()[len(g.arcs):] == expected
    # The global graph has sequences shared by several signed cycles.
    assert len({c.vertices for c in cycles}) < len(cycles)


def test_analyze_width_cap_exits_3(tmp_path, capsys):
    path = tmp_path / "wide.bn"
    path.write_text(render_bn(random_network(11, 0)), encoding="utf-8")
    started = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(path))
    assert time.perf_counter() - started < 30
    assert code == 3
    assert out == ""
    assert "capped at width 10" in err


@pytest.mark.parametrize(
    "command, width, cap",
    [
        (("graph",), 8, 7),
        (("graph", "--at", "0" * 8), 8, 7),
        (("subnets",), 11, 10),
        (("gen", "--andnet"), 17, 16),
        (("gen", "--circular"), 22, 16),
        (("dynamics",), 17, 16),
        (("export-dot", "--what", "gamma", "--input"), 17, 16),
        (("export-dot", "--what", "gf", "--input"), 17, 16),
        (("export-dot", "--what", "gfx", "0" * 17, "--input"), 17, 16),
    ],
)
def test_per_file_width_caps_exit_3(tmp_path, capsys, command, width, cap):
    dot = tmp_path / "gamma.dot"
    if command == ("gen", "--circular"):
        args = (str(width), "+" * width)
    elif command[0] == "gen":
        path = tmp_path / "ring.sg"
        labels = [f"v{k}" for k in range(width)]
        lines = ["vertices " + " ".join(labels)]
        lines += [f"{labels[k - 1]} + {labels[k]}" for k in range(width)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = (str(path),)
    else:
        path = tmp_path / "wide.bn"
        # random networks stop at width 16, the widest file gen writes
        f = random_network(width, 0) if width <= 16 else oracles.identity_network(width)
        path.write_text(render_bn(f), encoding="utf-8")
        args = (str(path),)
        if command[0] == "export-dot":
            args += ("--out", str(dot))
    started = time.perf_counter()
    code, out, err = run(capsys, *command, *args)
    assert time.perf_counter() - started < 30
    assert code == 3
    assert out == ""
    assert f"is capped at width {cap}, got {width}" in err
    assert not dot.exists()


@pytest.mark.parametrize(
    "command, what, cap",
    [
        (("analyze",), "analyze", 10),
        (("subnets",), "subnets", 10),
        (("graph",), "graph", 7),
        (("dynamics",), "dynamics", 16),
        (("export-dot", "--what", "gamma", "--input"), "export-dot --what gamma", 16),
        (("export-dot", "--what", "gf", "--input"), "export-dot --what gf", 16),
        (("export-dot", "--what", "gfx", "0" * 17, "--input"), "export-dot --what gfx", 16),
    ],
)
def test_width_cap_is_read_from_the_header(tmp_path, capsys, command, what, cap):
    """The cap is checked on the components line, before any row is parsed:
    a too-wide header over malformed rows exits 3, not 2."""
    path = tmp_path / "wide.bn"
    labels = " ".join(f"v{k}" for k in range(cap + 1))
    path.write_text(f"# too wide\ncomponents {labels}\nnot a row\n", encoding="utf-8")
    args = (str(path),)
    if command[0] == "export-dot":
        args += ("--out", str(tmp_path / "gamma.dot"))
    code, out, err = run(capsys, *command, *args)
    assert (code, out) == (3, "")
    assert err == f"error: {what} is capped at width {cap}, got {cap + 1}\n"


def test_analyze_builds_no_global_rows(tmp_path, capsys, monkeypatch):
    """Circular detection reads literal bitsets, so analyze never builds the
    global interaction graph's rows."""
    calls = []
    build = siggraph.bitset_global_rows

    def counting(n, ones):
        calls.append(n)
        return build(n, ones)

    monkeypatch.setattr(siggraph, "bitset_global_rows", counting)
    path = tmp_path / "w8.bn"
    path.write_text(render_bn(random_network(8, 0)), encoding="utf-8")
    code, _, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert calls == []


def test_analyze_builds_the_conjugate_image_once(tmp_path, capsys, monkeypatch):
    """eosd_class reads the parity_class memo, so analyze runs table_parity on
    the full table once; sub-tables of the EOSD search may add calls of their own."""
    calls = []
    build = network.table_parity

    def counting(table):
        calls.append(len(table))
        return build(table)

    monkeypatch.setattr(network, "table_parity", counting)
    path = tmp_path / "w8.bn"
    path.write_text(render_bn(random_network(8, 0)), encoding="utf-8")
    code, _, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert calls.count(256) == 1


def test_malformed_code_exits_2(tmp_path, capsys):
    """int(text, 2) would read 1_0 as 2; the row is rejected before that."""
    path = tmp_path / "bad.bn"
    rows = [f"{format_code(x, 3)} -> 000" for x in range(1, 8)]
    path.write_text("components a b c\n1_0 -> 000\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == "error: expected 3 bits, got '1_0'\n"


def test_parser_is_built_once_and_reused(capsys):
    assert cli._parser("analyze") is cli._parser("analyze")
    assert cli._parser(None) is cli._parser(None)
    first = run(capsys, "analyze", EX1)
    assert first[0] == 0
    assert run(capsys, "analyze", EX1) == first
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2
    usage = capsys.readouterr()
    assert run(capsys, "analyze", EX1) == first
    cli._parser.cache_clear()
    with pytest.raises(SystemExit):
        main(["analyze"])
    assert capsys.readouterr() == usage
    cli._parser.cache_clear()
    assert run(capsys, "analyze", EX1) == first


LAZY_PARSER_ARGVS = [
    (),
    ("-h",),
    ("--help",),
    ("bogus",),
    *((command, "-h") for command in cli._COMMANDS),
    # required arguments missing; gen has none, so it parses and runs
    *((command,) for command in cli._COMMANDS),
    ("verify", "--theorem", "ROBERT"),
    # the top-level usage line, which a one-command tree must print as the full one
    ("analyze", EX1, "extra"),
    ("verify", "--theorem", "ROBERT", "--mode", "nope", "--n", "2"),
    ("analyze", EX1),
    ("search", "--question", "Q1_NEG_LOCAL_CYCLES", "--mode", "sample", "--n", "2",
     "--seed", "1", "--budget", "3"),
]


def _parse_outcome(capsys, call):
    """(exit code, or None when call returns; stdout; stderr)."""
    try:
        call()
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv", LAZY_PARSER_ARGVS, ids=lambda argv: " ".join(argv).replace(EX1, "example1.bn") or "-"
)
def test_lazy_parser_matches_the_full_tree(capsys, monkeypatch, argv):
    """main parses with the named command's parser alone, yet exits with the
    full tree's code, stdout and stderr, or runs on the Namespace it gives."""
    parsed = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording_parse_args(self, *args, **kwargs):
        parsed.append(parse_args(self, *args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
    lazy = _parse_outcome(capsys, lambda: main(list(argv)))
    full = _parse_outcome(capsys, lambda: cli._parser(None).parse_args(list(argv)))
    if full[0] is None:
        assert lazy[0] is None
        assert len(parsed) == 2 and parsed[0] == parsed[1]
    else:
        assert lazy == full


def test_a_command_builds_only_its_own_subparser(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def recording_add_parser(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording_add_parser)
    cli._parser.cache_clear()
    try:
        assert run(capsys, "analyze", EX1) == (0, ANALYZE_EX1, "")
        assert built == ["analyze"]
        with pytest.raises(SystemExit):
            main(["--help"])
        assert built == ["analyze", *cli._COMMANDS]
        assert len(cli._COMMANDS) == 8
    finally:
        cli._parser.cache_clear()


def test_gfx_builds_no_local_rows_memo(tmp_path, capsys, monkeypatch):
    """export-dot --what gfx builds the local graph of its one point, never
    the local rows of every point."""
    calls = []
    build = siggraph.local_rows

    def counting(f):
        calls.append(f.width)
        return build(f)

    monkeypatch.setattr(siggraph, "local_rows", counting)
    f = random_network(8, 0)
    path = tmp_path / "w8.bn"
    path.write_text(render_bn(f), encoding="utf-8")
    out = tmp_path / "gfx.dot"
    code, _, _ = run(
        capsys, "export-dot", "--input", str(path), "--what", "gfx", "01101001", "--out", str(out)
    )
    assert code == 0
    assert calls == []
    x = parse_point("01101001", f.components)
    assert out.read_text(encoding="utf-8") == digraph_dot(local_interaction_graph(f, x))


def test_analyze_builds_no_local_rows_memo(tmp_path, capsys, monkeypatch):
    """analyze reads the girth kernel for shih_dong and counting_condition,
    never the local rows of every point."""
    calls = []
    build = siggraph.local_rows

    def counting(f):
        calls.append(f.width)
        return build(f)

    monkeypatch.setattr(siggraph, "local_rows", counting)
    f = random_network(8, 0)
    path = tmp_path / "w8.bn"
    path.write_text(render_bn(f), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert calls == []
    assert f"counting_condition: {str(oracles.counting_condition(f)).lower()}\n" in out
    assert f"shih_dong: {str(oracles.shih_dong_condition(f)).lower()}\n" in out


def test_analyze_builds_few_mask_records(tmp_path, capsys):
    """analyze's subnetwork walks stop at the first deciding subnetwork, so
    they build the records of the free masks they reach, not of all 2^8 - 1."""
    f = random_network(8, 0)
    path = tmp_path / "w8.bn"
    path.write_text(render_bn(f), encoding="utf-8")
    records = subnetwork.subnetwork_plan(8).records
    records.clear()
    code, _, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert 0 < len(records) < (1 << 8) - 1


def test_search_examines_every_non_expansive_network(capsys):
    """The family lists all 84 width-2 networks; --count and --seed are not
    read for it, a negative count included."""
    argv = ("search", "--question", "Q1_NEG_LOCAL_CYCLES", "--mode", "family",
            "--family", "nonexpansive", "--n", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "examined=84\n" in out
    assert "note." not in out
    canonical = out.split("wall_time_s=")[0]
    for extra in (("--count", "200", "--seed", "1"), ("--count", "-1")):
        code, other, _ = run(capsys, *argv, *extra)
        assert (code, other.split("wall_time_s=")[0]) == (0, canonical)


def test_search_reports_no_discoveries(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--question",
        "Q2_0CRITICAL_ANDNET",
        "--mode",
        "family",
        "--family",
        "andnets",
        "--n",
        "2",
    )
    assert code == 0
    assert "hypothesis_hits=2" in out
    assert "discoveries=0" in out


def test_search_budget(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--question",
        "Q1_NEG_LOCAL_CYCLES",
        "--mode",
        "exhaustive",
        "--n",
        "2",
        "--budget",
        "10",
    )
    assert code == 0
    assert "examined=10" in out


def test_export_dot_outputs(tmp_path, capsys):
    gf = tmp_path / "gf.dot"
    code, _, _ = run(capsys, "export-dot", "--input", EX1, "--what", "gf", "--out", str(gf))
    assert code == 0
    text = gf.read_text()
    oracles.validate_dot(text)
    assert text.startswith("digraph interaction {")
    assert '"1" -> "2" [arrowhead=normal];' in text
    assert '"1" -> "3" [arrowhead=tee, sign="-"];' in text

    gamma = tmp_path / "gamma.dot"
    run(capsys, "export-dot", "--input", EX1, "--what", "gamma", "--out", str(gamma))
    text = gamma.read_text()
    oracles.validate_dot(text)
    assert text.startswith("digraph dynamics {")
    assert '"000" [shape=doublecircle];' in text
    assert text.count("doublecircle") == 1

    local = tmp_path / "local.dot"
    run(capsys, "export-dot", "--input", EX1, "--what", "gfx", "000", "--out", str(local))
    text = local.read_text()
    oracles.validate_dot(text)
    assert "tee" not in text  # all three local arcs at 000 are positive

    from_graph = tmp_path / "from_graph.dot"
    code, _, _ = run(
        capsys,
        "export-dot",
        "--input",
        str(DATA / "example1.sg"),
        "--what",
        "gf",
        "--out",
        str(from_graph),
    )
    assert code == 0
    assert from_graph.read_text() == gf.read_text()


def test_gen_random_is_reproducible(capsys):
    code, out, _ = run(capsys, "gen", "--random", "2", "42")
    assert code == 0
    assert out == "components 1 2\n00 -> 11\n10 -> 00\n01 -> 01\n11 -> 01\n"
    _, again, _ = run(capsys, "gen", "--random", "2", "42")
    assert again == out


def test_gen_circular(capsys):
    code, out, _ = run(capsys, "gen", "--circular", "3", "+--")
    assert code == 0
    assert "010 -> 010" in out and "101 -> 101" in out  # positive form, two fixed points
    code, out, _ = run(capsys, "gen", "--circular", "3", "+-+")
    assert code == 0
    assert "->" in out and not any(
        line.split(" -> ")[0] == line.split(" -> ")[1].rstrip()
        for line in out.splitlines()[1:]
    )


def test_gen_andnet_matches_worked_example(capsys):
    code, out, _ = run(capsys, "gen", "--andnet", str(DATA / "example1.sg"))
    assert code == 0
    assert out == render_bn(load_bn(EX1))


def test_console_entry_points():
    # Subprocesses import this checkout's sources, not another installed copy.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    module = subprocess.run(
        [sys.executable, "-m", "boolcube", "analyze", EX1],
        capture_output=True,
        text=True,
        env=env,
    )
    assert module.returncode == 0
    assert module.stdout == ANALYZE_EX1
    # The console script exists only once the package is installed, so run
    # the target that pyproject.toml declares for it, as its wrapper would.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["boolcube"]
    target_module, target_attr = target.split(":")
    wrapper = (
        "import sys; sys.argv[0] = 'boolcube'; "
        f"from {target_module} import {target_attr}; sys.exit({target_attr}())"
    )
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("boolcube")
    if installed:
        commands.append([installed])
    for command in commands:
        result = subprocess.run(
            command + ["analyze", EX1], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0
        assert result.stdout == ANALYZE_EX1
