"""Command line interface.

Exit codes: 0 success, 2 usage or parse error, 3 width cap exceeded,
4 a verification sweep found counterexamples.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache, partial

from .dotfmt import digraph_dot, state_graph_dot
from .dynamics import (
    asynchronous_state_graph,
    attractors,
    strong_convergence,
    weak_convergence,
)
from .hypercube import FormatError, code_names, parse_point
from .network import (
    RANDOM_WIDTH_CAP,
    ParityClass,
    WidthCapError,
    check_width,
    default_components,
    eosd_class,
    fixed_point_codes,
    is_conjugate_bijective,
    is_non_expansive,
    is_self_dual,
    load_bn,
    parity_class,
    random_network,
    render_bn,
    table_eosd_class,
)
from .siggraph import (
    CircularForm,
    and_net,
    circular_network,
    counting_condition,
    delocalizing_vertices,
    detect_circular,
    enumerate_cycles,
    global_interaction_graph,
    is_chordless,
    load_sg,
    local_interaction_graph,
    shih_dong_condition,
)
from .subnetwork import (
    SubnetworkSpec,
    all_subnetworks_fixed_point_census,
    find_eosd_subnetwork,
    is_two_critical,
    is_zero_critical,
    item_fixed_point_counts,
    item_tables,
)
from .theorems import (
    AndNets,
    Circular,
    Exhaustive,
    NonExpansive,
    Sample,
    Subsets,
    TheoremId,
    open_question_search,
    sweep,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_COUNTEREXAMPLE = 4

# Widest network analyze and subnets accept: at width 10 analyze takes about
# 0.16-0.2 s and 22 MB on a 2-core host (10-11 ms of it reading and analysing
# the file, the rest interpreter start and imports), subnets about 1.6 s and 42 MB.
ANALYZE_WIDTH_CAP = 10
# Widest network graph accepts: for a random width-7 network it prints 166k
# lines in about 2 s and 80 MB, nearly all of them global cycles.
GRAPH_WIDTH_CAP = 7
# dynamics and export-dot take the gen --random cap, RANDOM_WIDTH_CAP: at width 16
# dynamics and --what gamma peak at 91 and 145 MB, --what gf and gfx at 31 MB each,
# and dynamics takes 1.1-1.5 s on a random network, nearly all of it printing arcs.


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _point_set_text(codes, names: tuple[str, ...]) -> str:
    return "{" + ",".join(map(names.__getitem__, sorted(codes))) + "}"


def _eosd_text(cls: ParityClass | None) -> str:
    if cls is None:
        return "none"
    return "EvenSelfDual" if cls is ParityClass.EVEN else "OddSelfDual"


def _cmd_analyze(args: argparse.Namespace) -> int:
    f = load_bn(args.network, ("analyze", ANALYZE_WIDTH_CAP))
    names = code_names(f.width)
    att_text = " ".join(_point_set_text(a.states, names) for a in attractors(f))
    form = detect_circular(f)
    witness = find_eosd_subnetwork(f)
    # the two walks stop at the first deciding subnetwork; no census is needed
    if is_two_critical(f):
        crit_text = "2-critical"
    elif is_zero_critical(f):
        crit_text = "0-critical"
    else:
        crit_text = "none"
    lines = {
        "attractors": att_text,
        "circular": "none" if form is None else ("positive" if form.sign == 1 else "negative"),
        "conjugate_bijective": _bool_text(is_conjugate_bijective(f)),
        "counting_condition": _bool_text(counting_condition(f)),
        "criticality": crit_text,
        "eosd_class": _eosd_text(eosd_class(f)),
        "eosd_subnetwork": "none" if witness is None else str(witness[0]),
        "fixed_points": _point_set_text(fixed_point_codes(f), names),
        "non_expansive": _bool_text(is_non_expansive(f)),
        "parity_class": parity_class(f).value,
        "self_dual": _bool_text(is_self_dual(f)),
        "shih_dong": _bool_text(shih_dong_condition(f)),
        "strong_convergence": _bool_text(strong_convergence(f)),
        "weak_convergence": _bool_text(weak_convergence(f)),
    }
    for key in sorted(lines):
        print(f"{key}: {lines[key]}")
    return EXIT_OK


def _cmd_subnets(args: argparse.Namespace) -> int:
    f = load_bn(args.network, ("subnets", ANALYZE_WIDTH_CAP))
    shown = 0
    items = item_tables(f, include_self=args.include_self)
    counts = item_fixed_point_counts(f, include_self=args.include_self)
    for (mask, code, table), count in zip(items, counts):
        cls = table_eosd_class(table)
        if args.eosd_only and cls is None:
            continue
        spec = SubnetworkSpec(f.components, mask, code)
        print(f"{spec} fixed_points={count} eosd={_eosd_text(cls)}")
        shown += 1
    lo, hi = all_subnetworks_fixed_point_census(f)
    print(f"census: min={lo} max={hi}")
    print(f"listed: {shown}")
    return EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> int:
    f = load_bn(args.network, ("graph", GRAPH_WIDTH_CAP))
    if args.at is not None:
        g = local_interaction_graph(f, parse_point(args.at, f.components))
    else:
        g = global_interaction_graph(f)
    for src, sign, dst in g.arc_list():
        print(f"{src} {'+' if sign == 1 else '-'} {dst}")
    # Chords and delocalizers depend on the vertex sequence alone, and the
    # cycles of one sequence come together, so each sequence is judged once.
    judged_for = None
    for cycle in enumerate_cycles(g):
        if cycle.vertices != judged_for:
            judged_for = cycle.vertices
            deloc = ",".join(delocalizing_vertices(g, cycle))
            judged = (
                f"chordless={_bool_text(is_chordless(g, cycle))} "
                f"delocalizing={{{deloc}}}"
            )
        sign = "positive" if cycle.sign == 1 else "negative"
        print(f"cycle {cycle} sign={sign} {judged}")
    return EXIT_OK


def _cmd_dynamics(args: argparse.Namespace) -> int:
    f = load_bn(args.network, ("dynamics", RANDOM_WIDTH_CAP))
    names = code_names(f.width)
    for src, dst in asynchronous_state_graph(f).arc_list():
        print(f"{names[src]} -> {names[dst]}")
    for a in attractors(f):
        kind = "cyclic" if a.cyclic else "punctual"
        print(f"attractor {_point_set_text(a.states, names)} {kind}")
    print(f"weak_convergence: {_bool_text(weak_convergence(f))}")
    print(f"strong_convergence: {_bool_text(strong_convergence(f))}")
    return EXIT_OK


def _build_generator(args: argparse.Namespace, for_lemma1: bool):
    if args.mode == "exhaustive":
        return Subsets(args.n) if for_lemma1 else Exhaustive(args.n)
    if for_lemma1:
        raise FormatError("LEMMA1_HYPERCUBE supports only --mode exhaustive")
    if args.mode == "sample":
        if args.seed is None:
            raise FormatError("--mode sample requires --seed")
        return Sample(args.n, args.count, args.seed)
    if args.family == "andnets":
        return AndNets(args.n)
    if args.family == "circular":
        return Circular(args.n)
    if args.family == "nonexpansive":
        return NonExpansive(args.n)
    raise FormatError("--mode family requires --family andnets|circular|nonexpansive")


def _cmd_verify(args: argparse.Namespace) -> int:
    generator = _build_generator(args, args.theorem == TheoremId.LEMMA1_HYPERCUBE.name)
    report = sweep(args.theorem, generator, jobs=args.jobs)
    sys.stdout.write(report.text())
    return EXIT_COUNTEREXAMPLE if report.counterexample_count else EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    generator = _build_generator(args, for_lemma1=False)
    report = open_question_search(
        args.question, generator, budget=args.budget, jobs=args.jobs
    )
    sys.stdout.write(report.text())
    return EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    what = args.what[0]
    if what not in ("gf", "gfx", "gamma"):
        raise FormatError("--what must be gf, gfx <point>, or gamma")
    if what == "gfx" and len(args.what) != 2:
        raise FormatError("--what gfx needs a point, e.g. --what gfx 010")
    if what != "gfx" and len(args.what) != 1:
        raise FormatError(f"--what {what} takes no point argument")
    if args.input.endswith(".sg"):
        if what != "gf":
            raise FormatError("graph files support only --what gf")
        text = digraph_dot(load_sg(args.input))
    else:
        f = load_bn(args.input, (f"export-dot --what {what}", RANDOM_WIDTH_CAP))
        if what == "gf":
            text = digraph_dot(global_interaction_graph(f))
        elif what == "gfx":
            x = parse_point(args.what[1], f.components)
            text = digraph_dot(local_interaction_graph(f, x))
        else:
            text = state_graph_dot(asynchronous_state_graph(f))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    chosen = [
        name
        for name, value in (
            ("--circular", args.circular),
            ("--andnet", args.andnet),
            ("--random", args.random),
        )
        if value
    ]
    if len(chosen) != 1:
        raise FormatError("gen needs exactly one of --circular, --andnet, --random")
    if args.circular:
        n_text, signs = args.circular
        try:
            n = int(n_text)
        except ValueError:
            raise FormatError(f"bad width {n_text!r}") from None
        if n < 1 or len(signs) != n or any(ch not in "+-" for ch in signs):
            raise FormatError("--circular needs a width n and a +/- string of length n")
        check_width("gen --circular", n, RANDOM_WIDTH_CAP)
        # the canonical cycle 1 -> 2 -> ... -> n -> 1; signs[k] is the sign of
        # the arc entering component k+1
        pred = tuple((i - 1) % n for i in range(n))
        constant = sum(1 << i for i, ch in enumerate(signs) if ch == "-")
        f = circular_network(CircularForm(default_components(n), pred, constant))
    elif args.andnet:
        g = load_sg(args.andnet)
        check_width("gen --andnet", len(g.vertices), RANDOM_WIDTH_CAP)
        f = and_net(g)
    else:
        n_text, seed_text = args.random
        try:
            n = int(n_text)
            seed = int(seed_text)
        except ValueError:
            raise FormatError("--random needs integer width and seed") from None
        if n < 1:
            raise FormatError(f"--random needs a width of at least 1, got {n}")
        f = random_network(n, seed)
    sys.stdout.write(render_bn(f))
    return EXIT_OK


def _network_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("network")


def _subnets_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("network")
    p.add_argument("--include-self", action="store_true")
    p.add_argument("--eosd-only", action="store_true")


def _graph_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("network")
    p.add_argument("--at", help="point for the local graph, e.g. 010")


def _stream_arguments(p: argparse.ArgumentParser, key: str) -> None:
    p.add_argument(key, required=True)
    p.add_argument("--mode", required=True, choices=["exhaustive", "sample", "family"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int)
    p.add_argument("--family", choices=["andnets", "circular", "nonexpansive"])
    if key == "--question":
        p.add_argument("--budget", type=int)
    p.add_argument("--jobs", type=int, default=1)


_theorem_arguments = partial(_stream_arguments, key="--theorem")
_question_arguments = partial(_stream_arguments, key="--question")


def _export_dot_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="a .bn network or .sg graph file")
    p.add_argument("--what", required=True, nargs="+", help="gf | gfx <point> | gamma")
    p.add_argument("--out", required=True)


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--circular", nargs=2, metavar=("N", "SIGNS"))
    p.add_argument("--andnet", metavar="GRAPH.sg")
    p.add_argument("--random", nargs=2, metavar=("N", "SEED"))


# each subcommand, in help order: its help text, its run function and what adds
# its arguments to its subparser
_COMMANDS = {
    "analyze": ("classify a network from a .bn file", _cmd_analyze, _network_argument),
    "subnets": ("list subnetworks with fixed-point counts", _cmd_subnets, _subnets_arguments),
    "graph": ("print the interaction graph and its cycles", _cmd_graph, _graph_arguments),
    "dynamics": ("print the state graph and attractors", _cmd_dynamics, _network_argument),
    "verify": ("sweep a theorem over a candidate stream", _cmd_verify, _theorem_arguments),
    "search": ("search an open question for discoveries", _cmd_search, _question_arguments),
    "export-dot": ("write a graph in DOT format", _cmd_export_dot, _export_dot_arguments),
    "gen": ("emit a canonical .bn table", _cmd_gen, _gen_arguments),
}


# built on first use, not at import, and reused: parse_args leaves the parser
# unchanged and returns a fresh Namespace
@lru_cache(maxsize=None)
def _parser(command: str | None) -> argparse.ArgumentParser:
    """The top-level parser with command's subparser alone, or with all of them
    for None.  A one-command tree still names every command in its usage line,
    which errors such as "unrecognized arguments" print; the full tree needs no
    metavar, and its "required" error names the dest, command."""
    parser = argparse.ArgumentParser(
        prog="boolcube",
        description="Boolean networks: fixed points, subnetworks, dynamics, theorem sweeps.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    commands = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, run, add_arguments = _COMMANDS[name]
        p = commands.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command, building only its parser.  Words that do not start with
    a command (none, help, an unknown command) go to the full tree."""
    words = sys.argv[1:] if argv is None else argv
    command = words[0] if words and words[0] in _COMMANDS else None
    args = _parser(command).parse_args(words)
    try:
        return args.run(args)
    except WidthCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
