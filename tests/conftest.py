"""Shared pytest hooks: one summary line per acceptance criterion."""

import re

LABELS = {
    1: "worked example reproduced exactly",
    2: "exhaustive width <= 2, criterion-2 theorem set",
    3: "hypercube subset lemma, all subsets width <= 4",
    4: "and-net family on 3 vertices + Q2 search",
    5: "circular family widths 1..6",
    6: "sampled width-3 battery + Q1 search",
    7: "cycle enumeration vs brute-force oracle",
    8: "critical and self-dual fixtures classify",
    9: "deterministic reports across repeats and jobs",
    10: "non-expansive family width 3, the paper's non-expansive theorems",
}

_NOTES: dict[int, str] = {}


def note(number: int, text: str) -> None:
    _NOTES[number] = text


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    pattern = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_")
    results: dict[int, str] = {}
    for outcome, word in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            if getattr(report, "when", "call") != "call":
                continue
            match = pattern.search(report.nodeid)
            if match:
                results[int(match.group(1))] = word
    for report in terminalreporter.stats.get("skipped", []):
        match = pattern.search(report.nodeid)
        if match:
            results.setdefault(int(match.group(1)), "SKIPPED")
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(results):
        line = f"criterion {number}: {results[number]}  {LABELS.get(number, '')}"
        if number in _NOTES:
            line += f"  [{_NOTES[number]}]"
        terminalreporter.write_line(line)
