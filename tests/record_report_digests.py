"""Record the report manifest that test_report_digests.py checks.

    PYTHONPATH=src python3 tests/record_report_digests.py

Sweeps every network key, and runs each open question with no budget and at
budget 37, over every generator in GENERATORS, and sweeps LEMMA1_HYPERCUBE over
Subsets(1..4); then rewrites data/report_digests.txt with one line per report:
the sha256 of its canonical text, its key, its generator and its budget ("-"
for none). None of those reports lists a counterexample or a discovery, so
the FORCED runs repeat a few with the conclusion read as false, and every
hypothesis hit is listed; their key is written KEY/false. Reports must stay
byte-identical across design and performance changes, so rerun this only when
a change is meant to alter report text, and say in that change which lines
changed and why.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from unittest import mock

from boolcube import theorems
from boolcube.theorems import (
    AndNets,
    Circular,
    Exhaustive,
    NonExpansive,
    OpenQuestion,
    Sample,
    Subsets,
    catalog_keys,
    describe_generator,
    open_question_search,
    sweep,
    sweep_many,
)

MANIFEST = Path(__file__).parent / "data" / "report_digests.txt"
GENERATORS = (
    Exhaustive(1),
    Exhaustive(2),
    AndNets(2),
    AndNets(3),
    Sample(3, 2000, 1),
    Sample(5, 200, 3),
    Circular(4),
    Circular(5),
    NonExpansive(3),
)
BUDGETS = (None, 37)
NETWORK_KEYS = tuple(key for key in catalog_keys() if key != "LEMMA1_HYPERCUBE")
# counterexamples that are and-net orbit members, sampled tables and point sets
FORCED = (
    ("Q1_NEG_LOCAL_CYCLES", AndNets(2)),
    ("THM_CIRCULAR_EOSD", Sample(3, 20, 1)),
    ("LEMMA1_HYPERCUBE", Subsets(2)),
)


def _line(report, key: str, gen, budget: int | None) -> str:
    digest = hashlib.sha256(report.canonical_text().encode()).hexdigest()
    return f"{digest} {key} {describe_generator(gen)} {'-' if budget is None else budget}"


def manifest_lines(jobs: int = 1) -> list[str]:
    """Every manifest line, in manifest order, from this checkout's boolcube."""
    lines = []
    for gen in GENERATORS:
        for key, report in sweep_many(NETWORK_KEYS, gen, jobs=jobs).items():
            lines.append(_line(report, key, gen, None))
        for question in OpenQuestion:
            for budget in BUDGETS:
                report = open_question_search(question, gen, budget=budget, jobs=jobs)
                lines.append(_line(report, question.name, gen, budget))
    for n in range(1, 5):
        report = sweep("LEMMA1_HYPERCUBE", Subsets(n), jobs=jobs)
        lines.append(_line(report, "LEMMA1_HYPERCUBE", Subsets(n), None))
    entry = theorems._entry
    with mock.patch.object(theorems, "_entry", lambda key: (entry(key)[0], lambda _: False)):
        for key, gen in FORCED:
            if key in OpenQuestion.__members__:
                report = open_question_search(key, gen, jobs=jobs)
            else:
                report = sweep(key, gen, jobs=jobs)
            lines.append(_line(report, f"{key}/false", gen, None))
    return lines


def main() -> int:
    lines = manifest_lines()
    MANIFEST.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"{len(lines)} lines written to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
