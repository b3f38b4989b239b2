"""Record the report digests that run.py's correctness gate expects.

    python3 perfbench/record_expected.py

Runs one untraced pass of every workload at each seed in SEEDS with the
checkout's boolcube and rewrites expected.json. Reports must stay
byte-identical across performance changes, so rerun this only when a change
is meant to alter report text, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run
import spec

SEEDS = range(spec.DEFAULT_SEED, spec.DEFAULT_SEED + 16)


def main() -> int:
    expected: dict = {}
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=run.ROOT / ".perfbench")
    try:
        for workload in spec.WORKLOADS:
            digests = None
            for seed in SEEDS:
                if workload != "andnet3" or digests is None:
                    result = run.launch(workload, seed, "measure", run.Path(workdir))
                    errors = run.gate_passes(workload, seed, [result], {})
                    if any(errors):
                        print(f"{workload} seed {seed}: {errors}", file=sys.stderr)
                        return 1
                    digests = [run.op_digest(op["reports"]) for op in result["ops"]]
                expected.setdefault(workload, {})[str(seed)] = digests
                print(workload, seed, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
