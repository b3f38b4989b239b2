"""Every report in the manifest, recomputed and compared byte for byte.

data/report_digests.txt holds the sha256 of each report's canonical text, with
its key, generator and budget; record_report_digests.py writes it. A mismatch
means a report changed: a verdict, a count, a generator descriptor or the
order or rendering of a counterexample.
"""

from record_report_digests import MANIFEST, manifest_lines


def test_every_report_matches_the_manifest():
    recorded = MANIFEST.read_text(encoding="utf-8").splitlines()
    assert manifest_lines() == recorded
