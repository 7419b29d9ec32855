"""Golden counters for the per-query report.

``tests/data/report_counters.json`` holds, per workload, the CLI flags
and, under ``"numpy"``, the ``ExecutionStats.as_dict()`` counters
that ``repro bench --json`` printed for them before ``bench`` folded
into ``explain --analyze``.  The two ``*-limit-1`` entries were recorded
from ``explain --analyze --json`` before the step filter walked whole
candidate lists: with them a walk that stops partway through a list is
pinned on a two-step and a three-step query.
``smugglers-24-limit-3-cache`` was recorded through a 64-entry probe
cache, which is gone; it keeps its name and holds the counters the same
query printed without the cache.  ``sandwich-12-knn-2`` was
re-recorded when kNN steps stopped choosing their access path: its
12-row r-tree step read 0 nodes and ran the scan kernel over 12 rows,
and it now browses best-first (2 node reads, the same empty answer).
The report must bill
every query exactly as before: its ``stats`` block, flattened the same
way, is byte-equal to the recorded counters.
"""

import json
from pathlib import Path

import pytest

from conftest import KERNEL_IDS
from repro.__main__ import main
from repro.engine.stats import ExecutionStats

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "report_counters.json").read_text()
)


@pytest.mark.parametrize("backend", KERNEL_IDS)
@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_counters_equal_the_recorded_ones(name, capsys, backend):
    case = GOLDEN[name]
    assert main(["explain", *case["args"], "--analyze", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    counters = ExecutionStats.from_dict(report["stats"]).as_dict()
    assert json.dumps(counters) == json.dumps(case["counters"]["numpy"])
