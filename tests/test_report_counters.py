"""Golden counters for the per-query report.

``tests/data/report_counters.json`` holds, per workload, the CLI flags
and, per columnar backend, the ``ExecutionStats.as_dict()`` counters
that ``repro bench --json`` printed for them before ``bench`` folded
into ``explain --analyze``.  The two ``*-limit-1`` entries were recorded
from ``explain --analyze --json`` before the step filter walked whole
candidate lists: with them a walk that stops partway through a list is
pinned on a two-step and a three-step query.  The report must bill
every query exactly as before: its ``stats`` block, flattened the same
way, is byte-equal to the recorded counters.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.engine.stats import ExecutionStats
from repro.spatial.columnar import HAVE_NUMPY, forced_backend

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "report_counters.json").read_text()
)
BACKENDS = ("numpy", "array") if HAVE_NUMPY else ("array",)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_counters_equal_the_recorded_ones(name, backend, capsys):
    case = GOLDEN[name]
    with forced_backend(backend):
        assert main(["explain", *case["args"], "--analyze", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    counters = ExecutionStats.from_dict(report["stats"]).as_dict()
    assert json.dumps(counters) == json.dumps(case["counters"][backend])
