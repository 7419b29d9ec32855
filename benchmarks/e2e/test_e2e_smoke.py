"""Self-test of the e2e benchmark on its ``--quick`` preset.

Not part of tier-1 (``pyproject.toml`` has ``testpaths = ["tests"]``);
run it by path, about a minute:

    python -m pytest -q benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _suite(out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    # Exit 0 also means: no failed op, and the traced pass closes.
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())["runs"][0]


def test_spec_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_run_py_emits_every_metric_with_its_unit():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [
                sys.executable, "benchmarks/e2e/run.py", "--workload", "overlay_join",
                "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick",
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert got == want
        if trace == 0:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_quick_suite_is_correct_and_its_counts_repeat(tmp_path):
    from benchmarks.e2e.__main__ import EXACT_COUNTS

    first, second = _suite(tmp_path / "a.json"), _suite(tmp_path / "b.json")
    for workload in (w["name"] for w in SPEC["workloads"]):
        for run in (first, second):
            assert run[workload]["correct"] and run[workload]["failed"] == 0
            assert set(run[workload]["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
            assert set(run[workload]["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        for name in EXACT_COUNTS:
            assert first[workload]["per_layer"][name] == second[workload]["per_layer"][name], name
