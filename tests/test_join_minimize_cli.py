"""Tests for spatial joins, constraint minimization, and the CLI."""

import random
import subprocess
import sys


from repro.boxes import Box
from repro.constraints import (
    ConstraintSystem,
    minimize_system,
    nonempty,
    redundant_constraints,
    subset,
)
from repro.spatial import (
    RTree,
    index_nested_loop_join,
    synchronized_rtree_join,
)


def _boxes(n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        lo = (rng.uniform(0, 90), rng.uniform(0, 90))
        out.append(
            Box(lo, (lo[0] + rng.uniform(1, 8), lo[1] + rng.uniform(1, 8)))
        )
    return out


class TestSpatialJoins:
    def setup_method(self):
        self.left = _boxes(80, 1)
        self.right = _boxes(80, 2)
        self.expected = {
            (i, j)
            for i, a in enumerate(self.left)
            for j, b in enumerate(self.right)
            if a.overlaps(b)
        }
        self.lt = RTree.bulk_load(list(enumerate_boxes(self.left)), max_entries=6)
        self.rt = RTree.bulk_load(list(enumerate_boxes(self.right)), max_entries=6)

    def test_index_nested_loop(self):
        got = set(
            index_nested_loop_join(
                list(enumerate_boxes(self.left)), self.rt
            )
        )
        assert got == self.expected

    def test_synchronized(self):
        got = set(synchronized_rtree_join(self.lt, self.rt))
        assert got == self.expected

    def test_synchronized_empty_tree(self):
        empty = RTree()
        assert list(synchronized_rtree_join(self.lt, empty)) == []
        assert list(synchronized_rtree_join(empty, self.rt)) == []

    def test_synchronized_probes_fewer_than_nested(self):
        self.lt.stats.reset()
        self.rt.stats.reset()
        list(synchronized_rtree_join(self.lt, self.rt))
        sync_reads = self.lt.stats.node_reads + self.rt.stats.node_reads
        self.lt.stats.reset()
        self.rt.stats.reset()
        list(
            index_nested_loop_join(
                list(enumerate_boxes(self.left)), self.rt
            )
        )
        nested_reads = self.rt.stats.node_reads
        # Not asserted as strictly smaller (constants vary); just sane.
        assert sync_reads > 0 and nested_reads > 0


def enumerate_boxes(boxes):
    return ((b, i) for i, b in enumerate(boxes))


class TestMinimize:
    def test_transitive_redundancy(self):
        s = ConstraintSystem.build(
            subset("x", "y"), subset("y", "z"), subset("x", "z")
        )
        redundant = redundant_constraints(s)
        assert any(
            c.lhs.variables() == frozenset({"x"})
            and c.rhs.variables() == frozenset({"z"})
            for c in redundant
        )
        core, removed = minimize_system(s)
        assert len(core) == 2
        assert len(removed) == 1

    def test_nothing_redundant(self):
        s = ConstraintSystem.build(subset("x", "y"), nonempty("z"))
        assert redundant_constraints(s) == []
        core, removed = minimize_system(s)
        assert len(core) == 2 and removed == []

    def test_duplicate_constraints_collapse(self):
        s = ConstraintSystem.build(subset("x", "y"), subset("x", "y"))
        core, removed = minimize_system(s)
        assert len(core) == 1 and len(removed) == 1

    def test_negative_redundancy(self):
        # x&y != 0 entails y != 0.
        from repro.constraints import overlaps

        s = ConstraintSystem.build(overlaps("x", "y"), nonempty("y"))
        core, removed = minimize_system(s)
        assert len(core) == 1
        assert core.negatives[0].lhs.variables() == frozenset({"x", "y"})

    def test_core_equivalent(self):
        from repro.constraints import equivalent_atomless, overlaps

        s = ConstraintSystem.build(
            subset("x", "y"),
            subset("y", "z"),
            subset("x", "z"),
            overlaps("x", "z"),
            nonempty("x"),
        )
        core, _removed = minimize_system(s)
        assert equivalent_atomless(s, core)
        assert redundant_constraints(core) == []


FIGURE1 = "A <= C\nB <= C\nR <= A | B | T\nR & A != 0\nR & T != 0\nT !<= C\n"


def _cli(*args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCli:
    def test_compile_rejects_an_order_naming_a_stranger(self):
        # Used to exit 0 with a junk level "x & ~y <= nope <= y | ~x".
        text = "x <= y\nx & z != 0\n"
        proc = _cli("compile", "--order", "x,nope", stdin=text)
        assert proc.returncode == 2
        assert "nope" in proc.stderr and "['x', 'y', 'z']" in proc.stderr
        assert "-- C[" not in proc.stdout
        fine = _cli("compile", "--order", "x,z", stdin=text)
        assert fine.returncode == 0 and "-- C[z] --" in fine.stdout

    def test_compile(self):
        proc = _cli(
            "compile", "--order", "T,R,B", "--constants", "C,A", "-",
            stdin=FIGURE1,
        )
        assert proc.returncode == 0, proc.stderr
        assert "0 <= R <= C | T" in proc.stdout
        assert "([C] v [T])" in proc.stdout

    def test_compile_from_file(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text(FIGURE1)
        proc = _cli("compile", "--constants", "C,A", str(path))
        assert proc.returncode == 0, proc.stderr

    def test_check_sat(self):
        proc = _cli("check", "-", stdin="x <= y\nx != 0\n")
        assert proc.returncode == 0
        assert "unsatisfiable" not in proc.stdout

    def test_check_unsat(self):
        proc = _cli("check", "-", stdin="x = 0\nx != 0\n")
        assert proc.returncode == 1
        assert "unsatisfiable" in proc.stdout

    def test_minimize(self):
        proc = _cli(
            "minimize", "-", stdin="x <= y\ny <= z\nx <= z\n"
        )
        assert proc.returncode == 0
        assert "# removed" in proc.stdout

    def test_bcf(self):
        proc = _cli("bcf", "x & y | ~x & (y | z & w)")
        assert proc.returncode == 0
        assert "L: [y]" in proc.stdout

    def test_bench_json(self):
        """The counters report is ``explain --analyze --json``: the
        analysed plan, the order, the answer count, the full
        ``ExecutionStats`` and the timings — nothing else."""
        import json

        proc = _cli(
            "explain", "--workload", "smugglers", "--size", "6",
            "--analyze", "--json",
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert set(result) == {
            "plan", "order", "count", "stats",
            "plan_s", "time_to_first_s", "total_s",
        }
        assert sorted(result["order"]) == ["B", "R", "T"]
        assert result["count"] == result["stats"]["tuples_emitted"]
        assert sum(s["node_reads"] for s in result["stats"]["steps"]) > 0
        assert "IndexProbe(T from towns)" in result["plan"]  # r-tree probe

    def test_bench_subcommand_is_gone(self):
        """``repro bench`` folded into ``explain --analyze``."""
        proc = _cli("bench", "--workload", "smugglers", "--json")
        assert proc.returncode == 2
        assert "invalid choice: 'bench'" in proc.stderr

    def test_bench_no_pack_rstar(self):
        """The insertion-tree flags are gone: argparse rejects them."""
        proc = _cli(
            "explain", "--workload", "chain", "--size", "10", "--analyze",
            "--no-pack", "--split", "rstar",
        )
        assert proc.returncode == 2
        assert "unrecognized arguments: --no-pack --split rstar" in proc.stderr

    def test_bench_grid_backend_default_pack(self):
        """Grid and scan workloads build through the same bulk insert."""
        for index in ("grid", "scan"):
            proc = _cli(
                "explain", "--workload", "smugglers", "--size", "6",
                "--index", index, "--analyze",
            )
            assert proc.returncode == 0, proc.stderr

    def test_bench_parallel_flag_is_gone(self):
        """PBSM sweeps its tiles serially; --parallel is a usage error."""
        proc = _cli(
            "explain", "--workload", "smugglers", "--size", "8",
            "--partitions", "4", "--parallel", "2", "--analyze", "--json",
        )
        assert proc.returncode == 2
        assert "--parallel" in proc.stderr

    def test_stream_flag_is_gone(self):
        """Every run streams and reports time-to-first-answer."""
        proc = _cli("run", "--workload", "smugglers", "--size", "8", "--stream")
        assert proc.returncode == 2
        assert "--stream" in proc.stderr
        proc = _cli("run", "--workload", "smugglers", "--size", "8", "--limit", "1")
        assert proc.returncode == 0, proc.stderr
        assert "# 1 answers; planned in " in proc.stdout
        assert "first after " in proc.stdout

    def test_explain_partitioned_join(self):
        proc = _cli(
            "explain", "--workload", "smugglers", "--size", "8",
            "--partitions", "4", "--join", "pbsm", "--analyze",
        )
        assert proc.returncode == 0, proc.stderr
        assert "PartitionedSpatialJoin" in proc.stdout
        assert "joins: " in proc.stdout
