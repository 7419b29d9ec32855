"""Tests for constraint minimization and the CLI."""

import subprocess
import sys

from repro.constraints.minimize import minimize_system, redundant_constraints
from repro.constraints.system import ConstraintSystem, nonempty, subset


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
        from repro.constraints.system import overlaps

        s = ConstraintSystem.build(overlaps("x", "y"), nonempty("y"))
        core, removed = minimize_system(s)
        assert len(core) == 1
        assert core.negatives[0].lhs.variables() == frozenset({"x", "y"})

    def test_core_equivalent(self):
        from repro.constraints.decision import equivalent_atomless
        from repro.constraints.system import overlaps

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

    def test_index_grid_is_gone(self):
        """The grid file is no table index: argparse rejects ``--index
        grid``, and scan workloads build through the same bulk insert."""
        args = ("explain", "--workload", "smugglers", "--size", "6", "--analyze")
        proc = _cli(*args, "--index", "grid")
        assert proc.returncode == 2
        assert "invalid choice: 'grid'" in proc.stderr
        proc = _cli(*args, "--index", "scan")
        assert proc.returncode == 0, proc.stderr

    def test_bench_parallel_flag_is_gone(self):
        """PBSM sweeps its tiles serially; --parallel is a usage error."""
        proc = _cli(
            "explain", "--workload", "smugglers", "--size", "8",
            "--parallel", "2", "--analyze", "--json",
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
