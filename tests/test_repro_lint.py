"""Tests for the repro-lint static-analysis suite (``tools/analyze``).

Each pass gets fixture snippets reproducing its historical regression
class (known-bad triggers) plus known-good twins that must stay silent;
the suppression comments, the baseline, the JSON reporter schema, and
the CLI exit codes are pinned as well.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analyze.core import (  # noqa: E402
    Analyzer,
    Baseline,
    Module,
    SymbolTable,
)
from tools.analyze.passes import (  # noqa: E402
    ALL_PASSES,
    BillingPass,
    ConcurrencyPass,
    DeterminismPass,
    OperatorContractPass,
)
from tools.analyze.reporters import render_json  # noqa: E402


def run_pass(pass_obj, *sources_with_paths):
    """Run one pass over synthetic modules; returns the findings."""
    modules = [
        Module(path, textwrap.dedent(src)) for path, src in sources_with_paths
    ]
    symtab = SymbolTable()
    for m in modules:
        symtab.add_module(m)
    findings = []
    for m in modules:
        findings.extend(pass_obj.run(m, symtab))
    return findings


def rules_of(findings):
    return sorted({f.rule for f in findings})


# -- pass 1: determinism -------------------------------------------------------


def test_determinism_flags_unseeded_random():
    findings = run_pass(
        DeterminismPass(),
        (
            "src/repro/engine/sampler.py",
            """
            import random

            def jitter(rows):
                return rows[random.randint(0, 3):]

            def fresh():
                return random.Random()
            """,
        ),
    )
    assert rules_of(findings) == ["REPRO101"]
    assert len(findings) == 2


def test_determinism_allows_seeded_random():
    findings = run_pass(
        DeterminismPass(),
        (
            "src/repro/engine/sampler.py",
            """
            import random

            def jitter(rows, seed):
                rng = random.Random(seed)
                return rows[rng.randint(0, 3):]
            """,
        ),
    )
    assert findings == []


def test_determinism_flags_wall_clock_in_result_path():
    findings = run_pass(
        DeterminismPass(),
        (
            "src/repro/engine/pick.py",
            """
            import time

            def pick(rows):
                if time.time() % 2 > 1:
                    return rows[:1]
                return rows
            """,
        ),
    )
    assert rules_of(findings) == ["REPRO102"]


def test_determinism_allows_timing_bookkeeping():
    findings = run_pass(
        DeterminismPass(),
        (
            "src/repro/engine/timed.py",
            """
            import time

            def run(plan):
                started = time.perf_counter()
                out = list(plan)
                elapsed = time.perf_counter() - started
                return out, elapsed
            """,
        ),
    )
    assert findings == []


def test_determinism_flags_set_iteration_and_allows_sorted():
    findings = run_pass(
        DeterminismPass(),
        (
            "src/repro/spatial/merge.py",
            """
            def merge(parts):
                seen = set()
                for p in parts:
                    seen |= p
                out = []
                for x in seen:
                    out.append(x)
                good = [y for s in [seen] for y in sorted(seen)]
                return out + good
            """,
        ),
    )
    assert rules_of(findings) == ["REPRO103"]
    assert len(findings) == 1


def test_determinism_flags_id_ordering():
    findings = run_pass(
        DeterminismPass(),
        (
            "src/repro/spatial/order.py",
            """
            def order(rows):
                return sorted(rows, key=id)

            def tie(a, b):
                return a if id(a) < id(b) else b
            """,
        ),
    )
    assert rules_of(findings) == ["REPRO104"]
    assert len(findings) == 2


def test_determinism_flags_pairwise_float_reduction():
    findings = run_pass(
        DeterminismPass(),
        (
            "src/repro/engine/stats_bad.py",
            """
            import numpy as np

            def avg_side(lo, hi):
                return np.sum(hi - lo) / len(lo)

            def mean_side(sides):
                return sides.mean()

            def total(sides):
                return (sides * 2.0).sum() + np.add.reduce(sides)
            """,
        ),
    )
    assert rules_of(findings) == ["REPRO105"]
    assert len(findings) == 4


def test_determinism_allows_sequential_folds_and_integer_counts():
    findings = run_pass(
        DeterminismPass(),
        (
            "src/repro/spatial/stats_good.py",
            """
            import numpy as np

            def avg_side(lo, hi):
                # Vectorize the subtraction, fold sequentially.
                return sum((hi - lo).tolist()) / len(lo)

            def matches(mask, lo, bound, counts, pair_node):
                hits = int(counts[pair_node].sum()) + int(np.sum(lo))
                return hits + mask.sum() + (lo < bound).sum() + np.sum(~mask)
            """,
        ),
    )
    assert findings == []


def test_determinism_ignores_files_outside_engine_and_spatial():
    findings = run_pass(
        DeterminismPass(),
        (
            "src/repro/datagen/shapes.py",
            """
            import random

            def noise():
                return random.random()
            """,
        ),
    )
    assert findings == []


# -- pass 2: counter billing ---------------------------------------------------

OPERATOR_PRELUDE = """
class PhysicalOperator:
    def __init__(self, child=None):
        self.child = child
        self.stats = object()
        self.est_rows = None

    def iterate(self, ctx):
        raise NotImplementedError

class ExtendStep(PhysicalOperator):
    def iterate(self, ctx):
        self.stats.executed = True
        yield from self._rows(ctx, None)

    def _rows(self, ctx, binding):
        raise NotImplementedError
"""


def test_billing_flags_unbilled_probe():
    findings = run_pass(
        BillingPass(),
        (
            "src/repro/engine/physical.py",
            OPERATOR_PRELUDE
            + """
class SilentProbe(ExtendStep):
    def _rows(self, ctx, binding):
        return self.table.probe(binding)
""",
        ),
    )
    assert rules_of(findings) == ["REPRO201"]


def test_billing_allows_billed_probe():
    findings = run_pass(
        BillingPass(),
        (
            "src/repro/engine/physical.py",
            OPERATOR_PRELUDE
            + """
class BilledProbe(ExtendStep):
    def _rows(self, ctx, binding):
        self.stats.probes += 1
        return self.table.probe(binding)
""",
        ),
    )
    assert findings == []


def test_billing_flags_unbilled_batched_probe():
    findings = run_pass(
        BillingPass(),
        (
            "src/repro/engine/physical.py",
            OPERATOR_PRELUDE
            + """
class SilentBatchProbe(ExtendStep):
    def _group_rows(self, ctx, group):
        queries = [self.template.instantiate(b) for b in group]
        return self.table.range_query_batch(queries, ctx.cache)
""",
        ),
    )
    assert rules_of(findings) == ["REPRO201"]
    assert "range_query_batch" in findings[0].message


def test_billing_allows_billed_batched_probe():
    findings = run_pass(
        BillingPass(),
        (
            "src/repro/engine/physical.py",
            OPERATOR_PRELUDE
            + """
class BilledBatchProbe(ExtendStep):
    def _group_rows(self, ctx, group):
        queries = [self.template.instantiate(b) for b in group]
        self.stats.probes += len(group)
        return self.table.range_query_batch(queries, ctx.cache)

class BilledTreeWalk(ExtendStep):
    def _rows(self, ctx, binding):
        self.stats.probes += 1
        self.stats.node_reads += 1
        return self.tree.search_batch([binding])[0] + self.table.range_query_cached(
            binding
        )[0]
""",
        ),
    )
    assert findings == []


def test_billing_flags_scalar_vectorized_asymmetry():
    """``_BulkJoinStep.iterate``'s shape: ``if store is None: … return``
    guards the scalar twin, the columnar one follows — and the scalar
    loop forgot ``pair_tests``."""
    findings = run_pass(
        BillingPass(),
        (
            "src/repro/engine/physical.py",
            OPERATOR_PRELUDE
            + """
class Asym(ExtendStep):
    def _rows(self, ctx, binding):
        rows = self.table.probe(binding)
        self.stats.probes += 1
        store = self.table.column_store()
        if store is None:
            return [r for r in rows if self.query.matches(r.box)]
        self.stats.pair_tests += len(rows)
        self.stats.vectorized_batches += 1
        return store.match_rows(self.query)
""",
        ),
    )
    assert rules_of(findings) == ["REPRO202"]
    assert "pair_tests" in findings[0].message
    assert "store is None" in findings[0].message


def test_billing_flags_asymmetric_continue_guard():
    """``PartitionScan._rows``' shape: ``if store is not None and …:
    … continue`` guards the columnar twin, the scalar loop follows —
    and the columnar block forgot ``pair_tests``."""
    findings = run_pass(
        BillingPass(),
        (
            "src/repro/engine/physical.py",
            OPERATOR_PRELUDE
            + """
class Asym(ExtendStep):
    def _rows(self, ctx, binding):
        store = self.table.column_store()
        out = []
        for part in self.table.partitions():
            self.stats.probes += 1
            if store is not None and part.indices:
                self.stats.vectorized_batches += 1
                out.extend(store.match_positions(self.query, part.indices))
                continue
            for obj in part.rows:
                self.stats.pair_tests += 1
                if self.query.matches(obj.box):
                    out.append(obj)
        return out
""",
        ),
    )
    assert rules_of(findings) == ["REPRO202"]
    assert "pair_tests" in findings[0].message


def test_billing_allows_symmetric_branches():
    findings = run_pass(
        BillingPass(),
        (
            "src/repro/engine/physical.py",
            OPERATOR_PRELUDE
            + """
class SymGuard(ExtendStep):
    def _rows(self, ctx, binding):
        rows = self.table.probe(binding)
        self.stats.probes += 1
        store = self.table.column_store()
        if store is None:
            self.stats.pair_tests += len(rows)
            return [r for r in rows if self.query.matches(r.box)]
        self.stats.pair_tests += len(rows)
        self.stats.vectorized_batches += 1
        return store.match_rows(self.query)

class SymContinue(ExtendStep):
    def _rows(self, ctx, binding):
        store = self.table.column_store()
        out = []
        for part in self.table.partitions():
            self.stats.probes += 1
            if store is not None and part.indices:
                self.stats.pair_tests += len(part.indices)
                self.stats.vectorized_candidates += len(part.indices)
                out.extend(store.match_positions(self.query, part.indices))
                continue
            for obj in part.rows:
                self.stats.pair_tests += 1
                if self.query.matches(obj.box):
                    out.append(obj)
        return out

class SymElse(ExtendStep):
    def _rows(self, ctx, binding):
        rows = self.table.probe(binding)
        self.stats.probes += 1
        store = self.table.column_store()
        if store is not None:
            self.stats.pair_tests += len(rows)
            self.stats.vectorized_batches += 1
        else:
            for _r in rows:
                self.stats.pair_tests += 1
        return rows
""",
        ),
    )
    assert findings == []


# -- pass 3: concurrency -------------------------------------------------------

GUARDED_CLASS = """
import threading

class Cache:
    def __init__(self):
        self._lock = threading.RLock()
        self._entries = {}  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
"""


def test_concurrency_flags_unguarded_mutation():
    findings = run_pass(
        ConcurrencyPass(),
        (
            "src/repro/spatial/cache.py",
            GUARDED_CLASS
            + """
    def store(self, key, value):
        self._entries[key] = value

    def bump(self):
        self.hits += 1

    def drop(self, key):
        self._entries.pop(key, None)
""",
        ),
    )
    assert rules_of(findings) == ["REPRO301"]
    assert len(findings) == 3


def test_concurrency_allows_locked_mutation_and_conventions():
    findings = run_pass(
        ConcurrencyPass(),
        (
            "src/repro/spatial/cache.py",
            GUARDED_CLASS
            + """
    def store(self, key, value):
        with self._lock:
            self._entries[key] = value
            self.hits += 1

    def _evict_locked(self):
        self._entries.clear()

    def read(self, key):
        return self._entries.get(key)
""",
        ),
    )
    # __init__ itself, locked mutations, the _locked-suffix helper, and
    # plain reads are all allowed.
    assert findings == []


def test_concurrency_flags_mutation_in_nested_closure():
    findings = run_pass(
        ConcurrencyPass(),
        (
            "src/repro/spatial/cache.py",
            GUARDED_CLASS
            + """
    def deferred(self):
        with self._lock:
            def cb():
                self.hits += 1
            return cb
""",
        ),
    )
    # The closure runs later, when the lock is no longer held.
    assert rules_of(findings) == ["REPRO301"]


def test_concurrency_flags_unguarded_request_counter():
    """The service's request counter: every connection thread bumps it,
    so once annotated an unlocked ``+= 1`` is a finding."""
    service = """
import threading

class QueryService:
    def __init__(self):
        self._counter_lock = threading.Lock()
        self.requests = 0  # guarded-by: _counter_lock
"""
    unlocked = service + """
    def count_request(self):
        self.requests += 1
"""
    locked = service + """
    def count_request(self):
        with self._counter_lock:
            self.requests += 1
"""
    path = "src/repro/service/server.py"
    findings = run_pass(ConcurrencyPass(), (path, unlocked))
    assert rules_of(findings) == ["REPRO301"]
    assert findings[0].symbol == "QueryService.count_request"
    assert run_pass(ConcurrencyPass(), (path, locked)) == []


def test_billing_flags_an_unbilled_exact_check():
    findings = run_pass(
        BillingPass(),
        (
            "src/repro/engine/physical.py",
            OPERATOR_PRELUDE
            + """
class SilentFilter(PhysicalOperator):
    def iterate(self, ctx):
        self.stats.executed = True
        for binding, rows in self.child.candidate_lists(ctx):
            bound = self.solved.bind(ctx.algebra, binding)
            for i in bound.select(rows):
                self.stats.rows_out += 1
                yield rows[i]

class SilentHolds(PhysicalOperator):
    def iterate(self, ctx):
        self.stats.executed = True
        for binding in self.child.iterate(ctx):
            if self.system.holds(ctx.algebra, binding):
                yield binding
""",
        ),
    )
    assert rules_of(findings) == ["REPRO203"]
    assert {f.symbol for f in findings} == {
        "SilentFilter.iterate",
        "SilentHolds.iterate",
    }


def test_billing_allows_billed_exact_checks():
    findings = run_pass(
        BillingPass(),
        (
            "src/repro/engine/physical.py",
            OPERATOR_PRELUDE
            + """
class StepFilter(PhysicalOperator):
    def iterate(self, ctx):
        self.stats.executed = True
        ops = ctx.algebra.ops
        for binding, rows in self.child.candidate_lists(ctx):
            before = ops.total
            for i in self.solved.bind(ctx.algebra, binding).select(rows):
                self.stats.region_ops += ops.total - before
                yield rows[i]
                before = ops.total
            self.stats.region_ops += ops.total - before

class DirectFilter(PhysicalOperator):
    def iterate(self, ctx):
        self.stats.executed = True
        for binding in self.child.iterate(ctx):
            before = ctx.algebra.ops.total
            ok = self.system.holds(ctx.algebra, binding)
            self.stats.region_ops += ctx.algebra.ops.total - before
            if ok:
                yield binding
""",
        ),
    )
    assert findings == []


# -- pass 5: operator contract -------------------------------------------------


def test_contract_flags_missing_iterate_and_hook():
    findings = run_pass(
        OperatorContractPass(),
        (
            "src/repro/engine/physical.py",
            OPERATOR_PRELUDE
            + """
class NoHook(ExtendStep):
    pass

class NoIterate(PhysicalOperator):
    def describe(self):
        return "broken"
""",
        ),
    )
    assert rules_of(findings) == ["REPRO501"]
    assert len(findings) == 2


def test_contract_flags_missing_super_init():
    findings = run_pass(
        OperatorContractPass(),
        (
            "src/repro/engine/physical.py",
            OPERATOR_PRELUDE
            + """
class BadInit(ExtendStep):
    def __init__(self, table):
        self.table = table

    def _rows(self, ctx, binding):
        return []
""",
        ),
    )
    assert rules_of(findings) == ["REPRO502"]


def test_contract_flags_missing_executed_mark():
    findings = run_pass(
        OperatorContractPass(),
        (
            "src/repro/engine/physical.py",
            OPERATOR_PRELUDE
            + """
class NoMark(PhysicalOperator):
    def iterate(self, ctx):
        yield from ()
""",
        ),
    )
    assert rules_of(findings) == ["REPRO503"]


def test_contract_accepts_well_formed_operators():
    findings = run_pass(
        OperatorContractPass(),
        (
            "src/repro/engine/physical.py",
            OPERATOR_PRELUDE
            + """
class Scan(ExtendStep):
    def __init__(self, child, table):
        super().__init__(child)
        self.table = table

    def _rows(self, ctx, binding):
        return iter(self.table)

class GroupedScan(ExtendStep):
    def _group_rows(self, ctx, group):
        return [list(self.table) for _binding in group]

class Custom(PhysicalOperator):
    def iterate(self, ctx):
        self.stats.executed = True
        yield from ()
""",
        ),
    )
    assert findings == []


LISTS_PRELUDE = """
class PhysicalOperator:
    def __init__(self, child=None):
        self.child = child
        self.stats = object()
        self.est_rows = None

    def iterate(self, ctx):
        raise NotImplementedError

class ExtendStep(PhysicalOperator):
    def candidate_lists(self, ctx):
        self.stats.executed = True
        for binding in self.child.iterate(ctx):
            yield binding, self._rows(ctx, binding)

    def iterate(self, ctx):
        for binding, rows in self.candidate_lists(ctx):
            yield from rows

    def _rows(self, ctx, binding):
        raise NotImplementedError

class _BulkJoinStep(ExtendStep):
    def candidate_lists(self, ctx):
        self.stats.executed = True
        yield from self._candidate_pairs(ctx, [], [])

    def _candidate_pairs(self, ctx, probes, rows):
        raise NotImplementedError
"""


def test_contract_accepts_the_candidate_lists_hook():
    findings = run_pass(
        OperatorContractPass(),
        (
            "src/repro/engine/physical.py",
            LISTS_PRELUDE
            + """
class Probe(ExtendStep):
    def _rows(self, ctx, binding):
        return []

class Filtered(ExtendStep):
    def candidate_lists(self, ctx):
        self.stats.executed = True
        for binding, rows in self.child.candidate_lists(ctx):
            yield binding, rows[:1]

class Sweep(_BulkJoinStep):
    def _candidate_pairs(self, ctx, probes, rows):
        return []
""",
        ),
    )
    assert findings == []


def test_contract_holds_candidate_lists_providers_to_their_hooks():
    findings = run_pass(
        OperatorContractPass(),
        (
            "src/repro/engine/physical.py",
            LISTS_PRELUDE
            + """
class NoPairs(_BulkJoinStep):
    pass

class Unmarked(ExtendStep):
    def candidate_lists(self, ctx):
        yield from ()
""",
        ),
    )
    assert [(f.rule, f.symbol) for f in findings] == [
        ("REPRO501", "NoPairs"),
        ("REPRO503", "Unmarked"),
    ]


# -- suppressions, baseline, reporters, CLI ------------------------------------


def test_inline_suppression_comment_is_honored():
    analyzer = Analyzer([DeterminismPass()])
    module = Module(
        "src/repro/engine/s.py",
        textwrap.dedent(
            """
            import random

            def jitter():
                return random.random()  # repro-lint: disable=REPRO101
            """
        ),
    )
    symtab = SymbolTable()
    symtab.add_module(module)
    findings = analyzer.run([module], symtab)
    assert findings == []
    assert analyzer.suppressed_inline == 1


def test_standalone_suppression_applies_to_next_line():
    analyzer = Analyzer([DeterminismPass()])
    module = Module(
        "src/repro/engine/s.py",
        textwrap.dedent(
            """
            import random

            def jitter():
                # repro-lint: disable=REPRO101
                return random.random()
            """
        ),
    )
    symtab = SymbolTable()
    symtab.add_module(module)
    assert analyzer.run([module], symtab) == []
    assert analyzer.suppressed_inline == 1


def test_file_level_suppression():
    analyzer = Analyzer([DeterminismPass()])
    module = Module(
        "src/repro/engine/s.py",
        "# repro-lint: disable-file=REPRO101\n"
        "import random\n\n"
        "def a():\n    return random.random()\n\n"
        "def b():\n    return random.random()\n",
    )
    symtab = SymbolTable()
    symtab.add_module(module)
    assert analyzer.run([module], symtab) == []
    assert analyzer.suppressed_inline == 2


def test_baseline_filters_by_rule_path_symbol_not_line(tmp_path):
    analyzer = Analyzer([DeterminismPass()])
    source = textwrap.dedent(
        """
        import random

        def jitter():
            return random.random()
        """
    )
    module = Module("src/repro/engine/s.py", source)
    symtab = SymbolTable()
    symtab.add_module(module)
    findings = analyzer.run([module], symtab)
    assert len(findings) == 1

    baseline_path = tmp_path / "baseline.json"
    Baseline.write(baseline_path, findings)
    baseline = Baseline.load(baseline_path)

    # Same finding at a different line (extra blank lines above) still
    # matches: the baseline keys on (rule, path, symbol).
    shifted = Module("src/repro/engine/s.py", "\n\n\n" + source)
    symtab2 = SymbolTable()
    symtab2.add_module(shifted)
    assert analyzer.run([shifted], symtab2, baseline=baseline) == []
    assert analyzer.baselined == 1


def test_json_reporter_schema_is_stable():
    analyzer = Analyzer([DeterminismPass()])
    module = Module(
        "src/repro/engine/s.py",
        "import random\n\ndef f():\n    return random.random()\n",
    )
    symtab = SymbolTable()
    symtab.add_module(module)
    findings = analyzer.run([module], symtab)
    payload = json.loads(render_json(findings, 0, 0))
    assert payload["tool"] == "repro-lint"
    assert payload["schema_version"] == 1
    assert set(payload) == {"tool", "schema_version", "findings", "summary"}
    assert set(payload["findings"][0]) == {
        "rule",
        "severity",
        "path",
        "line",
        "column",
        "symbol",
        "message",
        "fix_hint",
    }
    assert set(payload["summary"]) == {
        "total",
        "by_rule",
        "suppressed_inline",
        "baselined",
    }
    assert payload["summary"]["total"] == 1
    assert payload["summary"]["by_rule"] == {"REPRO101": 1}


def test_all_rule_ids_are_unique():
    analyzer = Analyzer([cls() for cls in ALL_PASSES])
    ids = [r.id for r in analyzer.all_rules()]
    assert len(ids) == len(set(ids))
    assert all(rid.startswith("REPRO") for rid in ids)


def test_cli_exits_zero_on_clean_tree_and_nonzero_on_findings(tmp_path):
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "ok.py").write_text("def f():\n    return 1\n")
    dirty = tmp_path / "src" / "repro" / "engine"
    dirty.mkdir(parents=True)
    (dirty / "bad.py").write_text(
        "import random\n\ndef f():\n    return random.random()\n"
    )

    env_cmd = [sys.executable, "-m", "tools.analyze", "--no-baseline"]
    ok = subprocess.run(
        env_cmd + [str(clean)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert ok.returncode == 0, ok.stdout + ok.stderr

    bad = subprocess.run(
        env_cmd + ["--format", "json", str(tmp_path / "src")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 1, bad.stdout + bad.stderr
    payload = json.loads(bad.stdout)
    assert payload["summary"]["by_rule"] == {"REPRO101": 1}


def test_real_tree_is_clean():
    """The acceptance gate: the shipped tree has no findings."""
    result = subprocess.run(
        [sys.executable, "-m", "tools.analyze", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
