"""Execution statistics.

The paper's optimization trades *exact region computation* for *cheap
bounding-box work plus index probes*.  To make that trade measurable,
every executor returns an :class:`ExecutionStats` alongside its answers;
the benchmarks report these counters rather than (only) wall-clock time,
because they are machine-independent and directly reflect the paper's
cost model.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List


@dataclass
class StepStats:
    """Per-retrieval-step counters.

    Every executor mode fills every field: ``index_probes`` counts
    range-query/scan calls issued by the step and ``node_reads`` the
    index reads (r-tree node reads) those probes cost —
    0 for probes that never touch an index (table scans).
    """

    variable: str = ""
    candidates: int = 0  # rows returned by the range query / scan
    survivors: int = 0  # rows surviving the step's exact filter
    index_probes: int = 0
    node_reads: int = 0  # index reads consumed by this step's probes
    vectorized_batches: int = 0  # columnar kernel dispatches
    vectorized_candidates: int = 0  # rows/entries those kernels evaluated
    delta_probes: int = 0  # probes that merged a pending write delta

    @property
    def filter_ratio(self) -> float:
        """Fraction of candidates surviving (1.0 when nothing filtered)."""
        if self.candidates == 0:
            return 1.0
        return self.survivors / self.candidates

    def to_dict(self) -> Dict[str, object]:
        """Full-fidelity JSON-serializable form (see :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StepStats":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class ExecutionStats:
    """Counters for one query execution."""

    mode: str = ""
    tuples_emitted: int = 0
    partial_tuples: int = 0  # total partial solutions materialised
    region_ops: int = 0  # exact region-algebra operations
    box_ops_estimate: int = 0  # bounding-box function evaluations
    repacks: int = 0  # delta folds (base rebuilds) during this execution
    steps: List[StepStats] = field(default_factory=list)

    def step(self, variable: str) -> StepStats:
        """Start (and return) the stats record for one retrieval step."""
        s = StepStats(variable=variable)
        self.steps.append(s)
        return s

    @property
    def total_candidates(self) -> int:
        """Candidates summed over all steps."""
        return sum(s.candidates for s in self.steps)

    @property
    def index_probes(self) -> int:
        """Range-query/scan calls summed over all steps."""
        return sum(s.index_probes for s in self.steps)

    @property
    def node_reads(self) -> int:
        """Index reads (r-tree nodes) over all steps."""
        return sum(s.node_reads for s in self.steps)

    @property
    def vectorized_batches(self) -> int:
        """Columnar kernel dispatches over all steps (0 = scalar run)."""
        return sum(s.vectorized_batches for s in self.steps)

    @property
    def vectorized_candidates(self) -> int:
        """Rows/entries evaluated by columnar kernels over all steps."""
        return sum(s.vectorized_candidates for s in self.steps)

    @property
    def delta_probes(self) -> int:
        """Probes that merged a pending write delta, over all steps."""
        return sum(s.delta_probes for s in self.steps)

    def to_dict(self) -> Dict[str, object]:
        """Full-fidelity JSON-serializable form.

        Unlike :meth:`as_dict` (a flat benchmark-table projection), this
        round-trips through :meth:`from_dict` without losing per-step
        counters, so services can ship stats over the wire and clients
        can reconstruct the exact :class:`ExecutionStats`.
        """
        return {
            "mode": self.mode,
            "tuples_emitted": self.tuples_emitted,
            "partial_tuples": self.partial_tuples,
            "region_ops": self.region_ops,
            "box_ops_estimate": self.box_ops_estimate,
            "repacks": self.repacks,
            "steps": [s.to_dict() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExecutionStats":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        stats = cls(
            mode=str(data.get("mode", "")),
            tuples_emitted=int(data.get("tuples_emitted", 0)),
            partial_tuples=int(data.get("partial_tuples", 0)),
            region_ops=int(data.get("region_ops", 0)),
            box_ops_estimate=int(data.get("box_ops_estimate", 0)),
            repacks=int(data.get("repacks", 0)),
        )
        stats.steps = [StepStats.from_dict(s) for s in data.get("steps", [])]
        return stats

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for benchmark tables."""
        return {
            "mode": self.mode,
            "tuples": self.tuples_emitted,
            "partials": self.partial_tuples,
            "region_ops": self.region_ops,
            "box_ops": self.box_ops_estimate,
            "candidates": self.total_candidates,
            "index_probes": self.index_probes,
            "node_reads": self.node_reads,
            "vectorized_batches": self.vectorized_batches,
            "vectorized_candidates": self.vectorized_candidates,
            "delta_probes": self.delta_probes,
            "repacks": self.repacks,
            "per_step": [
                (s.variable, s.candidates, s.survivors) for s in self.steps
            ],
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        steps = " ".join(
            f"{s.variable}:{s.survivors}/{s.candidates}" for s in self.steps
        )
        delta = ""
        if self.delta_probes or self.repacks:
            delta = (
                f" delta_probes={self.delta_probes} repacks={self.repacks}"
            )
        return (
            f"[{self.mode}] tuples={self.tuples_emitted} "
            f"partials={self.partial_tuples} region_ops={self.region_ops} "
            f"steps=({steps}){delta}"
        )
