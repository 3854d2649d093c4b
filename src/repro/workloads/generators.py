"""Generators for the paper's datasets and benchmark corpora.

The two use-case archives reproduce the paper's names and sizes:
``fourCelFileSamples.zip`` (10.7 MB, 4 arrays) and
``affyCelFileSamples.zip`` (190.3 MB, 72 arrays), each with a planted
two-group differential-expression signal so correctness is checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .. import calibration
from ..crdata.formats import BamArchive, CelArchive, ExpressionMatrix


def make_four_cel_archive(seed: int = 42, n_probes: int = 4000) -> CelArchive:
    """fourCelFileSamples.zip — 4 arrays, 2 control + 2 case (Sec. V-A)."""
    return CelArchive(
        n_arrays=calibration.FOUR_CEL_N_ARRAYS,
        n_probes=n_probes,
        seed=seed,
        groups=["control", "control", "case", "case"],
        n_diff=max(20, n_probes // 50),
        effect=2.0,
        declared_size=calibration.FOUR_CEL_ZIP_BYTES,
    )


def make_affy_cel_archive(seed: int = 43, n_probes: int = 4000) -> CelArchive:
    """affyCelFileSamples.zip — the larger 190.3 MB batch (Sec. V-A)."""
    n = calibration.AFFY_CEL_N_ARRAYS
    return CelArchive(
        n_arrays=n,
        n_probes=n_probes,
        seed=seed,
        groups=["control"] * (n // 2) + ["case"] * (n - n // 2),
        n_diff=max(40, n_probes // 40),
        effect=1.5,
        declared_size=calibration.AFFY_CEL_ZIP_BYTES,
    )


def make_rnaseq_archive(
    seed: int = 7,
    n_samples: int = 6,
    n_reads: int = 20_000,
    n_transcripts: int = 150,
    n_diff: int = 15,
    effect: float = 3.0,
) -> BamArchive:
    """A two-condition RNA-seq experiment with planted differential transcripts."""
    half = n_samples // 2
    return BamArchive(
        n_reads_per_sample=n_reads,
        seed=seed,
        samples=[f"sample_{i}" for i in range(n_samples)],
        conditions=["A"] * half + ["B"] * (n_samples - half),
        annotation_seed=seed + 1,
        n_transcripts=n_transcripts,
        n_diff=n_diff,
        effect=effect,
    )


def make_expression_matrix_bytes(
    seed: int = 11,
    n_probes: int = 500,
    groups: tuple[str, ...] = ("A", "A", "A", "B", "B", "B"),
    n_diff: int = 25,
    effect: float = 1.5,
) -> bytes:
    """A ready-to-use log2 expression matrix with planted signal."""
    rng = np.random.default_rng(seed)
    n_samples = len(groups)
    values = rng.normal(8.0, 1.0, size=(n_probes, 1)) + rng.normal(
        0.0, 0.3, size=(n_probes, n_samples)
    )
    planted = rng.choice(n_probes, size=n_diff, replace=False)
    labels = list(dict.fromkeys(groups))
    mask = np.array([g == labels[-1] for g in groups])
    values[np.ix_(planted, np.where(mask)[0])] += effect
    em = ExpressionMatrix(
        values=values,
        probe_names=[f"probe_{i:05d}_at" for i in range(n_probes)],
        sample_names=[f"s{i}" for i in range(n_samples)],
        groups=list(groups),
    )
    return em.to_bytes()


def make_clinical_table(
    seed: int = 3, n_per_group: int = 60, hazard_ratio: float = 3.0
) -> bytes:
    """Survival data: exponential event times, group B at higher hazard."""
    rng = np.random.default_rng(seed)
    rows = ["time\tevent\tgroup"]
    for group, scale in [("A", 10.0), ("B", 10.0 / hazard_ratio)]:
        times = rng.exponential(scale, size=n_per_group)
        censor = rng.exponential(15.0, size=n_per_group)
        observed = np.minimum(times, censor)
        events = (times <= censor).astype(int)
        for t, e in zip(observed, events):
            rows.append(f"{t:.3f}\t{e}\t{group}")
    return ("\n".join(rows) + "\n").encode()


def transfer_corpus() -> list[tuple[str, int]]:
    """(name, bytes) for the Fig. 11 file-size sweep."""
    return [
        (f"file_{size // calibration.MB}MB.dat", size)
        for size in calibration.FIGURE11_FILE_SIZES
    ]


def make_pricing_sweep_sizes(
    n_jobs: int = 2000,
    seed: int = 0,
    min_mb: float = 1.0,
    max_mb: float = 512.0,
) -> np.ndarray:
    """Synthetic CEL-archive sizes (bytes) for batch pricing sweeps.

    Log-uniform between ``min_mb`` and ``max_mb`` so the sweep covers the
    paper's range (the 10.7 MB and 190.3 MB use-case archives sit well
    inside it) with plenty of mass at both ends.  Returns an
    ``(n_jobs,)`` integer-valued float array, one single-input job per
    entry, ready for ``Tool.work_batch`` / ``cloud.estimate_batch``.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if not (0 < min_mb <= max_mb):
        raise ValueError("need 0 < min_mb <= max_mb")
    rng = np.random.default_rng(seed)
    mb = np.exp(rng.uniform(np.log(min_mb), np.log(max_mb), size=n_jobs))
    return np.round(mb * calibration.MB)


# ---------------------------------------------------------------------------
# Workflow DAG shapes (the WaaS multi-tenant workload model)
# ---------------------------------------------------------------------------

#: shapes :func:`make_workflow_dag` knows how to build
DAG_SHAPES = ("chain", "fanout", "diamond", "layered")


@dataclass(frozen=True)
class DAGTask:
    """One node of a workflow DAG.

    ``cpu_work`` is in m1.small-seconds (the unit Condor jobs consume);
    ``parents`` are task ids that must complete before this one may run.
    By construction every parent id is smaller than the task's own id,
    so task order is already a topological order.
    """

    id: int
    cpu_work: float
    parents: tuple[int, ...] = ()


@dataclass(frozen=True)
class WorkflowDAG:
    """A workflow instance: tasks plus dependency edges.

    Instances are value objects — two calls to :func:`make_workflow_dag`
    with the same arguments compare equal, which is what makes DAG reuse
    across thousands of tenants (and the reproducibility property tests)
    cheap to check.
    """

    shape: str
    seed: int
    tasks: tuple[DAGTask, ...]

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @cached_property
    def total_work(self) -> float:
        """Summed once per DAG: admission reads it on every offer and
        completion, and one DAG serves many requests."""
        return sum(t.cpu_work for t in self.tasks)

    @cached_property
    def critical_path_work(self) -> float:
        """Longest dependency-chain work sum (ids are topological order),
        walked once per DAG: every request's deadline reads it."""
        finish: list[float] = []
        for t in self.tasks:
            upstream = max((finish[p] for p in t.parents), default=0.0)
            finish.append(upstream + t.cpu_work)
        return max(finish, default=0.0)

    def validate(self) -> None:
        """Structural invariants: ids dense, edges point backwards (acyclic)."""
        for i, t in enumerate(self.tasks):
            if t.id != i:
                raise ValueError(f"task ids must be dense, got {t.id} at {i}")
            if t.cpu_work < 0:
                raise ValueError(f"task {i} has negative cpu_work")
            for p in t.parents:
                if not 0 <= p < i:
                    raise ValueError(
                        f"task {i} depends on {p}: edges must point to "
                        "earlier tasks (acyclicity by construction)"
                    )


def _dag_edges(shape: str, n: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """Parent lists per task id for one of :data:`DAG_SHAPES`."""
    if shape == "chain":
        return [() if i == 0 else (i - 1,) for i in range(n)]
    if shape == "fanout":
        # split -> n-2 parallel branches -> join (per-sample fan-out)
        if n < 3:
            return [() if i == 0 else (i - 1,) for i in range(n)]
        middle = range(1, n - 1)
        return [()] + [(0,) for _ in middle] + [tuple(middle)]
    if shape == "diamond":
        # two stacked fanout/fan-in lozenges sharing a waist
        if n < 4:
            return _dag_edges("fanout", n, rng)
        waist = n // 2
        first = _dag_edges("fanout", waist + 1, rng)
        edges = list(first)
        middle = range(waist + 1, n - 1)
        edges.extend((waist,) for _ in middle)
        edges.append(tuple(middle) if len(middle) else (waist,))
        return edges
    if shape == "layered":
        # random layered DAG: every task depends on 1-3 tasks of the
        # previous layer (Montage-style), layer widths drawn per DAG
        edges: list[tuple[int, ...]] = [()]
        prev_layer = [0]
        i = 1
        while i < n:
            width = min(int(rng.integers(1, 4)), n - i)
            layer = []
            for _ in range(width):
                k = min(int(rng.integers(1, 4)), len(prev_layer))
                picks = rng.choice(len(prev_layer), size=k, replace=False)
                edges.append(tuple(sorted(prev_layer[j] for j in picks)))
                layer.append(i)
                i += 1
            prev_layer = layer
        return edges
    raise ValueError(f"unknown DAG shape {shape!r}; known: {DAG_SHAPES}")


def make_workflow_dag(
    shape: str = "fanout",
    n_tasks: int = 6,
    seed: int = 0,
    mean_work_s: float = 90.0,
    work_spread: float = 4.0,
) -> WorkflowDAG:
    """One workflow DAG instance, deterministic in its arguments.

    Per-task work is log-uniform over ``[mean/spread, mean*spread]``
    m1.small-seconds, rounded to milliseconds so the value survives a
    JSON round-trip bit-exactly.  The RNG stream is private to the call
    (``np.random.default_rng``), so DAG generation never perturbs a
    simulation's RNG state.
    """
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    if mean_work_s <= 0 or work_spread < 1.0:
        raise ValueError("need mean_work_s > 0 and work_spread >= 1")
    rng = np.random.default_rng(seed)
    edges = _dag_edges(shape, n_tasks, rng)
    lo, hi = np.log(mean_work_s / work_spread), np.log(mean_work_s * work_spread)
    work = np.round(np.exp(rng.uniform(lo, hi, size=n_tasks)), 3)
    dag = WorkflowDAG(
        shape=shape,
        seed=seed,
        tasks=tuple(
            DAGTask(id=i, cpu_work=float(work[i]), parents=edges[i])
            for i in range(n_tasks)
        ),
    )
    dag.validate()
    return dag
