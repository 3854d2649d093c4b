"""Tracked perf trajectory: one record per benchmark run, per commit.

``BENCH_scale.json`` captures a single snapshot; this module turns it
into a series.  Every harness run can append a record —

    {commit, date, suite, config_digest, workers, wall_seconds,
     events_processed, events_per_sec, tasks_ok, tasks_failed}

— to ``BENCH_trajectory.json`` (a JSON list at the repo root), and
render the events/sec-over-commits table via ``repro.reporting``.  The
kernel-throughput aggregate comes from the tasks that report kernel
counters (the scale grid): total events processed divided by the wall
time those tasks took, so the number is comparable across worker counts.

Run as a module it is also the regression gate::

    python -m repro.bench.trajectory --check \\
        --trajectory trajectory.json \\
        --critpath critpath-out/scale.critpath.json \\
        --baseline benchmarks/results/trajectory_baseline.json

``--check`` compares the latest matching trajectory record against the
committed baseline: events/sec may not fall below the baseline's
``min_events_per_sec`` floor (generous, for noisy CI hosts), and — the
deterministic half — the critical-path per-layer second totals and
makespan must match the baseline exactly (within ``tolerance_s``),
because span timings come from simulated time, not the host.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from ..reporting import render_table
from .harness import SuiteResult

#: default artefact location (relative to the invoking directory; the
#: CLI and ``benchmarks/bench_scale.py`` pass the repo-root path)
DEFAULT_PATH = pathlib.Path("BENCH_trajectory.json")


@dataclass(frozen=True)
class TrajectoryRecord:
    commit: str
    date: str
    suite: str
    config_digest: str
    workers: int
    wall_seconds: float
    events_processed: int
    events_per_sec: float
    tasks_ok: int
    tasks_failed: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrajectoryRecord":
        """Read one record, ignoring keys this version does not define
        (older records carry a ``dispatch`` field)."""
        return cls(**{k: doc[k] for k in cls.__dataclass_fields__})


def current_commit() -> str:
    """Short hash of HEAD, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def from_suite_result(
    result: SuiteResult, commit: str | None = None, date: str | None = None
) -> TrajectoryRecord:
    """Aggregate a suite run into one trajectory point."""
    events = 0
    kernel_wall = 0.0
    for t in result.tasks:
        if t.ok and isinstance(t.payload, dict) and "events_processed" in t.payload:
            events += int(t.payload["events_processed"])
            kernel_wall += t.wall_seconds
    counts = result.counts()
    return TrajectoryRecord(
        commit=commit if commit is not None else current_commit(),
        date=date if date is not None else utc_now_iso(),
        suite=result.suite,
        config_digest=result.config_digest(),
        workers=result.workers,
        wall_seconds=round(result.wall_seconds, 4),
        events_processed=events,
        events_per_sec=round(events / kernel_wall, 1) if kernel_wall > 0 else 0.0,
        tasks_ok=counts["ok"],
        tasks_failed=counts["failed"] + counts["timeout"],
    )


def load(path: pathlib.Path | str = DEFAULT_PATH) -> list[TrajectoryRecord]:
    path = pathlib.Path(path)
    if not path.exists():
        return []
    docs = json.loads(path.read_text())
    return [TrajectoryRecord.from_dict(doc) for doc in docs]


def append(
    record: TrajectoryRecord, path: pathlib.Path | str = DEFAULT_PATH
) -> list[TrajectoryRecord]:
    """Append one record and rewrite the file; returns the full series."""
    records = load(path)
    records.append(record)
    path = pathlib.Path(path)
    path.write_text(
        json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True) + "\n"
    )
    return records


def render(records: list[TrajectoryRecord], last: int | None = None) -> str:
    """The events/sec-over-commits table (most recent rows last)."""
    shown = records[-last:] if last else records
    rows = [
        (
            r.commit,
            r.date,
            r.suite,
            r.workers,
            f"{r.events_per_sec:,.0f}",
            f"{r.wall_seconds:.2f}",
            f"{r.tasks_ok}/{r.tasks_ok + r.tasks_failed}",
        )
        for r in shown
    ]
    return render_table(
        ["commit", "date", "suite", "workers", "events/sec", "wall (s)", "ok"],
        rows,
        title=f"Perf trajectory ({len(records)} runs tracked)",
    )


# ---------------------------------------------------------------------------
# regression gate
# ---------------------------------------------------------------------------


def check_against_baseline(
    baseline: dict,
    records: list[TrajectoryRecord],
    critpath: dict | None = None,
) -> list[str]:
    """Compare the latest matching record (and critpath doc) to a baseline.

    Returns a list of human-readable failures (empty = within bounds).
    The throughput floor is intentionally loose — wall time is host
    noise — while the critical-path layer totals are exact: they are
    simulated seconds, so any drift is a behaviour change, not jitter.
    """
    failures: list[str] = []
    suite = baseline.get("suite")
    matching = [r for r in records if suite is None or r.suite == suite]
    if not matching:
        failures.append(
            f"no trajectory record for suite {suite!r} "
            f"({len(records)} record(s) present)"
        )
    else:
        latest = matching[-1]
        if latest.tasks_failed:
            failures.append(
                f"latest {latest.suite} run has {latest.tasks_failed} failed task(s)"
            )
        floor = baseline.get("min_events_per_sec")
        if floor is not None and latest.events_per_sec < float(floor):
            failures.append(
                f"events/sec regressed: {latest.events_per_sec:,.0f} < "
                f"floor {float(floor):,.0f} (reference "
                f"{baseline.get('reference_events_per_sec', 'n/a')})"
            )
    expected = baseline.get("critpath")
    if expected is not None:
        if critpath is None:
            failures.append(
                "baseline pins critical-path layers but no --critpath file given"
            )
        else:
            tol = float(expected.get("tolerance_s", 1e-6))
            got_layers = critpath.get("layers") or {}
            want_layers = expected.get("layers") or {}
            for layer in sorted(set(want_layers) | set(got_layers)):
                want = float(want_layers.get(layer, 0.0))
                got = float(got_layers.get(layer, 0.0))
                if abs(want - got) > tol:
                    failures.append(
                        f"critical-path layer {layer!r} drifted: "
                        f"{got:.6f}s vs baseline {want:.6f}s (tol {tol})"
                    )
            want_mk = expected.get("makespan_s")
            if want_mk is not None:
                got_mk = float(critpath.get("makespan_s") or 0.0)
                if abs(float(want_mk) - got_mk) > tol:
                    failures.append(
                        f"critical-path makespan drifted: {got_mk:.6f}s vs "
                        f"baseline {float(want_mk):.6f}s (tol {tol})"
                    )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.trajectory",
        description="Render the perf trajectory, or gate it against a baseline.",
    )
    parser.add_argument(
        "--trajectory",
        type=pathlib.Path,
        default=DEFAULT_PATH,
        help=f"trajectory series to read (default: {DEFAULT_PATH})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare the latest record (and --critpath doc) to --baseline",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=pathlib.Path("benchmarks/results/trajectory_baseline.json"),
        help="baseline bounds for --check",
    )
    parser.add_argument(
        "--critpath",
        type=pathlib.Path,
        default=None,
        help="critpath document (gp-bench --critpath-out) checked for layer drift",
    )
    parser.add_argument(
        "--last", type=int, default=10, help="rows to render without --check"
    )
    args = parser.parse_args(argv)

    records = load(args.trajectory)
    if not args.check:
        if not records:
            print(f"no trajectory records at {args.trajectory}")
            return 0
        print(render(records, last=args.last))
        return 0

    if not args.baseline.exists():
        print(f"error: baseline {args.baseline} not found", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())
    critpath = None
    if args.critpath is not None:
        if not args.critpath.exists():
            print(f"error: critpath file {args.critpath} not found", file=sys.stderr)
            return 2
        critpath = json.loads(args.critpath.read_text())
    failures = check_against_baseline(baseline, records, critpath)
    if failures:
        for failure in failures:
            print(f"trajectory check FAILED: {failure}", file=sys.stderr)
        return 1
    suite = baseline.get("suite") or "any"
    print(f"trajectory check ok: suite {suite!r} within baseline bounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
