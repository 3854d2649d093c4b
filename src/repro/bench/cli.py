"""``gp-bench`` / ``python -m repro.bench``: run benchmark suites.

Examples::

    gp-bench --list                         # what would run
    gp-bench --smoke --workers 4            # CI smoke sweep, fanned out
    gp-bench scale --workers 4 --json-out suite.json
    gp-bench fig10 fig11 --workers 2        # a subset of suites
    gp-bench usecase --smoke --run-out run/ # bundle + trace and report views

Exit status is 1 if any task failed or timed out — or if an
otherwise-ok task's payload reports ``tasks_failed > 0`` — so CI can
gate on the sweep directly; it is 2 for an unknown suite, a
``--workers`` below 1, a ``--timeout`` that is not positive, a
``--run-out`` that is an existing file or non-empty directory or cannot
be created, or a ``--json-out`` or ``--sim-json-out`` that is a
directory, a name the file system refuses, or not in a writable
directory.  Each is refused before any task runs.

Payloads and ``--sim-json-out`` hold simulated results only; what a run
costs the host is measured by ``perfbench/run.py``, not here.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import stat
import sys

from .harness import run_suite


def output_file(text: str) -> pathlib.Path:
    """The ``type`` of an output file option: a path that is a directory,
    that the file system refuses, or that is not in a writable directory
    is a usage error before any work runs instead of a traceback after it."""
    path = pathlib.Path(text)
    try:
        mode = path.stat().st_mode
    except FileNotFoundError:
        mode = 0
    except OSError as exc:  # e.g. a name too long, or below a regular file
        raise argparse.ArgumentTypeError(f"{path}: {exc.strerror}") from None
    if stat.S_ISDIR(mode):
        raise argparse.ArgumentTypeError(f"{path} is a directory")
    if not (os.path.isdir(path.parent) and os.access(path.parent, os.W_OK)):
        raise argparse.ArgumentTypeError(f"{path}: {path.parent} is not a writable directory")
    return path


def build_parser() -> argparse.ArgumentParser:
    from . import suites

    parser = argparse.ArgumentParser(
        prog="gp-bench",
        description="Fan the benchmark suites out across worker processes.",
    )
    parser.add_argument(
        "suites",
        nargs="*",
        metavar="SUITE",
        help=f"suites to run (default: all of {', '.join(suites.names())})",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the smoke shapes (same code paths, seconds not minutes)",
    )
    parser.add_argument(
        "-w", "--workers",
        type=int,
        default=1,
        help="worker processes; 1 = sequential in-process (default)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="per-task timeout in seconds when workers > 1 (default 600)",
    )
    parser.add_argument(
        "--json-out",
        type=output_file,
        help="write the merged suite result (JSON) here",
    )
    parser.add_argument(
        "--sim-json-out",
        type=output_file,
        help="write the host-independent simulation metrics (JSON) here",
    )
    parser.add_argument(
        "--run-out",
        type=pathlib.Path,
        metavar="DIR",
        help=(
            "record spans and write the run directory into DIR (new or empty):"
            " the provenance bundle plus, per suite, a trace (spans, series and"
            " critical path) and a report (critical path and span summary);"
            " gp-replay DIR checks it"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list suites and specs, then exit"
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress per-task progress lines"
    )
    return parser


def _list_suites(smoke: bool) -> None:
    from . import suites

    for name in suites.names():
        suite = suites.get(name, smoke=smoke)
        print(f"{name}: {suite.description} ({len(suite.specs)} specs)")
        for spec in suite.specs:
            print(f"  {spec.name}  [{spec.task}] {spec.params or ''}")


def main(argv: list[str] | None = None) -> int:
    from . import suites

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if not args.timeout > 0:  # also rejects nan, which would never time out
        parser.error("--timeout must be positive")
    # a stale view from an earlier run would fail gp-replay's directory check
    run_out = args.run_out
    if run_out is not None and os.path.exists(run_out) and (
        not run_out.is_dir() or any(run_out.iterdir())
    ):
        parser.error(f"--run-out {run_out} must be a new or empty directory")

    for name in args.suites:
        if name not in suites.names():
            print(
                f"error: unknown suite {name!r}; known: {', '.join(suites.names())}",
                file=sys.stderr,
            )
            return 2

    if args.list:
        _list_suites(args.smoke)
        return 0
    if run_out is not None:
        try:
            run_out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            parser.error(f"--run-out {run_out} cannot be created: {exc.strerror}")

    suite = suites.combined(args.suites or None, smoke=args.smoke)
    mode = f"{args.workers} workers" if args.workers > 1 else "sequential"
    obs_note = ", obs" if run_out is not None else ""
    print(
        f"running suite {suite.name!r}: {len(suite.specs)} specs,"
        f" {mode}{obs_note}"
    )

    progress = None
    if not args.quiet:
        def progress(result):
            print(f"  {result.spec.name:<40} {result.status:<8} {result.wall_seconds:.3f}s")

    result = run_suite(
        suite,
        workers=args.workers,
        default_timeout_s=args.timeout,
        progress=progress,
        obs=run_out is not None,
    )

    print()
    print(result.render())

    if args.json_out:
        args.json_out.write_text(result.to_json() + "\n")
        print(f"wrote {args.json_out}")
    if args.sim_json_out:
        args.sim_json_out.write_text(result.sim_json() + "\n")
        print(f"wrote {args.sim_json_out}")
    if run_out is not None:
        # imported lazily: the provenance package pulls in the replay machinery
        from ..provenance import build_bundle, write_run_dir

        bundle = build_bundle(result)
        if not bundle.spans:
            print(
                f"note: no task recorded spans; {run_out} holds the bundle alone",
                file=sys.stderr,
            )
        bundle_path, *views = write_run_dir(bundle, run_out)
        print(f"wrote {bundle_path} (digest {bundle.digest()[:12]}...) + {len(views)} view(s)")

    payload_failures = result.payload_failures()
    if payload_failures and result.ok:
        print(
            f"error: {payload_failures} work unit(s) failed inside"
            " otherwise-ok tasks (payload tasks_failed > 0)",
            file=sys.stderr,
        )
    return 0 if result.ok and payload_failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
