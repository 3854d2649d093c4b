"""``gp-replay``: verify or counterfactually re-execute a provenance bundle.

Examples::

    gp-replay run-out/                           # run directory: bundle + views
    gp-replay smoke.bundle.json                  # byte-identity verification
    gp-replay smoke.bundle.json --check-only     # integrity/calibration only
    gp-replay smoke.bundle.json --export-sim sim.json   # extract bundled sim
    gp-replay usecase.bundle.json --override instance_type=c1.medium
    gp-replay smoke.bundle.json --override seed=7

A directory (``gp-bench --run-out``) must hold one bundle and only its
views (:mod:`repro.provenance.rundir`); then it is replayed as a file.

Exit status:

* ``0`` — bundle verified (replay byte-identical), or counterfactual ran
  with every task ok;
* ``1`` — replay diverged from the bundled run, or replayed tasks failed;
* ``2`` — usage errors: bad ``--override`` syntax, keys, values or one
  no bundled spec takes, ``--workers`` below 1, an ``--export-sim`` or
  ``--json-out`` that is a directory, a name the file system refuses,
  or not in a writable directory;
* ``3`` — the bundle or run directory cannot be trusted (digest/section/
  calibration/scenario, or a ``run.*`` file problem).

Exits 2 and 3 print the structured
:class:`~repro.provenance.bundle.BundleError` document as JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from ..bench.cli import output_file
from .bundle import BundleError, read_bundle
from .replay import parse_overrides, rebuild_suite, replay, verify_bundle
from .rundir import read_run_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gp-replay",
        description=(
            "Rebuild a simulation from a provenance bundle and verify the"
            " replayed sim JSON is byte-identical — or re-run it under"
            " counterfactual overrides and report metric deltas."
        ),
    )
    parser.add_argument("path", type=pathlib.Path, help="bundle JSON file or run directory")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "counterfactual input (repeatable): instance_type=..., seed=N;"
            " any override switches from byte-identity verification to a"
            " comparison report"
        ),
    )
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="verify the bundle and a run directory's views, then exit (no replay)",
    )
    parser.add_argument(
        "--export-sim",
        type=output_file,
        metavar="PATH",
        help="write the bundled sim JSON (SuiteResult.sim_json form) to PATH",
    )
    parser.add_argument(
        "--json-out",
        type=output_file,
        metavar="PATH",
        help="write the structured replay report (JSON) to PATH",
    )
    parser.add_argument(
        "-w", "--workers",
        type=int,
        default=1,
        help="harness worker processes for the replay (default 1, in-process)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the rendered report"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")

    try:
        overrides = parse_overrides(args.override)
        if os.path.isdir(args.path):
            bundle = read_run_dir(args.path)
        else:
            bundle = read_bundle(args.path)
            verify_bundle(bundle)
        # the scenario must rebuild a suite that takes every override
        rebuild_suite(bundle, overrides)
    except BundleError as exc:
        print(json.dumps(exc.to_dict(), sort_keys=True), file=sys.stderr)
        return 2 if exc.code.startswith("override.") else 3

    if args.export_sim:
        args.export_sim.write_text(bundle.sim_json() + "\n")
        if not args.quiet:
            print(f"wrote {args.export_sim}")

    if args.check_only:
        if not args.quiet:
            print(
                f"bundle ok: suite {bundle.scenario.get('suite')!r},"
                f" {len(bundle.scenario.get('specs', []))} spec(s),"
                f" digest {bundle.digest()[:12]}..."
            )
        return 0

    # integrity already checked above; don't re-verify inside replay
    report = replay(bundle, overrides=overrides, verify=False, workers=args.workers)

    if args.json_out:
        args.json_out.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        if not args.quiet:
            print(f"wrote {args.json_out}")
    if not args.quiet:
        print(report.render())

    if report.mode == "verify":
        return 0 if report.verified else 1
    return 0 if report.replay_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
