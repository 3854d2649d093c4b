"""``gp-bench`` / ``python -m repro.bench``: run benchmark suites.

Examples::

    gp-bench --list                         # what would run
    gp-bench --smoke --workers 4            # CI smoke sweep, fanned out
    gp-bench scale --workers 4 --json-out suite.json
    gp-bench fig10 fig11 --workers 2        # a subset of suites
    gp-bench usecase --smoke --obs-out obs/ # spans: Chrome trace + summary

Exit status is 1 if any task failed or timed out — or if an
otherwise-ok task's payload reports ``tasks_failed > 0`` — so CI can
gate on the sweep directly; it is 2 for an unknown suite, a
``--workers`` below 1 or a ``--timeout`` that is not positive.

Payloads and ``--sim-json-out`` hold simulated results only; what a run
costs the host is measured by ``perfbench/run.py``, not here.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from ..obs import chrome_trace, critpath_doc, spans_jsonl, summary_table, timeseries_jsonl
from . import suites
from .harness import run_suite


def build_parser() -> argparse.ArgumentParser:
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
        type=pathlib.Path,
        help="write the merged suite result (JSON) here",
    )
    parser.add_argument(
        "--sim-json-out",
        type=pathlib.Path,
        help="write the host-independent simulation metrics (JSON) here",
    )
    parser.add_argument(
        "--obs-out",
        type=pathlib.Path,
        metavar="DIR",
        help=(
            "record spans/metrics in every task and write, per suite, a"
            " Chrome trace_event JSON (Perfetto-loadable), a JSONL span"
            " log, and a text summary into DIR; simulation results are"
            " unaffected (see --list for which suites record spans)"
        ),
    )
    parser.add_argument(
        "--critpath-out",
        type=pathlib.Path,
        metavar="DIR",
        help=(
            "record spans in every task and write, per suite, the causal"
            " critical-path document (<suite>.critpath.json: makespan-"
            "dominating chain + per-layer attribution) into DIR, plus a"
            " rendered attribution table on stdout; implies span capture"
        ),
    )
    parser.add_argument(
        "--bundle-out",
        type=pathlib.Path,
        metavar="DIR",
        help=(
            "export a provenance bundle (topology + calibration digest +"
            " scenario/seeds + span log + sim JSON) into DIR as"
            " <suite>.bundle.json; implies span capture; replay/verify it"
            " with gp-replay"
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
    for name in suites.names():
        suite = suites.get(name, smoke=smoke)
        obs = "obs-out: yes" if suite.supports_obs else "obs-out: no"
        print(f"{name}: {suite.description} ({len(suite.specs)} specs, {obs})")
        for spec in suite.specs:
            print(f"  {spec.name}  [{spec.task}] {spec.params or ''}")


def write_obs_outputs(result, out_dir: pathlib.Path) -> list[pathlib.Path]:
    """Write per-suite trace artefacts from a suite result's obs docs.

    Tasks are grouped by the suite prefix of their spec name
    (``fig10/m1.small/w1`` -> ``fig10``), so a combined run still yields
    one trace file set per constituent suite.  Returns the written paths.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []
    for group, docs in sorted(_obs_groups(result).items()):
        trace_path = out_dir / f"{group}.trace.json"
        trace_path.write_text(json.dumps(chrome_trace(docs), sort_keys=True) + "\n")
        written.append(trace_path)
        jsonl_path = out_dir / f"{group}.spans.jsonl"
        jsonl_path.write_text(spans_jsonl(docs))
        written.append(jsonl_path)
        series_path = out_dir / f"{group}.timeseries.jsonl"
        series_path.write_text(timeseries_jsonl(docs))
        written.append(series_path)
        summary_path = out_dir / f"{group}.summary.txt"
        summary_path.write_text(
            summary_table(docs, title=f"{group}: span summary (sim-seconds)") + "\n"
        )
        written.append(summary_path)
    return written


def _obs_groups(result) -> dict[str, list[dict]]:
    """Obs docs grouped by the suite prefix of their spec name."""
    groups: dict[str, list[dict]] = {}
    for t in result.tasks:
        if not t.obs:
            continue
        groups.setdefault(t.spec.name.split("/", 1)[0], []).extend(t.obs)
    return groups


def write_critpath_outputs(result, out_dir: pathlib.Path) -> list[pathlib.Path]:
    """Write per-suite ``.critpath.json`` documents; returns the paths.

    Built purely from spans (never metrics), with deterministic tie
    breaks — the files are byte-identical across worker counts.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []
    for group, docs in sorted(_obs_groups(result).items()):
        doc = critpath_doc(docs, suite=group)
        path = out_dir / f"{group}.critpath.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if not args.timeout > 0:  # also rejects nan, which would never time out
        parser.error("--timeout must be positive")

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

    suite = suites.combined(args.suites or None, smoke=args.smoke)
    if args.obs_out and not suite.supports_obs:
        print(
            "note: none of the selected suites drives a simulation;"
            " --obs-out will record no spans",
            file=sys.stderr,
        )
    mode = f"{args.workers} workers" if args.workers > 1 else "sequential"
    capture_spans = (
        args.obs_out is not None
        or args.bundle_out is not None
        or args.critpath_out is not None
    )
    obs_note = ", obs" if capture_spans else ""
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
        obs=capture_spans,
    )

    print()
    print(result.render())

    if args.json_out:
        args.json_out.write_text(result.to_json() + "\n")
        print(f"wrote {args.json_out}")
    if args.sim_json_out:
        args.sim_json_out.write_text(result.sim_json() + "\n")
        print(f"wrote {args.sim_json_out}")
    if args.obs_out:
        for path in write_obs_outputs(result, args.obs_out):
            print(f"wrote {path}")
    if args.critpath_out:
        # imported lazily like the other reporting renderers
        from ..reporting import render_critpath

        for path in write_critpath_outputs(result, args.critpath_out):
            print(f"wrote {path}")
            doc = json.loads(path.read_text())
            print(render_critpath(doc))
    if args.bundle_out:
        # imported lazily: most gp-bench invocations never bundle, and
        # the provenance package pulls in the replay machinery
        from ..provenance import build_bundle, write_bundle

        bundle = build_bundle(result)
        bundle_path = write_bundle(bundle, args.bundle_out / f"{suite.name}.bundle.json")
        print(f"wrote {bundle_path} (digest {bundle.digest()[:12]}...)")

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
