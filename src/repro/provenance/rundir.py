"""Run directories: one provenance bundle and the views derived from it.

``gp-bench --run-out DIR`` writes ``<suite>.bundle.json`` and, per suite
group (spec-name prefix: ``fig10/m1.small/w1`` -> ``fig10``), the two
views :func:`run_views` derives from the bundle's ``spans`` section
alone: ``<group>.trace.json``, a Chrome trace whose counter tracks are
the gauge series and whose ``critical-path`` track is each context's
critical path, and ``<group>.report.md``, the critical-path and span
summary tables.  The bundle's digests are thus the directory's manifest:
:func:`read_run_dir` (``gp-replay DIR``) accepts the bundle and its
views, byte for byte, and nothing else.
"""

from __future__ import annotations

import json
import pathlib

from .. import obs
from ..reporting.critpath import render_critpath
from .bundle import BundleError, ProvenanceBundle, read_bundle, write_bundle
from .replay import verify_bundle

BUNDLE_SUFFIX = ".bundle.json"


def _with_critical_path(doc: dict, path: dict) -> dict:
    """A copy of ``doc`` whose spans end with its critical path's
    segments, as spans of one more track."""
    segments = [
        {
            "name": seg["name"],
            "track": "critical-path",
            "start": seg["start"],
            "end": seg["end"],
            "status": "ok",
            "attrs": {"layer": seg["layer"]},
        }
        for seg in path["segments"]
    ]
    return dict(doc, spans=[*doc.get("spans", ()), *segments])


def run_views(spans: list[dict]) -> dict[str, str]:
    """Every view of a run directory, file name -> text.

    ``spans`` is a bundle's ``spans`` section: obs docs the harness
    labelled ``<spec name>:<context>``, grouped here by the spec name's
    prefix in their recorded order.
    """
    groups: dict[str, list[dict]] = {}
    for doc in spans:
        spec_name = (doc.get("label") or "sim").rsplit(":", 1)[0]
        groups.setdefault(spec_name.split("/", 1)[0], []).append(doc)
    views: dict[str, str] = {}
    for group, docs in sorted(groups.items()):
        critpath = obs.critpath_doc(docs, suite=group)
        trace = obs.chrome_trace(
            [_with_critical_path(doc, path) for doc, path in zip(docs, critpath["contexts"])]
        )
        span_summary = obs.summary_table(docs, title=f"{group}: span summary (sim-seconds)")
        views[f"{group}.trace.json"] = json.dumps(trace, sort_keys=True) + "\n"
        views[f"{group}.report.md"] = (
            f"# {group}\n\n```\n{render_critpath(critpath)}\n```\n\n```\n{span_summary}\n```\n"
        )
    return views


def write_run_dir(bundle: ProvenanceBundle, out_dir: pathlib.Path | str) -> list[pathlib.Path]:
    """Write the bundle, then its views, into ``out_dir``; return the paths."""
    out_dir = pathlib.Path(out_dir)
    written = [write_bundle(bundle, out_dir / f"{bundle.scenario['suite']}{BUNDLE_SUFFIX}")]
    for name, text in run_views(bundle.spans).items():
        (out_dir / name).write_bytes(text.encode())
        written.append(out_dir / name)
    return written


def read_run_dir(run_dir: pathlib.Path | str) -> ProvenanceBundle:
    """Verify a run directory and return its bundle; raises BundleError
    (``bundle.*``/``calibration.*`` for the bundle itself, else ``run.*``)."""
    run_dir = pathlib.Path(run_dir)
    bundles = sorted(p.name for p in run_dir.glob(f"*{BUNDLE_SUFFIX}"))
    if len(bundles) != 1:
        raise BundleError(
            "run.bundle-count",
            f"{run_dir} holds {len(bundles)} bundles; a run directory holds exactly one",
            detail={"bundles": bundles},
        )
    bundle = read_bundle(run_dir / bundles[0])
    verify_bundle(bundle)
    views = run_views(bundle.spans)

    def fail(code: str, name: str, message: str) -> BundleError:
        return BundleError(code, f"{name}: {message}", detail={"file": name})

    # views are looked up in the listing, never by path: a doc label can
    # derive a file name no file system would take
    files = {path.name: path for path in run_dir.iterdir()}
    for name, path in sorted(files.items()):
        if name != bundles[0] and (name not in views or not path.is_file()):
            raise fail("run.extra-file", name, "is neither the bundle nor one of its views")
    for name, text in views.items():
        if name not in files:
            raise fail("run.view-missing", name, "view the bundle derives is missing")
        data = files[name].read_bytes()
        if data != text.encode():
            if not data.strip():
                raise fail("run.view-empty", name, "empty view file (no content to validate)")
            raise fail(
                "run.view-mismatch",
                name,
                f"is not the view the bundle derives ({len(data)} bytes on disk,"
                f" {len(text.encode())} derived)",
            )
        # the report is prose; the trace has a schema
        if name.endswith(".trace.json"):
            errors = obs.check_chrome_trace(json.loads(text))
            if errors:
                raise fail("run.view-schema", name, errors[0])
    return bundle
