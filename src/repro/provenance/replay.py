"""Replay: verify a bundle byte-for-byte or run it counterfactually.

Identity replay (the default) rebuilds the bundled scenario — same specs,
same seeds — runs it in-process through the benchmark harness, and
builds the bundle that run would write with the code that wrote the
original (:func:`~repro.provenance.bundle.build_bundle`).  The run
reproduces when that bundle's ``spans``, ``topology`` and ``sim``
sections have the bundled sections' canonical bytes (content digests).
For each section that does not,
:func:`~repro.reporting.divergence.first_divergence` names the first
differing JSON path, and a ``spans`` divergence inside a span or an
instant also names that record (name, track, sim time): never a silent
pass.  A bundled obs doc is compared on every key the recorder writes
(:data:`~repro.obs.validate.OBS_DOC_KEYS`); a key it no longer writes,
the ``metrics`` object of docs written before metrics were dropped, is
not compared.

The replay records spans only when the bundle carries some, so a bundle
of an uncaptured run (empty ``spans`` and ``topology``) replays as one.

Counterfactual replay (``overrides``) re-runs the same scenario under
altered inputs — a different instance type or seed — and reports
per-metric deltas instead of demanding byte identity.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

from .. import calibration
from ..bench.harness import BenchSpec, BenchSuite, run_suite
from ..cloud.instance_types import resolve
from ..obs.validate import OBS_DOC_KEYS, check_obs_docs
from ..reporting.divergence import (
    Divergence,
    comparison_rows,
    first_divergence,
    render_comparison,
    render_divergence,
)
from .bundle import BundleError, ProvenanceBundle, build_bundle, content_digest

#: counterfactual knobs ``--override`` accepts, and how each applies
OVERRIDE_KEYS = ("instance_type", "seed")

#: a ``first_divergence`` path into the spans section that falls inside
#: one span or instant: doc index, record list, record index
_RECORD_PATH = re.compile(r"\$\[(\d+)\]\.(spans|instants)\[(\d+)\]")


def verify_bundle(bundle: ProvenanceBundle) -> None:
    """Integrity, calibration and span-schema checks; raises :class:`BundleError`.

    Order matters for error attribution: per-section content digests
    first (so corrupting a section names that section), then the
    top-level digest, then calibration internal consistency and drift
    against the live code, then the ``spans`` section's obs-doc schema
    (a re-digested section must still be docs the views can read).
    """
    stored_sections = bundle.stored_section_digests
    if not isinstance(stored_sections, dict):
        raise BundleError(
            "bundle.section-digest", "bundle carries no section_digests map"
        )
    computed = bundle.section_digests()
    for name, digest in computed.items():
        stored = stored_sections.get(name)
        if stored != digest:
            raise BundleError(
                "bundle.section-digest",
                f"section {name!r} does not match its recorded digest"
                f" (stored {str(stored)[:12]}..., content {digest[:12]}...)",
                section=name,
                detail={"stored": stored, "computed": digest},
            )
    top = content_digest(computed)
    if bundle.stored_digest != top:
        raise BundleError(
            "bundle.digest",
            f"bundle digest mismatch (stored {str(bundle.stored_digest)[:12]}...,"
            f" content {top[:12]}...)",
            detail={"stored": bundle.stored_digest, "computed": top},
        )
    # calibration: the section must agree with itself...
    constants = bundle.calibration.get("constants")
    claimed = bundle.calibration.get("digest")
    if not isinstance(constants, dict) or content_digest(constants) != claimed:
        raise BundleError(
            "calibration.internal",
            "calibration constants do not match the section's own digest",
            section="calibration",
        )
    # ...and with the code that is about to replay it
    live = calibration.snapshot()
    if claimed != calibration.digest():
        drifted = sorted(
            k
            for k in set(constants) | set(live)
            if constants.get(k) != live.get(k)
        )
        first = drifted[0] if drifted else "?"
        raise BundleError(
            "calibration.drift",
            f"bundle calibration differs from the live code"
            f" ({len(drifted)} constant(s), first: {first!r} ="
            f" {constants.get(first)!r} bundled vs {live.get(first)!r} live)",
            section="calibration",
            detail={"constants": drifted},
        )
    errors = check_obs_docs(bundle.spans)
    if errors:
        raise BundleError(
            "bundle.spans-schema",
            f"spans section: {errors[0]}"
            + (f" (and {len(errors) - 1} more)" if len(errors) > 1 else ""),
            section="spans",
            detail={"errors": errors[:20]},
        )


def parse_overrides(pairs: list[str]) -> dict:
    """``KEY=VALUE`` strings -> typed override mapping; raises BundleError."""
    out: dict = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or not key or not value.strip():
            raise BundleError(
                "override.unknown", f"override {pair!r} is not KEY=VALUE"
            )
        if key not in OVERRIDE_KEYS:
            raise BundleError(
                "override.unknown",
                f"unsupported override {key!r}; choose from {OVERRIDE_KEYS}",
            )
        value = value.strip()
        if key == "seed":
            try:
                out[key] = int(value)
            except ValueError:
                raise BundleError(
                    "override.invalid", f"override {pair!r}: seed must be an integer"
                ) from None
        else:
            # an unknown type is caught before any replay runs; the name
            # itself is applied, so aliases such as "small" keep working
            try:
                resolve(value)
            except KeyError as exc:
                raise BundleError(
                    "override.invalid", f"override {pair!r}: {exc.args[0]}"
                ) from None
            out[key] = value
    return out


def rebuild_suite(
    bundle: ProvenanceBundle, overrides: Optional[dict] = None
) -> BenchSuite:
    """The bundled scenario as a runnable suite, seeds re-applied.

    Overrides patch spec params in place: ``seed`` replaces every seed
    the seeds section lists, ``instance_type`` every param of that name;
    an override that no spec takes raises ``override.unused``.  Scenario
    keys other than ``suite`` and ``specs`` are ignored, so bundles whose
    scenario still names a kernel ``scheduler`` and ``dispatch`` rebuild
    the same suite.
    """
    overrides = overrides or {}
    scenario = bundle.scenario
    applied: set[str] = set()
    try:
        suite_name = scenario["suite"]
        spec_docs = scenario["specs"]
        specs = []
        for doc in spec_docs:
            params = dict(doc.get("params") or {})
            name = doc["name"]
            if name in bundle.seeds:
                params["seed"] = bundle.seeds[name]
            for key in OVERRIDE_KEYS:
                if key in overrides and key in params:
                    params[key] = overrides[key]
                    applied.add(key)
            specs.append(
                BenchSpec(
                    name=name,
                    task=doc["task"],
                    params=params,
                    timeout_s=doc.get("timeout_s"),
                )
            )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise BundleError(
            "scenario.malformed",
            f"scenario section cannot rebuild a suite: {exc!r}",
            section="scenario",
        ) from exc
    if not specs:
        raise BundleError(
            "scenario.malformed", "scenario lists no specs", section="scenario"
        )
    unused = sorted(set(overrides) - applied)
    if unused:
        raise BundleError(
            "override.unused",
            f"no bundled spec takes override {unused[0]!r}",
            section="scenario",
            detail={"keys": unused},
        )
    return BenchSuite(
        suite_name, f"replay of bundled suite {suite_name!r}", tuple(specs)
    )


@dataclass
class ReplayReport:
    """Outcome of one replay: identity verdict or counterfactual deltas."""

    mode: str                      # "verify" | "counterfactual"
    suite: str
    overrides: dict = field(default_factory=dict)
    verified: Optional[bool] = None
    #: the first divergence of each replayed section that did not reproduce
    divergences: dict[str, Divergence] = field(default_factory=dict)
    #: name, track, sim time and doc label of the span or instant the
    #: ``spans`` divergence falls inside (None when it falls elsewhere)
    record: Optional[dict] = None
    replay_ok: bool = True         # every replayed task returned ok
    comparison: list[dict] = field(default_factory=list)
    tasks: int = 0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "suite": self.suite,
            "overrides": dict(self.overrides),
            "verified": self.verified,
            "divergences": {
                name: div.to_dict() for name, div in self.divergences.items()
            },
            "record": self.record,
            "replay_ok": self.replay_ok,
            "comparison": list(self.comparison),
            "tasks": self.tasks,
        }

    def render(self) -> str:
        head = f"replay of suite {self.suite!r}: {self.tasks} spec(s)"
        if self.mode == "verify":
            if self.verified:
                return f"{head}\nVERIFIED: replayed spans, topology and sim are byte-identical"
            lines = [head, "DIVERGED: replay did not reproduce the bundled run"]
            for name, div in self.divergences.items():
                lines.append(render_divergence(div, title=f"first divergence in {name}"))
                if name == "spans" and self.record is not None:
                    rec = self.record
                    lines.append(
                        f"  record:   {rec['name']} [{rec['track']}] at t={rec['time']:g}s"
                        f" in {rec['context']}"
                    )
            return "\n".join(lines)
        lines = [head, f"counterfactual overrides: {self.overrides}"]
        if not self.replay_ok:
            lines.append("WARNING: some replayed tasks failed; deltas are partial")
        lines.append(render_comparison(self.comparison))
        return "\n".join(lines)


def _record_at(path: str, *sides: list) -> Optional[dict]:
    """Name, track, sim time and doc label of the span or instant that a
    spans-section divergence ``path`` falls inside, from the first side
    holding it."""
    match = _RECORD_PATH.match(path)
    if match is None:
        return None
    doc, kind, index = int(match[1]), match[2], int(match[3])
    for docs in sides:
        records = docs[doc][kind] if doc < len(docs) else []
        if index < len(records):
            rec = records[index]
            time = rec["start"] if kind == "spans" else rec["time"]
            return {
                "name": rec["name"],
                "track": rec["track"],
                "time": time,
                "context": docs[doc]["label"],
            }
    return None


def replay(
    bundle: ProvenanceBundle,
    overrides: Optional[dict] = None,
    verify: bool = True,
    workers: int = 1,
) -> ReplayReport:
    """Re-execute a bundle; identity-verify or compare counterfactually.

    ``verify=True`` (the default) runs :func:`verify_bundle` first, so a
    corrupted bundle never reaches the simulator; pass ``False`` only for
    a bundle already verified.  ``workers`` feeds the harness fan-out;
    the merge is spec-order deterministic, so identity verification is
    unaffected by parallelism.
    """
    if verify:
        verify_bundle(bundle)
    overrides = dict(overrides or {})
    suite = rebuild_suite(bundle, overrides)
    counterfactual = bool(overrides)
    # recording spans leaves the sim JSON byte-identical (CI pins this),
    # so one run yields every section the bundle's own run wrote
    replay_obs = not counterfactual and bool(bundle.spans)
    result = run_suite(suite, workers=workers, obs=replay_obs)
    report = ReplayReport(
        mode="counterfactual" if counterfactual else "verify",
        suite=suite.name,
        overrides=overrides,
        replay_ok=result.ok,
        tasks=len(result.tasks),
    )
    if not counterfactual:
        replayed = build_bundle(result).sections()
        # the sections the run derives, in report order
        bundled = {
            "spans": [{key: doc[key] for key in OBS_DOC_KEYS} for doc in bundle.spans],
            "topology": bundle.topology,
            "sim": bundle.sim,
        }
        for name, expected in bundled.items():
            actual = replayed[name]
            if content_digest(expected) == content_digest(actual):
                continue
            # equal values in other bytes (an int where the other side has
            # a float, or -0.0 against 0.0) diverge at the root
            report.divergences[name] = first_divergence(expected, actual) or Divergence(
                "$", "<equal values>", "<other canonical bytes>"
            )
        if "spans" in report.divergences:
            report.record = _record_at(
                report.divergences["spans"].path, bundled["spans"], replayed["spans"]
            )
        report.verified = not report.divergences
        return report

    # counterfactual: pair payloads by spec name and diff the numbers
    base_payloads = {
        t["name"]: t.get("payload") for t in bundle.sim.get("tasks", ())
    }
    rows: list[dict] = []
    for task in result.sim_dict()["tasks"]:
        base = base_payloads.get(task["name"])
        new = task.get("payload")
        if not isinstance(base, dict) or not isinstance(new, dict):
            continue
        for row in comparison_rows(base, new):
            rows.append({**row, "metric": f"{task['name']}:{row['metric']}"})
    report.comparison = json.loads(json.dumps(rows))
    return report
