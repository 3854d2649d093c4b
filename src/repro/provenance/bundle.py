"""Provenance bundles: serialize a run's reconstruction inputs + output.

A bundle is one JSON document::

    {
      "format": "gp-provenance-bundle",
      "version": 1,
      "sections": {
        "calibration": {"digest": ..., "constants": {...}},
        "scenario":    {"suite": ...,
                        "specs": [{name, task, params, timeout_s}, ...]},
        "seeds":       {"<spec name>": <seed int>, ...},
        "topology":    [<obs annotation docs>, ...],
        "spans":       [<obs docs: spans/instants/annotations/series>, ...],
        "sim":         <SuiteResult.sim_dict()>
      },
      "section_digests": {"calibration": sha256, ...},
      "digest": sha256 over the canonical section_digests map
    }

Digests are SHA-256 over canonical JSON (sorted keys, no whitespace), so
the same content always yields the same bundle bytes — bundles of a
deterministic run are themselves deterministic and diffable.  Every
integrity failure raises :class:`BundleError` with a machine-readable
``code`` (and ``section`` where one is implicated); the verifier never
passes silently on a malformed document.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from dataclasses import dataclass, field

from .. import calibration
from ..obs.export import annotations

BUNDLE_FORMAT = "gp-provenance-bundle"
BUNDLE_VERSION = 1

#: every bundle carries exactly these sections (order = digest order)
SECTION_NAMES = ("calibration", "scenario", "seeds", "topology", "spans", "sim")

#: annotation kinds lifted into the topology section
_TOPOLOGY_KINDS = ("topology", "topology-update")


class BundleError(Exception):
    """A bundle that cannot be trusted; ``code`` says why, structurally.

    Codes::

        bundle.unreadable       file missing / not JSON
        bundle.format           wrong format marker or version
        bundle.section-missing  a required section is absent
        bundle.section-digest   a section's content does not match its digest
        bundle.digest           the top-level digest does not match
        calibration.internal    the calibration section disagrees with itself
        calibration.drift       bundled constants differ from the live code
        bundle.spans-schema     the spans section is not a list of obs docs
        scenario.malformed      the scenario cannot rebuild a suite
        override.unknown        an unsupported counterfactual override key
        override.invalid        an override value of the wrong type
        override.unused         an override that no bundled spec takes
        run.bundle-count        a run directory holds zero or several bundles
        run.extra-file          a file that is neither the bundle nor a view
        run.view-missing        a view the bundle derives is absent
        run.view-empty          a view file is empty
        run.view-mismatch       a view file differs from the derived view
        run.view-schema         a derived view fails its schema check

    ``run.*`` view and file errors name the file in ``detail["file"]``.
    """

    def __init__(
        self,
        code: str,
        message: str,
        section: str | None = None,
        detail: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.section = section
        self.detail = detail or {}

    def to_dict(self) -> dict:
        return {
            "error": {
                "code": self.code,
                "section": self.section,
                "message": str(self),
                "detail": self.detail,
            }
        }


def canonical_json(doc) -> str:
    """The byte form every digest is computed over."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def content_digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


@dataclass(frozen=True)
class ProvenanceBundle:
    """The sections, plus (for loaded bundles) the digests *as stored*.

    Digests are always recomputed from content when serializing; the
    ``stored_*`` fields keep what the document on disk claimed, so the
    verifier can detect tampering.  They are excluded from equality —
    a bundle round-tripped through JSON compares equal to the original.
    """

    calibration: dict
    scenario: dict
    seeds: dict
    topology: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    sim: dict = field(default_factory=dict)
    stored_section_digests: dict | None = field(default=None, compare=False)
    stored_digest: str | None = field(default=None, compare=False)

    def sections(self) -> dict:
        return {
            "calibration": self.calibration,
            "scenario": self.scenario,
            "seeds": self.seeds,
            "topology": self.topology,
            "spans": self.spans,
            "sim": self.sim,
        }

    def section_digests(self) -> dict[str, str]:
        return {name: content_digest(doc) for name, doc in self.sections().items()}

    def digest(self) -> str:
        return content_digest(self.section_digests())

    def to_dict(self) -> dict:
        return {
            "format": BUNDLE_FORMAT,
            "version": BUNDLE_VERSION,
            "sections": self.sections(),
            "section_digests": self.section_digests(),
            "digest": self.digest(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def sim_json(self) -> str:
        """The bundled sim output in ``SuiteResult.sim_json()`` byte form."""
        return json.dumps(self.sim, indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "ProvenanceBundle":
        """Structural parse only — integrity is ``verify_bundle``'s job.

        Raises :class:`BundleError` when the document is not a bundle at
        all (wrong format marker, unsupported version, missing section).
        """
        if not isinstance(doc, dict):
            raise BundleError("bundle.format", "bundle must be a JSON object")
        if doc.get("format") != BUNDLE_FORMAT:
            raise BundleError(
                "bundle.format",
                f"not a {BUNDLE_FORMAT} document (format={doc.get('format')!r})",
            )
        if doc.get("version") != BUNDLE_VERSION:
            raise BundleError(
                "bundle.format",
                f"unsupported bundle version {doc.get('version')!r}"
                f" (expected {BUNDLE_VERSION})",
            )
        sections = doc.get("sections")
        if not isinstance(sections, dict):
            raise BundleError("bundle.section-missing", "missing 'sections' object")
        for name in SECTION_NAMES:
            if name not in sections:
                raise BundleError(
                    "bundle.section-missing",
                    f"bundle has no {name!r} section",
                    section=name,
                )
        return cls(
            calibration=sections["calibration"],
            scenario=sections["scenario"],
            seeds=sections["seeds"],
            topology=sections["topology"],
            spans=sections["spans"],
            sim=sections["sim"],
            stored_section_digests=doc.get("section_digests"),
            stored_digest=doc.get("digest"),
        )


def calibration_section() -> dict:
    """The live code's calibration, in bundle-section form."""
    return {"digest": calibration.digest(), "constants": calibration.snapshot()}


def build_bundle(result) -> ProvenanceBundle:
    """Bundle a finished :class:`~repro.bench.harness.SuiteResult`.

    The scenario comes from ``result.scenario_dict()``; seeds are lifted
    out of spec params into their own section (specs without an explicit
    ``seed`` param are not listed — their tasks' defaults apply on both
    sides); topology annotations and the span log come from the obs docs
    the tasks recorded (empty when the run was not captured).
    """
    scenario = result.scenario_dict()
    seeds = {
        spec["name"]: spec["params"]["seed"]
        for spec in scenario["specs"]
        if isinstance(spec.get("params"), dict) and "seed" in spec["params"]
    }
    obs_docs = result.obs_docs()
    topology = [
        {k: v for k, v in ann.items()}
        for ann in annotations(obs_docs)
        if ann.get("kind") in _TOPOLOGY_KINDS
    ]
    # canonicalize through a JSON round trip so in-process bundles match
    # bundles rebuilt from disk byte for byte
    bundle = ProvenanceBundle(
        calibration=calibration_section(),
        scenario=json.loads(json.dumps(scenario)),
        seeds=json.loads(json.dumps(seeds)),
        topology=json.loads(json.dumps(topology)),
        spans=json.loads(json.dumps(obs_docs)),
        sim=json.loads(json.dumps(result.sim_dict())),
    )
    # stamp the stored digests so a freshly built bundle verifies without
    # a disk round trip (verify_bundle demands stored digests to compare)
    return dataclasses.replace(
        bundle,
        stored_section_digests=bundle.section_digests(),
        stored_digest=bundle.digest(),
    )


def write_bundle(bundle: ProvenanceBundle, path: pathlib.Path | str) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(bundle.to_json() + "\n")
    return path


def read_bundle(path: pathlib.Path | str) -> ProvenanceBundle:
    """Load a bundle from disk (structural checks only; see
    :func:`~repro.provenance.replay.verify_bundle` for integrity)."""
    path = pathlib.Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise BundleError("bundle.unreadable", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise BundleError(
            "bundle.unreadable", f"{path} is not UTF-8 text: {exc}"
        ) from exc
    if not text.strip():
        raise BundleError("bundle.unreadable", f"{path} is empty")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise BundleError(
            "bundle.unreadable", f"{path} is not valid JSON: {exc}"
        ) from exc
    return ProvenanceBundle.from_dict(doc)
