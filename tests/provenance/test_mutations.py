"""Mutation tests: every corruption is detected, with the right error.

The verifier's contract is attribution, not just rejection — corrupt a
section and the error names that section; tamper consistently (content
*and* digests recomputed) and detection moves to the next layer down
(calibration checks, then replay divergence).  Nothing here may pass
silently.
"""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.provenance import (
    BundleError,
    ProvenanceBundle,
    verify_bundle,
    write_bundle,
)
from repro.provenance.bundle import SECTION_NAMES, canonical_json, content_digest
from repro.provenance.cli import main

from ..json_fuzz import JSON_VALUES, node_paths, put


def _doc(bundle) -> dict:
    return json.loads(bundle.to_json())


def _load(doc) -> ProvenanceBundle:
    return ProvenanceBundle.from_dict(json.loads(json.dumps(doc)))


def _rehash(doc) -> dict:
    """Recompute all digests, as a sophisticated tamperer would."""
    digests = {
        name: content_digest(section)
        for name, section in doc["sections"].items()
    }
    doc["section_digests"] = digests
    doc["digest"] = content_digest(digests)
    return doc


def _corrupt_section(doc, name):
    section = doc["sections"][name]
    if name == "calibration":
        section["constants"]["TAMPERED_CONSTANT"] = 42
    elif name == "scenario":
        section["specs"][0]["params"]["jobs"] += 1
    elif name == "seeds":
        section["scale/tiny"] = 99
    elif name == "topology":
        doc["sections"][name] = section + [{"kind": "topology", "attrs": {}}]
    elif name == "spans":
        doc["sections"][name] = section + [{"label": "forged", "spans": []}]
    elif name == "sim":
        section["tasks"][0]["payload"]["sim_seconds"] = 0.0
    return doc


@pytest.mark.parametrize("name", SECTION_NAMES)
def test_section_content_corruption_names_the_section(tiny_bundle, name):
    doc = _corrupt_section(_doc(tiny_bundle), name)
    with pytest.raises(BundleError) as exc:
        verify_bundle(_load(doc))
    assert exc.value.code == "bundle.section-digest"
    assert exc.value.section == name


@pytest.mark.parametrize("name", SECTION_NAMES)
def test_stored_section_digest_corruption_is_detected(tiny_bundle, name):
    doc = _doc(tiny_bundle)
    doc["section_digests"][name] = "0" * 64
    with pytest.raises(BundleError) as exc:
        verify_bundle(_load(doc))
    assert exc.value.code == "bundle.section-digest"
    assert exc.value.section == name


def test_top_digest_corruption_is_detected(tiny_bundle):
    doc = _doc(tiny_bundle)
    doc["digest"] = "f" * 64
    with pytest.raises(BundleError) as exc:
        verify_bundle(_load(doc))
    assert exc.value.code == "bundle.digest"


def test_missing_section_digest_map_is_detected(tiny_bundle):
    doc = _doc(tiny_bundle)
    del doc["section_digests"]
    with pytest.raises(BundleError) as exc:
        verify_bundle(_load(doc))
    assert exc.value.code == "bundle.section-digest"


def test_calibration_internal_inconsistency_survives_rehash(tiny_bundle):
    # tamper with the constants but leave the section's own digest claim:
    # outer digests recomputed, so detection falls to the internal check
    doc = _doc(tiny_bundle)
    doc["sections"]["calibration"]["constants"]["EC2_PROVISION_MEAN_S"] = 1e9
    _rehash(doc)
    with pytest.raises(BundleError) as exc:
        verify_bundle(_load(doc))
    assert exc.value.code == "calibration.internal"


def test_calibration_drift_fully_consistent_tamper(tiny_bundle):
    # the fully consistent forgery: constants changed AND the section's
    # own digest updated AND outer digests recomputed — only comparison
    # against the live code can catch it
    doc = _doc(tiny_bundle)
    cal = doc["sections"]["calibration"]
    cal["constants"]["FORGED_CONSTANT"] = 123.0
    cal["digest"] = content_digest(cal["constants"])
    _rehash(doc)
    with pytest.raises(BundleError) as exc:
        verify_bundle(_load(doc))
    assert exc.value.code == "calibration.drift"
    assert "FORGED_CONSTANT" in str(exc.value)
    assert "FORGED_CONSTANT" in exc.value.detail["constants"]


def test_seed_tamper_with_rehash_diverges_at_replay(tiny_bundle, tmp_path, capsys):
    # change the seed everywhere it is recorded and recompute every
    # digest: the bundle verifies, but the replayed sim cannot reproduce
    # the bundled sim section — gp-replay exits 1 with a divergence
    doc = _doc(tiny_bundle)
    doc["sections"]["seeds"]["scale/tiny"] = 1
    doc["sections"]["scenario"]["specs"][0]["params"]["seed"] = 1
    _rehash(doc)
    tampered = _load(doc)
    verify_bundle(tampered)  # integrity holds; the lie is semantic
    path = write_bundle(tampered, tmp_path / "tampered.bundle.json")
    assert main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "DIVERGED" in out
    assert "$." in out or "expected" in out


@pytest.mark.parametrize("name", SECTION_NAMES)
def test_cli_exit_three_on_any_section_corruption(tiny_bundle, tmp_path, capsys, name):
    doc = _corrupt_section(_doc(tiny_bundle), name)
    path = tmp_path / "corrupt.bundle.json"
    path.write_text(json.dumps(doc))
    assert main([str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "bundle.section-digest"
    assert err["error"]["section"] == name


def test_cli_exit_three_on_truncated_file(tiny_bundle, tmp_path, capsys):
    path = tmp_path / "truncated.bundle.json"
    path.write_text(tiny_bundle.to_json()[: len(tiny_bundle.to_json()) // 2])
    assert main([str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "bundle.unreadable"


def test_no_mutation_passes_silently(tiny_bundle):
    """The meta-check: every single-character digest flip is caught."""
    doc = _doc(tiny_bundle)
    good = doc["digest"]
    flipped = ("0" if good[0] != "0" else "1") + good[1:]
    doc["digest"] = flipped
    with pytest.raises(BundleError):
        verify_bundle(_load(doc))


# -- re-digested edits of what the run recorded ------------------------------


def _span_named(sections, name):
    return next(s for d in sections["spans"] for s in d["spans"] if s["name"] == name)


#: edit -> (mutation of the sections, the section it must be reported in)
RECORDED_EDITS = {
    "instant time": (lambda s: put(s, ("spans", 0, "instants", 0, "time"), 99.0), "spans"),
    "series value": (
        lambda s: put(s, ("spans", 0, "series", "condor.idle_jobs", 0, 1), 42),
        "spans",
    ),
    "span attrs": (lambda s: _span_named(s, "kernel.run")["attrs"].update(events=1), "spans"),
    "span error": (lambda s: put(s, ("spans", 0, "spans", 0, "error"), "boom"), "spans"),
    "span cause": (lambda s: _span_named(s, "chef.converge").update(cause_id=None), "spans"),
    "annotation time": (
        lambda s: put(s, ("spans", 0, "annotations", 0, "time"), 99.0),
        "spans",
    ),
    "doc label": (lambda s: put(s, ("spans", 0, "label"), "scale/other:sim-0"), "spans"),
    "topology entry time": (lambda s: put(s, ("topology", 0, "time"), 99.0), "topology"),
    "emptied topology": (lambda s: put(s, ("topology",), []), "topology"),
}


@pytest.mark.parametrize("edit", sorted(RECORDED_EDITS))
def test_re_digested_recorded_edit_diverges_naming_the_section(
    tiny_bundle, tmp_path, capsys, edit
):
    """An edit to what the run recorded, digests recomputed: the bundle
    verifies, but the replay's own spans or topology differ from it."""
    mutate, section = RECORDED_EDITS[edit]
    doc = _doc(tiny_bundle)
    mutate(doc["sections"])
    path = tmp_path / "edited.bundle.json"
    path.write_text(json.dumps(_rehash(doc)))
    assert main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "DIVERGED" in out
    assert f"first divergence in {section}:" in out


@pytest.fixture(scope="module")
def fuzz_target(tiny_bundle, tmp_path_factory):
    """A bundle path to overwrite, and the key path of every node of the
    spans and topology sections."""
    sections = _doc(tiny_bundle)["sections"]
    nodes = [
        (name, *path)
        for name in ("spans", "topology")
        for path in node_paths(sections[name])
    ]
    return tmp_path_factory.mktemp("fuzz") / "edited.bundle.json", nodes


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_any_re_digested_spans_or_topology_edit_never_verifies(
    tiny_bundle, fuzz_target, data
):
    """Any one node of the spans or topology section replaced by a JSON
    value of another canonical form, then re-digested: ``gp-replay
    BUNDLE`` reports a divergence (1) or an untrusted bundle (3)."""
    path, nodes = fuzz_target
    node = data.draw(st.sampled_from(nodes), label="node")
    value = data.draw(JSON_VALUES, label="value")
    doc = _doc(tiny_bundle)
    before = canonical_json(doc["sections"][node[0]])
    put(doc["sections"], node, value)
    assume(canonical_json(doc["sections"][node[0]]) != before)
    path.write_text(json.dumps(_rehash(doc)))
    assert main([str(path), "-q"]) in (1, 3)
