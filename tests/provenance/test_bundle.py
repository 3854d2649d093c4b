"""Bundle construction, serialization, and structural parsing."""

import json

import pytest

from repro import calibration
from repro.provenance import (
    BUNDLE_FORMAT,
    BUNDLE_VERSION,
    BundleError,
    ProvenanceBundle,
    build_bundle,
    read_bundle,
    write_bundle,
)
from repro.provenance.bundle import SECTION_NAMES, content_digest

from .conftest import tiny_suite


def test_build_bundle_sections(tiny_result, tiny_bundle):
    b = tiny_bundle
    assert b.calibration["digest"] == calibration.digest()
    assert b.calibration["constants"] == json.loads(
        json.dumps(calibration.snapshot())
    )
    assert b.scenario["suite"] == "tiny"
    assert set(b.scenario) == {"suite", "specs"}
    assert [s["name"] for s in b.scenario["specs"]] == ["scale/tiny"]
    assert b.seeds == {"scale/tiny": 0}
    assert b.sim == json.loads(json.dumps(tiny_result.sim_dict()))
    assert b.spans, "captured run should carry obs docs"
    assert b.topology, "deployer should have annotated the topology"
    assert all(t["kind"] in ("topology", "topology-update") for t in b.topology)


def test_sim_json_matches_suite_result_byte_form(tiny_result, tiny_bundle):
    assert tiny_bundle.sim_json() == tiny_result.sim_json()


def test_digests_cover_every_section(tiny_bundle):
    digests = tiny_bundle.section_digests()
    assert tuple(sorted(digests)) == tuple(sorted(SECTION_NAMES))
    assert all(len(d) == 64 for d in digests.values())
    assert tiny_bundle.digest() == content_digest(digests)


def test_write_read_round_trip(tiny_bundle, tmp_path):
    path = write_bundle(tiny_bundle, tmp_path / "sub" / "tiny.bundle.json")
    loaded = read_bundle(path)
    assert loaded == tiny_bundle
    assert loaded.stored_digest == tiny_bundle.digest()
    assert loaded.stored_section_digests == tiny_bundle.section_digests()
    # serialization is canonical: re-writing reproduces the same bytes
    assert loaded.to_json() == tiny_bundle.to_json()


def test_bundles_of_identical_runs_are_byte_identical():
    from repro.bench.harness import run_suite

    a = build_bundle(run_suite(tiny_suite(), obs=True))
    b = build_bundle(run_suite(tiny_suite(), obs=True))
    assert a.to_json() == b.to_json()
    assert a.digest() == b.digest()


def test_uncaptured_run_bundles_without_spans_or_topology():
    from repro.bench.harness import run_suite

    bundle = build_bundle(run_suite(tiny_suite(), obs=False))
    assert bundle.spans == []
    assert bundle.topology == []
    assert bundle.seeds == {"scale/tiny": 0}


@pytest.mark.parametrize(
    "breakage, code",
    [
        (lambda d: d.update(format="not-a-bundle"), "bundle.format"),
        (lambda d: d.update(version=BUNDLE_VERSION + 1), "bundle.format"),
        (lambda d: d.pop("sections"), "bundle.section-missing"),
        (lambda d: d["sections"].pop("seeds"), "bundle.section-missing"),
    ],
)
def test_from_dict_structural_errors(tiny_bundle, breakage, code):
    doc = json.loads(tiny_bundle.to_json())
    breakage(doc)
    with pytest.raises(BundleError) as exc:
        ProvenanceBundle.from_dict(doc)
    assert exc.value.code == code


def test_from_dict_rejects_non_object():
    with pytest.raises(BundleError) as exc:
        ProvenanceBundle.from_dict(["nope"])
    assert exc.value.code == "bundle.format"


def test_format_constants_are_stamped(tiny_bundle):
    doc = json.loads(tiny_bundle.to_json())
    assert doc["format"] == BUNDLE_FORMAT
    assert doc["version"] == BUNDLE_VERSION


@pytest.mark.parametrize(
    "write, fragment",
    [
        (None, "cannot read"),
        (lambda p: p.write_text(""), "is empty"),
        (lambda p: p.write_text("   \n"), "is empty"),
        (lambda p: p.write_text('{"format": "gp-prov'), "not valid JSON"),
        (lambda p: p.write_bytes(b"\xff\xfe{}"), "not UTF-8 text"),
        # nested past the recursion limit: json.loads raises RecursionError
        (lambda p: p.write_text("[" * 100_000), "maximum recursion depth"),
    ],
)
def test_read_bundle_unreadable_cases(tmp_path, write, fragment):
    path = tmp_path / "b.json"
    if write is not None:
        write(path)
    with pytest.raises(BundleError) as exc:
        read_bundle(path)
    assert exc.value.code == "bundle.unreadable"
    assert fragment in str(exc.value)


def test_bundle_error_to_dict_shape():
    err = BundleError("bundle.digest", "boom", section="sim", detail={"x": 1})
    doc = err.to_dict()["error"]
    assert doc == {
        "code": "bundle.digest",
        "section": "sim",
        "message": "boom",
        "detail": {"x": 1},
    }
