"""Run directories: the bundle is the root of trust, every other file is
one of its views, and ``gp-replay DIR`` exits 3 with a named code on
anything else."""

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.provenance import read_bundle, run_views, write_run_dir
from repro.provenance.bundle import content_digest
from repro.provenance.cli import main

from ..json_fuzz import JSON_VALUES, node_paths, put


@pytest.fixture(scope="module")
def fresh_run_dir(tiny_bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("fresh") / "run-out"
    write_run_dir(tiny_bundle, out)
    return out


@pytest.fixture()
def run_dir(fresh_run_dir, tmp_path):
    return shutil.copytree(fresh_run_dir, tmp_path / "run-out")


def test_views_derive_from_the_spans_section_alone(tiny_bundle, fresh_run_dir):
    views = run_views(tiny_bundle.spans)
    assert sorted(views) == [
        "scale.critpath.json",
        "scale.summary.txt",
        "scale.timeseries.jsonl",
        "scale.trace.json",
    ]
    for name, text in views.items():
        assert (fresh_run_dir / name).read_bytes() == text.encode()
    # the bundle on disk round-trips to the same views
    assert run_views(read_bundle(fresh_run_dir / "tiny.bundle.json").spans) == views


def test_views_group_by_spec_name_prefix():
    docs = [
        {"label": "fig10/m1.small/w1:sim-0", "spans": []},
        {"label": "solo:sim-0", "spans": []},
        {"label": "fig10/m1.large/w1:sim-0", "spans": []},
    ]
    groups = {name.split(".", 1)[0] for name in run_views(docs)}
    assert groups == {"fig10", "solo"}
    critpath = json.loads(run_views(docs)["fig10.critpath.json"])
    assert [c["label"] for c in critpath["contexts"]] == [
        "fig10/m1.small/w1:sim-0",
        "fig10/m1.large/w1:sim-0",
    ]


def test_fresh_run_dir_verifies_and_replays(run_dir, capsys):
    assert main([str(run_dir)]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def _retamper_bundle(run_dir, mutate, rehash):
    path = run_dir / "tiny.bundle.json"
    doc = json.loads(path.read_text())
    mutate(doc["sections"])
    if rehash:
        for name, section in doc["sections"].items():
            doc["section_digests"][name] = content_digest(section)
        doc["digest"] = content_digest(doc["section_digests"])
    path.write_text(json.dumps(doc))


def _drop_first_span(sections):
    sections["spans"][0]["spans"].pop(0)


def _rename_first_span(sections):
    sections["spans"][0]["spans"][0]["name"] = "renamed"


LONG_LABEL = "x" * 300


def _long_label_and_no_views(run_dir):
    """A doc label deriving view names the file system refuses, in a
    directory holding the bundle alone: views are looked up in the
    listing, so this is a missing view, not an ``OSError``."""

    def relabel(sections):
        sections["spans"][0]["label"] = f"{LONG_LABEL}:sim-0"

    _retamper_bundle(run_dir, relabel, rehash=True)
    for path in run_dir.iterdir():
        if path.name != "tiny.bundle.json":
            path.unlink()


DAMAGE = {
    "missing view": (
        lambda d: (d / "scale.critpath.json").unlink(),
        "run.view-missing",
        "scale.critpath.json",
    ),
    "edited view": (
        lambda d: (d / "scale.summary.txt").write_text(
            (d / "scale.summary.txt").read_text().replace("scale", "scaIe", 1)
        ),
        "run.view-mismatch",
        "scale.summary.txt",
    ),
    "stale span log": (
        lambda d: (d / "scale.spans.jsonl").write_text("{}\n"),
        "run.extra-file",
        "scale.spans.jsonl",
    ),
    "subdirectory": (
        lambda d: (d / "scale.trace.json.d").mkdir(),
        "run.extra-file",
        "scale.trace.json.d",
    ),
    "no bundle": (
        lambda d: (d / "tiny.bundle.json").unlink(),
        "run.bundle-count",
        None,
    ),
    "two bundles": (
        lambda d: shutil.copy(d / "tiny.bundle.json", d / "again.bundle.json"),
        "run.bundle-count",
        None,
    ),
    "bundle not UTF-8": (
        lambda d: (d / "tiny.bundle.json").write_bytes(
            (d / "tiny.bundle.json").read_text().encode("utf-16")
        ),
        "bundle.unreadable",
        None,
    ),
    "tampered bundle section": (
        lambda d: _retamper_bundle(d, _drop_first_span, rehash=False),
        "bundle.section-digest",
        None,
    ),
    # re-signed, the bundle verifies, but the views on disk came from
    # the original spans
    "re-digested spans": (
        lambda d: _retamper_bundle(d, _rename_first_span, rehash=True),
        "run.view-mismatch",
        "scale.trace.json",
    ),
    "label too long for a file name": (
        _long_label_and_no_views,
        "run.view-missing",
        f"{LONG_LABEL}.trace.json",
    ),
}


@pytest.mark.parametrize("case", sorted(DAMAGE))
def test_damaged_run_dir_exit_three_with_named_code(run_dir, capsys, case):
    damage, code, file = DAMAGE[case]
    damage(run_dir)
    assert main([str(run_dir), "--check-only"]) == 3
    captured = capsys.readouterr()
    assert "bundle ok" not in captured.out
    err = json.loads(captured.err)["error"]
    assert err["code"] == code
    if file is not None:
        assert err["detail"]["file"] == file
        assert file in err["message"]


def test_view_failing_its_schema_check_exit_three(run_dir, capsys):
    """Views re-derived from spans whose times went negative are what
    the bundle derives, and still fail: the schema checks run too."""

    def negative_start(sections):
        sections["spans"][0]["spans"][-1]["start"] = -5.0

    _retamper_bundle(run_dir, negative_start, rehash=True)
    bundle = read_bundle(run_dir / "tiny.bundle.json")
    for name, text in run_views(bundle.spans).items():
        (run_dir / name).write_text(text)
    assert main([str(run_dir), "--check-only"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["code"] == "run.view-schema"
    assert err["detail"]["file"].endswith((".trace.json", ".critpath.json"))


def test_run_dir_whose_spans_carry_metrics_still_verifies(run_dir, capsys):
    """Obs docs used to carry a ``metrics`` object beside the spans. No view
    and no replay check reads it, so run directories written with it, then
    re-digested, must still verify and replay."""

    def add_metrics(sections):
        for doc in sections["spans"]:
            doc["metrics"] = {"kernel.runs": {"type": "counter", "value": 1}}

    _retamper_bundle(run_dir, add_metrics, rehash=True)
    assert all("metrics" in d for d in read_bundle(run_dir / "tiny.bundle.json").spans)
    assert main([str(run_dir), "--check-only"]) == 0
    assert "bundle ok" in capsys.readouterr().out
    assert main([str(run_dir)]) == 0
    assert "VERIFIED" in capsys.readouterr().out


MALFORMED_SPANS = {
    "doc is an int": lambda s: put(s, ("spans", 0), 5),
    "section is an object": lambda s: put(s, ("spans",), {"0": s["spans"][0]}),
    "span start is a string": lambda s: put(s, ("spans", 0, "spans", 0, "start"), "soon"),
    "span has no name": lambda s: s["spans"][0]["spans"][0].pop("name"),
    "series is an int": lambda s: put(s, ("spans", 0, "series"), 5),
    "instant is an int": lambda s: put(s, ("spans", 0, "instants", 0), 5),
}

INVOCATIONS = {
    "DIR": lambda d: [str(d)],
    "DIR --check-only": lambda d: [str(d), "--check-only"],
    "BUNDLE": lambda d: [str(d / "tiny.bundle.json")],
    "BUNDLE --check-only": lambda d: [str(d / "tiny.bundle.json"), "--check-only"],
}


@pytest.mark.parametrize("invocation", sorted(INVOCATIONS))
@pytest.mark.parametrize("case", sorted(MALFORMED_SPANS))
def test_malformed_spans_doc_exit_three_with_named_code(run_dir, capsys, case, invocation):
    """A re-digested spans section the exporters cannot read used to
    crash ``gp-replay DIR`` with a traceback (exit 1) and pass
    ``gp-replay BUNDLE --check-only``; the bundle check now names it."""
    _retamper_bundle(run_dir, MALFORMED_SPANS[case], rehash=True)
    assert main(INVOCATIONS[invocation](run_dir)) == 3
    captured = capsys.readouterr()
    assert "bundle ok" not in captured.out
    err = json.loads(captured.err)["error"]
    assert err["code"] == "bundle.spans-schema"
    assert err["section"] == "spans"


@pytest.fixture(scope="module")
def fuzz_target(fresh_run_dir, tmp_path_factory):
    out = shutil.copytree(fresh_run_dir, tmp_path_factory.mktemp("fuzz") / "run-out")
    text = (out / "tiny.bundle.json").read_text()
    return out, text, list(node_paths(json.loads(text)["sections"]["spans"]))


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_fuzzed_spans_section_exits_zero_or_three(fuzz_target, data):
    """Any one node of the spans section replaced by any JSON value, then
    re-digested: ``gp-replay DIR --check-only`` verifies it (0) or names
    what is wrong (3), and never raises."""
    out, original, paths = fuzz_target
    path = data.draw(st.sampled_from(paths), label="node")
    value = data.draw(JSON_VALUES, label="value")
    (out / "tiny.bundle.json").write_text(original)
    _retamper_bundle(out, lambda s: put(s, ("spans", *path), value), rehash=True)
    assert main([str(out), "--check-only", "-q"]) in (0, 3)
