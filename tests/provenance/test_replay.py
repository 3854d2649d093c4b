"""Replay: byte-identity, counterfactual comparisons, override parsing,
and the gp-replay CLI."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.bench.harness import run_suite
from repro.provenance import (
    BundleError,
    build_bundle,
    parse_overrides,
    rebuild_suite,
    replay,
    write_bundle,
)
from repro.provenance.cli import main

from .conftest import tiny_suite


def test_replay_is_byte_identical():
    result = run_suite(tiny_suite(), obs=True)
    bundle = build_bundle(result)
    # the scenario is the infrastructure's inputs, with no kernel settings
    assert set(bundle.scenario) == {"suite", "specs"}
    report = replay(bundle)
    assert report.mode == "verify"
    assert report.verified is True
    assert report.divergences == {}
    assert report.record is None


def test_rebuild_suite_reapplies_seeds(tiny_bundle):
    suite = rebuild_suite(tiny_bundle)
    assert suite.name == "tiny"
    assert suite.specs[0].params["seed"] == 0
    assert suite.specs[0].task == "scale.run"


def test_rebuild_suite_applies_param_overrides(tiny_bundle):
    suite = rebuild_suite(
        tiny_bundle, {"seed": 7, "instance_type": "c1.medium"}
    )
    assert suite.specs[0].params["seed"] == 7
    assert suite.specs[0].params["instance_type"] == "c1.medium"


def test_rebuild_suite_rejects_malformed_scenario(tiny_bundle):
    import dataclasses

    broken = dataclasses.replace(tiny_bundle, scenario={"suite": "x"})
    with pytest.raises(BundleError) as exc:
        rebuild_suite(broken)
    assert exc.value.code == "scenario.malformed"

    empty = dataclasses.replace(
        tiny_bundle, scenario={**tiny_bundle.scenario, "specs": []}
    )
    with pytest.raises(BundleError) as exc:
        rebuild_suite(empty)
    assert exc.value.code == "scenario.malformed"


def test_counterfactual_instance_type_reports_deltas(tiny_bundle):
    report = replay(tiny_bundle, overrides={"instance_type": "c1.medium"})
    assert report.mode == "counterfactual"
    assert report.replay_ok
    assert report.comparison, "expected per-metric delta rows"
    metrics = {row["metric"] for row in report.comparison}
    assert any(m.startswith("scale/tiny:") for m in metrics)
    assert any(m.endswith("sim_seconds") for m in metrics)
    # a faster instance type must actually move the makespan
    assert any(
        row["delta"] != 0
        for row in report.comparison
        if row["metric"].endswith(":sim_seconds")
    )
    assert "counterfactual" in report.render()


def test_counterfactual_seed_changes_outcome(tiny_bundle):
    report = replay(tiny_bundle, overrides={"seed": 3})
    assert report.mode == "counterfactual"
    assert report.replay_ok


def test_replay_report_round_trips_through_json(tiny_bundle):
    report = replay(tiny_bundle)
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["mode"] == "verify"
    assert doc["verified"] is True
    assert doc["tasks"] == 1


def test_parse_overrides():
    assert parse_overrides([]) == {}
    assert parse_overrides(["seed=5", "instance_type=c1.medium"]) == {
        "seed": 5,
        "instance_type": "c1.medium",
    }
    # the kernel has one event queue and one dispatch path: no knobs
    for bad in [
        "nonsense", "=x", "seed=", "warp_factor=9", "scheduler=heap", "dispatch=scalar"
    ]:
        with pytest.raises(BundleError) as exc:
            parse_overrides([bad])
        assert exc.value.code == "override.unknown"


@pytest.fixture()
def bundle_path(tiny_bundle, tmp_path):
    return write_bundle(tiny_bundle, tmp_path / "tiny.bundle.json")


def test_cli_verify_exit_zero(bundle_path, capsys):
    assert main([str(bundle_path)]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_cli_check_only(bundle_path, capsys):
    assert main([str(bundle_path), "--check-only"]) == 0
    out = capsys.readouterr().out
    assert "bundle ok" in out
    assert "1 spec(s)" in out


def test_cli_export_sim_matches_bundled_sim(bundle_path, tiny_bundle, tmp_path):
    sim_path = tmp_path / "sim.json"
    code = main(
        [str(bundle_path), "--check-only", "--export-sim", str(sim_path), "-q"]
    )
    assert code == 0
    assert sim_path.read_text() == tiny_bundle.sim_json() + "\n"


def test_cli_json_out_report(bundle_path, tmp_path):
    report_path = tmp_path / "report.json"
    assert main([str(bundle_path), "--json-out", str(report_path), "-q"]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["verified"] is True
    assert doc["divergences"] == {}
    assert doc["record"] is None


def test_cli_counterfactual_exit_zero(bundle_path, capsys):
    code = main([str(bundle_path), "--override", "instance_type=c1.medium"])
    assert code == 0
    assert "counterfactual" in capsys.readouterr().out


def test_cli_bad_override_exit_two(bundle_path, capsys):
    for override in ("warp=9", "scheduler=wheel", "dispatch=scalar"):
        assert main([str(bundle_path), "--override", override]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "override.unknown"


def test_cli_missing_bundle_exit_three(tmp_path, capsys):
    assert main([str(tmp_path / "absent.bundle.json")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "bundle.unreadable"


def test_cli_bundle_that_is_not_utf8_exit_three(bundle_path, tmp_path, capsys):
    """A bundle saved as UTF-16 is unreadable (3), not a divergence (1)."""
    utf16 = tmp_path / "utf16.bundle.json"
    utf16.write_bytes(bundle_path.read_text().encode("utf-16"))
    assert main([str(utf16)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "bundle.unreadable"
    assert "not UTF-8 text" in err["error"]["message"]


@pytest.mark.parametrize("override", ["seed=abc", "seed=1.5"])
def test_cli_non_integer_seed_exit_two(bundle_path, capsys, override):
    assert main([str(bundle_path), "--override", override]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "override.invalid"
    assert override in err["error"]["message"]


def test_cli_unknown_instance_type_exit_two_before_any_replay(
    bundle_path, capsys, monkeypatch
):
    import repro.provenance.cli as cli

    def no_replay(*_args, **_kwargs):
        raise AssertionError("an unknown instance type must not replay")

    monkeypatch.setattr(cli, "replay", no_replay)
    assert main([str(bundle_path), "--override", "instance_type=m9.huge"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "override.invalid"
    assert "'m9.huge'" in err["error"]["message"]
    # aliases resolve, and the name as given is what gets applied
    assert parse_overrides(["instance_type=small"]) == {"instance_type": "small"}


@pytest.mark.parametrize("key", ["seed", "instance_type"])
def test_cli_override_no_spec_takes_exit_two(tiny_bundle, tmp_path, capsys, key):
    """An override that would change nothing is a usage error, never a
    counterfactual report that silently compares a run with itself."""

    def drop_param(sections):
        sections["scenario"]["specs"][0]["params"].pop(key)
        if key == "seed":
            sections["seeds"].clear()

    path = _tampered_bundle_path(tiny_bundle, tmp_path, drop_param)
    value = "3" if key == "seed" else "c1.medium"
    assert main([str(path), "--override", f"{key}={value}"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "override.unused"
    assert repr(key) in err["error"]["message"]


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_rejects_worker_counts_below_one(bundle_path, capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main([str(bundle_path), "-w", workers])
    assert exc.value.code == 2
    assert "--workers must be at least 1" in capsys.readouterr().err


def _empty_specs(sections):
    sections["scenario"]["specs"] = []


def _delete_task(sections):
    del sections["scenario"]["specs"][0]["task"]


@pytest.mark.parametrize("check_only", [True, False], ids=["check-only", "replay"])
@pytest.mark.parametrize("mutate", [_empty_specs, _delete_task])
def test_cli_unrebuildable_scenario_exit_three(
    tiny_bundle, tmp_path, capsys, mutate, check_only
):
    """Digests recomputed after the scenario was made unusable: the
    bundle is intact but cannot be replayed, so it is not 'ok'."""
    path = _tampered_bundle_path(tiny_bundle, tmp_path, mutate)
    argv = [str(path), "--check-only"] if check_only else [str(path)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "bundle ok" not in captured.out
    err = json.loads(captured.err)
    assert err["error"]["code"] == "scenario.malformed"
    assert err["error"]["section"] == "scenario"


# -- localization: name the section, the path and the span that moved -------


def _tampered_bundle_path(bundle, tmp_path, mutate):
    """Write the bundle, apply ``mutate(sections)``, re-digest, rewrite."""
    from repro.provenance.bundle import content_digest

    path = write_bundle(bundle, tmp_path / "tampered.bundle.json")
    doc = json.loads(path.read_text())
    mutate(doc["sections"])
    for name, section in doc["sections"].items():
        doc["section_digests"][name] = content_digest(section)
    doc["digest"] = content_digest(doc["section_digests"])
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


def test_bundle_naming_kernel_settings_still_verifies(tiny_bundle, tmp_path, capsys):
    """Bundles written while the kernel had scheduler/dispatch knobs
    carry them in the scenario; they must still verify and replay."""
    from repro.provenance import read_bundle, verify_bundle

    def add_kernel_keys(sections):
        sections["scenario"]["scheduler"] = "heap"
        sections["scenario"]["dispatch"] = "cohort"

    path = _tampered_bundle_path(tiny_bundle, tmp_path, add_kernel_keys)
    bundle = read_bundle(path)
    assert bundle.scenario["dispatch"] == "cohort"
    verify_bundle(bundle)
    assert main([str(path)]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_replay_names_the_span_that_moved(tiny_bundle, tmp_path):
    from repro.provenance import read_bundle

    def shift_first_condor_wait(sections):
        spans = [
            s for d in sections["spans"] for s in d["spans"]
            if s["name"] == "condor.wait"
        ]
        spans[0]["start"] -= 1.5

    path = _tampered_bundle_path(tiny_bundle, tmp_path, shift_first_condor_wait)
    report = replay(read_bundle(path))
    assert report.verified is False
    div = report.divergences["spans"]
    assert div.path.endswith(".start")
    assert div.actual == div.expected + 1.5
    record = report.record
    assert record["name"] == "condor.wait"
    assert record["track"].startswith("condor/")
    assert record["time"] == div.expected
    assert record["context"] == tiny_bundle.spans[0]["label"]
    rendered = report.render()
    assert "DIVERGED" in rendered
    assert "condor.wait" in rendered
    assert record["track"] in rendered
    assert f"t={record['time']:g}s" in rendered


def test_spans_only_tamper_still_fails_verification(tiny_bundle, tmp_path):
    """Sim JSON byte-equal but spans differ -> DIVERGED, never a pass."""
    from repro.provenance import read_bundle

    def drop_last_span(sections):
        sections["spans"][0]["spans"].pop()

    path = _tampered_bundle_path(tiny_bundle, tmp_path, drop_last_span)
    report = replay(read_bundle(path))
    assert report.verified is False
    div = report.divergences["spans"]
    last = len(tiny_bundle.spans[0]["spans"]) - 1
    assert div.path == f"$[0].spans[{last}]"
    assert div.expected == "<absent>"
    # the record comes from the side that has it: the replay's
    assert report.record["name"] == tiny_bundle.spans[0]["spans"][last]["name"]
    # the sim and topology sections reproduced; only the spans did not
    assert set(report.divergences) == {"spans"}


def test_cli_names_the_shifted_span_and_exits_one(tiny_bundle, tmp_path, capsys):
    def shift_boot(sections):
        spans = [
            s for d in sections["spans"] for s in d["spans"]
            if s["name"] == "ec2.boot"
        ]
        spans[0]["end"] += 2.0

    path = _tampered_bundle_path(tiny_bundle, tmp_path, shift_boot)
    assert main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "first divergence in spans" in out
    assert "ec2.boot" in out


def test_cli_import_loads_no_numerical_library():
    """gp-replay parses its arguments and checks a run directory without
    loading the experiments' numerical libraries; only a replay imports them."""
    code = (
        "import sys, repro.provenance.cli; "
        "print([m for m in ('scipy', 'networkx', 'repro.crdata', 'repro.galaxy')"
        " if m in sys.modules])"
    )
    src = str(pathlib.Path(repro.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout == "[]\n"
