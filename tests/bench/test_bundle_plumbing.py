"""--run-out plumbing: span capture implied, bundle written, replayable.

The invariant chain: ``gp-bench --run-out DIR`` turns on obs capture,
writes one ``<suite>.bundle.json`` whose sim section is exactly the
run's ``sim_json()``, and the directory — bundle plus views — verifies
and replays through ``gp-replay`` in the same process tree.
"""

import json

import pytest

from repro.bench import cli
from repro.provenance import read_bundle, read_run_dir, verify_bundle
from repro.provenance.cli import main as replay_main

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def bundle_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "run-out"
    code = cli.main(["scale", "--smoke", "-q", "--run-out", str(out)])
    assert code == 0
    return out / "scale-smoke.bundle.json"


def test_cli_writes_bundle_file(bundle_run, capsys):
    assert bundle_run.exists()
    doc = json.loads(bundle_run.read_text())
    assert doc["format"] == "gp-provenance-bundle"
    assert [s["name"] for s in doc["sections"]["scenario"]["specs"]]


def test_bundle_implies_span_capture(bundle_run):
    bundle = read_bundle(bundle_run)
    assert bundle.spans, "--run-out must capture spans"
    assert bundle.topology, "deployer topology annotations must be captured"


def test_bundle_sim_matches_committed_smoke_sections(bundle_run):
    bundle = read_bundle(bundle_run)
    assert bundle.sim["suite"] == "scale-smoke"
    assert {t["status"] for t in bundle.sim["tasks"]} == {"ok"}
    verify_bundle(bundle)


def test_written_bundle_replays_verified(bundle_run, capsys):
    assert replay_main([str(bundle_run)]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_replay_verifies_the_run_directory(bundle_run, capsys):
    """gp-replay DIR checks the views against the bundle, then replays."""
    run_dir = bundle_run.parent
    assert replay_main([str(run_dir)]) == 0
    assert "VERIFIED" in capsys.readouterr().out
    assert read_run_dir(run_dir) == read_bundle(bundle_run)


@pytest.mark.parametrize("place", ["missing directory", "directory", "name too long"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("gp-bench", "--json-out"),
        ("gp-bench", "--sim-json-out"),
        ("gp-replay", "--export-sim"),
        ("gp-replay", "--json-out"),
    ],
)
def test_unwritable_output_path_exits_two_before_any_work(
    bundle_run, tmp_path, capsys, command, flag, place
):
    """An output file that cannot be written is a usage error named before
    any task or replay runs, not a traceback once the work is done."""
    target = {
        "missing directory": tmp_path / "missing" / "out.json",
        "directory": tmp_path,
        "name too long": tmp_path / ("x" * 300),
    }[place]
    if command == "gp-bench":
        main, argv = cli.main, ["fig11", "--smoke", "-q"]
    else:
        main, argv = replay_main, [str(bundle_run), "--check-only"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: {target}" in captured.err
    assert "Traceback" not in captured.err
    assert "running suite" not in captured.out and "bundle ok" not in captured.out
