"""The gp-instance CLI: the paper's command workflow (Sec. V-A)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.provision import PAPER_GALAXY_CONF, Topology, with_extra_worker
from repro.provision.cli import main

from ..json_fuzz import JSON_VALUES, node_paths, put


@pytest.fixture
def home(tmp_path, monkeypatch):
    monkeypatch.setenv("GP_SIM_HOME", str(tmp_path / "gp-sim"))
    conf = tmp_path / "galaxy.conf"
    # m1.small for speed parity with the paper's small runs
    conf.write_text(PAPER_GALAXY_CONF.replace("t1.micro", "m1.small"))
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def create_instance(home, capsys):
    code, out, _ = run_cli(capsys, "create", "-c", str(home / "galaxy.conf"))
    assert code == 0
    return out.strip().split()[-1]


def test_create_prints_instance_id(home, capsys):
    gpi_id = create_instance(home, capsys)
    assert gpi_id.startswith("gpi-")


def test_create_bad_file(home, capsys):
    code, _, err = run_cli(capsys, "create", "-c", str(home / "nope.conf"))
    assert code == 1
    assert "error" in err


def test_start_and_describe(home, capsys):
    gpi_id = create_instance(home, capsys)
    code, out, _ = run_cli(capsys, "start", gpi_id)
    assert code == 0
    assert f"Starting instance {gpi_id}... done!" in out
    assert "simulated deployment time" in out

    code, out, _ = run_cli(capsys, "describe", gpi_id)
    assert code == 0
    doc = json.loads(out)
    assert doc["state"] == "Running"
    names = {h["name"] for h in doc["hosts"]}
    assert "simple-galaxy-condor" in names
    assert doc["galaxy_url"].startswith("http://")


def test_start_unknown_instance(home, capsys):
    code, _, err = run_cli(capsys, "start", "gpi-ffffffff")
    assert code == 1 and "no such instance" in err


def test_double_start_rejected(home, capsys):
    gpi_id = create_instance(home, capsys)
    run_cli(capsys, "start", gpi_id)
    code, _, err = run_cli(capsys, "start", gpi_id)
    assert code == 1 and "Running" in err


def test_update_adds_host(home, capsys):
    gpi_id = create_instance(home, capsys)
    run_cli(capsys, "start", gpi_id)
    old = Topology.from_conf((home / "galaxy.conf").read_text())
    new = with_extra_worker(old, "simple", "c1.medium")
    newfile = home / "newtopology.json"
    newfile.write_text(new.to_json())
    code, out, _ = run_cli(capsys, "update", "-t", str(newfile), gpi_id)
    assert code == 0
    assert "simple-condor-wn3" in out

    code, out, _ = run_cli(capsys, "describe", gpi_id)
    doc = json.loads(out)
    wn3 = next(h for h in doc["hosts"] if h["name"] == "simple-condor-wn3")
    assert wn3["instance_type"] == "c1.medium"


def test_update_requires_running(home, capsys):
    gpi_id = create_instance(home, capsys)
    newfile = home / "t.json"
    newfile.write_text(
        Topology.from_conf((home / "galaxy.conf").read_text()).to_json()
    )
    code, _, err = run_cli(capsys, "update", "-t", str(newfile), gpi_id)
    assert code == 1 and "New" in err


def test_stop_resume_terminate_cycle(home, capsys):
    gpi_id = create_instance(home, capsys)
    run_cli(capsys, "start", gpi_id)
    code, out, _ = run_cli(capsys, "stop", gpi_id)
    assert code == 0 and "Stopping" in out
    code, out, _ = run_cli(capsys, "start", gpi_id)  # resume
    assert code == 0 and "Resuming" in out
    code, out, _ = run_cli(capsys, "terminate", gpi_id)
    assert code == 0 and "Terminating" in out
    # terminated instances cannot be resumed (Fig. 1 step 6)
    code, _, err = run_cli(capsys, "start", gpi_id)
    assert code == 1 and "Terminated" in err


def test_ssh_subcommand(home, capsys):
    gpi_id = create_instance(home, capsys)
    run_cli(capsys, "start", gpi_id)
    code, out, _ = run_cli(
        capsys, "ssh", gpi_id, "simple-galaxy-condor", "-u", "user1", "-c", "whoami"
    )
    assert code == 0
    assert out.strip() == "user1"
    code, _, err = run_cli(
        capsys, "ssh", gpi_id, "simple-galaxy-condor", "-u", "nobody"
    )
    assert code == 1 and "Permission denied" in err


def test_list(home, capsys):
    code, out, _ = run_cli(capsys, "list")
    assert "(no instances)" in out
    a = create_instance(home, capsys)
    b = create_instance(home, capsys)
    code, out, _ = run_cli(capsys, "list")
    assert a in out and b in out
    assert a != b



def bad_topology_file(home, name, key, value):
    """The paper topology with ``key`` set to ``value``, as INI or JSON."""
    conf = (home / "galaxy.conf").read_text()
    path = home / name
    if name.endswith(".json"):
        doc = json.loads(Topology.from_conf(conf).to_json())
        doc["domains"][0][key] = value
        path.write_text(json.dumps(doc))
    else:
        lines = [ln for ln in conf.splitlines() if not ln.startswith(f"{key}:")]
        lines.insert(lines.index("[domain-simple]") + 1, f"{key}: {value}")
        path.write_text("\n".join(lines) + "\n")
    return path


BAD_VALUES = [
    ("new.conf", "cluster-nodes", "abc"),
    ("new.conf", "condor", "maybe"),
    ("new.json", "cluster_nodes", "abc"),
    ("new.json", "condor", "maybe"),
    # a worker type, name or list only a later command would trip over
    ("new.conf", "worker-instance-types", "m9.huge"),
    pytest.param(
        "new.json", "worker_instance_types", ["m9.huge"], id="new.json-unknown-worker-type"
    ),
    ("new.json", "worker_instance_types", "c1.medium"),
    ("new.json", "users", "alice"),
    pytest.param("new.json", "name", ["simple"], id="new.json-name-list"),
    pytest.param("new.json", "name", {"simple": 1}, id="new.json-name-object"),
]


@pytest.mark.parametrize("name, key, value", BAD_VALUES)
def test_create_bad_topology_value_is_a_named_error(home, capsys, name, key, value):
    path = bad_topology_file(home, name, key, value)
    code, out, err = run_cli(capsys, "create", "-c", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert "simple" in err and key in err and repr(value) in err


@pytest.mark.parametrize("name, key, value", BAD_VALUES)
def test_update_bad_topology_value_is_a_named_error(home, capsys, name, key, value):
    gpi_id = create_instance(home, capsys)
    run_cli(capsys, "start", gpi_id)
    path = bad_topology_file(home, name, key, value)
    code, out, err = run_cli(capsys, "update", "-t", str(path), gpi_id)
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert "simple" in err and key in err and repr(value) in err


@pytest.mark.parametrize("value", [5, None])
def test_non_string_ec2_instance_type_is_a_named_error(home, capsys, value):
    doc = json.loads(Topology.from_conf((home / "galaxy.conf").read_text()).to_json())
    doc["ec2"]["instance_type"] = value
    path = home / "new.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "create", "-c", str(path))
    assert code == 1 and out == ""
    assert err == f"error: ec2: instance_type: {value!r} is not a string\n"


@pytest.mark.parametrize("command", ["create", "update"])
def test_topology_file_that_is_not_utf8_is_a_named_error(home, capsys, command):
    """The paper conf saved as UTF-16, so the file starts ``ff fe``."""
    path = home / "galaxy-utf16.conf"
    path.write_bytes(PAPER_GALAXY_CONF.encode("utf-16"))
    argv = ["create", "-c", str(path)]
    if command == "update":
        gpi_id = create_instance(home, capsys)
        run_cli(capsys, "start", gpi_id)
        argv = ["update", "-t", str(path), gpi_id]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path} is not UTF-8 text: ")


PAPER_DOC = json.loads(Topology.from_conf(PAPER_GALAXY_CONF).to_json())


@pytest.fixture(scope="module")
def fuzz_home(tmp_path_factory):
    home = tmp_path_factory.mktemp("fuzz")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GP_SIM_HOME", str(home / "gp-sim"))
        yield home


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_topology_json_create_exits_zero_or_one(fuzz_home, data):
    """Any one node of the paper topology's JSON form replaced by any JSON
    value: ``gp-instance create`` takes it (0) or names what is wrong (1),
    and never raises.  Only ``create`` runs: a fuzzed ``cluster_nodes``
    would make ``start`` boot that many instances."""
    path = data.draw(st.sampled_from(list(node_paths(PAPER_DOC))), label="node")
    value = data.draw(JSON_VALUES, label="value")
    box = [json.loads(json.dumps(PAPER_DOC))]
    put(box, (0, *path), value)
    topology = fuzz_home / "fuzzed.json"
    topology.write_text(json.dumps(box[0]))
    assert main(["create", "-c", str(topology)]) in (0, 1)


@pytest.mark.parametrize("text", ["{bad", "[]"], ids=["not-json", "not-an-object"])
@pytest.mark.parametrize("command", ["list", "create"])
def test_corrupt_registry_is_a_named_error(home, capsys, command, text):
    registry = home / "gp-sim" / "instances.json"
    registry.parent.mkdir()
    registry.write_text(text)
    argv = ["list"] if command == "list" else ["create", "-c", str(home / "galaxy.conf")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: corrupt instance registry")
    assert str(registry) in err
    assert registry.read_text() == text


TOPOLOGY = Topology.from_conf(PAPER_GALAXY_CONF).to_json()

MALFORMED_ENTRIES = {
    "not-an-object": 5,
    "empty-object": {},
    "unknown-status": {"status": "Paused", "topology": TOPOLOGY},
    "no-topology": {"status": "New"},
    "non-integer-seed": {"status": "New", "topology": TOPOLOGY, "seed": "7"},
    "describe-not-an-object": {"status": "Running", "topology": TOPOLOGY, "describe": 5},
}


def write_registry(home, instances):
    registry = home / "gp-sim" / "instances.json"
    registry.parent.mkdir()
    text = json.dumps({"next_id": 1, "instances": instances})
    registry.write_text(text)
    return registry, text


@pytest.mark.parametrize("command", ["list", "start", "stop", "describe"])
@pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES))
def test_malformed_registry_entry_is_a_named_error(home, capsys, case, command):
    registry, text = write_registry(home, {"gpi-x": MALFORMED_ENTRIES[case]})
    argv = [command] if command == "list" else [command, "gpi-x"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: corrupt instance registry")
    assert "instance gpi-x" in err
    assert registry.read_text() == text


@pytest.mark.parametrize("command", ["start", "update", "ssh"])
def test_bad_stored_topology_is_a_named_error(home, capsys, command):
    status = "New" if command == "start" else "Running"
    registry, text = write_registry(
        home, {"gpi-x": {"status": status, "topology": "{bad", "seed": 0}}
    )
    argv = {
        "start": ["start", "gpi-x"],
        "update": ["update", "-t", str(home / "galaxy.conf"), "gpi-x"],
        "ssh": ["ssh", "gpi-x", "simple-galaxy-condor"],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: bad JSON topology")
    assert registry.read_text() == text
