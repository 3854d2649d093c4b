"""The gp-instance CLI: the paper's command workflow (Sec. V-A)."""

import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.provision import (
    PAPER_GALAXY_CONF,
    DomainSpec,
    EC2Spec,
    GlobusOnlineSpec,
    Topology,
    TopologyError,
    with_extra_worker,
)
from repro.provision.cli import STATUSES, main

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


def test_cli_import_loads_no_galaxy_or_crdata():
    """gp-instance parses its arguments, reads the registry and parses a
    topology without the deployment engine; only start, update and ssh,
    which build a world, import it with Galaxy, CRData and scipy."""
    code = (
        "import sys, repro.provision.cli; "
        "print([m for m in ('scipy', 'networkx', 'repro.crdata', 'repro.galaxy',"
        " 'repro.provision.deployer') if m in sys.modules])"
    )
    src = str(pathlib.Path(repro.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout == "[]\n"


def test_create_prints_instance_id(home, capsys):
    gpi_id = create_instance(home, capsys)
    assert gpi_id.startswith("gpi-")


def test_create_bad_file(home, capsys):
    code, _, err = run_cli(capsys, "create", "-c", str(home / "nope.conf"))
    assert code == 1
    assert "error" in err


#: a JSON document nested past the recursion limit, which ``json.loads``
#: refuses with a RecursionError, not a JSONDecodeError
DEEP_JSON = "[" * 100_000


def test_create_deeply_nested_json_is_a_named_error(home, capsys):
    path = home / "deep.json"
    path.write_text(DEEP_JSON)
    code, out, err = run_cli(capsys, "create", "-c", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: bad JSON topology: ") and err.count("\n") == 1
    assert not (home / "gp-sim" / "instances.json").exists()


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


#: every key galaxy.conf knows, ``name`` (a domain's section header gives
#: it), the JSON spelling ``cluster_nodes``, and free text
INI_KEYS = st.sampled_from(
    sorted({
        f.name.replace("_", "-")
        for spec in (DomainSpec, EC2Spec, GlobusOnlineSpec)
        for f in fields(spec)
    } - {"name"})
    + ["name", "cluster_nodes"]
) | st.text(alphabet="abcz-_%#;:=[]() ", min_size=1, max_size=8)
INI_VALUES = st.text(alphabet="abcz12.-_%#;:=[]()\n ", max_size=12)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_galaxy_conf_create_exits_zero_or_one(fuzz_home, data):
    """One ``key: value`` line inserted into the paper's galaxy.conf or put
    in place of one of its lines: ``gp-instance create`` takes it (0) or
    names what is wrong (1), and never raises."""
    lines = PAPER_GALAXY_CONF.splitlines()
    at = data.draw(st.integers(0, len(lines) - 1), label="at")
    line = f"{data.draw(INI_KEYS, label='key')}: {data.draw(INI_VALUES, label='value')}"
    lines[at : at + data.draw(st.integers(0, 1), label="replace")] = [line]
    conf = fuzz_home / "fuzzed.conf"
    conf.write_text("\n".join(lines) + "\n")
    assert main(["create", "-c", str(conf)]) in (0, 1)


@pytest.mark.parametrize(
    "text", ["{bad", "[]", DEEP_JSON], ids=["not-json", "not-an-object", "deep"]
)
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


@pytest.mark.parametrize("command, topology", [
    pytest.param(command, topology, id=command + suffix)
    for topology, suffix in (("{bad", ""), (DEEP_JSON, "-deep"))
    for command in ("start", "update", "ssh")
])
def test_bad_stored_topology_is_a_named_error(home, capsys, command, topology):
    status = "New" if command == "start" else "Running"
    registry, text = write_registry(
        home, {"gpi-x": {"status": status, "topology": topology, "seed": 0}}
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


#: registry bytes: any JSON value; a near-valid registry whose
#: ``next_id``, ``instances`` and entry fields may each be any JSON value;
#: or bytes that are not UTF-8
REGISTRY_BYTES = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries({
        "next_id": st.integers() | JSON_VALUES,
        "instances": st.dictionaries(
            st.sampled_from(["gpi-x", "gpi-y"]),
            st.fixed_dictionaries({}, optional={
                "status": st.sampled_from(STATUSES) | JSON_VALUES,
                "topology": st.just(TOPOLOGY) | JSON_VALUES,
                "seed": st.integers() | JSON_VALUES,
                "describe": st.dictionaries(st.text(max_size=8), JSON_VALUES,
                                            max_size=2) | JSON_VALUES,
            }) | JSON_VALUES,
            max_size=2,
        ) | JSON_VALUES,
    }),
).map(lambda doc: json.dumps(doc).encode()) | st.builds(
    lambda head, tail: head + b"\xff" + tail, st.binary(max_size=8), st.binary(max_size=8)
)


@given(registry=REGISTRY_BYTES)
@example(registry=DEEP_JSON.encode())
@settings(max_examples=200, deadline=None)
def test_fuzzed_registry_exits_zero_or_one(fuzz_home, registry):
    """Any registry bytes: ``list``, ``describe``, ``stop`` and ``terminate``
    each do their work (0), or print one ``error:`` line and leave the
    registry as it was (1); none raises."""
    path = fuzz_home / "gp-sim" / "instances.json"
    path.parent.mkdir(exist_ok=True)
    for argv in (["list"], ["describe", "gpi-x"], ["stop", "gpi-x"],
                 ["terminate", "gpi-x"]):
        path.write_bytes(registry)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1)
        if code == 1:
            errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
            assert len(errors) == 1, err.getvalue()
            assert path.read_bytes() == registry
    path.unlink()


def with_setting(home, name, section, key, value):
    """The paper topology with ``key`` of one section set to ``value``: in
    INI the line goes first in ``[section]`` and replaces any line of that
    key; in JSON ``section`` is ``ec2`` or ``domain``, the first domain."""
    conf = (home / "galaxy.conf").read_text()
    path = home / name
    if name.endswith(".json"):
        doc = json.loads(Topology.from_conf(conf).to_json())
        (doc["domains"][0] if section == "domain" else doc[section])[key] = value
        path.write_text(json.dumps(doc))
    else:
        lines = [ln for ln in conf.splitlines() if not ln.startswith(f"{key}:")]
        lines.insert(lines.index(f"[{section}]") + 1, f"{key}: {value}")
        path.write_text("\n".join(lines) + "\n")
    return path


#: values that one parser checked and the other did not, so ``create``
#: took a topology ``start`` could not deploy: (file, section, key, value,
#: what the error line must name); a ``%`` is taken as written
SPLIT_PARSER_DEFECTS = [
    pytest.param("new.json", "domain", "go_endpoint", ["#"],
                 ("domain 'simple'", "go_endpoint", "['#']"), id="json-go-endpoint-list"),
    pytest.param("new.json", "domain", "go_endpoint", {"#": 1},
                 ("domain 'simple'", "go_endpoint", "{'#': 1}"), id="json-go-endpoint-object"),
    pytest.param("new.json", "domain", "go_endpoint", 5,
                 ("domain 'simple'", "go_endpoint", "5"), id="json-go-endpoint-int"),
    pytest.param("new.conf", "domain-simple", "users", "user1 %user2", None, id="conf-percent"),
    pytest.param("new.conf", "domain-simple", "condr", "yes",
                 ("[domain-simple]", "condr"), id="conf-unknown-key"),
    pytest.param("new.conf", "domain-simple", "cluster_nodes", "2",
                 ("[domain-simple]", "cluster_nodes"), id="conf-json-spelling"),
    pytest.param("new.conf", "domain-simple", "name", "other",
                 ("[domain-simple]", "name"), id="conf-name-key"),
    pytest.param("new.conf", "ec2", "instance-type", "bogus",
                 ("[ec2]", "instance-type", "'bogus'"), id="conf-unknown-ec2-type"),
    pytest.param("new.conf", "domain-simple", "worker-instance-types",
                 "m1.small m1.small m1.small",
                 ("simple", "more worker-instance-types"), id="conf-too-many-worker-types"),
    pytest.param("new.json", "domain", "worker_instance_types", ["m1.small"] * 3,
                 ("simple", "more worker-instance-types"), id="json-too-many-worker-types"),
]


@pytest.mark.parametrize("name, section, key, value, named", SPLIT_PARSER_DEFECTS)
def test_create_refuses_what_start_could_not_deploy(home, capsys, name, section, key,
                                                    value, named):
    path = with_setting(home, name, section, key, value)
    registry = home / "gp-sim" / "instances.json"
    code, out, err = run_cli(capsys, "create", "-c", str(path))
    if named is None:
        assert code == 0 and err == ""
        (entry,) = json.loads(registry.read_text())["instances"].values()
        assert json.loads(entry["topology"])["domains"][0]["users"] == ["user1", "%user2"]
        return
    assert code == 1 and out == ""
    assert not registry.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    for part in named:
        assert part in err
    if section == "ec2":
        with pytest.raises(TopologyError, match=r"\[ec2\] instance-type"):
            Topology.from_conf(path.read_text())
