"""The ``gp-instance`` command-line interface (Fig. 1 / Sec. V-A).

Mirrors the paper's commands::

    $ gp-instance create -c galaxy.conf
    Created new instance: gpi-02156189
    $ gp-instance start gpi-02156189
    Starting instance gpi-02156189... done!
    $ gp-instance describe gpi-02156189
    $ gp-instance update -t newtopology.json gpi-02156189
    $ gp-instance stop gpi-02156189
    $ gp-instance terminate gpi-02156189

Because the cluster is simulated, the CLI persists each instance's
topology and status in a small JSON registry (``$GP_SIM_HOME`` or
``~/.gp-sim``) and deterministically replays the simulation for commands
that need a running world (``start`` fresh-deploys; ``update`` re-deploys
the stored topology, then applies the update).  Timings printed are
simulated seconds — the same numbers the benchmarks report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .topology import Topology, TopologyError

if TYPE_CHECKING:  # pragma: no cover - only the commands that deploy load it
    from .instance import GlobusProvision


def state_home() -> Path:
    return Path(os.environ.get("GP_SIM_HOME", "~/.gp-sim")).expanduser()


def _registry_path() -> Path:
    return state_home() / "instances.json"


class RegistryError(Exception):
    """The instance registry file cannot be read as a registry."""


STATUSES = ("New", "Running", "Stopped", "Terminated")


def _entry_problem(entry: object) -> Optional[str]:
    """Why a registry entry is unusable, or None when it is well formed."""
    if not isinstance(entry, dict):
        return "is not an object"
    if entry.get("status") not in STATUSES:
        return f"has status {entry.get('status')!r}, not one of {', '.join(STATUSES)}"
    if not isinstance(entry.get("topology"), str):
        return "has no topology string"
    if "seed" in entry and type(entry["seed"]) is not int:
        return f"has a non-integer seed {entry['seed']!r}"
    if "describe" in entry and not isinstance(entry["describe"], dict):
        return "has a describe field that is not an object"
    return None


def load_registry() -> dict:
    path = _registry_path()
    if not path.exists():
        return {"next_id": 0x2156189, "instances": {}}
    try:
        reg = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise RegistryError(f"corrupt instance registry {path}: {exc}") from None
    if not (
        isinstance(reg, dict)
        and type(reg.get("next_id")) is int
        and isinstance(reg.get("instances"), dict)
    ):
        raise RegistryError(
            f"corrupt instance registry {path}: expected an object with an "
            "integer 'next_id' and an 'instances' object"
        )
    for gpi_id, entry in reg["instances"].items():
        problem = _entry_problem(entry)
        if problem is not None:
            raise RegistryError(
                f"corrupt instance registry {path}: instance {gpi_id} {problem}"
            )
    return reg


def save_registry(reg: dict) -> None:
    path = _registry_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(reg, indent=2))


def _load_topology(path: str) -> Topology:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TopologyError(f"{path} is not UTF-8 text: {exc}") from None
    if path.endswith(".json"):
        return Topology.from_json(text)
    return Topology.from_conf(text)


def _replay_start(topology: Topology, seed: int) -> tuple[GlobusProvision, str]:
    """Fresh world + deployed instance for commands needing a running cluster."""
    from ..core.testbed import CloudTestbed
    from .instance import GlobusProvision

    bed = CloudTestbed(seed=seed)
    gp = GlobusProvision(bed)
    gpi = gp.create(topology)

    def scenario():
        yield from gp.start(gpi.id)

    proc = bed.ctx.sim.process(scenario())
    bed.ctx.sim.run(until=proc)
    return gp, gpi.id


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_create(args: argparse.Namespace) -> int:
    try:
        topology = _load_topology(args.conf)
    except (OSError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reg = load_registry()
    reg["next_id"] += 1
    gpi_id = f"gpi-{reg['next_id']:08x}"
    reg["instances"][gpi_id] = {
        "topology": topology.to_json(),
        "status": "New",
        "seed": args.seed,
    }
    save_registry(reg)
    print(f"Created new instance: {gpi_id}")
    return 0


def _require(reg: dict, gpi_id: str) -> Optional[dict]:
    entry = reg["instances"].get(gpi_id)
    if entry is None:
        print(f"error: no such instance {gpi_id}", file=sys.stderr)
    return entry


def cmd_start(args: argparse.Namespace) -> int:
    reg = load_registry()
    entry = _require(reg, args.instance)
    if entry is None:
        return 1
    if entry["status"] == "Stopped":
        entry["status"] = "Running"
        save_registry(reg)
        print(f"Resuming instance {args.instance}... done!")
        return 0
    if entry["status"] != "New":
        print(f"error: {args.instance} is {entry['status']}", file=sys.stderr)
        return 1
    topology = Topology.from_json(entry["topology"])
    print(f"Starting instance {args.instance}...", end="", flush=True)
    gp, live_id = _replay_start(topology, entry.get("seed", 0))
    gpi = gp.get(live_id)
    entry["status"] = "Running"
    entry["start_seconds"] = gpi.start_seconds
    entry["describe"] = gpi.describe()
    entry["describe"]["id"] = args.instance
    save_registry(reg)
    print(" done!")
    print(f"(simulated deployment time: {gpi.start_seconds / 60.0:.1f} minutes)")
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    reg = load_registry()
    entry = _require(reg, args.instance)
    if entry is None:
        return 1
    doc = entry.get("describe", {"id": args.instance, "hosts": []})
    doc["state"] = entry["status"]
    print(json.dumps(doc, indent=2))
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    reg = load_registry()
    entry = _require(reg, args.instance)
    if entry is None:
        return 1
    if entry["status"] != "Running":
        print(f"error: {args.instance} is {entry['status']}", file=sys.stderr)
        return 1
    try:
        new_topology = _load_topology(args.topology)
    except (OSError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    old_topology = Topology.from_json(entry["topology"])
    gp, live_id = _replay_start(old_topology, entry.get("seed", 0))
    bed = gp.bed
    holder = {}

    def scenario():
        holder["report"] = yield from gp.update(live_id, new_topology)

    proc = bed.ctx.sim.process(scenario())
    try:
        bed.ctx.sim.run(until=proc)
    except TopologyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = holder["report"]
    entry["topology"] = new_topology.to_json()
    entry["describe"] = gp.get(live_id).describe()
    entry["describe"]["id"] = args.instance
    save_registry(reg)
    print(f"Updating instance {args.instance}... done!")
    print(
        f"(added: {report.added or '-'}  removed: {report.removed or '-'}  "
        f"retyped: {report.retyped or '-'}  simulated time: {report.seconds:.0f}s)"
    )
    return 0


def _set_status(args: argparse.Namespace, allowed: tuple[str, ...], new_status: str,
                message: str) -> int:
    reg = load_registry()
    entry = _require(reg, args.instance)
    if entry is None:
        return 1
    if entry["status"] not in allowed:
        print(f"error: {args.instance} is {entry['status']}", file=sys.stderr)
        return 1
    entry["status"] = new_status
    save_registry(reg)
    print(message.format(args.instance))
    return 0


def cmd_stop(args: argparse.Namespace) -> int:
    return _set_status(args, ("Running",), "Stopped", "Stopping instance {}... done!")


def cmd_terminate(args: argparse.Namespace) -> int:
    return _set_status(
        args, ("New", "Running", "Stopped"), "Terminated",
        "Terminating instance {}... done!",
    )


def cmd_ssh(args: argparse.Namespace) -> int:
    """Replay the instance and run one command on a host (Fig. 1 step 5)."""
    reg = load_registry()
    entry = _require(reg, args.instance)
    if entry is None:
        return 1
    if entry["status"] != "Running":
        print(f"error: {args.instance} is {entry['status']}", file=sys.stderr)
        return 1
    topology = Topology.from_json(entry["topology"])
    gp, live_id = _replay_start(topology, entry.get("seed", 0))
    from ..cluster.shell import SSHError

    try:
        shell = gp.get(live_id).deployment.ssh(args.host, args.user)
    except (SSHError, Exception) as exc:  # DeploymentError for bad host
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = shell.run(args.command)
    if result.stdout:
        print(result.stdout)
    return result.exit_code


def cmd_list(args: argparse.Namespace) -> int:
    reg = load_registry()
    if not reg["instances"]:
        print("(no instances)")
        return 0
    for gpi_id, entry in sorted(reg["instances"].items()):
        print(f"{gpi_id}\t{entry['status']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gp-instance",
        description="Globus Provision (simulated) instance management",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("create", help="create an instance from a topology file")
    p.add_argument("-c", "--conf", required=True, help="galaxy.conf or topology JSON")
    p.add_argument("--seed", type=int, default=0, help="simulation seed")
    p.set_defaults(fn=cmd_create)

    p = sub.add_parser("start", help="start (deploy) an instance")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_start)

    p = sub.add_parser("describe", help="show hosts and status")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("update", help="apply a modified topology")
    p.add_argument("-t", "--topology", required=True, help="new topology file")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_update)

    p = sub.add_parser("stop", help="suspend (stop paying for idle resources)")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_stop)

    p = sub.add_parser("terminate", help="release all resources (final)")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_terminate)

    p = sub.add_parser("ssh", help="run a command on a host via SSH")
    p.add_argument("instance")
    p.add_argument("host", help="node name, e.g. simple-galaxy-condor")
    p.add_argument("-u", "--user", default="user1")
    p.add_argument("-c", "--command", default="hostname")
    p.set_defaults(fn=cmd_ssh)

    p = sub.add_parser("list", help="list known instances")
    p.set_defaults(fn=cmd_list)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (RegistryError, TopologyError) as exc:
        # a TopologyError that reaches here came from a stored topology
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
