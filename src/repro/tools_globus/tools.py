"""Globus Transfer as native Galaxy tools.

"The Globus Transfer toolset includes three tools: 1) third party
transfers between any Globus endpoints ('GO Transfer'), 2) upload to
Galaxy from any Globus endpoint ('Get Data via Globus Online') and
3) download from Galaxy to any Globus endpoint ('Send Data via Globus
Online')" (Sec. IV-A).

These are *process-style* tools: their duration is the transfer task's
duration inside the simulation, driven through the Globus Transfer REST
client exactly as the paper describes ("Galaxy invokes the Globus
Transfer REST API to create and monitor the transfer").  A failed or
deadline-exceeded task surfaces as a Galaxy job error in the history
panel.

Wiring: the deployment injects two services into the job manager —
``transfer_client_factory(galaxy_username) -> TransferClient`` and
``galaxy_endpoint`` (the endpoint name of the deployed cluster, e.g.
``cvrg#galaxy`` from the topology's ``go-endpoint``).
"""

from __future__ import annotations

from functools import cache
from typing import Optional

from ..galaxy.jobs import ToolRunContext
from ..galaxy.tools import Tool, Toolbox, ToolError
from ..transfer.api import GlobusAPIError, TransferClient

GO_TRANSFER_TOOL_ID = "globus_go_transfer"
GET_DATA_TOOL_ID = "globus_get_data"
SEND_DATA_TOOL_ID = "globus_send_data"
TOOL_SECTION = "Globus Online"


def _client(run: ToolRunContext) -> TransferClient:
    factory = run.services.get("transfer_client_factory")
    if factory is None:
        raise ToolError(
            "this Galaxy instance has no Globus Transfer integration configured"
        )
    try:
        return factory(run.user)
    except GlobusAPIError as exc:
        raise ToolError(
            f"user {run.user!r} has no linked Globus Online account: {exc.message}"
        ) from exc


def _galaxy_endpoint(run: ToolRunContext) -> str:
    ep = run.services.get("galaxy_endpoint")
    if not ep:
        raise ToolError("this Galaxy instance has no registered Globus endpoint")
    return ep


def _deadline(run: ToolRunContext) -> Optional[float]:
    deadline = run.params.get("deadline_minutes")
    return float(deadline) * 60.0 if deadline else None


def _run_transfer(
    run: ToolRunContext,
    source_endpoint: str,
    source_path: str,
    dest_endpoint: str,
    dest_path: str,
    label: str,
):
    """Submit a task and wait for it; raise ToolError on failure."""
    client = _client(run)
    try:
        doc = client.submit_transfer(
            client.get_submission_id(),
            source_endpoint,
            dest_endpoint,
            [(source_path, dest_path)],
            label=label,
            deadline_s=_deadline(run),
        )
    except GlobusAPIError as exc:
        raise ToolError(f"transfer submission failed: {exc.message}") from exc
    run.log(f"submitted Globus Transfer task {doc.task_id}")
    yield client.when_task_done(doc.task_id)
    final = client.get_task(doc.task_id)
    run.log(
        f"task {final.task_id}: {final.status}, "
        f"{final.bytes_transferred} bytes, {final.faults} fault(s)"
    )
    if final.status != "SUCCEEDED":
        raise ToolError(f"Globus Transfer failed: {final.nice_status}")
    return final


def _report(final, source, dest) -> bytes:
    return (
        "Globus Transfer report\n"
        f"task_id: {final.task_id}\n"
        f"status: {final.status}\n"
        f"source: {source}\n"
        f"destination: {dest}\n"
        f"files: {final.files_transferred}\n"
        f"bytes: {final.bytes_transferred}\n"
        f"faults: {final.faults}\n"
    ).encode()


# ---------------------------------------------------------------------------
# Tool bodies (generators — process-style tools)
# ---------------------------------------------------------------------------


def go_transfer_execute(run: ToolRunContext):
    """'GO Transfer': third-party transfer between any two endpoints."""
    src_ep = run.params["source_endpoint"]
    dst_ep = run.params["dest_endpoint"]
    src_path = run.params["source_path"]
    dst_path = run.params["dest_path"]
    final = yield from _run_transfer(
        run, src_ep, src_path, dst_ep, dst_path, label="GO Transfer from Galaxy"
    )
    out = run.output("output")
    galaxy_ep = run.services.get("galaxy_endpoint")
    if dst_ep == galaxy_ep and dst_path == out.dataset.file_path:
        # file manifested directly as a Galaxy dataset (Fig. 4 behaviour)
        out.adopt()
    else:
        out.write(_report(final, f"{src_ep}:{src_path}", f"{dst_ep}:{dst_path}"))
    out.set_name(f"GO Transfer: {src_path.rsplit('/', 1)[-1]}")


def get_data_execute(run: ToolRunContext):
    """'Get Data via Globus Online': remote endpoint -> this Galaxy server."""
    src_ep = run.params["endpoint"]
    src_path = run.params["path"]
    galaxy_ep = _galaxy_endpoint(run)
    out = run.output("output")
    # destination is the output dataset's own file path on the shared FS
    yield from _run_transfer(
        run, src_ep, src_path, galaxy_ep, out.dataset.file_path,
        label="Get Data via Globus Online",
    )
    out.adopt()
    out.set_name(src_path.rsplit("/", 1)[-1])
    out.set_info(f"from {src_ep}:{src_path}")


def send_data_execute(run: ToolRunContext):
    """'Send Data via Globus Online': a history dataset -> remote endpoint."""
    if not run.inputs:
        raise ToolError("select a history dataset to send")
    dst_ep = run.params["endpoint"]
    dst_path = run.params["path"]
    galaxy_ep = _galaxy_endpoint(run)
    src = run.input(0)
    final = yield from _run_transfer(
        run, galaxy_ep, src.path, dst_ep, dst_path,
        label="Send Data via Globus Online",
    )
    out = run.output("output")
    out.write(_report(final, f"{galaxy_ep}:{src.path}", f"{dst_ep}:{dst_path}"))
    out.set_name(f"Sent: {src.name}")


# ---------------------------------------------------------------------------
# Tool definitions
# ---------------------------------------------------------------------------

_DEADLINE = {
    "name": "deadline_minutes",
    "type": "float",
    "label": "Deadline (minutes; job fails if exceeded)",
    "optional": True,
}


@cache
def build_globus_tools() -> tuple[Tool, ...]:
    """The three Globus Transfer tools, built once per process and shared
    by every world: a run reaches its world through ``run.services``."""
    go_transfer = Tool.from_config(
        {
            "id": GO_TRANSFER_TOOL_ID,
            "name": "GO Transfer",
            "description": "Third-party transfer between any Globus endpoints",
            "parameters": [
                {"name": "source_endpoint", "type": "text", "label": "Source endpoint"},
                {"name": "source_path", "type": "text", "label": "Source path"},
                {"name": "dest_endpoint", "type": "text", "label": "Destination endpoint"},
                {"name": "dest_path", "type": "text", "label": "Destination path"},
                _DEADLINE,
            ],
            "outputs": [{"name": "output", "ext": "data", "label": "Transferred data"}],
        },
        execute=go_transfer_execute,
    )
    get_data = Tool.from_config(
        {
            "id": GET_DATA_TOOL_ID,
            "name": "Get Data via Globus Online",
            "description": "Upload to Galaxy from any Globus endpoint",
            "parameters": [
                {"name": "endpoint", "type": "text", "label": "Endpoint"},
                {"name": "path", "type": "text", "label": "Path"},
                _DEADLINE,
            ],
            "outputs": [{"name": "output", "ext": "data", "label": "Fetched dataset"}],
        },
        execute=get_data_execute,
    )
    send_data = Tool.from_config(
        {
            "id": SEND_DATA_TOOL_ID,
            "name": "Send Data via Globus Online",
            "description": "Download from Galaxy to any Globus endpoint",
            "parameters": [
                {"name": "input", "type": "data", "label": "History dataset"},
                {"name": "endpoint", "type": "text", "label": "Destination endpoint"},
                {"name": "path", "type": "text", "label": "Destination path"},
                _DEADLINE,
            ],
            "outputs": [{"name": "output", "ext": "txt", "label": "Transfer report"}],
        },
        execute=send_data_execute,
    )
    return go_transfer, get_data, send_data


def install_globus_tools(toolbox: Toolbox) -> tuple[Tool, ...]:
    tools = build_globus_tools()
    for tool in tools:
        toolbox.register(tool, section=TOOL_SECTION)
    return tools
