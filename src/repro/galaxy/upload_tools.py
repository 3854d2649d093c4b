"""Galaxy's stock upload tools: HTTP form upload and the FTP drop directory.

"Galaxy already provides tools for uploading and downloading files, [but]
the speed and reliability of these tools is not sufficient when
transferring large datasets" (Sec. I).  These are the baselines Fig. 11
measures *through Galaxy*: both are process-style tools whose duration
comes from the calibrated protocol models, pulling from the user's
workstation filesystem (service key ``user_workstation_fs``).

The HTTP tool enforces the 2 GB limit; the FTP tool requires
``ftp_upload_enabled`` in the instance config.
"""

from __future__ import annotations

from functools import cache

from .jobs import ToolRunContext
from .tools import Tool, Toolbox, ToolError

UPLOAD_HTTP_TOOL_ID = "upload_http"
UPLOAD_FTP_TOOL_ID = "upload_ftp"
TOOL_SECTION = "Get Data"


def _workstation(run: ToolRunContext):
    fs = run.services.get("user_workstation_fs")
    if fs is None:
        raise ToolError("no user workstation is reachable from this instance")
    return fs


def _do_upload(run: ToolRunContext, uploader_cls):
    from ..transfer.baselines import UploadError

    src_fs = _workstation(run)
    src_path = run.params["path"]
    out = run.output("output")
    uploader = uploader_cls(run.ctx)
    try:
        result = yield from uploader.upload(
            src_fs, src_path, run.services["galaxy_fs"], out.dataset.file_path
        )
    except UploadError as exc:
        raise ToolError(str(exc)) from exc
    out.adopt()
    out.set_name(src_path.rsplit("/", 1)[-1])
    out.set_info(
        f"{result.protocol} upload, {result.rate_mbps:.2f} Mbit/s average"
    )
    run.log(f"uploaded {result.bytes} bytes in {result.seconds:.1f}s")


def http_upload_execute(run: ToolRunContext):
    """The browser form upload (refuses > 2 GB)."""
    config = run.services.get("galaxy_config")
    if config is not None:
        src_fs = _workstation(run)
        size = src_fs.stat(run.params["path"]).size
        if size > config.http_upload_max_bytes:
            raise ToolError(
                f"File exceeds the {config.http_upload_max_bytes // 2**30} GB "
                "browser upload limit; use FTP or Globus Transfer"
            )
    from ..transfer.baselines import HTTPUploader

    yield from _do_upload(run, HTTPUploader)


def ftp_upload_execute(run: ToolRunContext):
    """The FTP drop-directory path (periodic import scan included)."""
    config = run.services.get("galaxy_config")
    if config is not None and not config.ftp_upload_enabled:
        raise ToolError("FTP upload is disabled on this Galaxy instance")
    from ..transfer.baselines import FTPUploader

    yield from _do_upload(run, FTPUploader)


@cache
def build_upload_tools() -> tuple[Tool, ...]:
    """Both upload tools, built once per process and shared by every world."""
    http_tool = Tool.from_config(
        {
            "id": UPLOAD_HTTP_TOOL_ID,
            "name": "Upload File (HTTP)",
            "description": "Browser form upload from your computer (max 2 GB)",
            "parameters": [{"name": "path", "type": "text", "label": "Local file"}],
            "outputs": [{"name": "output", "ext": "data", "label": "Uploaded file"}],
        },
        execute=http_upload_execute,
    )
    ftp_tool = Tool.from_config(
        {
            "id": UPLOAD_FTP_TOOL_ID,
            "name": "Upload File (FTP)",
            "description": "FTP drop directory upload from your computer",
            "parameters": [{"name": "path", "type": "text", "label": "Local file"}],
            "outputs": [{"name": "output", "ext": "data", "label": "Uploaded file"}],
        },
        execute=ftp_upload_execute,
    )
    return http_tool, ftp_tool


def install_upload_tools(toolbox: Toolbox) -> tuple[Tool, ...]:
    tools = build_upload_tools()
    for tool in tools:
        toolbox.register(tool, section=TOOL_SECTION)
    return tools
