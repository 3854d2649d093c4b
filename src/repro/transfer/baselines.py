"""Galaxy's stock upload paths: FTP and HTTP (the Fig. 11 baselines).

The paper compares Globus Transfer against "the tools for uploading files
via FTP and HTTP" that Galaxy already provides, finding them "often
unreliable and inefficient" and noting that "files larger than 2GB cannot
be uploaded to Galaxy directly from a user's computer" over HTTP.

Both baselines move a file from a source filesystem (the laptop) into a
destination filesystem (the Galaxy server) in simulated time, using the
calibrated protocol models from :mod:`repro.cloud.network`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..cloud.network import (
    NetworkPath,
    ProtocolModel,
    TransferTooLarge,
    ftp_model,
    http_model,
)
from ..cluster.nfs import MountTable, SimFilesystem
from ..simcore import SimContext

Filesystem = Union[SimFilesystem, MountTable]


class UploadError(Exception):
    pass


@dataclass
class UploadResult:
    protocol: str
    bytes: int
    seconds: float
    rate_mbps: float


class _BaselineUploader:
    """Shared machinery: stat source, wait model time, write destination."""

    def __init__(self, ctx: SimContext, network: Optional[NetworkPath] = None) -> None:
        self.ctx = ctx
        self.network = network if network is not None else NetworkPath.paper_wan()

    def _model(self) -> ProtocolModel:  # pragma: no cover - abstract
        raise NotImplementedError

    def upload(self, src_fs: Filesystem, src_path: str, dst_fs: Filesystem, dst_path: str):
        """Simulation process; returns :class:`UploadResult`."""
        try:
            node = src_fs.stat(src_path)
        except Exception as exc:
            raise UploadError(f"source {src_path}: {exc}") from exc
        model = self._model()
        try:
            seconds = model.transfer_seconds(self.network, node.size)
        except TransferTooLarge as exc:
            raise UploadError(str(exc)) from exc
        start = self.ctx.now
        yield self.ctx.sim.timeout(seconds)
        dst_fs.write(
            dst_path,
            data=node.data,
            size=node.size,
            mtime=self.ctx.now,
            checksum=node.checksum,
        )
        elapsed = self.ctx.now - start
        self.ctx.obs.instant(
            "upload.done", track="upload", protocol=model.name,
            path=dst_path, bytes=node.size, seconds=elapsed,
        )
        return UploadResult(
            protocol=model.name,
            bytes=node.size,
            seconds=elapsed,
            rate_mbps=node.size * 8.0 / elapsed / 1e6 if elapsed else 0.0,
        )


class FTPUploader(_BaselineUploader):
    """Galaxy's FTP upload directory + periodic import scan."""

    def _model(self) -> ProtocolModel:
        return ftp_model()


class HTTPUploader(_BaselineUploader):
    """Galaxy's browser form upload; refuses files over 2 GB."""

    def _model(self) -> ProtocolModel:
        return http_model()
