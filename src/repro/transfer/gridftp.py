"""GridFTP servers: the data movers behind Globus endpoints.

A :class:`GridFTPServer` fronts a filesystem at a site, holds a host
certificate, and limits concurrent data connections.  The Globus Transfer
service (:mod:`repro.transfer.globus_online`) drives pairs of servers to
move data: it lists and stats files through them, uses their timing
model (streams, wire time, listing cost), and moves each file as one
cohort of coalesced block-slice timers
(:meth:`GridFTPServer.chunk_cohort`).
"""

from __future__ import annotations

import math
import posixpath
from dataclasses import dataclass, field
from typing import Optional, Union

from .. import calibration
from ..cloud.network import NetworkPath, aggregate_rate_bps, slow_start_ramp_s
from ..cluster.nfs import FileNode, MountTable, SimFilesystem
from ..security.x509 import Certificate
from ..simcore import Resource, SimContext

Filesystem = Union[SimFilesystem, MountTable]

#: GridFTP's extended-block-mode data block (what a real server reads per
#: disk/network round).  A naive simulation would schedule one event per
#: block — O(8000) events for a 2 GB file.
GRIDFTP_BLOCK_BYTES = 256 * 1024
#: Cap on simulation events per file transfer: blocks are coalesced into
#: at most this many equal slices, so even multi-GB files cost O(tens) of
#: heap operations while still exposing in-flight progress.
MAX_CHUNK_EVENTS = 16


def coalesced_chunk_plan(
    size_bytes: int,
    block_bytes: int = GRIDFTP_BLOCK_BYTES,
    max_events: int = MAX_CHUNK_EVENTS,
) -> list[int]:
    """Split ``size_bytes`` into at most ``max_events`` contiguous slices.

    Each slice is a whole number of blocks (the last takes the remainder),
    so progress accounting matches what block-mode GridFTP would report,
    without paying one simulation event per block.
    """
    if size_bytes <= 0:
        return []
    n_blocks = math.ceil(size_bytes / block_bytes)
    n_slices = min(max_events, n_blocks)
    blocks_per_slice = n_blocks // n_slices
    extra = n_blocks % n_slices
    plan: list[int] = []
    remaining = size_bytes
    for i in range(n_slices):
        blocks = blocks_per_slice + (1 if i < extra else 0)
        take = min(remaining, blocks * block_bytes)
        plan.append(take)
        remaining -= take
    if remaining:  # pragma: no cover - arithmetic guard
        plan[-1] += remaining
    return plan


class GridFTPError(Exception):
    pass


@dataclass
class GridFTPServer:
    """One GridFTP daemon."""

    ctx: SimContext
    hostname: str
    site: str
    fs: Filesystem
    host_cert: Optional[Certificate] = None
    max_connections: int = 16
    #: bytes moved through this server (both directions), for accounting
    bytes_moved: int = 0
    #: transfer tasks currently assigned here (load-balancing signal)
    active_tasks: int = 0
    _conn_pool: Resource = field(init=False)

    def __post_init__(self) -> None:
        self._conn_pool = Resource(self.ctx.sim, capacity=self.max_connections)

    # -- filesystem facade -----------------------------------------------------
    def stat(self, path: str) -> FileNode:
        try:
            return self.fs.stat(path)
        except Exception as exc:
            raise GridFTPError(f"{self.hostname}: stat {path}: {exc}") from exc

    def exists(self, path: str) -> bool:
        return self.fs.exists(path)

    def list_files(self, path: str) -> list[str]:
        """All file paths under ``path`` (itself, if ``path`` is a file)."""
        if self.fs.isfile(path):
            return [path]
        if not self.fs.isdir(path):
            raise GridFTPError(f"{self.hostname}: no such path {path}")
        out: list[str] = []

        def _walk(d: str) -> None:
            for name in self.fs.listdir(d):
                child = posixpath.join(d, name)
                if self.fs.isfile(child):
                    out.append(child)
                else:
                    _walk(child)

        _walk(path)
        return sorted(out)

    def store(self, path: str, src_node: FileNode, now: float) -> None:
        """Materialise a received file (content and declared size both copy).

        The source's content token rides along, so a later
        ``sync_level="checksum"`` compare recognises the copy — while a
        file independently re-written at the source (fresh token) is
        re-transferred even at the same size.
        """
        self.fs.write(
            path,
            data=src_node.data,
            size=src_node.size,
            owner=src_node.owner,
            mtime=now,
            checksum=src_node.checksum,
        )
        self.bytes_moved += src_node.size

    # -- timing model ------------------------------------------------------------
    def stream_plan(self, size_bytes: int, parallel: Optional[int] = None) -> int:
        """How many parallel streams to use (auto-tuned unless forced)."""
        from ..cloud.network import globus_streams_for

        if parallel is not None:
            if parallel < 1:
                raise GridFTPError("parallel streams must be >= 1")
            return parallel
        return globus_streams_for(size_bytes)

    def wire_seconds(
        self, path: NetworkPath, size_bytes: int, streams: int
    ) -> float:
        """Pure data-movement time for one file (no task overhead)."""
        rate = aggregate_rate_bps(path, streams, calibration.GO_WINDOW_BYTES)
        ramp = slow_start_ramp_s(path, calibration.GO_WINDOW_BYTES)
        return ramp + size_bytes * 8.0 / rate

    # -- chunk-progress cohort ----------------------------------------------------
    def chunk_cohort(
        self,
        plan: list[int],
        rate: float,
        last_at: float | None = None,
        tail: float = 0.0,
    ):
        """Register ``plan``'s slices as one cohort of progress timers.

        Fire times accumulate sequentially from now (matching what a
        timeout-per-slice loop would produce); ``last_at`` optionally
        pins the final member to an exact absolute time so callers that
        already computed a whole-file duration keep it bit-identical.
        Each member adds its slice's bytes to :attr:`bytes_moved`; the
        cohort's ``done`` event fires when the last slice lands.  A
        positive ``tail`` appends one zero-byte member that many seconds
        after the last slice (post-transfer work such as a checksum
        pass), delaying ``done`` without a separate timer.
        """
        t = self.ctx.sim.now
        times = []
        for slice_bytes in plan:
            t += slice_bytes * 8.0 / rate
            times.append(t)
        if last_at is not None:
            times[-1] = last_at
        if tail > 0.0:
            plan = plan + [0]
            times.append(times[-1] + tail)
        return self.ctx.sim.schedule_cohort(
            times, self._chunk_apply, payload=plan, layer="gridftp.chunk"
        )

    def _chunk_apply(self, cohort, k: int) -> None:
        self.bytes_moved += cohort.payload[k]


def checksum_seconds(size_bytes: int) -> float:
    """Integrity verification cost (both ends pipelined)."""
    # ~200 MB/s scan rate
    return size_bytes / (200.0 * calibration.MB)


def per_file_request_cost(n_files: int, rtt_s: float) -> float:
    """Control-channel chatter: a couple of RTTs per file in a batch."""
    return max(0, n_files - 1) * 2.0 * rtt_s


def mlsd_seconds(n_entries: int, rtt_s: float) -> float:
    """Directory listing cost for recursive transfers."""
    return rtt_s * (1 + math.ceil(n_entries / 50))
