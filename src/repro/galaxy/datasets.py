"""Datasets and histories: Galaxy's units of data and analysis workspaces.

Galaxy "tracks, in particular, all input, intermediate, and final
datasets" (Sec. II-2).  A :class:`Dataset` is one entry in a user's
:class:`History`; its payload lives on the deployment's (shared) file
system, and its state mirrors the job that produces it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class DatasetState(str, enum.Enum):
    NEW = "new"
    QUEUED = "queued"
    RUNNING = "running"
    OK = "ok"
    ERROR = "error"
    DISCARDED = "discarded"


#: bytes of a payload :meth:`Dataset.set_peek` decodes first; it decodes
#: four times as many each time the head holds too few lines
_PEEK_HEAD_BYTES = 4096

#: Extensions Galaxy recognises in this reproduction.
KNOWN_EXTENSIONS = {
    "auto", "txt", "tabular", "csv", "zip", "cel", "bam", "png", "pdf",
    "html", "json", "data",
}


@dataclass
class Dataset:
    """One history item backed by a file."""

    id: int
    hid: int                      # position within its history ("1:", "2:", ...)
    name: str
    ext: str = "data"
    file_path: str = ""
    size: int = 0
    state: DatasetState = DatasetState.NEW
    info: str = ""                # tool stdout/stderr summary shown in the panel
    peek: str = ""                # first lines, shown collapsed in the panel
    metadata: dict = field(default_factory=dict)
    created_at: float = 0.0
    #: id of the job that created this dataset (provenance link)
    creating_job_id: Optional[int] = None
    deleted: bool = False

    @property
    def display_name(self) -> str:
        return f"{self.hid}: {self.name}"

    @property
    def usable(self) -> bool:
        return self.state == DatasetState.OK and not self.deleted

    def set_peek(self, data: bytes, lines: int = 5) -> None:
        """Keep the payload's first ``lines`` lines, decoding only its head.

        The head grows until it splits into more than ``lines`` lines or
        is the whole payload.  A character or CR LF pair cut at the end
        of the head can change only the head's last line, which is never
        kept.
        """
        size = _PEEK_HEAD_BYTES
        while True:
            head = data[:size]
            split = head.decode("utf-8", errors="replace").splitlines()
            if len(split) > lines or len(head) == len(data):
                break
            size *= 4
        self.peek = "\n".join(split[:lines])


@dataclass
class History:
    """A user's analysis workspace: an ordered list of datasets."""

    id: int
    name: str
    user: str
    datasets: list[Dataset] = field(default_factory=list)
    annotation: str = ""
    tags: list[str] = field(default_factory=list)
    published: bool = False
    shared_with: set[str] = field(default_factory=set)
    _next_hid: int = 1

    def accessible_by(self, username: str) -> bool:
        return (
            self.published or username == self.user or username in self.shared_with
        )

    def new_dataset(
        self,
        dataset_id: int,
        name: str,
        ext: str = "data",
        created_at: float = 0.0,
    ) -> Dataset:
        ds = Dataset(
            id=dataset_id,
            hid=self._next_hid,
            name=name,
            ext=ext,
            created_at=created_at,
        )
        self._next_hid += 1
        self.datasets.append(ds)
        return ds

    def active(self) -> list[Dataset]:
        return [d for d in self.datasets if not d.deleted]

    def ok_datasets(self) -> list[Dataset]:
        return [d for d in self.datasets if d.usable]

    def by_hid(self, hid: int) -> Dataset:
        for d in self.datasets:
            if d.hid == hid:
                return d
        raise KeyError(f"history {self.name!r} has no item {hid}")

    def __len__(self) -> int:
        return len(self.active())
