"""Data libraries: curated shared datasets.

"Users can import datasets into their workspaces from established data
warehouses and/or upload their own datasets" (Sec. II-1).  A data
library is an admin-curated, read-only collection; importing an item
into a history creates a new history item referencing the same payload
(no copy), exactly like Galaxy's library model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .datasets import Dataset, DatasetState, History


class LibraryError(Exception):
    pass


@dataclass
class LibraryItem:
    id: int
    name: str
    ext: str
    file_path: str
    size: int
    description: str = ""


@dataclass
class DataLibrary:
    name: str
    description: str = ""
    items: dict[int, LibraryItem] = field(default_factory=dict)
    #: empty set means public to all instance users
    restricted_to: set[str] = field(default_factory=set)

    def accessible_by(self, username: str) -> bool:
        return not self.restricted_to or username in self.restricted_to


class LibraryStore:
    """All data libraries of a Galaxy instance.

    It holds the instance's filesystem, job manager (which numbers every
    dataset) and context, not the app, so no reference cycle keeps a
    dropped app alive."""

    def __init__(self, fs, jobs, ctx) -> None:
        self._fs = fs
        self._jobs = jobs
        self._ctx = ctx
        self._libraries: dict[str, DataLibrary] = {}
        self._next_item_id = 1

    def create(
        self, name: str, description: str = "",
        restricted_to: Optional[set[str]] = None,
    ) -> DataLibrary:
        if name in self._libraries:
            raise LibraryError(f"library {name!r} exists")
        lib = DataLibrary(
            name=name, description=description,
            restricted_to=set(restricted_to or ()),
        )
        self._libraries[name] = lib
        return lib

    def get(self, name: str) -> DataLibrary:
        try:
            return self._libraries[name]
        except KeyError:
            raise LibraryError(f"no such library {name!r}") from None

    def list_for(self, username: str) -> list[DataLibrary]:
        return [
            lib for lib in self._libraries.values() if lib.accessible_by(username)
        ]

    def add_item(
        self,
        library: str,
        name: str,
        data: Optional[bytes] = None,
        size: Optional[int] = None,
        ext: str = "data",
        description: str = "",
    ) -> LibraryItem:
        """Deposit a curated dataset (admin operation)."""
        lib = self.get(library)
        path = f"/galaxy/libraries/{library}/{name}"
        node = self._fs.write(path, data=data, size=size)
        item = LibraryItem(
            id=self._next_item_id,
            name=name,
            ext=ext,
            file_path=path,
            size=node.size,
            description=description,
        )
        self._next_item_id += 1
        lib.items[item.id] = item
        return item

    def import_to_history(
        self, library: str, item_id: int, history: History, username: str
    ) -> Dataset:
        """Reference a library item from a user's history (no data copy)."""
        lib = self.get(library)
        if not lib.accessible_by(username):
            raise LibraryError(f"{username!r} may not read library {library!r}")
        item = lib.items.get(item_id)
        if item is None:
            raise LibraryError(f"library {library!r} has no item {item_id}")
        ds = history.new_dataset(
            self._jobs._next_dataset_id, item.name, ext=item.ext,
            created_at=self._ctx.now,
        )
        self._jobs._next_dataset_id += 1
        ds.file_path = item.file_path
        ds.size = item.size
        ds.state = DatasetState.OK
        ds.info = f"imported from library {library!r}"
        return ds
