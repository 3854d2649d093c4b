"""Simulated filesystem and NFS sharing.

:class:`SimFilesystem` is a hierarchical namespace of files that carry a
size, an owner, and optionally real bytes (small files — tool outputs,
configs — keep content; bulk data keeps only size + checksum).  An
:class:`NFSServer` exports a subtree of one filesystem; mounting it on a
node splices that subtree into the node's namespace, which is how every
Condor worker sees the Galaxy datasets (paper Fig. 2: the NFS node
"supplies a shared file system for all the other nodes").
"""

from __future__ import annotations

import hashlib
import posixpath
from dataclasses import dataclass
from typing import Iterator, Optional


class FilesystemError(Exception):
    pass


def _norm(path: str) -> str:
    """``path`` as ``posixpath.normpath`` resolves it, with a leading
    ``//`` read as ``/``, as Linux reads it.  A path with no ``//``, no
    ``/.`` and no trailing slash is already normal and returned as is."""
    if not path.startswith("/"):
        raise FilesystemError(f"path must be absolute: {path!r}")
    if "//" in path or "/." in path or (path.endswith("/") and path != "/"):
        path = posixpath.normpath(path)
        if path.startswith("//"):
            path = path[1:]
    return path


def _mount_rel(path: str, mount_point: str) -> Optional[str]:
    """Relative path of ``path`` under ``mount_point``, or ``None``.

    Both arguments must already be normalized absolute paths.  A mount
    at ``/`` covers everything; for any other mount point the match is a
    whole-component prefix (``/home`` covers ``/home/x`` but not
    ``/homes``).
    """
    if mount_point == "/":
        return path.lstrip("/")
    if path == mount_point:
        return ""
    if path.startswith(mount_point + "/"):
        return path[len(mount_point) + 1:]
    return None


def bulk_checksum(path: str, size: int, mtime: float) -> str:
    """Content token for a size-only (bulk) file.

    Two bulk files are only "the same bytes" if one was copied from the
    other (movers propagate the token via ``write(checksum=...)``).  The
    token is derived from the identity of the original write — path,
    declared size, and write time — so re-writing a same-size file mints
    a fresh token and ``sync_level="checksum"`` re-transfers it, unlike
    the old ``bulk:{size}`` scheme under which any two equal-size bulk
    files compared equal.
    """
    h = hashlib.sha256(f"{path}|{size}|{mtime!r}".encode()).hexdigest()[:24]
    return f"bulk:{h}"


@dataclass
class FileNode:
    """Metadata (and optionally content) of one file."""

    path: str
    size: int
    owner: str = "root"
    mtime: float = 0.0
    data: Optional[bytes] = None
    checksum: str = ""

    def read(self) -> bytes:
        if self.data is None:
            raise FilesystemError(
                f"{self.path} is a bulk (size-only) file with no stored bytes"
            )
        return self.data


class SimFilesystem:
    """One tree of directories and files."""

    def __init__(self, name: str = "fs") -> None:
        self.name = name
        self._dirs: set[str] = {"/"}
        self._files: dict[str, FileNode] = {}
        self._dir_owners: dict[str, str] = {"/": "root"}

    # -- directories ---------------------------------------------------------
    def mkdirs(self, path: str, owner: str = "root") -> None:
        """Create ``path`` and any missing parents, owned by ``owner``.

        Ownership is recorded only for directories this call creates;
        re-running over an existing tree never rewrites it (mkdir -p
        semantics: EEXIST is not an error and does not chown).
        """
        path = _norm(path)
        if path in self._files:
            raise FilesystemError(f"{path} exists as a file")
        parts = path.strip("/").split("/") if path != "/" else []
        cur = ""
        for part in parts:
            cur += "/" + part
            if cur in self._files:
                raise FilesystemError(f"{cur} exists as a file")
            if cur not in self._dirs:
                self._dirs.add(cur)
                self._dir_owners[cur] = owner

    def isdir(self, path: str) -> bool:
        return _norm(path) in self._dirs

    def dir_owner(self, path: str) -> str:
        """Owner recorded when the directory was created."""
        path = _norm(path)
        if path not in self._dirs:
            raise FilesystemError(f"no such directory: {path}")
        return self._dir_owners.get(path, "root")

    # -- files ----------------------------------------------------------------
    def write(
        self,
        path: str,
        data: Optional[bytes] = None,
        size: Optional[int] = None,
        owner: str = "root",
        mtime: float = 0.0,
        checksum: Optional[str] = None,
    ) -> FileNode:
        """Create or replace a file.

        Pass ``data`` for real content (size derived), ``size`` alone for
        bulk data tracked by metadata only, or both for a *bulk file with an
        embedded descriptor*: the declared size is what transfers and work
        models see, while ``data`` holds a small generative header (how the
        synthetic CEL/BAM archives carry semantics without gigabytes).

        ``checksum`` lets a data mover propagate the source file's content
        token to the copy it materialises; without it, content files hash
        their bytes and bulk files mint a fresh :func:`bulk_checksum`
        token, so an independently re-written file never compares equal to
        a stale copy under ``sync_level="checksum"``.
        """
        path = _norm(path)
        if path in self._dirs:
            raise FilesystemError(f"{path} is a directory")
        if data is None and size is None:
            raise FilesystemError("write needs data or size")
        self.mkdirs(posixpath.dirname(path) or "/")
        actual_size = int(size) if size is not None else len(data)  # type: ignore[arg-type]
        if checksum is None:
            checksum = (
                hashlib.sha256(data).hexdigest()
                if data is not None
                else bulk_checksum(path, actual_size, mtime)
            )
        node = FileNode(
            path=path, size=actual_size, owner=owner, mtime=mtime, data=data, checksum=checksum
        )
        self._files[path] = node
        return node

    def exists(self, path: str) -> bool:
        path = _norm(path)
        return path in self._files or path in self._dirs

    def isfile(self, path: str) -> bool:
        return _norm(path) in self._files

    def stat(self, path: str) -> FileNode:
        path = _norm(path)
        try:
            return self._files[path]
        except KeyError:
            raise FilesystemError(f"no such file: {path}") from None

    def read(self, path: str) -> bytes:
        return self.stat(path).read()

    def remove(self, path: str) -> None:
        path = _norm(path)
        if path in self._files:
            del self._files[path]
            return
        if path in self._dirs:
            children = [p for p in self._files if p.startswith(path + "/")]
            subdirs = [d for d in self._dirs if d != path and d.startswith(path + "/")]
            if children or subdirs:
                raise FilesystemError(f"directory not empty: {path}")
            self._dirs.discard(path)
            self._dir_owners.pop(path, None)
            return
        raise FilesystemError(f"no such path: {path}")

    def rename(self, src: str, dst: str) -> None:
        src, dst = _norm(src), _norm(dst)
        node = self.stat(src)
        if dst in self._dirs:
            raise FilesystemError(f"{dst} is a directory")
        # validate/create the destination parent *before* touching the
        # source, so a failed rename never loses data
        self.mkdirs(posixpath.dirname(dst) or "/")
        del self._files[src]
        node.path = dst
        self._files[dst] = node

    def listdir(self, path: str) -> list[str]:
        path = _norm(path)
        if path not in self._dirs:
            raise FilesystemError(f"no such directory: {path}")
        prefix = path.rstrip("/") + "/"
        names = set()
        for p in list(self._files) + list(self._dirs):
            if p != path and p.startswith(prefix):
                names.add(p[len(prefix):].split("/")[0])
        return sorted(names)

    def walk_files(self, root: str = "/") -> Iterator[FileNode]:
        root = _norm(root)
        prefix = root.rstrip("/") + "/" if root != "/" else "/"
        for p in sorted(self._files):
            if p == root or p.startswith(prefix):
                yield self._files[p]

    def total_size(self, root: str = "/") -> int:
        return sum(f.size for f in self.walk_files(root))


@dataclass
class NFSServer:
    """Exports a subtree of a filesystem to any number of mounts."""

    fs: SimFilesystem
    export: str = "/"
    hostname: str = "nfs"

    def __post_init__(self) -> None:
        self.fs.mkdirs(self.export)


@dataclass
class Mount:
    """One mount of an NFS export at a mount point in a node namespace.

    ``mount_point`` is normalized: :meth:`MountTable.mount` builds every
    mount."""

    server: NFSServer
    mount_point: str

    def translate(self, path: str) -> str:
        """Node-namespace path -> server-filesystem path."""
        path = _norm(path)
        rel = _mount_rel(path, self.mount_point)
        if rel is None:
            raise FilesystemError(f"{path} is not under mount {self.mount_point}")
        if not rel:
            return _norm(self.server.export)
        return _norm(posixpath.join(self.server.export, rel))


class MountTable:
    """Per-node mount resolution: local fs plus any NFS mounts.

    The longest matching mount point wins, as in a real VFS.
    """

    def __init__(self, local: SimFilesystem) -> None:
        self.local = local
        self.mounts: list[Mount] = []

    def mount(self, server: NFSServer, at: str) -> Mount:
        at = _norm(at)
        if any(m.mount_point == at for m in self.mounts):
            raise FilesystemError(f"mount point busy: {at}")
        self.local.mkdirs(at)
        m = Mount(server=server, mount_point=at)
        self.mounts.append(m)
        return m

    def umount(self, at: str) -> None:
        at = _norm(at)
        for m in self.mounts:
            if m.mount_point == at:
                self.mounts.remove(m)
                return
        raise FilesystemError(f"nothing mounted at {at}")

    def resolve(self, path: str) -> tuple[SimFilesystem, str]:
        """Return (filesystem, translated-path) for a node-namespace path."""
        path = _norm(path)
        best: Optional[Mount] = None
        for m in self.mounts:
            if _mount_rel(path, m.mount_point) is not None:
                if best is None or len(m.mount_point) > len(best.mount_point):
                    best = m
        if best is None:
            return self.local, path
        return best.server.fs, best.translate(path)

    def is_mount_point(self, path: str) -> bool:
        path = _norm(path)
        return any(m.mount_point == path for m in self.mounts)

    # Thin pass-through helpers so callers can use node.vfs like a fs --------
    def write(self, path: str, **kw) -> FileNode:
        fs, p = self.resolve(path)
        return fs.write(p, **kw)

    def read(self, path: str) -> bytes:
        fs, p = self.resolve(path)
        return fs.read(p)

    def stat(self, path: str) -> FileNode:
        fs, p = self.resolve(path)
        return fs.stat(p)

    def exists(self, path: str) -> bool:
        fs, p = self.resolve(path)
        return fs.exists(p)

    def isfile(self, path: str) -> bool:
        fs, p = self.resolve(path)
        return fs.isfile(p)

    def isdir(self, path: str) -> bool:
        fs, p = self.resolve(path)
        return fs.isdir(p)

    def mkdirs(self, path: str, owner: str = "root") -> None:
        fs, p = self.resolve(path)
        fs.mkdirs(p, owner=owner)

    def listdir(self, path: str) -> list[str]:
        fs, p = self.resolve(path)
        return fs.listdir(p)

    def remove(self, path: str) -> None:
        # removing the mount point itself would resolve into (and, when
        # empty, delete) the server's export root out from under every
        # other client — a real VFS answers EBUSY
        if self.is_mount_point(path):
            raise FilesystemError(f"mount point busy: {_norm(path)}")
        fs, p = self.resolve(path)
        fs.remove(p)

    def rename(self, src: str, dst: str) -> None:
        """Rename within one filesystem, or move across a mount boundary.

        A same-filesystem rename delegates to the backing store; when the
        two paths resolve to different filesystems (local -> NFS or the
        reverse) the node copies then removes, as ``mv`` does for EXDEV —
        preserving the file's content token so checksum-level sync still
        recognises the moved copy.
        """
        src_fs, src_p = self.resolve(src)
        dst_fs, dst_p = self.resolve(dst)
        if src_fs is dst_fs:
            src_fs.rename(src_p, dst_p)
            return
        node = src_fs.stat(src_p)
        dst_fs.write(
            dst_p,
            data=node.data,
            size=node.size,
            owner=node.owner,
            mtime=node.mtime,
            checksum=node.checksum,
        )
        src_fs.remove(src_p)
