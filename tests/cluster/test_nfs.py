"""SimFilesystem, NFS exports, mount tables."""

import posixpath

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import FilesystemError, MountTable, NFSServer, SimFilesystem
from repro.cluster.nfs import _norm


def test_write_read_roundtrip_with_content():
    fs = SimFilesystem()
    fs.write("/data/a.txt", data=b"hello")
    assert fs.read("/data/a.txt") == b"hello"
    assert fs.stat("/data/a.txt").size == 5
    assert fs.isdir("/data")


def test_bulk_file_has_size_but_no_bytes():
    fs = SimFilesystem()
    fs.write("/data/big.zip", size=190_300_000)
    assert fs.stat("/data/big.zip").size == 190_300_000
    with pytest.raises(FilesystemError, match="bulk"):
        fs.read("/data/big.zip")


def test_relative_path_rejected():
    fs = SimFilesystem()
    with pytest.raises(FilesystemError, match="absolute"):
        fs.write("data/a", data=b"x")


def test_mkdirs_idempotent_and_file_conflicts():
    fs = SimFilesystem()
    fs.mkdirs("/a/b/c")
    fs.mkdirs("/a/b/c")
    fs.write("/a/b/c/file", data=b"x")
    with pytest.raises(FilesystemError):
        fs.mkdirs("/a/b/c/file")
    with pytest.raises(FilesystemError, match="directory"):
        fs.write("/a/b", data=b"x")


def test_overwrite_replaces():
    fs = SimFilesystem()
    fs.write("/f", data=b"one")
    fs.write("/f", data=b"two!")
    assert fs.read("/f") == b"two!"
    assert fs.stat("/f").size == 4


def test_remove_file_and_nonempty_dir():
    fs = SimFilesystem()
    fs.write("/d/f", data=b"x")
    with pytest.raises(FilesystemError, match="not empty"):
        fs.remove("/d")
    fs.remove("/d/f")
    fs.remove("/d")
    assert not fs.exists("/d")
    with pytest.raises(FilesystemError):
        fs.remove("/d/f")


def test_rename_preserves_content():
    fs = SimFilesystem()
    fs.write("/a/x", data=b"payload")
    fs.rename("/a/x", "/b/y")
    assert not fs.exists("/a/x")
    assert fs.read("/b/y") == b"payload"


def test_listdir_and_walk():
    fs = SimFilesystem()
    fs.write("/h/u1/d1.dat", size=10)
    fs.write("/h/u1/d2.dat", size=20)
    fs.write("/h/u2/d3.dat", size=30)
    assert fs.listdir("/h") == ["u1", "u2"]
    assert fs.listdir("/h/u1") == ["d1.dat", "d2.dat"]
    assert fs.total_size("/h") == 60
    assert fs.total_size("/h/u1") == 30
    with pytest.raises(FilesystemError):
        fs.listdir("/nope")


def test_nfs_mount_shares_one_namespace():
    server_fs = SimFilesystem("server")
    server = NFSServer(fs=server_fs, export="/export/home")
    node_a = MountTable(SimFilesystem("a"))
    node_b = MountTable(SimFilesystem("b"))
    node_a.mount(server, at="/home")
    node_b.mount(server, at="/home")
    node_a.write("/home/galaxy/dataset_1.dat", data=b"shared bytes")
    # visible on the other node and on the server under the export
    assert node_b.read("/home/galaxy/dataset_1.dat") == b"shared bytes"
    assert server_fs.read("/export/home/galaxy/dataset_1.dat") == b"shared bytes"


def test_mount_resolution_prefers_longest_prefix():
    server1 = NFSServer(fs=SimFilesystem(), export="/e1")
    server2 = NFSServer(fs=SimFilesystem(), export="/e2")
    node = MountTable(SimFilesystem())
    node.mount(server1, at="/data")
    node.mount(server2, at="/data/special")
    node.write("/data/a", data=b"1")
    node.write("/data/special/b", data=b"2")
    assert server1.fs.exists("/e1/a")
    assert server2.fs.exists("/e2/b")
    assert not server1.fs.exists("/e1/special/b")


def test_local_paths_stay_local():
    node = MountTable(SimFilesystem("local"))
    server = NFSServer(fs=SimFilesystem(), export="/x")
    node.mount(server, at="/shared")
    node.write("/tmp/scratch", data=b"local")
    assert node.local.exists("/tmp/scratch")
    assert not server.fs.exists("/x/tmp/scratch")


def test_umount_and_busy_mount_point():
    node = MountTable(SimFilesystem())
    server = NFSServer(fs=SimFilesystem(), export="/x")
    node.mount(server, at="/mnt")
    with pytest.raises(FilesystemError, match="busy"):
        node.mount(server, at="/mnt")
    node.umount("/mnt")
    with pytest.raises(FilesystemError):
        node.umount("/mnt")


_names = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


@given(st.lists(st.tuples(_names, _names, st.integers(1, 1000)), min_size=1, max_size=20))
def test_property_total_size_is_sum_of_live_files(entries):
    fs = SimFilesystem()
    expected: dict[str, int] = {}
    for d, f, size in entries:
        path = f"/{d}/{f}"
        fs.write(path, size=size)
        expected[path] = size
    assert fs.total_size() == sum(expected.values())
    for path in expected:
        assert fs.isfile(path)


@given(st.lists(_names, min_size=1, max_size=6))
def test_property_mkdirs_makes_every_prefix_a_dir(parts):
    fs = SimFilesystem()
    path = "/" + "/".join(parts)
    fs.mkdirs(path)
    cur = ""
    for p in parts:
        cur += "/" + p
        assert fs.isdir(cur)


@given(st.text(alphabet="ab/.", max_size=24))
def test_norm_is_normpath_with_a_leading_double_slash_read_as_one(tail):
    """POSIX lets ``//`` lead a path with its own meaning and
    ``posixpath.normpath`` keeps it; Linux, like every other mkdirs and
    lookup here, reads it as ``/``."""
    path = "/" + tail
    expected = posixpath.normpath(path)
    if expected.startswith("//"):
        expected = expected[1:]
    assert _norm(path) == expected


def test_a_leading_double_slash_names_the_same_file():
    fs = SimFilesystem()
    fs.write("//data/x.txt", data=b"hi")
    assert fs.isfile("/data/x.txt")
    assert fs.listdir("/data") == ["x.txt"]
    fs.write("/data/x.txt", data=b"yo")
    assert fs.read("//data/x.txt") == b"yo"
    assert [node.path for node in fs.walk_files()] == ["/data/x.txt"]


# ---------------------------------------------------------------------------
# Bulk-file content tokens (regression: the old scheme was `bulk:{size}`,
# so any two equal-size bulk files compared equal and checksum-level sync
# silently skipped real transfers)
# ---------------------------------------------------------------------------


def test_distinct_same_size_bulk_files_get_distinct_checksums():
    fs = SimFilesystem()
    a = fs.write("/data/a.zip", size=1000)
    b = fs.write("/data/b.zip", size=1000)
    assert a.checksum != b.checksum
    assert a.checksum.startswith("bulk:")


def test_rewritten_same_size_bulk_file_mints_a_fresh_token():
    fs = SimFilesystem()
    first = fs.write("/data/a.zip", size=1000, mtime=1.0).checksum
    second = fs.write("/data/a.zip", size=1000, mtime=2.0).checksum
    assert first != second


def test_mover_propagated_checksum_survives_the_copy():
    src = SimFilesystem("src")
    dst = SimFilesystem("dst")
    node = src.write("/a.zip", size=1000, mtime=1.0)
    copy = dst.write("/b.zip", size=node.size, mtime=5.0, checksum=node.checksum)
    assert copy.checksum == node.checksum


def test_content_files_still_hash_their_bytes():
    fs = SimFilesystem()
    a = fs.write("/a.txt", data=b"same bytes")
    b = fs.write("/b.txt", data=b"same bytes")
    assert a.checksum == b.checksum  # true content equality still dedups


# ---------------------------------------------------------------------------
# Mounts at / and longest-prefix resolution (regression: a mount at "/"
# never matched because the prefix check degenerated to startswith("//"))
# ---------------------------------------------------------------------------


def test_mount_at_root_translates_every_path():
    server = NFSServer(fs=SimFilesystem("srv"), export="/srv")
    node = MountTable(SimFilesystem())
    m = node.mount(server, at="/")
    assert m.translate("/") == "/srv"
    assert m.translate("/data/x") == "/srv/data/x"
    node.write("/data/x", data=b"rooted")
    assert server.fs.read("/srv/data/x") == b"rooted"
    assert node.read("/data/x") == b"rooted"


def test_root_mount_loses_to_longer_prefixes():
    root_srv = NFSServer(fs=SimFilesystem(), export="/root-export")
    data_srv = NFSServer(fs=SimFilesystem(), export="/data-export")
    node = MountTable(SimFilesystem())
    node.mount(root_srv, at="/")
    node.mount(data_srv, at="/data")
    node.write("/data/f", data=b"deep")
    node.write("/other/f", data=b"shallow")
    assert data_srv.fs.exists("/data-export/f")
    assert root_srv.fs.exists("/root-export/other/f")
    assert not root_srv.fs.exists("/root-export/data/f")


def test_mount_component_boundary_is_respected():
    server = NFSServer(fs=SimFilesystem(), export="/x")
    node = MountTable(SimFilesystem())
    node.mount(server, at="/home")
    node.write("/homes/f", data=b"local")  # /homes is NOT under /home
    assert node.local.exists("/homes/f")
    assert not server.fs.exists("/x/f")
    with pytest.raises(FilesystemError, match="not under mount"):
        node.mounts[0].translate("/homes/f")


# ---------------------------------------------------------------------------
# Directory ownership (regression: mkdirs silently dropped `owner`)
# ---------------------------------------------------------------------------


def test_mkdirs_records_owner_of_created_directories():
    fs = SimFilesystem()
    fs.mkdirs("/home/boliu", owner="boliu")
    assert fs.dir_owner("/home/boliu") == "boliu"
    assert fs.dir_owner("/home") == "boliu"
    assert fs.dir_owner("/") == "root"


def test_mkdirs_over_existing_tree_does_not_chown():
    fs = SimFilesystem()
    fs.mkdirs("/home/boliu", owner="boliu")
    fs.mkdirs("/home/boliu/sub", owner="galaxy")
    assert fs.dir_owner("/home/boliu") == "boliu"
    assert fs.dir_owner("/home/boliu/sub") == "galaxy"


def test_dir_owner_of_missing_directory_raises():
    fs = SimFilesystem()
    with pytest.raises(FilesystemError, match="no such directory"):
        fs.dir_owner("/nope")


def test_removed_directory_forgets_its_owner():
    fs = SimFilesystem()
    fs.mkdirs("/scratch", owner="boliu")
    fs.remove("/scratch")
    fs.mkdirs("/scratch", owner="galaxy")
    assert fs.dir_owner("/scratch") == "galaxy"


# ---------------------------------------------------------------------------
# MountTable edge cases the storage backends rely on
# ---------------------------------------------------------------------------


def test_umount_while_resolving_falls_back_to_local():
    server = NFSServer(fs=SimFilesystem(), export="/x")
    node = MountTable(SimFilesystem())
    node.mount(server, at="/mnt")
    node.write("/mnt/f", data=b"remote")
    node.umount("/mnt")
    # the same path now resolves locally: the remote file is invisible
    assert not node.exists("/mnt/f")
    assert server.fs.read("/x/f") == b"remote"
    node.mount(server, at="/mnt")
    assert node.read("/mnt/f") == b"remote"


def test_remove_of_mount_point_raises_busy_not_export_deletion():
    server = NFSServer(fs=SimFilesystem(), export="/export/home")
    node = MountTable(SimFilesystem())
    node.mount(server, at="/home")
    with pytest.raises(FilesystemError, match="busy"):
        node.remove("/home")
    # the server's export root must survive the attempt
    assert server.fs.isdir("/export/home")
    assert node.is_mount_point("/home")


def test_rename_across_mount_boundary_copies_and_preserves_token():
    server = NFSServer(fs=SimFilesystem(), export="/x")
    node = MountTable(SimFilesystem())
    node.mount(server, at="/shared")
    bulk = node.write("/tmp/big.zip", size=4096, mtime=3.0)
    node.rename("/tmp/big.zip", "/shared/big.zip")
    assert not node.local.exists("/tmp/big.zip")
    moved = server.fs.stat("/x/big.zip")
    assert moved.size == 4096
    assert moved.checksum == bulk.checksum  # EXDEV copy keeps the token


def test_rename_within_one_mount_delegates_to_the_backing_fs():
    server = NFSServer(fs=SimFilesystem(), export="/x")
    node = MountTable(SimFilesystem())
    node.mount(server, at="/shared")
    node.write("/shared/a", data=b"payload")
    node.rename("/shared/a", "/shared/sub/b")
    assert server.fs.read("/x/sub/b") == b"payload"
    assert not server.fs.exists("/x/a")
