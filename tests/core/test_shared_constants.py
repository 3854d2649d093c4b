"""What every world installs and stages is built once per process.

The Galaxy tool catalogs (upload, Globus Online, CRData) and the two
CVRG use-case archives are the same in every world, so worlds share
them: each toolbox registers the same frozen ``Tool`` objects, and each
testbed writes the same archive bytes.  Sharing is only safe while no
world can change what another world sees.
"""

import dataclasses
import hashlib

import pytest

from repro.core import CloudTestbed, run_usecase
from repro.core.testbed import AFFY_CEL_PATH, FOUR_CEL_PATH
from repro.crdata import build_crdata_tools
from repro.galaxy import build_upload_tools
from repro.tools_globus import build_globus_tools
from repro.workloads import make_affy_cel_archive, make_four_cel_archive


def catalog():
    return (*build_upload_tools(), *build_globus_tools(), *build_crdata_tools())


def panel(app):
    """The tool panel as section names and tool ids, in order."""
    return [
        (section, [tool.id for tool in tools])
        for section, tools in app.toolbox.sections().items()
    ]


def test_two_use_case_worlds_share_one_unchanged_catalog():
    before = {tool.id: dataclasses.astuple(tool) for tool in catalog()}
    app1, app2 = (
        run_usecase(scale_up_with=None, run_large=False, seed=seed)
        .instance.deployment.galaxy
        for seed in (1, 2)
    )
    assert panel(app1) == panel(app2)
    ids = [tool_id for _, tool_ids in panel(app1) for tool_id in tool_ids]
    assert sorted(ids) == sorted(before)
    for tool_id in ids:
        tool = app1.toolbox.get(tool_id)
        assert tool is app2.toolbox.get(tool_id), tool_id
        # both worlds ran the use case through these objects
        assert dataclasses.astuple(tool) == before[tool_id], tool_id


def test_a_catalog_tool_can_be_neither_reassigned_nor_extended():
    with pytest.raises(dataclasses.FrozenInstanceError):
        build_crdata_tools()[0].requirements = ()
    for tool in catalog():
        assert isinstance(tool.parameters, tuple), tool.id
        assert isinstance(tool.outputs, tuple), tool.id


def test_testbeds_stage_the_paper_archives_byte_for_byte():
    archives = {
        FOUR_CEL_PATH: make_four_cel_archive(),
        AFFY_CEL_PATH: make_affy_cel_archive(),
    }
    for seed in (1, 2):
        bed = CloudTestbed(seed=seed)
        for path, archive in archives.items():
            data = archive.to_bytes()
            node = bed.cvrg_fs.stat(path)
            assert node.data == data, path
            assert node.size == archive.declared_size, path
            assert node.checksum == hashlib.sha256(data).hexdigest(), path
