"""What every world installs and stages is built once per process.

The Galaxy tool catalogs (upload, Globus Online, CRData), the two CVRG
use-case archives, the Chef cookbook repository and the site graph are
the same in every world, so worlds share them: each toolbox registers
the same frozen ``Tool`` objects, each testbed writes the same archive
bytes and converges from, and routes transfers through, the same
read-only repository and graph.  Sharing is only safe while no world can
change what another world sees.
"""

import dataclasses
import hashlib

import pytest

from repro.chef import Cookbook, CookbookRepository, Recipe
from repro.cloud import NetworkPath
from repro.core import CloudTestbed, run_usecase
from repro.core.testbed import AFFY_CEL_PATH, FOUR_CEL_PATH
from repro.crdata import build_crdata_tools
from repro.galaxy import build_upload_tools
from repro.tools_globus import build_globus_tools
from repro.transfer import SiteGraph
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


def test_testbeds_share_one_read_only_repository_and_site_graph():
    first, second = CloudTestbed(seed=1), CloudTestbed(seed=2)
    repo, sites = first.chef.repo, first.sites
    assert second.chef.repo is repo
    assert second.sites is sites and first.go.sites is sites and second.go.sites is sites
    book = repo.cookbook("globus")
    recipes = dict(book.recipes)
    common = book.get("common")
    with pytest.raises(TypeError):
        repo.register(Cookbook("extra"))
    with pytest.raises(TypeError):
        book.add(Recipe("extra", common.builder))
    with pytest.raises(TypeError):
        book.recipes["common"] = Recipe("common", common.builder)
    with pytest.raises(dataclasses.FrozenInstanceError):
        book.recipes = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        common.builder = None
    wan = NetworkPath.paper_wan()
    with pytest.raises(TypeError):
        sites.connect("mars", "ec2", wan)
    with pytest.raises(TypeError):
        sites.add_site("mars")
    with pytest.raises(TypeError):
        sites.default = NetworkPath.lan()
    assert dict(repo.cookbook("globus").recipes) == recipes
    assert sites.sites == {"laptop", "ec2", "cvrg"}
    assert sites.path("mars", "ec2") is sites.default


def test_repositories_and_site_graphs_built_apart_stay_writable():
    repo = CookbookRepository([Cookbook("mine")])
    repo.register(Cookbook("theirs"))
    repo.cookbook("mine").add(Recipe("default", lambda r, node: None))
    assert repo.resolve("mine").name == "default"
    graph = SiteGraph()
    graph.connect("a", "b", NetworkPath.lan())
    graph.add_site("c")
    assert graph.sites == {"a", "b", "c"}
