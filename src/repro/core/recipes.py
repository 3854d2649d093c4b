"""The GP cookbooks for Galaxy: the paper's Chef recipes (Sec. III-B).

Two cookbooks:

* ``globus`` — GP's standard host setup: common base, NFS/NIS servers,
  GridFTP, MyProxy, Condor head/worker.
* ``galaxy`` — the paper's contribution: ``galaxy-globus-common`` (galaxy
  user, Galaxy fork + Globus Transfer tools checked out from
  bitbucket.org, default configs; runs on the NFS/NIS server when the
  domain has one), ``galaxy-globus`` (installs the Globus fork of Galaxy
  and the Transfer API, sets up the Galaxy database, runs set-up scripts
  and restarts Galaxy; runs on ``simple-galaxy-condor``), and
  ``galaxy-globus-crdata`` (R, LibSBML, LibXML, GraphViz, cURL and the
  CRData R packages + tool definitions).

Work amounts (m1.small-seconds, split I/O vs CPU) are calibrated so the
galaxy head node's run-list on the GP public AMI totals
``calibration.GALAXY_RUNLIST_IO_WORK`` / ``GALAXY_RUNLIST_CPU_WORK``,
reproducing Fig. 10's deployment times; a test asserts the sum.
Packages pre-baked into the AMI converge at verification cost only, which
is what makes the paper's "create your own AMI" advice (Fig. 1 step 8)
pay off — the ablation benchmark measures exactly that.
"""

from __future__ import annotations

from functools import cache

from ..chef import Cookbook, CookbookRepository

GALAXY_FORK_URL = "https://bitbucket.org/galaxy/galaxy-globus"
TRANSFER_TOOLS_URL = "https://bitbucket.org/cvrg/globus-transfer-tools"


def build_globus_cookbook() -> Cookbook:
    book = Cookbook("globus")

    @book.recipe("common", description="base host setup for every GP node")
    def common(r, node):
        r.package("python", io_work=20.0, cpu_work=4.0)
        r.package("globus-toolkit", io_work=90.0, cpu_work=15.0)
        r.package("ntp", io_work=4.0)
        r.directory("/opt/gp", io_work=1.0)
        r.template("/etc/gp/node.conf", content="node={{name}}",
                   variables={"name": node.name}, io_work=0.5)
        r.user("gp-admin", io_work=1.0, cpu_work=1.0)

    @book.recipe("nfs-server", description="exports the shared filesystem")
    def nfs_server(r, node):
        r.package("nfs-utils", io_work=15.0, cpu_work=2.0)
        r.directory("/export/home", io_work=1.0)
        r.template("/etc/exports", content="/export/home *(rw)", io_work=1.0)
        r.service("nfsd", io_work=3.0)

    @book.recipe("nis-server", description="serves cluster-wide user accounts")
    def nis_server(r, node):
        r.package("nis", io_work=10.0)
        r.template("/etc/ypserv.conf", content="dns: no", io_work=1.0)
        r.service("ypserv", io_work=2.0)

    @book.recipe("gridftp", description="Globus endpoint data mover")
    def gridftp(r, node):
        r.package("globus-toolkit", io_work=90.0, cpu_work=15.0)
        r.template("/etc/gridftp.conf", content="port 2811", io_work=1.0)
        r.execute("request-host-certificate", io_work=1.0, cpu_work=0.5,
                  creates="host-cert")
        r.service("gridftp", io_work=2.0)

    @book.recipe("myproxy", description="online credential repository")
    def myproxy(r, node):
        r.package("globus-toolkit", io_work=90.0, cpu_work=15.0)
        r.template("/etc/myproxy.conf", content="accepted_credentials *", io_work=1.0)
        r.service("myproxy", io_work=2.0)

    @book.recipe(
        "parallel-fs-data",
        description="stripe server of the GlusterFS/PVFS-style shared FS",
    )
    def parallel_fs_data(r, node):
        r.package("parallel-fs-server", io_work=25.0, cpu_work=4.0)
        r.directory("/export/stripe", io_work=1.0)
        r.template("/etc/parallel-fs/stripe.conf", content="role=data",
                   io_work=1.0)
        r.service("parallel-fs-data", io_work=2.0)

    @book.recipe("condor-head", description="Condor collector/negotiator/schedd")
    def condor_head(r, node):
        r.package("condor", io_work=45.0, cpu_work=6.0)
        r.template("/etc/condor/condor_config", content="DAEMON_LIST = MASTER, "
                   "COLLECTOR, NEGOTIATOR, SCHEDD", io_work=1.0)
        r.service("condor", io_work=2.0)
        r.execute("condor-pool-init", io_work=0.5, cpu_work=2.0, creates="condor-pool")

    @book.recipe("condor-worker", description="Condor execute node")
    def condor_worker(r, node):
        r.package("condor", io_work=45.0, cpu_work=6.0)
        r.template("/etc/condor/condor_config", content="DAEMON_LIST = MASTER, STARTD",
                   io_work=1.0)
        r.service("condor", io_work=2.0)
        r.execute("join-pool", io_work=0.5, cpu_work=1.0, creates="condor-joined")

    return book


def build_galaxy_cookbook() -> Cookbook:
    book = Cookbook("galaxy")

    @book.recipe(
        "galaxy-globus-common",
        description="galaxy user + Galaxy fork and Globus Transfer tools from bitbucket",
    )
    def galaxy_globus_common(r, node):
        r.user("galaxy", io_work=1.0, home="/home/galaxy")
        r.directory("/home/galaxy/galaxy-dist", io_work=1.0)
        r.directory("/home/galaxy/database", io_work=1.0)
        r.checkout("/home/galaxy/galaxy-dist", repo_url=GALAXY_FORK_URL,
                   revision="globus", io_work=60.0, cpu_work=2.0)
        r.checkout("/home/galaxy/globus-transfer-tools", repo_url=TRANSFER_TOOLS_URL,
                   revision="default", io_work=15.0, cpu_work=0.5)
        r.execute("copy-default-galaxy-configs", io_work=5.0, creates="galaxy-configs")

    @book.recipe(
        "galaxy-globus",
        description="install the Globus fork of Galaxy, Transfer API, DB; restart",
    )
    def galaxy_globus(r, node):
        r.package("postgresql", io_work=35.0, cpu_work=6.0)
        r.package("galaxy-dependencies", io_work=60.0, cpu_work=12.0)
        r.package("globus-transfer-api", io_work=25.0, cpu_work=3.0)
        r.execute("compile-galaxy-eggs", io_work=100.0, cpu_work=6.0,
                  creates="galaxy-eggs")
        r.execute("setup-galaxy-database", io_work=20.0, cpu_work=12.0,
                  creates="galaxy-db")
        r.execute("run-galaxy-setup-scripts", io_work=25.0, cpu_work=10.0,
                  creates="galaxy-setup")
        r.template("/home/galaxy/universe_wsgi.ini",
                   content="port=8080; globus={{endpoint}}",
                   variables={"endpoint": node.attributes.get("go_endpoint", "")},
                   io_work=2.0)
        r.package("galaxy", io_work=3.0)  # marks the app converged
        r.restart("galaxy", io_work=5.0, cpu_work=2.0)

    @book.recipe(
        "galaxy-globus-crdata",
        description="R, LibSBML, LibXML, GraphViz, cURL + CRData packages and tools",
    )
    def galaxy_globus_crdata(r, node):
        r.package("R", io_work=40.0, cpu_work=8.0)
        r.package("libsbml", io_work=10.0, cpu_work=2.0)
        r.package("libxml", io_work=8.0, cpu_work=1.0)
        r.package("graphviz", io_work=12.0, cpu_work=2.0)
        r.package("curl", io_work=5.0, cpu_work=0.5)
        r.package("crdata-tools", io_work=35.0, cpu_work=6.0)
        r.execute("install-crdata-tool-definitions", io_work=10.0, cpu_work=0.5,
                  creates="crdata-tool-defs")

    return book


@cache
def build_repository() -> CookbookRepository:
    """The cookbook repository a GP deployment converges from, built once
    per process and shared, frozen, by every testbed."""
    return CookbookRepository([build_globus_cookbook(), build_galaxy_cookbook()]).freeze()


#: Run-list of the galaxy head node in the use-case topology (with NFS).
GALAXY_HEAD_RUN_LIST = (
    "globus::common",
    "globus::condor-head",
    "galaxy::galaxy-globus",
    "galaxy::galaxy-globus-crdata",
)
