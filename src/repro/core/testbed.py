"""CloudTestbed: the simulated world every experiment runs in.

One object owns the event kernel and all off-cluster infrastructure: the
mock EC2 region with billing, the certificate authority and MyProxy, the
site graph (laptop / EC2 / CVRG data repository), the Globus Online
service, the researcher's laptop endpoint, and the public CVRG data
endpoint hosting the paper's two use-case archives
(``fourCelFileSamples.zip`` and ``affyCelFileSamples.zip``).
"""

from __future__ import annotations

from functools import cache
from typing import Optional

from ..chef import ChefRunner
from ..cloud import BillingMeter, MockEC2, PriceBook
from ..cluster import SimFilesystem
from ..security import CertificateAuthority, MyProxyServer
from ..simcore import SimContext
from ..transfer import GlobusOnline, GridFTPServer, SiteGraph
from ..workloads import make_affy_cel_archive, make_four_cel_archive
from .recipes import build_repository

#: endpoint the paper's use case pulls data from (Sec. V-A)
CVRG_DATA_ENDPOINT = "galaxy#CVRG-Galaxy"
#: paths of the use-case archives on that endpoint
FOUR_CEL_PATH = "/home/boliu/fourCelFileSamples.zip"
AFFY_CEL_PATH = "/home/boliu/affyCelFileSamples.zip"


@cache
def _usecase_archives() -> tuple[tuple[str, bytes, int], ...]:
    """``(path, bytes, declared size)`` of each use-case archive.  Their
    seeds are fixed and bytes are immutable, so every testbed in a
    process stages the same two."""
    return tuple(
        (path, archive.to_bytes(), archive.declared_size)
        for path, archive in (
            (FOUR_CEL_PATH, make_four_cel_archive()),
            (AFFY_CEL_PATH, make_affy_cel_archive()),
        )
    )


class CloudTestbed:
    """The laboratory: everything outside the GP-deployed cluster."""

    def __init__(
        self,
        seed: int = 0,
        fault_rate: float = 0.0,
        price_book: Optional[PriceBook] = None,
        boot_jitter: float = 0.0,
        capacity_error_rate: float = 0.0,
    ) -> None:
        self.ctx = SimContext(seed=seed)
        self.meter = BillingMeter(book=price_book or PriceBook.paper())
        self.ec2 = MockEC2(
            self.ctx,
            meter=self.meter,
            boot_jitter=boot_jitter,
            capacity_error_rate=capacity_error_rate,
        )
        self.ca = CertificateAuthority("GP-CA")
        self.myproxy = MyProxyServer(ca=self.ca)
        self.sites = SiteGraph.paper_testbed()
        self.go = GlobusOnline(
            self.ctx, sites=self.sites, ca=self.ca, fault_rate=fault_rate
        )
        self.chef = ChefRunner(self.ctx, build_repository())

        # The researcher's laptop: a Globus Connect endpoint.
        self.laptop_fs = SimFilesystem("laptop")
        self.laptop_server = GridFTPServer(
            ctx=self.ctx, hostname="laptop.local", site="laptop", fs=self.laptop_fs
        )
        self.go.register_user("boliu", "boliu@uchicago.edu")
        self.boliu_cert = self.ca.issue_user_cert("boliu", now=self.ctx.now)
        self.go.add_user_credential("boliu", self.boliu_cert)
        self.myproxy.store("boliu", self.boliu_cert, "usecase-pass", now=self.ctx.now)
        self.go.create_endpoint("boliu#laptop", [self.laptop_server])

        # The CVRG data endpoint with the paper's archives.
        self.cvrg_fs = SimFilesystem("cvrg")
        self.cvrg_server = GridFTPServer(
            ctx=self.ctx, hostname="data.cvrg.org", site="cvrg", fs=self.cvrg_fs
        )
        self.go.register_user("galaxy", "admin@cvrgrid.org")
        galaxy_cert = self.ca.issue_user_cert("galaxy", now=self.ctx.now)
        self.go.add_user_credential("galaxy", galaxy_cert)
        self.go.create_endpoint(CVRG_DATA_ENDPOINT, [self.cvrg_server], public=True)
        self._stage_usecase_data()

    def _stage_usecase_data(self) -> None:
        for path, data, size in _usecase_archives():
            self.cvrg_fs.write(path, data=data, size=size)

    # -- convenience --------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.ctx.now

    def run(self, until=None):
        return self.ctx.sim.run(until=until)

    def total_cost(self, mode: str = "proportional") -> float:
        return self.meter.cost(self.ctx.now, mode=mode)

    def ensure_go_user(self, username: str) -> None:
        """Register a GO account with a valid credential if absent."""
        if username not in self.go.users:
            self.go.register_user(username)
        user = self.go.users[username]
        if not any(
            self.ca.is_valid(c, self.ctx.now) for c in user.credentials
        ):
            cert = self.ca.issue_user_cert(username, now=self.ctx.now)
            self.go.add_user_credential(username, cert)
