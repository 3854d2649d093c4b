"""Site graph: which network path connects any two endpoints' locations.

Each GridFTP server lives at a *site* (the user's laptop, the EC2
deployment, a campus data repository).  The site graph maps site pairs to
:class:`~repro.cloud.network.NetworkPath` objects; transfers between
servers look their path up here.  Same-site transfers use the LAN path.
"""

from __future__ import annotations

from functools import cache

from ..cloud.network import NetworkPath


class SiteGraph:
    """Symmetric map of (site, site) -> NetworkPath."""

    #: set by :meth:`freeze`: a frozen graph refuses every change
    frozen = False

    def __init__(self, default: NetworkPath | None = None) -> None:
        self._paths: dict[frozenset[str], NetworkPath] = {}
        self._sites: set[str] = set()
        self.default = default if default is not None else NetworkPath.paper_wan()
        self.lan = NetworkPath.lan()

    def __setattr__(self, name: str, value) -> None:
        if self.frozen:
            raise TypeError(f"a frozen SiteGraph cannot set {name!r}")
        super().__setattr__(name, value)

    def freeze(self) -> "SiteGraph":
        """Make the graph read-only, for sharing between worlds: ``connect``,
        ``add_site`` and assigning an attribute raise ``TypeError`` from
        then on."""
        self.frozen = True
        return self

    def add_site(self, name: str) -> None:
        if self.frozen:
            raise TypeError(f"a frozen SiteGraph cannot add site {name!r}")
        self._sites.add(name)

    @property
    def sites(self) -> set[str]:
        return set(self._sites)

    def connect(self, a: str, b: str, path: NetworkPath) -> None:
        if a == b:
            raise ValueError("use the implicit LAN path for same-site transfers")
        self.add_site(a)
        self.add_site(b)
        self._paths[frozenset((a, b))] = path

    def path(self, a: str, b: str) -> NetworkPath:
        if a == b:
            return self.lan
        return self._paths.get(frozenset((a, b)), self.default)

    @classmethod
    @cache
    def paper_testbed(cls) -> "SiteGraph":
        """Laptop, EC2 deployment, and the CVRG data endpoint (Sec. V),
        built once per process and shared, frozen, by every testbed."""
        g = cls()
        wan = NetworkPath.paper_wan()
        for a, b in [("laptop", "ec2"), ("laptop", "cvrg"), ("cvrg", "ec2")]:
            g.connect(a, b, wan)
        return g.freeze()
