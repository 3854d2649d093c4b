"""The chef-solo runner: converge a node's run-list in simulated time.

Converge cost of a resource is ``io_work / node.io_factor +
cpu_work / node.cpu_factor`` seconds; satisfied resources cost only the
verification constant.  This is the model behind Fig. 10's deployment
times (see :mod:`repro.calibration`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..simcore import SimContext
from .node import ChefNode
from .recipe import CookbookRepository
from .resources import SKIP_COST_S, ChefResource


class ConvergeError(Exception):
    """A resource failed to apply."""


@dataclass
class ResourceOutcome:
    resource: str
    recipe: str
    action: str              # "applied" | "skipped" | "guarded"
    duration_s: float


@dataclass
class ConvergeReport:
    """What one converge run did and how long it took."""

    node: str
    run_list: list[str]
    started_at: float
    finished_at: float = 0.0
    outcomes: list[ResourceOutcome] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.finished_at - self.started_at

    @property
    def applied(self) -> list[ResourceOutcome]:
        return [o for o in self.outcomes if o.action == "applied"]

    @property
    def skipped(self) -> list[ResourceOutcome]:
        return [o for o in self.outcomes if o.action != "applied"]


class ChefRunner:
    """Runs run-lists against nodes inside the simulation."""

    def __init__(self, ctx: SimContext, repo: CookbookRepository) -> None:
        self.ctx = ctx
        self.repo = repo

    def resource_cost_s(self, node: ChefNode, resource: ChefResource) -> float:
        io = resource.io_work / node.io_factor if resource.io_work else 0.0
        cpu = resource.cpu_work / node.cpu_factor if resource.cpu_work else 0.0
        return io + cpu

    def converge(self, node: ChefNode, run_list: Iterable[str], cause=None):
        """A simulation process: yields while work happens, returns report.

        Use as ``report = yield from runner.converge(node, run_list)`` inside
        another process, or ``ctx.sim.process(runner.converge(...))``.
        ``cause`` optionally names the obs span id this converge follows
        from (the deployer passes the node's ec2.boot span).
        """
        run_list = list(run_list)
        report = ConvergeReport(
            node=node.name, run_list=run_list, started_at=self.ctx.now
        )
        obs = self.ctx.obs
        track = f"chef/{node.name}"
        span = obs.start("chef.converge", track=track, cause=cause, node=node.name)
        outcomes = report.outcomes
        total_applied = 0
        try:
            for item in run_list:
                recipe = self.repo.resolve(item)
                recipe_span = (
                    obs.start("chef.recipe", track=track, recipe=item)
                    if obs.enabled else None
                )
                applied = 0
                for resource in recipe.compile(node):
                    if resource.only_if is not None and not resource.only_if(node):
                        outcomes.append(
                            ResourceOutcome(resource.describe(), item, "guarded", 0.0)
                        )
                        continue
                    if resource.is_satisfied(node):
                        cost = SKIP_COST_S / node.io_factor
                        yield self.ctx.sim.timeout(cost)
                        outcomes.append(
                            ResourceOutcome(resource.describe(), item, "skipped", cost)
                        )
                        continue
                    cost = self.resource_cost_s(node, resource)
                    yield self.ctx.sim.timeout(cost)
                    try:
                        resource.apply(node)
                    except Exception as exc:  # surface with context
                        raise ConvergeError(
                            f"{resource.describe()} failed on {node.name}: {exc}"
                        ) from exc
                    outcomes.append(
                        ResourceOutcome(resource.describe(), item, "applied", cost)
                    )
                    applied += 1
                total_applied += applied
                if recipe_span is not None:
                    obs.finish(recipe_span.set(applied=applied))
        except BaseException as exc:
            obs.finish_open(track, status="error", error=repr(exc))
            raise
        obs.finish(span.set(applied=total_applied))
        node.run_list = run_list
        report.finished_at = self.ctx.now
        node.converge_log.append(
            {
                "run_list": run_list,
                "duration": report.duration_s,
                "applied": total_applied,
                "skipped": len(outcomes) - total_applied,
            }
        )
        return report
