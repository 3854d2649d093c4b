"""Recipes and cookbooks.

A *recipe* is a builder function that, given the node, emits the ordered
resource list to converge (mirroring a Ruby recipe's resource collection).
Similar recipes group into a *cookbook* with default attributes, exactly
as the paper describes GP's Chef usage (Sec. III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Iterable, Optional

from .node import ChefNode
from .resources import (
    ChefResource,
    Directory,
    Execute,
    Package,
    RemoteFile,
    ScmCheckout,
    Service,
    ServiceRestart,
    Template,
    UserAccount,
)

RecipeBuilder = Callable[["RecipeContext", ChefNode], None]


class RecipeContext:
    """Collects resources as the builder runs; a tiny resource DSL."""

    def __init__(self, node: ChefNode) -> None:
        self.node = node
        self.resources: list[ChefResource] = []

    def add(self, resource: ChefResource) -> ChefResource:
        self.resources.append(resource)
        return resource

    # Convenience constructors mirroring Chef's DSL keywords ----------------
    def package(self, name: str, io_work: float = 0.0, cpu_work: float = 0.0, **kw):
        return self.add(Package(name=name, io_work=io_work, cpu_work=cpu_work, **kw))

    def user(self, name: str, io_work: float = 1.0, **kw):
        return self.add(UserAccount(name=name, io_work=io_work, **kw))

    def directory(self, path: str, io_work: float = 0.5, **kw):
        return self.add(Directory(name=path, io_work=io_work, **kw))

    def remote_file(self, path: str, io_work: float = 0.0, **kw):
        return self.add(RemoteFile(name=path, io_work=io_work, **kw))

    def template(self, path: str, io_work: float = 0.5, **kw):
        return self.add(Template(name=path, io_work=io_work, **kw))

    def service(self, name: str, io_work: float = 1.0, **kw):
        return self.add(Service(name=name, io_work=io_work, **kw))

    def restart(self, name: str, io_work: float = 2.0, **kw):
        return self.add(ServiceRestart(name=name, io_work=io_work, **kw))

    def execute(self, name: str, io_work: float = 0.0, cpu_work: float = 0.0, **kw):
        return self.add(Execute(name=name, io_work=io_work, cpu_work=cpu_work, **kw))

    def checkout(self, path: str, io_work: float = 0.0, **kw):
        return self.add(ScmCheckout(name=path, io_work=io_work, **kw))


@dataclass(frozen=True)
class Recipe:
    """Named builder of a resource collection."""

    name: str
    builder: RecipeBuilder
    description: str = ""

    def compile(self, node: ChefNode) -> list[ChefResource]:
        ctx = RecipeContext(node)
        self.builder(ctx, node)
        return ctx.resources

    def total_work(self, node: ChefNode) -> tuple[float, float]:
        """(io_work, cpu_work) the recipe would cost if nothing is satisfied."""
        resources = self.compile(node)
        return (
            sum(r.io_work for r in resources),
            sum(r.cpu_work for r in resources),
        )


@dataclass(frozen=True)
class Cookbook:
    """A named group of recipes plus cookbook-level default attributes.

    The fields are never reassigned; in a frozen repository (see
    :meth:`CookbookRepository.freeze`) both mappings are read-only."""

    name: str
    recipes: dict[str, Recipe] = field(default_factory=dict)
    default_attributes: dict = field(default_factory=dict)

    def recipe(self, name: str, description: str = "") -> Callable[[RecipeBuilder], Recipe]:
        """Decorator: register a builder function as a recipe."""

        def register(builder: RecipeBuilder) -> Recipe:
            rec = Recipe(name=name, builder=builder, description=description)
            self.add(rec)
            return rec

        return register

    def add(self, recipe: Recipe) -> None:
        if recipe.name in self.recipes:
            raise ValueError(f"duplicate recipe {recipe.name!r} in cookbook {self.name!r}")
        self.recipes[recipe.name] = recipe

    def get(self, name: str) -> Recipe:
        try:
            return self.recipes[name]
        except KeyError:
            raise KeyError(f"cookbook {self.name!r} has no recipe {name!r}") from None


class CookbookRepository:
    """All cookbooks known to a GP deployment, addressed ``cookbook::recipe``."""

    def __init__(self, cookbooks: Optional[Iterable[Cookbook]] = None) -> None:
        self._books: dict[str, Cookbook] = {}
        for book in cookbooks or ():
            self.register(book)

    def freeze(self) -> "CookbookRepository":
        """Make the repository read-only, for sharing between worlds:
        registering a cookbook, or adding or replacing a recipe or a
        default attribute in one, raises ``TypeError`` from then on."""
        self._books = MappingProxyType({
            name: replace(
                book,
                recipes=MappingProxyType(dict(book.recipes)),
                default_attributes=MappingProxyType(dict(book.default_attributes)),
            )
            for name, book in self._books.items()
        })
        return self

    def register(self, cookbook: Cookbook) -> None:
        if cookbook.name in self._books:
            raise ValueError(f"duplicate cookbook {cookbook.name!r}")
        self._books[cookbook.name] = cookbook

    def cookbook(self, name: str) -> Cookbook:
        try:
            return self._books[name]
        except KeyError:
            raise KeyError(f"unknown cookbook {name!r}") from None

    def resolve(self, item: str) -> Recipe:
        """Resolve a run-list item ``"cookbook::recipe"`` (or ``"cookbook"``
        meaning its ``default`` recipe)."""
        if "::" in item:
            book_name, recipe_name = item.split("::", 1)
        else:
            book_name, recipe_name = item, "default"
        return self.cookbook(book_name).get(recipe_name)
