"""Tools and the toolbox.

"A tool can be any piece of software for which a command line invocation
can be constructed.  To add a new tool to Galaxy, a developer writes a
configuration file that describes how to run the tool, including detailed
specification of input and output parameters" (Sec. II-3).  Here the
configuration is a declarative dict (standing in for the tool XML), and
the command-line behaviour is a Python callable executed by the job
machinery — with a *work model* giving its simulated cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .datasets import KNOWN_EXTENSIONS


class ToolError(Exception):
    """Tool definition or parameter validation problem."""


@dataclass(frozen=True)
class ToolParameter:
    """One input parameter of a tool."""

    name: str
    type: str = "text"           # text | integer | float | boolean | select | data
    label: str = ""
    default: Any = None
    optional: bool = False
    options: tuple = ()          # for selects
    multiple: bool = False       # for data params accepting several datasets

    _COERCERS = {
        "integer": int,
        "float": float,
        "boolean": bool,
        "text": str,
    }

    def validate(self, value: Any) -> Any:
        """Coerce and validate a supplied value; raise :class:`ToolError`."""
        if value is None:
            if self.optional or self.default is not None:
                return self.default
            raise ToolError(f"parameter {self.name!r} is required")
        if self.type == "select":
            if value not in self.options:
                raise ToolError(
                    f"parameter {self.name!r}: {value!r} not in {self.options}"
                )
            return value
        if self.type == "data":
            return value  # resolved to datasets by the job layer
        coerce = self._COERCERS.get(self.type)
        if coerce is None:
            raise ToolError(f"parameter {self.name!r} has unknown type {self.type!r}")
        try:
            if self.type == "boolean" and isinstance(value, str):
                return value.lower() in ("yes", "true", "1", "on")
            return coerce(value)
        except (TypeError, ValueError) as exc:
            raise ToolError(f"parameter {self.name!r}: {exc}") from exc


@dataclass(frozen=True)
class ToolOutput:
    """One declared output dataset."""

    name: str
    ext: str = "data"
    label: str = ""

    def __post_init__(self) -> None:
        if self.ext not in KNOWN_EXTENSIONS:
            raise ToolError(f"output {self.name!r}: unknown extension {self.ext!r}")


#: ``execute(run) -> None`` where ``run`` is a ToolRunContext (jobs module).
ExecuteFn = Callable[[Any], None]
#: ``work_model(params, sizes) -> (cpu_work, io_work)`` in m1.small-seconds, where
#: ``sizes`` is an ``(n_jobs, n_inputs)`` byte matrix and both returned
#: arrays have shape ``(n_jobs,)``.
WorkFn = Callable[[dict, np.ndarray], tuple[np.ndarray, np.ndarray]]


def default_work_model(params: dict, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cheap default: cost scales mildly with input volume."""
    mb = sizes.sum(axis=1) / (1024 * 1024)
    return 5.0 + 0.5 * mb, 1.0 + 0.05 * mb


def as_sizes_matrix(sizes: Any) -> np.ndarray:
    """Normalise batch input sizes to an ``(n_jobs, n_inputs)`` float matrix.

    Accepts a 2-D matrix (one row per job, one column per input dataset)
    or a 1-D vector (each job has a single input).
    """
    arr = np.asarray(sizes, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ToolError(f"sizes must be a 1-D or 2-D array, got ndim={arr.ndim}")
    return arr


@dataclass
class Tool:
    """A runnable Galaxy tool."""

    id: str
    name: str
    version: str = "1.0.0"
    description: str = ""
    parameters: list[ToolParameter] = field(default_factory=list)
    outputs: list[ToolOutput] = field(default_factory=list)
    execute: Optional[ExecuteFn] = None
    work_model: WorkFn = default_work_model
    #: software the executing node must have converged (Chef packages)
    requirements: tuple[str, ...] = ()
    hidden: bool = False

    def __post_init__(self) -> None:
        names = [p.name for p in self.parameters]
        if len(names) != len(set(names)):
            raise ToolError(f"tool {self.id}: duplicate parameter names")
        out_names = [o.name for o in self.outputs]
        if len(out_names) != len(set(out_names)):
            raise ToolError(f"tool {self.id}: duplicate output names")

    def work_batch(self, params: dict, sizes: Any) -> tuple[np.ndarray, np.ndarray]:
        """Work model: ``(cpu_work, io_work)`` arrays for N jobs.

        ``sizes`` is an ``(n_jobs, n_inputs)`` byte matrix (or a 1-D
        vector for single-input jobs).
        """
        matrix = as_sizes_matrix(sizes)
        cpu, io = self.work_model(params, matrix)
        cpu = np.asarray(cpu, dtype=float)
        io = np.asarray(io, dtype=float)
        n = matrix.shape[0]
        if cpu.shape != (n,) or io.shape != (n,):
            raise ToolError(
                f"tool {self.id}: work model returned shapes "
                f"{cpu.shape}/{io.shape}, expected ({n},)"
            )
        return cpu, io

    def work(self, params: dict, sizes: Sequence[float]) -> tuple[float, float]:
        """One job's ``(cpu_work, io_work)`` for its input sizes in bytes:
        the one-row case of :meth:`work_batch`."""
        cpu, io = self.work_batch(params, np.asarray(sizes, dtype=float).reshape(1, -1))
        return float(cpu[0]), float(io[0])

    @classmethod
    def from_config(
        cls,
        config: dict,
        execute: Optional[ExecuteFn] = None,
        work_model: Optional[WorkFn] = None,
    ) -> "Tool":
        """Build a tool from a declarative config dict (the "XML")."""
        try:
            tool_id = config["id"]
            name = config["name"]
        except KeyError as exc:
            raise ToolError(f"tool config missing {exc}") from exc
        params = [ToolParameter(**p) for p in config.get("parameters", [])]
        outputs = [ToolOutput(**o) for o in config.get("outputs", [])]
        return cls(
            id=tool_id,
            name=name,
            version=config.get("version", "1.0.0"),
            description=config.get("description", ""),
            parameters=params,
            outputs=outputs,
            execute=execute,
            work_model=work_model or default_work_model,
            requirements=tuple(config.get("requirements", ())),
        )

    def param(self, name: str) -> ToolParameter:
        for p in self.parameters:
            if p.name == name:
                return p
        raise ToolError(f"tool {self.id} has no parameter {name!r}")

    def data_params(self) -> list[ToolParameter]:
        return [p for p in self.parameters if p.type == "data"]

    def validate_params(self, raw: dict) -> dict:
        """Validate a raw parameter dict into coerced values."""
        unknown = set(raw) - {p.name for p in self.parameters}
        if unknown:
            raise ToolError(f"tool {self.id}: unknown parameters {sorted(unknown)}")
        out = {}
        for p in self.parameters:
            if p.type == "data":
                # Data parameters arrive as the job's ``inputs`` list, not
                # through the parameter dict; keep whatever reference exists.
                if p.name in raw:
                    out[p.name] = raw[p.name]
                continue
            out[p.name] = p.validate(raw.get(p.name))
        return out

    def output(self, name: str) -> ToolOutput:
        for o in self.outputs:
            if o.name == name:
                return o
        raise ToolError(f"tool {self.id} has no output {name!r}")


class Toolbox:
    """The tool panel: sections of registered tools."""

    def __init__(self) -> None:
        self._tools: dict[str, Tool] = {}
        self._sections: dict[str, list[str]] = {}

    def register(self, tool: Tool, section: str = "Tools") -> Tool:
        if tool.id in self._tools:
            raise ToolError(f"tool id {tool.id!r} already registered")
        self._tools[tool.id] = tool
        self._sections.setdefault(section, []).append(tool.id)
        return tool

    def get(self, tool_id: str) -> Tool:
        try:
            return self._tools[tool_id]
        except KeyError:
            raise ToolError(f"no such tool {tool_id!r}") from None

    def __contains__(self, tool_id: str) -> bool:
        return tool_id in self._tools

    def sections(self) -> dict[str, list[Tool]]:
        return {
            section: [self._tools[tid] for tid in ids]
            for section, ids in self._sections.items()
        }

    def search(self, query: str) -> list[Tool]:
        """Tool-panel search over id, name and description."""
        q = query.lower()
        return [
            t
            for t in self._tools.values()
            if q in t.id.lower() or q in t.name.lower() or q in t.description.lower()
        ]

    def __len__(self) -> int:
        return len(self._tools)
