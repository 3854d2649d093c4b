"""Shared Galaxy fixtures: an app with toy tools and zero job overheads."""

import numpy as np
import pytest

from repro.galaxy import GalaxyApp, Tool, ToolOutput, ToolParameter
from repro.simcore import SimContext


def fixed_work(cpu_work, io_work):
    """Array work model charging every job the same ``(cpu, io)`` work."""
    return lambda params, sizes: (
        np.full(len(sizes), cpu_work),
        np.full(len(sizes), io_work),
    )


def uppercase_tool():
    """Toy tool: uppercases its input text."""

    def execute(run):
        data = run.input(0).read()
        run.output("output").write(data.upper())
        run.log("uppercased %d bytes" % len(data))

    return Tool(
        id="upper1",
        name="Uppercase",
        parameters=[ToolParameter(name="input", type="data")],
        outputs=[ToolOutput(name="output", ext="txt", label="Uppercased text")],
        execute=execute,
        work_model=fixed_work(10.0, 2.0),
    )


def concat_tool():
    """Toy tool with two data inputs."""

    def execute(run):
        merged = b"\n".join(h.read() for h in run.inputs)
        run.output("output").write(merged)

    return Tool(
        id="cat1",
        name="Concatenate",
        parameters=[
            ToolParameter(name="first", type="data"),
            ToolParameter(name="second", type="data"),
        ],
        outputs=[ToolOutput(name="output", ext="txt")],
        execute=execute,
        work_model=fixed_work(5.0, 1.0),
    )


def failing_tool():
    def execute(run):
        raise RuntimeError("segmentation fault (core dumped)")

    return Tool(
        id="crash1",
        name="Crasher",
        parameters=[ToolParameter(name="input", type="data")],
        outputs=[ToolOutput(name="output", ext="txt")],
        execute=execute,
    )


def sleep_tool(cpu_work=100.0):
    """Pure compute tool parameterised by work; writes a marker output."""

    def execute(run):
        run.output("output").write(b"done")

    return Tool(
        id=f"sleep{int(cpu_work)}",
        name="Sleeper",
        parameters=[ToolParameter(name="input", type="data")],
        outputs=[ToolOutput(name="output", ext="txt")],
        execute=execute,
        work_model=fixed_work(cpu_work, 0.0),
    )


@pytest.fixture
def app():
    ctx = SimContext(seed=5)
    app = GalaxyApp(ctx, job_overheads=(0.0, 0.0))
    app.install_tool(uppercase_tool(), section="Text")
    app.install_tool(concat_tool(), section="Text")
    app.install_tool(failing_tool(), section="Debug")
    app.create_user("boliu", "boliu@uchicago.edu")
    return app


@pytest.fixture
def history(app):
    return app.create_history("boliu", "Test history")
