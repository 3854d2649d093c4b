"""Per-layer host time from a ``cProfile`` run.

The profiler times every Python call, including each resume of a
simulation process, so a function's self time can be charged to the
layer its source file belongs to.  Layers are groups of ``repro``
subpackages.  Time spent in code outside ``repro`` (NumPy, the standard
library, built-ins) is charged to the layers that called it, split in
proportion to the time each caller spent in it.
"""

from __future__ import annotations

import os
import pstats

#: ``repro`` subpackage -> layer; subpackages not listed count as "other"
PACKAGE_LAYERS = {
    "simcore": "kernel",
    "cluster": "condor",
    "transfer": "transfer",
    "storage": "storage",
    # Galaxy and WaaS are one layer, the workflow front ends: each
    # workload drives only one of them, and a layer that never runs would
    # report a time of exactly zero.
    "galaxy": "workflow",
    "waas": "workflow",
    "workloads": "workflow",
    "crdata": "tools",
    "tools_globus": "tools",
    "cloud": "provision",
    "chef": "provision",
    "provision": "provision",
    "core": "provision",
    "security": "provision",
    "obs": "obs",
}

LAYERS = (
    "kernel",
    "condor",
    "transfer",
    "storage",
    "workflow",
    "tools",
    "provision",
    "obs",
    "other",
)

_MARKER = os.sep + "repro" + os.sep


def _own_layer(filename: str) -> "str | None":
    """The layer of a ``repro`` source file, or None for foreign code."""
    pos = filename.rfind(_MARKER)
    if pos < 0:
        return None
    package = filename[pos + len(_MARKER):].split(os.sep, 1)[0]
    return PACKAGE_LAYERS.get(package, "other")


def layer_seconds(profile) -> dict[str, float]:
    """Self seconds per layer (every name in :data:`LAYERS`)."""
    stats = pstats.Stats(profile).stats
    shares: dict[tuple, dict[str, float]] = {}

    def share_of(func: tuple, visiting: set) -> dict[str, float]:
        known = shares.get(func)
        if known is not None:
            return known
        layer = _own_layer(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = {
                caller: edge[3]
                for caller, edge in stats[func][4].items()
                if caller not in visiting and caller in stats
            }
            total = sum(callers.values())
            if total <= 0.0:
                result = {"other": 1.0}
            else:
                visiting.add(func)
                result = {}
                for caller, seconds in callers.items():
                    for name, part in share_of(caller, visiting).items():
                        result[name] = result.get(name, 0.0) + part * seconds / total
                visiting.discard(func)
        shares[func] = result
        return result

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, self_s, _cum, _callers) in stats.items():
        for name, part in share_of(func, set()).items():
            totals[name] += part * self_s
    return totals
