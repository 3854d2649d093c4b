"""Host-cost benchmark of the Galaxy / Globus Provision simulator.

What a run of the simulator costs the machine it runs on: wall time per
pass over a workload and kernel events per unit of it, both measured
against a fixed reference probe, set-up time and peak memory.  Run it
from the repository root; it imports the simulator from ``src/``::

    python3 perfbench/run.py --workload waas --seed 1 --seconds 30 --trace 0

Workloads (``scenarios.py``), each a configuration a ``gp-bench`` suite
ships:

* ``paper_obs`` — the four Fig. 10 columns and the use case's scale-up
  with span recording on, each followed by the critical-path walk and the
  trace export: Galaxy jobs, CRData tools, EC2/Chef and obs;
* ``storage`` — the ``storage_ablation`` smoke shape, the Fig. 10
  m1.small column on each of the four shared-storage backends;
* ``waas`` — the ``waas`` suite's 1k-tenant queue-depth run: 2000
  tenant DAGs through WaaS admission and the Condor negotiator while the
  policy grows the pool through ``gp.update``.

A pass runs each of the workload's scenarios once, timed as set-up
(building the simulated world before the kernel runs) and drain (running
it).  A run makes one untimed warm-up pass, then repeats passes for
``--seconds`` seconds.

On a shared 2-vCPU virtual machine, neighbours slow all code alike, pure
Python and NumPy, by 40-50% for stretches of seconds to minutes, with no
steal time to show for it.  A whole run can fall in such a stretch, so
no statistic of raw wall times is steady from run to run.  Each scenario
run is therefore bracketed by :func:`probe`, a fixed piece of Python and
NumPy work, and its wall time is divided by the mean of the two probe
times: the host's speed cancels, the program's cost stays.

* ``run_cost`` — wall time of one pass, set-up included, in probes: per
  scenario the median over repeats, summed over the pass;
* ``events_per_probe`` — kernel events processed while draining a pass,
  per probe's worth of the pass's drain wall time (same medians);
* ``setup_s`` — wall seconds of the set-up of one pass: per scenario the
  fastest repeat, summed;
* ``peak_mib`` — the largest ``tracemalloc`` peak of one scenario,
  measured in an extra untimed pass.

Standard error also gets the raw figures: the fastest pass in
milliseconds and the median probe time.

With ``--trace 1`` the passes run under ``cProfile`` instead, and the
run reports per pass the self time of each layer (``layers.py``), the
kernel's nanoseconds per event, and the work each layer did as counts.

Every drain checks its results; every repeat must reproduce the
warm-up's results exactly; and a workload may add checks across its
scenarios (the Fig. 10 and storage orderings, obs on and off giving the
same simulation).  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` scenario runs, and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy

import layers

MIB = float(1 << 20)
_PROBE_ARRAY = numpy.random.default_rng(0).random(1 << 17)


def probe() -> float:
    """Wall seconds of the reference work: dict stores and integer
    arithmetic in the interpreter, then a NumPy argsort of 2**17 floats,
    the two kinds of work the workloads spend their time in (a few
    milliseconds each on a 2-vCPU x86 VM)."""
    t0 = time.perf_counter()
    total = 0
    table = {}
    for i in range(30000):
        total += i * i
        table[i & 1023] = total
    numpy.argsort(_PROBE_ARRAY)
    return time.perf_counter() - t0


def _load_scenarios():
    """Import the workloads against the simulator under ``./src``."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'repro'} not found; run from the repository root")
    sys.path.insert(0, str(src))
    import scenarios

    return scenarios


class Runner:
    """Runs scenarios, checks them against their first result, and keeps
    the timings of the runs that passed."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.scenarios = workload.scenarios
        self.reference: dict[str, tuple] = {}
        self.last: dict = {}
        #: per scenario: (setup_s, drain_s, probe_s) of each kept run
        self.samples: dict[str, list[tuple[float, float, float]]] = {
            s.name: [] for s in self.scenarios
        }
        self.attempted = 0
        self.failed = 0

    def once(self, scenario, keep: bool = False, profile=None) -> None:
        """One scenario run, checked; ``keep`` records its timings."""
        gc.collect()
        self.attempted += 1
        try:
            before = probe()
            if profile is not None:
                profile.enable()
            try:
                t0 = time.perf_counter()
                world = scenario.setup()
                t1 = time.perf_counter()
                outcome = scenario.drain(world)
                t2 = time.perf_counter()
            finally:
                if profile is not None:
                    profile.disable()
            after = probe()
            seen = (outcome.fingerprint, outcome.events, outcome.counts)
            expected = self.reference.setdefault(scenario.name, seen)
            if seen != expected:
                raise AssertionError(
                    f"{scenario.name}: result {seen} differs from {expected}"
                )
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        self.last[scenario.name] = outcome
        if keep:
            self.samples[scenario.name].append(
                (t1 - t0, t2 - t1, (before + after) / 2.0)
            )

    def warm_up(self) -> None:
        """One untimed pass.  What the imports and this pass leave alive
        lives as long as the process; freezing it keeps the collections
        between runs short."""
        for scenario in self.scenarios:
            self.once(scenario)
        gc.collect()
        gc.freeze()

    def timed(self, seconds: float, profile=None) -> int:
        """Repeat whole passes until ``seconds`` have gone by; returns
        the number of passes."""
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            for scenario in self.scenarios:
                self.once(scenario, keep=True, profile=profile)
            passes += 1
        return passes

    def verify(self) -> None:
        """Checks that need more than one scenario run."""
        for scenario in self.scenarios:
            if scenario.unobserved is None or scenario.name not in self.last:
                continue
            self.attempted += 1
            gc.collect()
            try:
                plain = scenario.unobserved.drain(scenario.unobserved.setup())
                observed = self.last[scenario.name]
                if (plain.fingerprint, plain.events) != (
                    observed.fingerprint,
                    observed.events,
                ):
                    raise AssertionError(
                        f"{scenario.name}: recording spans changed the simulation"
                    )
            except Exception:
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
        if self.workload.verify is not None:
            self.attempted += 1
            try:
                if len(self.last) != len(self.scenarios):
                    raise AssertionError("a scenario never ran correctly")
                self.workload.verify(self.last)
            except Exception:
                self.failed += 1
                traceback.print_exc(file=sys.stderr)

    def peak_bytes(self) -> int:
        """Largest traced-allocation peak of one scenario run."""
        peak = 0
        for scenario in self.scenarios:
            tracemalloc.start()
            try:
                self.once(scenario)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak

    def fastest(self, key) -> float:
        """Sum over scenarios of the fastest ``key(setup_s, drain_s)``."""
        return sum(
            min(key(s, d) for s, d, _ in runs) for runs in self.samples.values()
        )

    def in_probes(self, key) -> float:
        """Sum over scenarios of the median ``key(setup_s, drain_s)``, in
        units of the probe time measured around the same run."""
        return sum(
            statistics.median(key(s, d) / p for s, d, p in runs)
            for runs in self.samples.values()
        )

    def counts(self) -> dict[str, int]:
        """Work per pass: drain events and per-layer counts, summed."""
        total = {"drain_events": 0}
        for outcome in self.last.values():
            total["drain_events"] += outcome.events
            for name, value in outcome.counts.items():
                total[name] = total.get(name, 0) + value
        return total


def end_to_end(runner: Runner, seconds: float) -> dict:
    runner.warm_up()
    runner.timed(seconds)
    peak = runner.peak_bytes()
    runner.verify()
    if not all(runner.samples.values()):
        return {}
    probes = [p for runs in runner.samples.values() for _, _, p in runs]
    print(
        f"{min(map(len, runner.samples.values()))} or more runs per scenario;"
        f" fastest pass {runner.fastest(lambda s, d: s + d) * 1000.0:.1f} ms,"
        f" median probe {statistics.median(probes) * 1000.0:.3f} ms",
        file=sys.stderr,
    )
    return {
        "run_cost": (runner.in_probes(lambda s, d: s + d), "probe"),
        "events_per_probe": (
            runner.counts()["drain_events"] / runner.in_probes(lambda s, d: d),
            "1/probe",
        ),
        "setup_s": (runner.fastest(lambda s, d: s), "s"),
        "peak_mib": (peak / MIB, "MiB"),
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    profile = cProfile.Profile()
    runner.warm_up()
    passes = runner.timed(seconds, profile=profile)
    runner.verify()
    if len(runner.last) != len(runner.scenarios):
        return {}
    counts = runner.counts()
    seconds_by_layer = layers.layer_seconds(profile)
    print(
        f"{passes} profiled passes of"
        f" {sum(seconds_by_layer.values()) * 1000.0 / passes:.1f} ms,"
        f" {runner.in_probes(lambda s, d: s + d):.2f} probes",
        file=sys.stderr,
    )
    metrics = {
        f"{name}_ms": (spent * 1000.0 / passes, "ms")
        for name, spent in seconds_by_layer.items()
    }
    metrics["kernel_ns_per_event"] = (
        seconds_by_layer["kernel"] * 1e9 / passes / counts["events"],
        "ns",
    )
    for name, value in counts.items():
        if name != "drain_events":
            metrics[name] = (value, "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    scenarios = _load_scenarios()
    if args.workload not in scenarios.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(scenarios.WORKLOADS)}")

    runner = Runner(scenarios.WORKLOADS[args.workload](args.seed))
    measure = per_layer if args.trace else end_to_end
    metrics = measure(runner, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} seed={args.seed} {name} = {value:.6g} {unit}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
