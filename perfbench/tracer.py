"""Per-layer host-time attribution for the traced run.

:class:`Tracer` wraps public entry points of each layer — component
``tick`` methods, the registered engine callback kinds, and the harness,
cache, export and serve calls — with timing shims, all from the
benchmark's own files: the program under test is not edited.  Each shim
keeps, per layer, the number of visits and the *self* time: a call's
time minus that of the shimmed calls nested inside it, tracked per
thread.  ``Engine.run`` is the root of a simulation, so the
engine's self time is its loop minus every tick and callback it
dispatched.

The shims are installed for one traced pass and removed afterwards
(:meth:`Tracer.uninstall` restores every class attribute, module
attribute and callback registration exactly), and the traced pass runs
in a process of its own, so untraced measurements never include them.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

#: Layer of each wrapped tick method: (module, class) -> layer.
TICKS = {
    ("repro.cell.spu", "SPU"): "spu",
    ("repro.core.lse", "LSE"): "lse",
    ("repro.core.dse", "DSE"): "dse",
    ("repro.cell.mfc", "MFC"): "mfc",
    ("repro.cell.bus", "Bus"): "bus",
    ("repro.cell.main_memory", "MainMemory"): "memory",
    ("repro.cell.ppe", "PPE"): "ppe",
    ("repro.cell.cache", "DataCache"): "dcache",
    ("repro.sim.watchdog", "ProgressWatchdog"): "watchdog",
}

#: Layer of each registered callback kind, by the prefix of its name.
CALLBACK_PREFIXES = {
    "bus.": "bus",
    "memory.": "memory",
    "mfc.": "mfc",
    "lse.": "lse",
    "cache.": "dcache",
}

#: Harness-facing entry points: (module, attribute path) -> layer.  A
#: function imported by name into another module is wrapped there too.
CALLS = {
    ("repro.compiler.passes", "prefetch_transform"): "compiler",
    ("repro.bench.runner", "prefetch_transform"): "compiler",
    ("repro.cell.machine", "Machine.__init__"): "machine.build",
    ("repro.cell.machine", "Machine.load"): "machine.build",
    ("repro.workloads.common", "check_outputs"): "verify",
    ("repro.bench.runner", "check_outputs"): "verify",
    ("repro.bench.parallel", "run_many_detailed"): "parallel",
    ("repro.bench.cache", "ResultCache.get"): "cache.get",
    ("repro.bench.cache", "ResultCache.put"): "cache.put",
    ("repro.bench.export", "reproduce_all"): "export",
    ("repro.bench.export", "run_to_dict"): "export",
    ("repro.bench.export", "to_json"): "export",
    ("repro.serve.client", "ServeClient.submit"): "serve.submit",
    ("repro.serve.client", "ServeClient.wait"): "serve.wait",
    ("repro.serve.client", "ServeClient.result"): "serve.result",
}

#: Simulated-machine counters summed over every ``Machine.run``.
SIM_COUNTERS = (
    "cycles", "ticks", "callbacks", "stale", "issue_cycles",
    "working", "mem_stall", "ls_stall", "lse_stall", "prefetch", "idle",
    "mfc_commands", "mfc_queue_full", "bus_queue_wait", "memory_port_wait",
)

_MARK = "__perfbench_shim__"


def import_layers() -> None:
    """Import every traced module.

    :meth:`Tracer.install` does it first, since a callback kind registered
    after the shims went in would be left unwrapped.  A traced run calls
    it before its untraced pass too, so both passes start from the same
    state and the first import is charged to neither.
    """
    import importlib

    for module_name, _ in list(TICKS) + list(CALLS):
        importlib.import_module(module_name)


def _resolve(module_name: str, path: str):
    import importlib

    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Install timing shims, collect per-layer spans, remove the shims.

    ``simulation=False`` leaves the simulator (engine, components,
    callbacks, ``Machine.run``) unwrapped, for workloads that simulate
    only in worker processes this process's shims cannot observe.
    """

    def __init__(self, simulation: bool = True) -> None:
        self.simulation = simulation
        #: Per-thread span tables: layer -> [visits, self seconds].
        self._tables: "list[dict[str, list]]" = []
        #: Simulated-machine counters, summed over traced runs.
        self.sim: "dict[str, int]" = dict.fromkeys(SIM_COUNTERS, 0)
        #: (jobs, wall seconds, task count) of every run_many_detailed call.
        self.batches: "list[tuple[int, float, int]]" = []
        self.cache_hits = 0
        self.cache_misses = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: "list[tuple[object, str, bool, object]]" = []
        self._callbacks: "dict[str, object]" = {}

    # -- shims ----------------------------------------------------------------

    def _state(self):
        """This thread's (span stack, span table), created on first use."""
        state = ([], defaultdict(lambda: [0, 0.0]))
        self._local.state = state
        with self._lock:
            self._tables.append(state[1])
        return state

    def _shim(self, layer: str, fn, after=None, positional=False):
        """Wrap ``fn`` so each call is a span of ``layer``.

        ``after(args, kwargs, result, elapsed)`` runs once a call returns.
        ``positional`` selects the cheaper shim for callees that only take
        positional arguments, as every tick and callback does.
        """
        local = self._local
        new_state = self._state
        clock = time.perf_counter

        def enter():
            try:
                stack, table = local.state
            except AttributeError:
                stack, table = new_state()
            stack.append(0.0)
            return stack, table

        def leave(stack, table, elapsed):
            nested = stack.pop()
            if stack:
                stack[-1] += elapsed
            span = table[layer]
            span[0] += 1
            span[1] += elapsed - nested

        if positional:
            # enter() and leave() inlined: this shim runs on every tick
            # and callback, and two extra calls would double its cost.
            def shim(*args):
                try:
                    stack, table = local.state
                except AttributeError:
                    stack, table = new_state()
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args)
                finally:
                    elapsed = clock() - start
                    nested = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    span = table[layer]
                    span[0] += 1
                    span[1] += elapsed - nested
        else:
            def shim(*args, **kwargs):
                stack, table = enter()
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    leave(stack, table, elapsed)
                if after is not None:
                    after(args, kwargs, result, elapsed)
                return result

        setattr(shim, _MARK, True)
        shim.__wrapped__ = fn
        return shim

    def _patch(self, owner, attr: str, layer: str, after=None,
               positional=False) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, own, original))
        setattr(owner, attr, self._shim(layer, original, after, positional))

    # -- post-call hooks ------------------------------------------------------

    def _after_machine_run(self, args, kwargs, result, elapsed) -> None:
        engine = args[0].engine
        stats = result.stats
        sim = self.sim
        with self._lock:
            sim["cycles"] += result.cycles
            sim["ticks"] += engine.ticks_dispatched
            sim["callbacks"] += engine.callbacks_dispatched
            sim["stale"] += engine.stale_skipped
            for spu in stats.spus:
                sim["issue_cycles"] += spu.issue_cycles
                for bucket, value in spu.breakdown.as_dict().items():
                    sim[bucket] += int(value)
            sim["mfc_commands"] += stats.mfc.commands
            sim["mfc_queue_full"] += stats.mfc.queue_full_rejections
            sim["bus_queue_wait"] += stats.bus.queue_wait_cycles
            sim["memory_port_wait"] += stats.memory.port_wait_cycles

    def _after_batch(self, args, kwargs, result, elapsed) -> None:
        from repro.bench.parallel import default_jobs

        jobs = kwargs.get("jobs", args[1] if len(args) > 1 else None)
        jobs = default_jobs() if jobs is None else max(1, int(jobs))
        with self._lock:
            self.batches.append((jobs, elapsed, len(args[0])))

    def _after_cache_get(self, args, kwargs, result, elapsed) -> None:
        with self._lock:
            if result is None:
                self.cache_misses += 1
            else:
                self.cache_hits += 1

    # -- lifecycle ------------------------------------------------------------

    def install(self) -> "Tracer":
        from repro.sim import engine

        import_layers()
        for (module_name, path), layer in CALLS.items():
            owner, attr = _resolve(module_name, path)
            after = {
                "parallel": self._after_batch,
                "cache.get": self._after_cache_get,
            }.get(layer)
            self._patch(owner, attr, layer, after)
        if not self.simulation:
            return self
        self._patch(engine.Engine, "run", "engine")
        for (module_name, cls_name), layer in TICKS.items():
            owner, attr = _resolve(module_name, f"{cls_name}.tick")
            self._patch(owner, attr, layer, positional=True)
        machine_cls, _ = _resolve("repro.cell.machine", "Machine.run")
        self._patch(machine_cls, "run", "machine.run", self._after_machine_run)
        for kind, fn in list(engine._CALLBACK_KINDS.items()):
            layer = next(
                (name for prefix, name in CALLBACK_PREFIXES.items()
                 if kind.startswith(prefix)),
                "callback.other",
            )
            self._callbacks[kind] = fn
            engine._CALLBACK_KINDS[kind] = self._shim(
                layer, fn, positional=True
            )
        return self

    def uninstall(self) -> None:
        from repro.sim import engine

        for kind, fn in self._callbacks.items():
            engine._CALLBACK_KINDS[kind] = fn
        self._callbacks.clear()
        for owner, attr, own, original in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------------

    def spans(self) -> "dict[str, tuple[int, float]]":
        """layer -> (visits, self seconds), summed over all threads."""
        merged: "dict[str, list]" = defaultdict(lambda: [0, 0.0])
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for layer, (visits, own) in list(table.items()):
                merged[layer][0] += visits
                merged[layer][1] += own
        return {layer: tuple(span) for layer, span in merged.items()}

    def layer_table(
        self,
        untraced_s: float,
        traced_s: float,
        task_seconds: float = 0.0,
        serve: "dict[str, float] | None" = None,
    ) -> "dict[str, float]":
        """Every per-layer metric of the benchmark.

        ``untraced_s``/``traced_s`` are the wall times of the same work
        without and with shims; ``task_seconds`` is the simulation time
        the bench layer's journal recorded; ``serve`` carries the
        gateway's hit share, coalesced count and coalesced share.  A
        layer the workload never reached reads 0.
        """
        sim = self.sim
        kcycles = sim["cycles"] / 1000.0
        spans = self.spans()

        def visits(*layers: str) -> int:
            return sum(spans[layer][0] for layer in layers if layer in spans)

        def self_s(*layers: str) -> float:
            return sum(spans[layer][1] for layer in layers if layer in spans)

        def share(*layers: str) -> float:
            return self_s(*layers) / untraced_s

        def us_per_visit(*layers: str) -> float:
            count = visits(*layers)
            return 1e6 * self_s(*layers) / count if count else 0.0

        def per_call_ms(layer: str) -> float:
            count = visits(layer)
            return 1000.0 * self_s(layer) / count if count else 0.0

        def per_kcycle(count: int) -> float:
            return count / kcycles if kcycles else 0.0

        spu_visits = visits("spu")
        capacity = sum(jobs * wall for jobs, wall, _ in self.batches)
        batch_wall = sum(wall for _, wall, _ in self.batches)
        jobs = max((j for j, _, _ in self.batches), default=1)
        explained = sum(own for _, own in spans.values())
        serve = serve or {}
        return {
            "engine.self_share": share("engine"),
            "engine.ticks_per_kcycle": per_kcycle(sim["ticks"]),
            "engine.callbacks_per_kcycle": per_kcycle(sim["callbacks"]),
            "engine.stale_per_kcycle": per_kcycle(sim["stale"]),
            "spu.share": share("spu"),
            "spu.us_per_visit": us_per_visit("spu"),
            "spu.visits": spu_visits,
            "spu.issue_per_visit": (
                sim["issue_cycles"] / spu_visits if spu_visits else 0.0
            ),
            "spu.working_cycles": sim["working"],
            "spu.mem_stall_cycles": sim["mem_stall"],
            "spu.ls_stall_cycles": sim["ls_stall"],
            "spu.lse_stall_cycles": sim["lse_stall"],
            "spu.prefetch_cycles": sim["prefetch"],
            "spu.idle_cycles": sim["idle"],
            "lse.share": share("lse"),
            "lse.us_per_visit": us_per_visit("lse"),
            "lse.visits": visits("lse"),
            "dse.share": share("dse"),
            "dse.visits": visits("dse"),
            "mfc.share": share("mfc"),
            "mfc.visits": visits("mfc"),
            "mfc.commands": sim["mfc_commands"],
            "mfc.queue_full_rejections": sim["mfc_queue_full"],
            "bus.share": share("bus"),
            "bus.us_per_visit": us_per_visit("bus"),
            "bus.visits": visits("bus"),
            "bus.queue_wait_cycles": sim["bus_queue_wait"],
            "memory.share": share("memory"),
            "memory.us_per_visit": us_per_visit("memory"),
            "memory.visits": visits("memory"),
            "memory.port_wait_cycles": sim["memory_port_wait"],
            "compiler.transform_ms": per_call_ms("compiler"),
            "machine.build_ms": (
                1000.0 * self_s("machine.build")
                / max(1, visits("machine.run"))
            ),
            "verify_ms": per_call_ms("verify"),
            "parallel.tasks": sum(n for _, _, n in self.batches),
            "parallel.utilization": (
                task_seconds / capacity if capacity else 0.0
            ),
            "parallel.overhead_s": (
                max(0.0, batch_wall - task_seconds / jobs)
                if self.batches else 0.0
            ),
            "cache.hits": self.cache_hits,
            "cache.misses": self.cache_misses,
            "cache.get_ms": per_call_ms("cache.get"),
            "cache.put_ms": per_call_ms("cache.put"),
            "export.ms": 1000.0 * self_s("export"),
            "serve.submit_ms": per_call_ms("serve.submit"),
            "serve.wait_ms": per_call_ms("serve.wait"),
            "serve.result_ms": per_call_ms("serve.result"),
            "serve.hit_share": serve.get("hit_share", 0.0),
            "serve.coalesced": serve.get("coalesced", 0),
            "serve.coalesced_share": serve.get("coalesced_share", 0.0),
            "trace.overhead_share": traced_s / untraced_s - 1.0,
            "trace.unexplained_share": (untraced_s - explained) / untraced_s,
        }


def leftover_shims() -> "list[str]":
    """Names of every shim still installed (empty after a clean run)."""
    import importlib

    from repro.sim import engine

    found = [
        f"callback {kind}" for kind, fn in engine._CALLBACK_KINDS.items()
        if getattr(fn, _MARK, False)
    ]
    paths = [("repro.sim.engine", "Engine.run"),
             ("repro.cell.machine", "Machine.run")]
    paths += [(m, f"{c}.tick") for m, c in TICKS]
    paths += list(CALLS)
    for module_name, path in paths:
        importlib.import_module(module_name)
        owner, attr = _resolve(module_name, path)
        if getattr(getattr(owner, attr, None), _MARK, False):
            found.append(f"{module_name}.{path}")
    return found
