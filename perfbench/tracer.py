"""In-memory spans around qrep's layer boundaries, and the per-layer metrics
computed from them.

Spans are recorded from the benchmark's own files: :class:`Tracer` rebinds
public functions in the modules that call them (``qrep.engine.fitness``,
``qrep.testkit.run_all_bases``, ...), the same way a test probes a call
count, and restores them afterwards. Nothing inside ``src/qrep`` changes.

Self time is computed by interval containment, not by call stacks, so the
simulator spans that ``fitness`` hands to pool threads (the CLI default)
are charged to the fitness span that waited for them.
"""
from __future__ import annotations

import bisect
import importlib
import json
import statistics
import threading
import time
from contextlib import contextmanager


def _gate_apps(args, result):
    # circuit gates plus the basis rotations: H on every qubit for X,
    # SDG and H on every qubit for Y
    c = args[0]
    return len(c.gates) + 3 * c.num_qubits


def _fitness_info(args, result):
    return (len(args[1].cases), result.value)


def _converged(args, result):
    return bool(result.converged)


def _localize_repaired(args, result):
    return result.repaired is not None


def _pool_len(args, result):
    return len(result)


def _pruned(args, result):
    return len(args[0]) - len(result)


# (module, attribute, span name, info taken from the call); the layer is
# the span name's prefix
BINDINGS = (
    ("qrep.engine", "fitness", "testkit.fitness", _fitness_info),
    ("qrep.engine", "minimize_params", "optimizer.minimize", _converged),
    ("qrep.engine", "localize", "localizer.localize", _localize_repaired),
    ("qrep.engine", "generate_patches", "patcher.generate", _pool_len),
    ("qrep.engine", "order_uniform", "patcher.order", None),
    ("qrep.engine", "prune_to_gates", "patcher.prune", _pruned),
    ("qrep.engine", "apply_patch", "patcher.apply", None),
    ("qrep.engine", "emit_qasm", "qasm.emit", None),
    ("qrep.localizer", "remove_gate", "circuit.remove", None),
    ("qrep.testkit", "run_all_bases", "simulator.run_all_bases", _gate_apps),
    ("qrep.cli", "parse_qasm", "qasm.parse", None),
    ("qrep.cli", "emit_qasm", "qasm.emit", None),
    ("qrep.cli", "repair", "engine.repair", None),
)


class Tracer:
    """Records (name, start, end, thread, repair id, info) tuples."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.repair_id: str | None = None
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        self.missing = []
        for mod_name, attr, name, info in BINDINGS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, info))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def _wrap(self, fn, name, info):
        spans = self.spans

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((name, t0, time.perf_counter(), threading.get_ident(), self.repair_id, None))
                raise
            t1 = time.perf_counter()
            spans.append((name, t0, t1, threading.get_ident(), self.repair_id,
                          info(args, result) if info else None))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, t0, time.perf_counter(), threading.get_ident(), self.repair_id, None))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, tid, rid, info in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "thread": tid,
                                     "repair": rid, "info": info}) + "\n")


def _measure(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _subtract(s: float, e: float, holes: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """[s, e) minus the union of ``holes``."""
    out = []
    cur = s
    for hs, he in sorted(holes):
        if he <= cur:
            continue
        if hs > cur:
            out.append((cur, min(hs, e)))
        cur = max(cur, he)
        if cur >= e:
            break
    if cur < e:
        out.append((cur, e))
    return out


def _parents(spans: list[tuple]) -> list[int | None]:
    """Index of each span's parent: the innermost span of the same thread
    containing it; for a span with none there (a pool thread), the innermost
    span of the caller thread containing it."""
    parent: list[int | None] = [None] * len(spans)
    by_thread: dict[int, list[int]] = {}
    for i, sp in enumerate(spans):
        by_thread.setdefault(sp[3], []).append(i)
    children: dict[int | None, list[int]] = {}
    for ids in by_thread.values():
        ids.sort(key=lambda i: (spans[i][1], -spans[i][2]))
        stack: list[int] = []
        for i in ids:
            while stack and spans[stack[-1]][2] < spans[i][2]:
                stack.pop()
            parent[i] = stack[-1] if stack else None
            stack.append(i)
    # the caller thread is the one holding the longest root span
    roots = [i for i in range(len(spans)) if parent[i] is None]
    if not roots:
        return parent
    caller = spans[max(roots, key=lambda i: spans[i][2] - spans[i][1])][3]
    for i in range(len(spans)):
        if spans[i][3] == caller:
            children.setdefault(parent[i], []).append(i)
    for ids in children.values():
        ids.sort(key=lambda i: spans[i][1])
    starts = {k: [spans[i][1] for i in ids] for k, ids in children.items()}
    for i in roots:
        if spans[i][3] == caller:
            continue
        s, e = spans[i][1], spans[i][2]
        node = None
        while True:
            ids = children.get(node, [])
            j = bisect.bisect_right(starts.get(node, []), s) - 1
            if j < 0 or spans[ids[j]][2] < e:
                break
            node = ids[j]
        parent[i] = node
    return parent


def layer_self_times(spans: list[tuple]) -> tuple[dict[str, float], list[int | None]]:
    """Wall time attributed to each layer: the part of its spans' intervals
    that no contained span covers, merged across threads. Also returns each
    span's parent index."""
    parent = _parents(spans)
    kids: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p is not None:
            kids.setdefault(p, []).append((spans[i][1], spans[i][2]))
    exclusive: dict[str, list[tuple[float, float]]] = {}
    for i, sp in enumerate(spans):
        layer = sp[0].split(".", 1)[0]
        exclusive.setdefault(layer, []).extend(_subtract(sp[1], sp[2], kids.get(i, [])))
    return {layer: _measure(iv) for layer, iv in exclusive.items()}, parent


def _pct(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[tuple], missing: list[str], setup: dict) -> tuple[dict, float]:
    """Per-layer metrics of one traced pass, as plain numbers, and the sum
    of all layers' self times in seconds. A metric whose span binding is
    missing is left out."""
    selfs, parent = layer_self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(spans[i][2] - spans[i][1] for i in idx(name))

    def infos(name):
        # a call that raised recorded no info
        return [spans[i][5] for i in idx(name) if spans[i][5] is not None]

    def evals_under(name):
        # fitness spans nested anywhere under a span called ``name``
        n = 0
        for i in idx("testkit.fitness"):
            p = parent[i]
            while p is not None and spans[p][0] != name:
                p = parent[p]
            n += p is not None
        return n

    m: dict[str, float] = {}
    have = lambda attr: attr not in missing  # noqa: E731

    sims = idx("simulator.run_all_bases")
    fits = idx("testkit.fitness")
    if have("qrep.testkit.run_all_bases"):
        gate_apps = sum(infos("simulator.run_all_bases"))
        m["simulator.calls"] = len(sims)
        m["simulator.busy_s"] = busy("simulator.run_all_bases")
        m["simulator.gate_apps"] = gate_apps
        m["simulator.ns_per_gate_app"] = m["simulator.busy_s"] * 1e9 / gate_apps if gate_apps else 0.0
        m["simulator.per_eval_ms"] = m["simulator.busy_s"] * 1e3 / len(fits) if fits else 0.0
    if have("qrep.engine.fitness"):
        durs = [(spans[i][2] - spans[i][1]) * 1e3 for i in fits]
        m["testkit.evals"] = len(fits)
        m["testkit.fitness_p50_ms"] = _pct(durs, 50) if durs else 0.0
        m["testkit.fitness_p99_ms"] = _pct(durs, 99) if durs else 0.0
        m["testkit.self_s"] = selfs.get("testkit", 0.0)
        m["testkit.cases_judged"] = sum(cases for cases, _ in infos("testkit.fitness"))
    m["testkit.suite_build_s"] = setup["suite_build_s"]

    if have("qrep.engine.localize"):
        sweeps = idx("localizer.localize")
        m["localizer.sweeps"] = len(sweeps)
        m["localizer.busy_s"] = busy("localizer.localize")
        m["localizer.evals"] = evals_under("localizer.localize")
        m["localizer.repair_ratio"] = sum(infos("localizer.localize")) / len(sweeps) if sweeps else 0.0

    if have("qrep.engine.minimize_params"):
        trials = idx("optimizer.minimize")
        m["optimizer.trials"] = len(trials)
        m["optimizer.busy_s"] = busy("optimizer.minimize")
        m["optimizer.self_s"] = selfs.get("optimizer", 0.0)
        m["optimizer.evals_per_trial"] = evals_under("optimizer.minimize") / len(trials) if trials else 0.0
        m["optimizer.converged_ratio"] = sum(infos("optimizer.minimize")) / len(trials) if trials else 0.0

    if have("qrep.engine.generate_patches") and have("qrep.engine.order_uniform"):
        m["patcher.enumerate_s"] = busy("patcher.generate") + busy("patcher.order")
        m["patcher.patches_enumerated"] = sum(infos("patcher.generate"))
    if have("qrep.engine.prune_to_gates"):
        m["patcher.prune_s"] = busy("patcher.prune")
        m["patcher.patches_pruned"] = sum(infos("patcher.prune"))
    if have("qrep.engine.apply_patch"):
        m["patcher.apply_calls"] = len(idx("patcher.apply"))
        m["patcher.apply_s"] = busy("patcher.apply")
    m["patcher.inject_s"] = setup["inject_s"]

    if have("qrep.localizer.remove_gate"):
        m["circuit.remove_calls"] = len(idx("circuit.remove"))
        m["circuit.remove_s"] = busy("circuit.remove")

    repairs = idx("engine.repair")
    m["engine.repairs"] = len(repairs)
    m["engine.self_s"] = selfs.get("engine", 0.0)
    if have("qrep.engine.fitness"):
        # the first evaluation of each repair is its baseline
        baseline: dict[str, float] = {}
        useful = later = 0
        for i in sorted(fits, key=lambda i: spans[i][1]):
            if spans[i][5] is None:
                continue
            rid, value = spans[i][4], spans[i][5][1]
            if rid not in baseline:
                baseline[rid] = value
                continue
            later += 1
            useful += value < baseline[rid]
        m["engine.useful_ratio"] = useful / later if later else 0.0

    if have("qrep.cli.parse_qasm"):
        m["qasm.parse_calls"] = len(idx("qasm.parse"))
        m["qasm.parse_s"] = busy("qasm.parse")
    if have("qrep.engine.emit_qasm"):
        m["qasm.emit_calls"] = len(idx("qasm.emit"))
        m["qasm.emit_s"] = busy("qasm.emit")

    m["cli.invocations"] = len(idx("cli.main"))
    m["cli.self_s"] = selfs.get("cli", 0.0)
    return m, sum(selfs.values())

