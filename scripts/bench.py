"""Time qrep's layers and merge the numbers into a BENCH_*.json file.

    python scripts/bench.py --label change --out BENCH_8.json
    PYTHONPATH=<other checkout>/src python scripts/bench.py --label parent --out BENCH_8.json

Layers: one ``h`` gate step on the middle qubit of the simulator's state
of the full input batch at 4 and 6 qubits (a step of the prefix cache's
workspace into its other state tensor, or at a commit without one the
allocating kernel), ``run_all_bases`` of qft8 (all 256 inputs, three bases;
its facts hold the ``tracemalloc`` peak of one qft10 ``run_all_bases`` over
all 1,024 inputs, and the minor page faults per call of qft8, fresh as
timed and resumed from a prefix cache built once), the measurement alone: ``run_all_bases`` of qft4 and
qft6 over all inputs, resumed from a prefix cache that holds the whole
circuit, in the three bases and (qft4) in Z only,
one ``fitness`` call of a reference on its own suite (ghz3, qft4, grover3,
wstate4, dj6), one localisation sweep of a grover3 add mutant (40 gates,
8 inputs; it stops at the added gate), a qft4 replace mutant and a dj6
replace mutant (full sweeps of 16 and 64 inputs), each ``localize`` over
the exact removal scores of ``edit_fitness``, which builds its prefix
cache within the timed call, the dj6 mutant's removals drawn as a repair
run draws them (``sweep_run_dj6``: ``_Run.scored`` of a run built once,
with its prefix cache), the first 13 fixed patches of the dj4 replace
mutant's patch queue drawn the same way (``run_fixed_dj4``: one stacked
chunk of 13 edits), and the
guided search's patch queue of dj6 and grover3 (build it, pop 20 patches,
prune once to three quarters of the gates, as the first of four
iterations does), the single-gate edits of grover3 and dj6 (a removal
and an insertion at position 0, and the same at the middle), and one
``inject_faults`` call with one mutant per group on grover3 and dj6 (their
benchmark injection seeds, suite built beforehand; grover3's draws share
stacked simulations, a dj6 state fills a chunk alone) and on qft4 at seed 5
against its Z-basis table (``inject_qft4_z``, the suite perfbench's
``cli-expected`` setup judges mutants by, where most candidates pass and
the draws repeat), each with the number of candidates it scores among its
facts, and, for the first of the grover3 mutants, ``parse_qasm`` of its
emitted source and the JSON text (``to_dict`` through ``json.dumps`` with
indent 2, as ``cli._write_json`` writes it) of one 50-evaluation repair
report, and suite building: ``generate_suite`` of dj6, and
``suite_from_expected`` of expected tables as a JSON round trip gives
them: the Z-basis tables of qft4 (the table perfbench's ``cli-expected``
workload writes) and dj6, and qft6's table of all three bases, and one
parametric patch trial: ``minimize_params`` tuning, in 20 probes, the
angle of an ry add patch that puts back the ry removed from position 3 of
wstate4, and, capped at 20 probes too, the three angles of a u replace
patch on dj4 whose first h became an x, each probe scored as a repair run
scores it (the one edit the patch makes, drawn through ``_Run.scored`` as
a stream of one edit, or at a commit that has it through ``_Run.probe``,
from the broken circuit's prefix cache), one such probe alone
(``probe_ry_wstate4``: the ry add patch of that trial at one angle; its
facts hold the ``tracemalloc`` peak of one lone ``edit_fitness`` on
qft10's suite, prefix cache built within the call), a lone edit of qft10 on a suite of 8 seeded inputs
(``probe_qft10_8in``: an ry added at the middle of the circuit without
its middle gate, scored as that probe; a 128 KiB state, measured one
basis a pass), and both searches over fixed patches:
``repair`` and ``random_search`` of the qft4 replace mutant (injection
seed 5) at 55 evaluations with the fixed kinds of ``DEFAULT_PATCH_CATALOG``
(their facts are the status, the evaluations and a digest of the report
rows). Every layer's inputs are bound when the layer is built, so a later
layer cannot change what an earlier one times. Each sample is the mean of
enough back-to-back calls to last about 20 ms; after one warm-up sample,
``--repeats`` samples give the median and the interquartile range. qrep is
imported from ``PYTHONPATH`` when it names a checkout, else from this one,
so the same script times two commits on one machine. Each run is appended
to the list under its label with the machine and a digest of the qrep
sources it timed; on a shared host, alternate the labels over several runs,
because the host's speed drifts between runs.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import scipy

import qrep
from qrep import patcher, simulator
from qrep.benchmarks import build_benchmark
from qrep.circuit import GATE_BY_NAME, Circuit, GateApp, GateKind, insert_gate, remove_gate, replace_gate
from qrep.engine import RepairConfig, _Run, random_search, repair
from qrep.localizer import SuspiciousnessTable, localize, removals
from qrep.optimizer import OptBudget, minimize_params
from qrep.patcher import DEFAULT_PATCH_CATALOG, Patch, inject_faults, order_uniform, prune_to_gates
from qrep.qasm import emit_qasm, parse_qasm
from qrep.simulator import BASIS_ORDER, MeasBasis
from qrep.testkit import TestSuite, edit_fitness, fitness, generate_suite, suite_from_expected

FITNESS_CIRCUITS = (("ghz", 3), ("qft", 4), ("grover", 3), ("wstate", 4), ("dj", 6))
QUEUE_CIRCUITS = (("dj", 6), ("grover", 3))
QUEUE_POPS = 20
EDIT_CIRCUITS = (("grover", 3), ("dj", 6))
# (family, size, injection seed, Z-basis table only)
INJECT_CIRCUITS = (("grover", 3, 3, False), ("dj", 6, 1, False), ("qft", 4, 5, True))
# (family, size, bases, layer name suffix)
MEASURE_CIRCUITS = (("qft", 4, BASIS_ORDER, ""), ("qft", 4, (MeasBasis.Z,), "_z"), ("qft", 6, BASIS_ORDER, ""))
TABLE_CIRCUITS = (("qft", 4, True), ("dj", 6, True), ("qft", 6, False))  # (family, size, Z basis only)
# (family, size, injection seed, group): states of 1, 4 and 64 KiB
SWEEP_MUTANTS = (("grover", 3, 3, "add"), ("qft", 4, 5, "replace"), ("dj", 6, 1, "replace"))
RUN_SWEEP = SWEEP_MUTANTS[-1]  # its removals drawn through a repair run
# (family, size, injection seed, group, patches): its first fixed patches drawn through a repair run
RUN_FIXED = ("dj", 4, 1, "replace", 13)
FAULT_CALLS = 20
REPORT_BUDGET = 50
# (family, size, injection seed, group): both searches over fixed patches only
FIXED_RUN = ("qft", 4, 5, "replace")
FIXED_RUN_BUDGET = 55
FIXED_KINDS = tuple(name for name in DEFAULT_PATCH_CATALOG if not GATE_BY_NAME[name].param_count)
TRIAL = ("wstate", 4, 3)  # (family, size, position of the gate the trial's add patch restores)
U_TRIAL = ("dj", 4)  # its first h becomes an x, which a u replace patch tunes back
TRIAL_PROBES = 20
SAMPLE_S = 0.02


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", required=True, help="JSON file to merge the run into")
    ap.add_argument("--repeats", type=int, default=21)
    return ap.parse_args(argv)


def _sample(fn, inner: int) -> float:
    t0 = time.perf_counter()
    for _ in range(inner):
        fn()
    return (time.perf_counter() - t0) / inner


def measure(fn, repeats: int) -> dict:
    """Median and quartiles of per-call time in microseconds."""
    once = _sample(fn, 1)
    inner = max(1, round(SAMPLE_S / max(once, 1e-9)))
    _sample(fn, inner)
    samples = sorted(_sample(fn, inner) * 1e6 for _ in range(repeats))
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {
        "median_us": statistics.median(samples),
        "q1_us": q1,
        "q3_us": q3,
        "iqr_us": q3 - q1,
        "repeats": repeats,
        "calls_per_sample": inner,
    }


def layers() -> dict:
    """name -> zero-argument call to time, plus the facts that pin its work."""
    out = {}
    for q in (4, 6):
        out[f"gate_1q_q{q}"] = (gate_step(q), {})
    qft8, qft10 = build_benchmark("qft", 8), build_benchmark("qft", 10)
    fresh = partial(simulator.run_all_bases, qft8, range(2**8))
    resumed = partial(simulator.run_all_bases, qft8, range(2**8), prefixes=simulator.PrefixCache(qft8, range(2**8)))
    out["run_all_bases_qft8"] = (
        fresh,
        {
            "gates": len(qft8.gates),
            "inputs": 2**8,
            "qft10_peak_mib": peak_bytes(partial(simulator.run_all_bases, qft10, range(2**10))) / 2**20,
            "minor_faults_per_call": minor_faults(fresh),
            "minor_faults_per_call_resumed": minor_faults(resumed),
        },
    )
    for fam, n, bases, suffix in MEASURE_CIRCUITS:
        ref, inputs = build_benchmark(fam, n), range(2**n)
        cache = simulator.PrefixCache(ref, inputs)
        facts = {"gates": len(ref.gates), "stride": cache.stride, "bases": [b.value for b in bases]}
        measure_only = partial(simulator.run_all_bases, ref, inputs, bases=bases, prefixes=cache)
        out[f"measure_{fam}{n}{suffix}"] = (measure_only, facts)
    for fam, n in FITNESS_CIRCUITS:
        ref = build_benchmark(fam, n)
        ts = generate_suite(ref)
        value = fitness(ref, ts).value
        out[f"fitness_{fam}{n}"] = (partial(fitness, ref, ts), {"gates": len(ref.gates), "value": value})
    for fam, n, seed, group in SWEEP_MUTANTS:
        ref = build_benchmark(fam, n)
        ts = generate_suite(ref)
        mutant = inject_faults(ref, seed=seed, per_group=1, groups=(group,), suite=ts)[0].mutant
        baseline = fitness(mutant, ts)
        sweep = partial(exact_sweep, mutant, ts, baseline)
        res = sweep()
        facts = {
            "gates": len(mutant.gates),
            "inputs": len(ts.inputs),
            "evals": len(res.removal_fitness),
            "ranking": [str(g) for g in res.table.ranking()],
        }
        out[f"localize_{fam}{n}"] = (sweep, facts)
    fam, n, seed, group = RUN_SWEEP
    ref = build_benchmark(fam, n)
    ts = generate_suite(ref)
    mutant = inject_faults(ref, seed=seed, per_group=1, groups=(group,), suite=ts)[0].mutant
    run = _Run(mutant, ts, RepairConfig(budget_evals=sys.maxsize), None)
    sweep = partial(run_sweep, run)
    values = sweep()
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    facts = {"gates": len(mutant.gates), "evals": len(values), "values_sha256": digest}
    out[f"sweep_run_{fam}{n}"] = (sweep, facts)
    fam, n, seed, group, count = RUN_FIXED
    ref = build_benchmark(fam, n)
    ts = generate_suite(ref)
    mutant = inject_faults(ref, seed=seed, per_group=1, groups=(group,), suite=ts)[0].mutant
    run = _Run(mutant, ts, RepairConfig(budget_evals=sys.maxsize), None)
    fixed = [p.edit() for p in order_uniform(mutant) if not p.is_parametric][:count]
    chunk = partial(run_edits, run, fixed)
    values = chunk()
    facts = {"edits": len(values), "values_sha256": hashlib.sha256(repr(values).encode()).hexdigest()}
    out[f"run_fixed_{fam}{n}"] = (chunk, facts)
    for fam, n in QUEUE_CIRCUITS:
        ref = build_benchmark(fam, n)
        facts = {"gates": len(ref.gates), "left": len(patch_queue(ref))}
        out[f"patch_queue_{fam}{n}"] = (partial(patch_queue, ref), facts)
    for fam, n in EDIT_CIRCUITS:
        ref = build_benchmark(fam, n)
        out[f"edit_{fam}{n}"] = (partial(edits, ref), {"gates": len(ref.gates), "edits": 4})
    for fam, n, seed, z_only in INJECT_CIRCUITS:
        ref = build_benchmark(fam, n)
        ts = suite_from_expected(expected_table(ref, True)) if z_only else generate_suite(ref)
        inject = partial(inject_faults, ref, seed, per_group=1, suite=ts)
        facts = {"gates": len(ref.gates), "mutants": [r.description for r in inject()], "scored": scored(inject)}
        out[f"inject_{fam}{n}{'_z' if z_only else ''}"] = (inject, facts)
    fam, n, seed, _ = INJECT_CIRCUITS[0]
    ref = build_benchmark(fam, n)
    ts = generate_suite(ref)
    mutant = inject_faults(ref, seed, per_group=1, suite=ts)[0].mutant
    text = emit_qasm(mutant)
    out[f"parse_{fam}{n}"] = (partial(parse_qasm, text), {"gates": len(mutant.gates), "chars": len(text)})
    rep = repair(mutant, ts, RepairConfig(budget_evals=REPORT_BUDGET, seed=seed))
    facts = {"status": rep.status, "evals": rep.evals_used, "ranking_rows": len(rep.ranking)}
    out[f"report_{fam}{n}"] = (lambda rep=rep: json.dumps(rep.to_dict(), indent=2), facts)
    dj6 = build_benchmark("dj", 6)
    out["suite_dj6"] = (partial(generate_suite, dj6), {"cases": len(generate_suite(dj6))})
    for fam, n, z_only in TABLE_CIRCUITS:
        table = expected_table(build_benchmark(fam, n), z_only)
        out[f"suite_table_{fam}{n}"] = (partial(suite_from_expected, table), {"cases": len(table)})
    fam, n, seed, group = FIXED_RUN
    ref = build_benchmark(fam, n)
    ts = generate_suite(ref)
    mutant = inject_faults(ref, seed, per_group=1, groups=(group,), suite=ts)[0].mutant
    cfg = RepairConfig(budget_evals=FIXED_RUN_BUDGET, patch_catalog=FIXED_KINDS)
    for search in (repair, random_search):
        rep = search(mutant, ts, cfg)
        rows = json.dumps([rep.best_patches, rep.ranking], sort_keys=True).encode()
        facts = {"status": rep.status, "evals": rep.evals_used, "rows_sha256": hashlib.sha256(rows).hexdigest()}
        out[f"{search.__name__}_fixed_{fam}{n}"] = (partial(search, mutant, ts, cfg), facts)
    fam, n, pos = TRIAL
    ref = build_benchmark(fam, n)
    gate = ref.gates[pos]
    ry_patch = Patch("add", pos, gate.kind, gate.qubits)
    trials = {f"trial_{gate.kind.gate_name}_{fam}{n}": (ref, remove_gate(ref, pos), ry_patch)}
    fam, n = U_TRIAL
    ref = build_benchmark(fam, n)
    pos, h = next((p, g) for p, g in enumerate(ref.gates) if g.kind is GateKind.H)
    x_for_h = replace_gate(ref, pos, GateApp(GateKind.X, h.qubits))
    trials[f"trial_u_{fam}{n}"] = (ref, x_for_h, Patch("replace", pos, GateKind.U, h.qubits))
    for name, (ref, broken, patch) in trials.items():
        trial = angle_trial(broken, generate_suite(ref), patch)
        res = trial()
        out[name] = (trial, {"probes": res.evals, "best": res.value, "converged": res.converged})
    fam, n, pos = TRIAL
    ref = build_benchmark(fam, n)
    gate = ref.gates[pos]
    probe = partial(prober(remove_gate(ref, pos), generate_suite(ref)), Patch("add", pos, gate.kind, gate.qubits).edit((1.0,)))
    ts10 = generate_suite(qft10)
    lone = (len(qft10.gates) // 2, GateApp(GateKind.RY, (3,), (0.4,)), False)
    facts = {"value": probe().value, "lone_peak_mib_qft10": peak_bytes(lambda: next(edit_fitness(qft10, ts10, [lone]))) / 2**20}
    out[f"probe_{gate.kind.gate_name}_{fam}{n}"] = (probe, facts)
    fam, n, k = "qft", 10, 8  # a lone edit on a suite of k seeded inputs, laid out as generate_suite's
    ref = build_benchmark(fam, n)
    pos = len(ref.gates) // 2
    inputs = sorted(np.random.default_rng(10).choice(2**n, size=k, replace=False).tolist())
    probs = simulator.run_all_bases(ref, inputs).transpose(1, 0, 2).reshape(-1, 2**n)
    ts = TestSuite(n, np.tile(np.arange(len(BASIS_ORDER)), k), np.repeat(inputs, len(BASIS_ORDER)), probs)
    probe = partial(prober(remove_gate(ref, pos), ts), (pos, GateApp(GateKind.RY, (3,), (0.4,)), False))
    facts = {"gates": len(ref.gates) - 1, "inputs": len(ts.inputs), "value": probe().value}
    out[f"probe_{fam}{n}_{k}in"] = (probe, facts)
    return out


def prober(broken: Circuit, ts):
    """The call that scores an angle probe (an edit) of ``broken`` as a
    repair run does: the run's budget check and charge and one simulation
    from its prefix cache, built here, once, as the run builds it; at a
    commit that has ``_Run.probe``, through it."""
    run = _Run(broken, ts, RepairConfig(budget_evals=sys.maxsize), None)
    if hasattr(run, "probe"):
        return run.probe
    return lambda edit: next(run.scored([edit]))


def gate_step(q: int):
    """A call of the simulator's step of an ``h`` on the middle qubit of its
    state of all 2^q inputs, which returns the state after it: a step of
    the prefix cache's workspace from one state tensor into the other, or
    at a commit without a workspace the allocating kernel."""
    cache = simulator.PrefixCache(Circuit(q), range(2**q))
    h = GateApp(GateKind.H, (q // 2,))
    if not hasattr(cache, "workspace"):
        return partial(simulator._kernel(h, q), cache._start())
    ws = cache.workspace(1)
    blocks = ws.at(0, 1)
    ws.load(cache, 0, blocks.t[0])
    step, i = ws._bind(simulator._op(h, q), h.qubits[0], blocks, 0, 1)
    return lambda: (step(), blocks.t[i][0])[1]


def minor_faults(fn) -> float:
    """Minor page faults per call of ``fn`` over ``FAULT_CALLS`` calls, after
    one call not counted."""
    fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(FAULT_CALLS):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / FAULT_CALLS


def exact_sweep(c: Circuit, ts, baseline):
    """``localize`` of ``c`` over its exact-mode removal scores."""
    return localize(c, baseline, edit_fitness(c, ts, removals(c)))


def run_sweep(run) -> list[float]:
    """The fitness values of ``run``'s removal sweep, each edit drawn and
    charged through ``_Run.scored`` as the guided search draws them."""
    return [score.value for score in run.scored(removals(run.c_init))]


def run_edits(run, edits) -> list[float]:
    """The fitness values of ``run``'s circuit with each of ``edits`` made,
    drawn and charged through ``_Run.scored`` as a run of fixed patches
    draws them."""
    return [score.value for score in run.scored(edits)]


def angle_trial(broken: Circuit, ts, patch: Patch):
    """The engine's angle search for the parametric ``patch`` of ``broken``:
    ``minimize_params`` in at most ``TRIAL_PROBES`` probes, each the one
    edit the patch makes with the probe's angles, scored by :func:`prober`."""
    score = prober(broken, ts)

    def probe(angles) -> float:
        return score(patch.edit(angles)).value

    return partial(minimize_params, probe, patch.gate.param_count, OptBudget(max_evals=TRIAL_PROBES))


def scored(inject) -> int:
    """The candidates one call of ``inject`` scores: the edits it hands to
    ``edit_fitness``."""
    real, edits_scored = patcher.edit_fitness, []

    def counted(c, ts, edits, *args, **kwargs):
        edits = list(edits)
        edits_scored.extend(edits)
        return real(c, ts, edits, *args, **kwargs)

    patcher.edit_fitness = counted
    try:
        inject()
    finally:
        patcher.edit_fitness = real
    return len(edits_scored)


def peak_bytes(fn) -> int:
    """The ``tracemalloc`` peak of one call of ``fn``, over what was
    allocated before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def expected_table(ref, z_only: bool) -> dict:
    """``ref``'s expected-distribution map as a JSON round trip gives it."""
    rows = {tc.id: tc.expected.as_dict() for tc in generate_suite(ref).cases if tc.basis is MeasBasis.Z or not z_only}
    return json.loads(json.dumps(rows, sort_keys=True))


def edits(ref):
    """A removal and an insertion at position 0 and at the middle of ``ref``."""
    g = GateApp(GateKind.H, (0,))
    for pos in (0, len(ref.gates) // 2):
        remove_gate(ref, pos)
        insert_gate(ref, pos, g)


def patch_queue(ref):
    """The guided search's queue after its first iteration's pops and prune."""
    queue = order_uniform(ref)
    for _ in range(QUEUE_POPS):
        queue.popleft()
    keep = {gid for gid in SuspiciousnessTable.for_circuit(ref).scores if gid.position % 4}
    return prune_to_gates(queue, keep)


def machine() -> dict:
    src = Path(qrep.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qrep_source_sha256": digest.hexdigest(),
    }


def main(argv=None):
    args = parse_args(argv)
    run = {"machine": machine(), "layers": {}}
    for name, (fn, facts) in layers().items():
        row = measure(fn, args.repeats)
        row.update(facts)
        run["layers"][name] = row
        print(f"{name:<20} median {row['median_us']:>10.1f} us  IQR {row['iqr_us']:>8.1f} us", flush=True)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("runs", {}).setdefault(args.label, []).append(run)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"run {args.label!r} written to {out}")


if __name__ == "__main__":
    main()
