"""Command-line front end: repair, localize, mutate, baseline-rs.

Reports are JSON with a manifest block (subcommand, inputs, config, seed,
tool version, timestamp); the timestamp is the only intentionally
nondeterministic field besides measured wall time. Exit codes: 0 repaired
or success, 2 not fixed, 1 any error. A flag that fills a config field is
held to that field's own check as it is parsed (``_checked``).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from functools import cache
from itertools import chain
from pathlib import Path

from . import __version__
from .engine import (
    STATUS_REPAIRED,
    RepairConfig,
    random_search,
    repair,
)
from .errors import ExpectedTableError, QRepError, check_integer
from .localizer import GateId, localize, removals
from .optimizer import TOL_FLOOR, OptBudget
from .patcher import DEFAULT_MUTATION_CATALOG, DEFAULT_PATCH_CATALOG, catalog_kinds, inject_faults
from .qasm import emit_qasm, parse_qasm
from .testkit import OracleConfig, edit_fitness, generate_suite, suite_from_expected

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FIXED = 2


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for NotFixed, so usage errors exit 1,
    # as the same one line as every other error
    def error(self, message: str):
        self.exit(EXIT_ERROR, f"qrep: error: {message}\n")

    def _get_values(self, action, arg_strings):
        # argparse before 3.12 drops the value of "--seed=--" and returns []
        if action.nargs is None and arg_strings == ["--"]:
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)


def _checked(convert, rule):
    """An argparse type: ``convert`` the flag's text, then hold the value to ``rule``, the
    check of what the flag fills; a ``ValueError`` of either is the flag's usage error."""
    def parse(text: str):
        try:
            value = convert(text)
            rule(value)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        return value

    return parse


def _names(text: str) -> tuple[str, ...]:
    return tuple(n.strip() for n in text.split(",") if n.strip())


def _report_path(text: str) -> str:
    """An argparse type: an ``--out`` a report can be written to at the end, checked before any work."""
    path = Path(text)  # checked, not created: a run that fails later leaves no report
    if path.is_dir() or not path.parent.is_dir():
        why = "is a directory" if path.is_dir() else "names no existing directory"
        raise argparse.ArgumentTypeError(f"{text!r} {why}")
    return text


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _manifest(subcommand: str, inputs: dict, config: dict | None, seed: int) -> dict:
    return {
        "subcommand": subcommand,
        "inputs": inputs,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "timestamp": _timestamp(),
    }


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_repaired(out: str | None, repaired_qasm: str | None) -> None:
    if out and repaired_qasm is not None:
        Path(out).with_suffix(".repaired.qasm").write_text(repaired_qasm)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise QRepError(f"{path}: not UTF-8 text (byte {e.start})") from None


def _load_circuit(path: str):
    return parse_qasm(_read_text(path))


def _load_suite(args):
    if args.reference:
        return generate_suite(_load_circuit(args.reference))
    try:
        table = json.loads(_read_text(args.expected))
    except RecursionError:
        raise ExpectedTableError(f"{args.expected}: JSON nested too deeply") from None
    except json.JSONDecodeError as e:
        raise ExpectedTableError(f"bad JSON input: {e}") from None
    except ValueError:  # an integer with more digits than Python converts
        raise ExpectedTableError(f"{args.expected}: a number has too many digits") from None
    return suite_from_expected(table)


def _inputs(args) -> dict:
    return {"circuit": args.circuit, "reference": args.reference, "expected": args.expected}


def _parse_fault_gate(text: str) -> GateId:
    try:
        pos_s, gate, qubits_s = text.split(":")
        qubits = tuple(int(q) for q in qubits_s.split("-"))
        return GateId(position=int(pos_s), gate=gate, qubits=qubits)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad gate id {text!r}; expected like '2:cx:0-1'"
        ) from None


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shots-mode", choices=("exact", "sampled"), default=OracleConfig.mode)
    p.add_argument("--shots", type=_checked(int, lambda v: OracleConfig(shots=v)),
                   help="override sampled-mode shot count")
    p.add_argument("--tau-fail", type=_checked(float, lambda v: OracleConfig(tau_fail=v)),
                   help="override the failure threshold")
    p.add_argument("--eps-zero", type=_checked(float, lambda v: OracleConfig(eps_zero=v)),
                   default=OracleConfig.eps_zero)
    p.add_argument("--seed", type=_checked(int, lambda v: OracleConfig(seed=v)), default=OracleConfig.seed)


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--circuit", required=True, help="faulty circuit (OpenQASM 2)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--reference", help="reference circuit giving expected behavior")
    group.add_argument("--expected", help="expected-distribution JSON {case_id: {bits: prob}}")


def _add_repair_flags(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    budget = p.add_mutually_exclusive_group(required=True)
    budget.add_argument("--budget-evals", type=_checked(int, lambda v: RepairConfig(budget_evals=v)))
    budget.add_argument("--budget-seconds", type=_checked(float, lambda v: RepairConfig(budget_seconds=v)))
    p.add_argument("--iterations", type=_checked(int, lambda v: RepairConfig(budget_evals=1, iterations=v)),
                   default=RepairConfig.iterations)
    p.add_argument("--opt-max-evals", type=_checked(int, lambda v: OptBudget(max_evals=v)),
                   default=OptBudget.max_evals)
    p.add_argument("--opt-tol", type=_checked(float, lambda v: OptBudget(tolerance=v)), default=OptBudget.tolerance,
                   help=f"the angle search's final trust-region radius; a value below {TOL_FLOOR:g} acts "
                   f"as {TOL_FLOOR:g}, one above pi/2 as pi/2")
    p.add_argument("--top-k", type=_checked(int, lambda v: RepairConfig(budget_evals=1, top_k=v)),
                   default=RepairConfig.top_k)
    p.add_argument("--catalog", type=_checked(_names, catalog_kinds), default=DEFAULT_PATCH_CATALOG)
    p.add_argument("--fault-gate", type=_parse_fault_gate, default=None,
                   help="ground-truth gate id like '2:cx:0-1' for rank metrics")
    p.add_argument("--out", type=_report_path, default=None, help="report path (stdout when omitted)")
    _add_oracle_flags(p)


def _oracle_from_args(args) -> OracleConfig:
    return OracleConfig(
        mode=args.shots_mode,
        tau_fail=args.tau_fail,
        eps_zero=args.eps_zero,
        shots=args.shots,
        seed=args.seed,
    )


def _config_from_args(args) -> RepairConfig:
    return RepairConfig(
        budget_evals=args.budget_evals,
        budget_seconds=args.budget_seconds,
        iterations=args.iterations,
        opt=OptBudget(max_evals=args.opt_max_evals, tolerance=args.opt_tol),
        oracle=_oracle_from_args(args),
        seed=args.seed,
        top_k=args.top_k,
        patch_catalog=args.catalog,
    )


def _repair_like(args, engine_fn, subcommand: str) -> int:
    c = _load_circuit(args.circuit)
    ts = _load_suite(args)
    cfg = _config_from_args(args)
    report = engine_fn(c, ts, cfg, fault_gate=args.fault_gate)
    payload = {"manifest": _manifest(subcommand, _inputs(args), cfg.to_dict(), args.seed)}
    payload.update(report.to_dict())
    _write_json(payload, args.out)
    _write_repaired(args.out, report.repaired_qasm)
    return EXIT_OK if report.status == STATUS_REPAIRED else EXIT_NOT_FIXED


def _cmd_repair(args) -> int:
    return _repair_like(args, repair, "repair")


def _cmd_baseline_rs(args) -> int:
    return _repair_like(args, random_search, "baseline-rs")


def _cmd_localize(args) -> int:
    c = _load_circuit(args.circuit)
    ts = _load_suite(args)
    oracle = _oracle_from_args(args)
    start = time.monotonic()
    # the baseline is the first score, simulated with the first removals
    scores = edit_fitness(c, ts, chain((None,), removals(c)), oracle)
    baseline = next(scores)
    result = localize(c, baseline, scores)
    wall_seconds = time.monotonic() - start
    repaired_qasm = emit_qasm(result.repaired) if result.repaired is not None else None
    removed = result.repaired_by_removing
    payload = {
        "manifest": _manifest("localize", _inputs(args), None, args.seed),
        "baseline_fitness": baseline.value,
        "ranking": result.table.records(),
        "repaired_qasm": repaired_qasm,
        "repaired_by_removing": str(removed) if removed is not None else None,
        "evals_used": len(result.removal_fitness) + 1,  # sweep plus the baseline evaluation
        "wall_seconds": wall_seconds,
    }
    _write_json(payload, args.out)
    _write_repaired(args.out, repaired_qasm)
    return EXIT_OK


def _cmd_mutate(args) -> int:
    c = _load_circuit(args.circuit)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    if args.per_group > 0:
        records = inject_faults(c, seed=args.seed, per_group=args.per_group, catalog=args.catalog)
    entries = []
    for i, rec in enumerate(records):
        fname = f"mutant_{rec.group}_{i}.qasm"
        (out_dir / fname).write_text(emit_qasm(rec.mutant))
        entries.append(
            {
                "file": fname,
                "group": rec.group,
                "description": rec.description,
                "fault_gate": str(rec.fault_gate) if rec.fault_gate else None,
                "fitness": rec.fitness_value,
                "failed_count": rec.failed_count,
            }
        )
    payload = {
        "manifest": _manifest(
            "mutate",
            {"circuit": args.circuit},
            {"per_group": args.per_group, "catalog": list(args.catalog)},
            args.seed,
        ),
        "mutants": entries,
    }
    _write_json(payload, str(out_dir / "manifest.json"))
    return EXIT_OK


@cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qrep", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qrep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_repair = sub.add_parser("repair", help="search for a single-gate fix")
    _add_repair_flags(p_repair)
    p_repair.set_defaults(fn=_cmd_repair)

    p_rs = sub.add_parser("baseline-rs", help="random-search baseline, same report format")
    _add_repair_flags(p_rs)
    p_rs.set_defaults(fn=_cmd_baseline_rs)

    p_loc = sub.add_parser("localize", help="suspiciousness ranking only")
    _add_input_flags(p_loc)
    p_loc.add_argument("--out", type=_report_path, default=None)
    _add_oracle_flags(p_loc)
    p_loc.set_defaults(fn=_cmd_localize)

    p_mut = sub.add_parser("mutate", help="generate a seeded mutant corpus")
    p_mut.add_argument("--circuit", required=True)
    p_mut.add_argument("--per-group", type=_checked(int, lambda v: check_integer("per_group", v, 0)), required=True)
    p_mut.add_argument("--seed", type=int, default=0)
    p_mut.add_argument("--catalog", type=_checked(_names, catalog_kinds), default=DEFAULT_MUTATION_CATALOG)
    p_mut.add_argument("--out-dir", required=True)
    p_mut.set_defaults(fn=_cmd_mutate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (QRepError, OSError) as e:
        print(f"qrep: error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as e:
        print(f"qrep: error: out of memory: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
