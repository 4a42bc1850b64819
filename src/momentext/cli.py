"""Command line front end.

Exit codes: 0 for success / a positive verdict, 1 for a negative verdict,
2 for usage or input errors, 3 for unresolved or indeterminate outcomes.
Reports are JSON with sorted keys; a fixed command line (including --seed)
produces byte-identical report bytes.  With --out the report goes to a
file and a short human summary to stdout; without it the report itself is
the stdout payload and the summary moves to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import serialize
from .extalg import Mode, truncated_basis
from .fibres import (FibreSpec, fibre_generators, fibre_ideal_generators,
                     fibre_partition_check)
from .functionals.core import (DiscreteMeasure, DomainOverflowError,
                               InconsistentFunctionalError, LinearFunctional,
                               SCALAR_EXACT, gram_matrix, moments_of_measure)
from .functionals.feasibility import extension_feasibility
from .functionals.psd import (FloatPsdVerdict, PsdVerdict, hamburger_check,
                              psd_check_exact, psd_check_float)
from .functionals.recovery import (IndeterminateRankError,
                                   RecoveryFailedError,
                                   polynomial_moment_residual, recover_atoms)
from .scalars import GaussianRational, format_fraction
from .scenarios import SCENARIOS
from .semigroups import (SgDomain, bisgaard_check, box_window,
                         laurent_relations_check, nplus_extension_check,
                         sequence_from_measure)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_UNRESOLVED = 3


def _scalar(value):
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return format_fraction(Fraction(value))
    return float(value)


def _verdict_dict(verdict: PsdVerdict | FloatPsdVerdict) -> dict:
    if isinstance(verdict, FloatPsdVerdict):
        return {"outcome": verdict.outcome, "kind": "float",
                "min_eigenvalue": verdict.min_eigenvalue, "tol": verdict.tol}
    if verdict.is_psd:
        return {"outcome": "PSD", "kind": "exact",
                "permutation": verdict.permutation,
                "diagonal": [_scalar(d) for d in verdict.diagonal],
                "unit_lower": [[_scalar(x) for x in row] for row in verdict.unit_lower]}
    return {"outcome": "NotPSD", "kind": "exact",
            "witness": [_scalar(w) for w in verdict.witness],
            "witness_value": _scalar(verdict.witness_value)}


def _emit(report: dict, summary: list[str], out: str | None) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(payload, encoding="utf-8")
        for line in summary:
            print(line)
    else:
        sys.stdout.write(payload)
        for line in summary:
            print(line, file=sys.stderr)


# -- psd-check ----------------------------------------------------------------


def cmd_psd_check(args) -> int:
    if args.univariate:
        moments = serialize.moments_from_dict(serialize.load_json(args.input))
        verdict = hamburger_check(moments)
        report = {"command": "psd-check", "univariate": True,
                  "input": args.input, "verdict": _verdict_dict(verdict)}
        _emit(report, [f"hankel verdict: {verdict.outcome}"], args.out)
        return EXIT_OK if verdict.is_psd else EXIT_NEGATIVE

    L = serialize.functional_from_dict(serialize.load_json(args.input))
    exact = L.scalar_kind == SCALAR_EXACT
    L.validate(0.0 if exact else args.tol)
    scalar = args.scalar or ("exact" if exact else "float")
    if scalar == "exact" and not exact:
        raise ValueError("cannot run the exact check on float-valued input")
    pole = args.pole_order if args.pole_order is not None else L.pole_max // 2
    degree = args.degree if args.degree is not None else max(L.degree_max // 2, 2 * pole)
    basis = truncated_basis(pole, degree, L.nvars, L.mode)
    G = gram_matrix(L, basis)
    if scalar == "exact":
        verdict = psd_check_exact(G)
    else:
        verdict = psd_check_float([[float(x) for x in row] for row in G], args.tol)
    report = {"command": "psd-check", "univariate": False, "input": args.input,
              "config": {"pole_order": pole, "degree": degree, "scalar": scalar,
                         "tol": args.tol},
              "basis_size": len(basis), "verdict": _verdict_dict(verdict)}
    _emit(report, [f"gram matrix on {len(basis)} basis elements: {verdict.outcome}"],
          args.out)
    return EXIT_OK if verdict.is_psd else EXIT_NEGATIVE


# -- extend -------------------------------------------------------------------


def cmd_extend(args) -> int:
    measure = serialize.measure_from_dict(serialize.load_json(args.measure))
    mode = Mode.APLUS if args.mode == "aplus" else Mode.LAURENT
    basis = truncated_basis(args.pole_order, args.degree, measure.dim, mode)
    L = moments_of_measure(measure, basis)
    report = serialize.functional_to_dict(L)
    _emit(report, [f"extended to {len(L.values)} stored keys "
                   f"(pole <= {L.pole_max}, degree <= {L.degree_max})"], args.out)
    return EXIT_OK


# -- feasibility ----------------------------------------------------------------


def cmd_feasibility(args) -> int:
    L = serialize.functional_from_dict(serialize.load_json(args.input))
    result = extension_feasibility(L, args.pole_order, args.degree,
                                   max_iters=args.max_iters, tol=args.tol)
    report = {"command": "feasibility", "input": args.input,
              "config": {"pole_order": args.pole_order, "degree": args.degree,
                         "max_iters": args.max_iters, "tol": args.tol},
              "status": result.status, "gap": result.gap,
              "iterations": result.iterations}
    if result.feasible:
        report["fixed_key_residual"] = result.fixed_key_residual
        report["certificate"] = _verdict_dict(result.certificate)
        report["functional"] = serialize.functional_to_dict(result.functional)
        _emit(report, [f"feasible after {result.iterations} iterations "
                       f"(gap {result.gap:.3e})"], args.out)
        return EXIT_OK
    _emit(report, [f"unresolved after {result.iterations} iterations "
                   f"(gap {result.gap:.3e}); this is not an infeasibility proof"],
          args.out)
    return EXIT_UNRESOLVED


# -- fibres ---------------------------------------------------------------------


def cmd_fibres(args) -> int:
    preorder = serialize.preorder_from_dict(serialize.load_json(args.preorder))
    spec = serialize.fibre_spec_from_dict(serialize.load_json(args.fibre_spec))
    samples = serialize.samples_from_dict(serialize.load_json(args.samples))
    report_data = fibre_partition_check(preorder, list(spec.bounded), samples,
                                        jobs=args.jobs)
    fibre = fibre_generators(preorder, spec)
    ideal = fibre_ideal_generators(spec)
    buckets = []
    for value, members in sorted(report_data.buckets.items()):
        buckets.append({"value": [_scalar(v) for v in value],
                        "count": len(members), "samples": members})
    report = {"command": "fibres",
              "inputs": {"preorder": args.preorder, "fibre_spec": args.fibre_spec,
                         "samples": args.samples},
              "buckets": buckets,
              "outside": report_data.outside,
              "disjoint": report_data.disjoint,
              "value_ranges": [[_scalar(a), _scalar(b)]
                               for a, b in (report_data.value_ranges or [])],
              "fibre_detail": {
                  "value": [_scalar(v) for v in spec.value],
                  "generators": [str(g) for g in fibre.generators],
                  "ideal_generators": [str(g) for g in ideal]}}
    summary = [f"{len(buckets)} fibres over {sum(b['count'] for b in buckets)} samples "
               f"({len(report_data.outside)} outside), disjoint: {report_data.disjoint}"]
    _emit(report, summary, args.out)
    return EXIT_OK if report_data.disjoint else EXIT_NEGATIVE


# -- semigroup -------------------------------------------------------------------


def _measure_to_atoms(measure: DiscreteMeasure):
    if measure.dim != 2 or measure.sphere_atoms:
        raise ValueError("semigroup pipelines need a plain dim-2 measure")
    if not measure.is_exact():
        raise ValueError("semigroup pipelines need exact rational measures")
    atoms = [(w, GaussianRational(p[0], p[1])) for w, p in measure.atoms]
    if measure.origin_mass:
        atoms.append((measure.origin_mass, GaussianRational.zero()))
    return atoms


def cmd_semigroup(args) -> int:
    if args.pipeline == "laurent-relations":
        result = laurent_relations_check(seed=args.seed)
        report = {"command": "semigroup", "pipeline": args.pipeline,
                  "identities": result.identities,
                  "multiplicative_pairs": result.multiplicative_pairs,
                  "multiplicative_failures": result.multiplicative_failures,
                  "passed": result.passed}
        _emit(report, [f"laurent relations: {'pass' if result.passed else 'FAIL'}"],
              args.out)
        return EXIT_OK if result.passed else EXIT_NEGATIVE

    if args.pipeline == "nplus-extension":
        if not args.measure:
            raise ValueError("--measure is required for the nplus-extension pipeline")
        measure = serialize.measure_from_dict(serialize.load_json(args.measure))
        atoms = _measure_to_atoms(measure)
        s = sequence_from_measure(atoms, box_window(args.box, SgDomain.N02))
        if args.sequence:
            s = serialize.sequence_from_dict(serialize.load_json(args.sequence))
        result = nplus_extension_check(s, atoms, box_window(args.box, SgDomain.NPLUS))
        report = {"command": "semigroup", "pipeline": args.pipeline,
                  "restriction_ok": result.restriction_ok,
                  "restriction_mismatches": [list(k) for k in result.restriction_mismatches],
                  "psd": _verdict_dict(result.psd),
                  "cross_path_ok": result.cross_path_ok,
                  "cross_path_mismatches": [list(k) for k in result.cross_path_mismatches],
                  "passed": result.passed}
        _emit(report, [f"extension audit: restriction {result.restriction_ok}, "
                       f"psd {result.psd.outcome}, cross-path {result.cross_path_ok}"],
              args.out)
        return EXIT_OK if result.passed else EXIT_NEGATIVE

    if args.pipeline == "bisgaard":
        if not args.sequence:
            raise ValueError("--sequence is required for the bisgaard pipeline")
        s = serialize.sequence_from_dict(serialize.load_json(args.sequence))
        result = bisgaard_check(s, try_recovery=not args.no_recovery, seed=args.seed)
        report = {"command": "semigroup", "pipeline": args.pipeline,
                  "hermitian_ok": result.hermitian_ok,
                  "hermitian_violations": [list(k) for k in result.hermitian_violations],
                  "matrix_box": result.matrix_box,
                  "psd": _verdict_dict(result.psd) if result.psd else None,
                  "recovered_atoms": [[w, z.real, z.imag]
                                      for w, z in (result.recovered_atoms or [])],
                  "recovery_residual": result.recovery_residual,
                  "recovery_error": result.recovery_error,
                  "passed": result.passed}
        lines = [f"laurent positivity: "
                 f"{'pass' if result.passed else 'FAIL'}"
                 + (f" ({result.recovery_error})" if result.recovery_error else "")]
        _emit(report, lines, args.out)
        return EXIT_OK if result.passed else EXIT_NEGATIVE

    raise ValueError(f"unknown pipeline {args.pipeline!r}")


# -- recover-atoms ----------------------------------------------------------------


def cmd_recover_atoms(args) -> int:
    L = serialize.functional_from_dict(serialize.load_json(args.input))
    degree = args.degree if args.degree is not None else max(L.degree_max // 2, 1)
    try:
        measure = recover_atoms(L, L.nvars, degree, rank_tol=args.rank_tol,
                                seed=args.seed, residual_tol=args.residual_tol)
    except IndeterminateRankError as err:
        report = {"command": "recover-atoms", "input": args.input,
                  "status": "indeterminate-rank",
                  "singular_values": err.singular_values,
                  "band": list(err.band), "message": str(err)}
        _emit(report, [f"indeterminate rank: {err}"], args.out)
        return EXIT_UNRESOLVED
    except RecoveryFailedError as err:
        report = {"command": "recover-atoms", "input": args.input,
                  "status": "recovery-failed", "residual": err.residual,
                  "message": str(err)}
        _emit(report, [f"recovery failed: {err}"], args.out)
        return EXIT_NEGATIVE
    residual = polynomial_moment_residual(measure, L, 2 * degree)
    report = {"command": "recover-atoms", "input": args.input,
              "config": {"degree": degree, "rank_tol": args.rank_tol,
                         "seed": args.seed},
              "status": "recovered",
              "measure": serialize.measure_to_dict(measure),
              "moment_residual": residual}
    _emit(report, [f"recovered {len(measure.atoms)} atoms "
                   f"(origin mass {float(measure.origin_mass):.3g}, "
                   f"residual {residual:.3e})"], args.out)
    return EXIT_OK


# -- gen-examples ------------------------------------------------------------------


def cmd_gen_examples(args) -> int:
    writer = SCENARIOS.get(args.scenario)
    if writer is None:
        raise ValueError(f"unknown scenario {args.scenario!r}; "
                         f"choose from {sorted(SCENARIOS)}")
    files = writer(Path(args.dir), seed=args.seed)
    report = {"command": "gen-examples", "scenario": args.scenario,
              "seed": args.seed, "files": files}
    _emit(report, [f"wrote {len(files)} file(s) to {args.dir}"], args.out)
    return EXIT_OK


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentext",
        description="Truncated moment problems on punctured space: exact PSD "
                    "checks, extensions, fibres, and complex moment pipelines.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("psd-check", help="Gram/Hankel positivity of a functional")
    p.add_argument("input", help="functional JSON (or univariate moment JSON)")
    p.add_argument("--univariate", action="store_true",
                   help="input is {'moments': [...]} for the Hankel test")
    p.add_argument("-M", "--pole-order", type=int, default=None)
    p.add_argument("-D", "--degree", type=int, default=None)
    p.add_argument("--scalar", choices=["exact", "float"], default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_psd_check)

    p = sub.add_parser("extend", help="moment functional of an atomic measure")
    p.add_argument("measure", help="measure JSON")
    p.add_argument("-M", "--pole-order", type=int, required=True)
    p.add_argument("-D", "--degree", type=int, required=True)
    p.add_argument("--mode", choices=["aplus", "laurent"], default="aplus")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("feasibility", help="search for a positive extension")
    p.add_argument("input", help="functional JSON with the fixed values")
    p.add_argument("-M", "--pole-order", type=int, required=True)
    p.add_argument("-D", "--degree", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("fibres", help="bucket samples into fibres and report")
    p.add_argument("--preorder", required=True)
    p.add_argument("--fibre-spec", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fibres)

    p = sub.add_parser("semigroup", help="complex moment sequence pipelines")
    p.add_argument("--pipeline", required=True,
                   choices=["nplus-extension", "bisgaard", "laurent-relations"])
    p.add_argument("--measure", default=None)
    p.add_argument("--sequence", default=None)
    p.add_argument("--box", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-recovery", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("recover-atoms", help="atomic measure from moment data")
    p.add_argument("input", help="functional JSON")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--rank-tol", type=float, default=1e-8)
    p.add_argument("--residual-tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_recover_atoms)

    p = sub.add_parser("gen-examples", help="write ready-made input files")
    p.add_argument("--scenario", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IndeterminateRankError as err:
        print(f"indeterminate: {err}", file=sys.stderr)
        return EXIT_UNRESOLVED
    except RecoveryFailedError as err:
        print(f"recovery failed: {err}", file=sys.stderr)
        return EXIT_NEGATIVE
    except InconsistentFunctionalError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except DomainOverflowError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())
