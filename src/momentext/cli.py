"""Command line front end.

Exit codes: 0 for success / a positive verdict, 1 for a negative verdict,
2 for usage or input errors, 3 for unresolved or indeterminate outcomes.
Reports are JSON with sorted keys; a fixed command line (including --seed)
produces byte-identical report bytes.  With --out the report goes to a
file and a short human summary to stdout; without it the report itself is
the stdout payload and the summary moves to stderr.

Each subcommand imports the modules it runs when it runs, so a process
loads only its own subcommand's layers.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .functionals.errors import IndeterminateRankError, RecoveryFailedError

if TYPE_CHECKING:
    from .functionals.core import LinearFunctional

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_UNRESOLVED = 3


def _emit(report: dict, summary: list[str], out: str | None) -> None:
    from .serialize import dump_json, json_text

    if out:
        dump_json(report, out)
    else:
        sys.stdout.write(json_text(report))
    for line in summary:
        print(line, file=sys.stdout if out else sys.stderr)


# -- psd-check ----------------------------------------------------------------


def _refuse_unstored_window(L: LinearFunctional, pole: int, degree: int) -> None:
    """Refuse a window whose Gram matrix reads past every stored key.

    A corner product of the basis, its top element squared or in Laurent
    mode 1 / ||x||^(4 pole), reduced in one variable as ``MomentWindow``
    reduces product keys, that lies past the largest stored pole or degree
    is not stored and has no stored lift: the Gram matrix could only end in
    DomainOverflowError, after building the whole window or running out of
    memory.
    """
    from .extalg import Mode
    from .functionals.core import MomentWindow

    if L.nvars == 1 and (min(pole, degree) < 0 or (L.mode is Mode.APLUS and degree < 2 * pole)):
        return  # truncated_basis refuses the window itself
    top, read_pole = MomentWindow.reduce(((2 * degree,) + (0,) * (L.nvars - 1), 2 * pole))
    if L.mode is Mode.LAURENT:
        read_pole = 2 * pole  # the corner 1 / ||x||^(4 pole)
    if read_pole > L.top_pole or sum(top) > L.top_degree:
        raise ValueError(f"window (pole {pole}, degree {degree}) reads keys up to pole "
                         f"{read_pole} and degree {sum(top)}, but the stored keys stop "
                         f"at pole {L.top_pole} and degree {L.top_degree}")


def cmd_psd_check(args) -> int:
    from . import serialize
    from .extalg import truncated_basis
    from .functionals.core import SCALAR_EXACT, MomentWindow, gram_matrix
    from .functionals.psd import hamburger_check, psd_check_cleared, psd_check_float

    if args.univariate:
        moments = serialize.moments_from_dict(serialize.load_json(args.input))
        verdict = hamburger_check(moments)
        report = {"command": "psd-check", "univariate": True,
                  "input": args.input, "verdict": serialize.verdict_to_dict(verdict)}
        _emit(report, [f"hankel verdict: {verdict.outcome}"], args.out)
        return EXIT_OK if verdict.is_psd else EXIT_NEGATIVE

    L = serialize.functional_from_dict(serialize.load_json(args.input))
    exact = L.scalar_kind == SCALAR_EXACT
    L.validate(args.tol)
    scalar = args.scalar or ("exact" if exact else "float")
    if scalar == "exact" and not exact:
        raise ValueError("cannot run the exact check on float-valued input")
    pole = args.pole_order if args.pole_order is not None else L.pole_max // 2
    degree = args.degree if args.degree is not None else max(L.degree_max // 2, 2 * pole)
    _refuse_unstored_window(L, pole, degree)
    basis = truncated_basis(pole, degree, L.nvars, L.mode)
    if scalar == "exact":
        window = MomentWindow.of_basis(basis)
        verdict = psd_check_cleared(*window.cleared(lambda key: L._key_value(*key)))
    else:
        verdict = psd_check_float([[float(x) for x in row] for row in gram_matrix(L, basis)],
                                  args.tol)
    report = {"command": "psd-check", "univariate": False, "input": args.input,
              "config": {"pole_order": pole, "degree": degree, "scalar": scalar,
                         "tol": args.tol},
              "basis_size": len(basis), "verdict": serialize.verdict_to_dict(verdict)}
    _emit(report, [f"gram matrix on {len(basis)} basis elements: {verdict.outcome}"],
          args.out)
    return EXIT_OK if verdict.is_psd else EXIT_NEGATIVE


# -- extend -------------------------------------------------------------------


def cmd_extend(args) -> int:
    from . import serialize
    from .extalg import Mode, truncated_basis
    from .functionals.core import moments_of_measure

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
    from . import serialize
    from .functionals.feasibility import extension_feasibility

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
        report["certificate"] = serialize.verdict_to_dict(result.certificate)
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
    from . import serialize
    from .fibres import fibre_generators, fibre_ideal_generators, fibre_partition_check
    from .serialize import scalar_to_json

    preorder = serialize.preorder_from_dict(serialize.load_json(args.preorder))
    spec = serialize.fibre_spec_from_dict(serialize.load_json(args.fibre_spec))
    samples = serialize.samples_from_dict(serialize.load_json(args.samples))
    report_data = fibre_partition_check(preorder, list(spec.bounded), samples)
    fibre = fibre_generators(preorder, spec)
    ideal = fibre_ideal_generators(spec)
    buckets = []
    for value, members in sorted(report_data.buckets.items()):
        buckets.append({"value": [scalar_to_json(v) for v in value],
                        "count": len(members), "samples": members})
    report = {"command": "fibres",
              "inputs": {"preorder": args.preorder, "fibre_spec": args.fibre_spec,
                         "samples": args.samples},
              "buckets": buckets,
              "outside": report_data.outside,
              "disjoint": report_data.disjoint,
              "value_ranges": [[scalar_to_json(a), scalar_to_json(b)]
                               for a, b in (report_data.value_ranges or [])],
              "fibre_detail": {
                  "value": [scalar_to_json(v) for v in spec.value],
                  "generators": [str(g) for g in fibre.generators],
                  "ideal_generators": [str(g) for g in ideal]}}
    summary = [f"{len(buckets)} fibres over {sum(b['count'] for b in buckets)} samples "
               f"({len(report_data.outside)} outside), disjoint: {report_data.disjoint}"]
    _emit(report, summary, args.out)
    return EXIT_OK if report_data.disjoint else EXIT_NEGATIVE


# -- semigroup -------------------------------------------------------------------


def cmd_semigroup(args) -> int:
    from . import serialize
    from .semigroups import (SgDomain, bisgaard_check, box_window,
                             laurent_relations_check, nplus_extension_check,
                             sequence_from_measure)

    if args.pipeline == "laurent-relations":
        result = laurent_relations_check(seed=args.seed)
        report = {"command": "semigroup", "pipeline": args.pipeline,
                  "seed": args.seed, "identities": result.identities,
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
        if args.sequence:
            s = serialize.sequence_from_dict(serialize.load_json(args.sequence))
        else:
            s = sequence_from_measure(measure, box_window(args.box, SgDomain.N02))
        result = nplus_extension_check(s, measure, box_window(args.box, SgDomain.NPLUS))
        report = {"command": "semigroup", "pipeline": args.pipeline,
                  "restriction_ok": result.restriction_ok,
                  "restriction_mismatches": [list(k) for k in result.restriction_mismatches],
                  "psd": serialize.verdict_to_dict(result.psd),
                  "cross_path_ok": result.cross_path_ok,
                  "cross_path_mismatches": [list(k) for k in result.cross_path_mismatches],
                  "passed": result.passed}
        _emit(report, [f"extension audit: restriction {result.restriction_ok}, "
                       f"psd {result.psd.outcome}, cross-path {result.cross_path_ok}"],
              args.out)
        return EXIT_OK if result.passed else EXIT_NEGATIVE

    # bisgaard, the last of the parser's choices
    if not args.sequence:
        raise ValueError("--sequence is required for the bisgaard pipeline")
    s = serialize.sequence_from_dict(serialize.load_json(args.sequence))
    result = bisgaard_check(s, try_recovery=not args.no_recovery, seed=args.seed)
    report = {"command": "semigroup", "pipeline": args.pipeline,
              "hermitian_ok": result.hermitian_ok,
              "hermitian_violations": [list(k) for k in result.hermitian_violations],
              "matrix_box": result.matrix_box,
              "psd": serialize.verdict_to_dict(result.psd) if result.psd else None,
              "recovered_atoms": [[w, z.real, z.imag]
                                  for w, z in (result.recovered_atoms or [])],
              "recovery_residual": result.recovery_residual,
              "recovery_error": result.recovery_error,
              "passed": result.passed}
    lines = [f"laurent positivity: {'pass' if result.passed else 'FAIL'}"
             + (f" ({result.recovery_error})" if result.recovery_error else "")]
    _emit(report, lines, args.out)
    if result.passed:
        return EXIT_OK
    return EXIT_UNRESOLVED if result.recovery_unresolved else EXIT_NEGATIVE


# -- recover-atoms ----------------------------------------------------------------


def cmd_recover_atoms(args) -> int:
    from . import serialize
    from .functionals.recovery import polynomial_moment_residual, recover_atoms

    L = serialize.functional_from_dict(serialize.load_json(args.input))
    L.validate(1e-9)
    degree = args.degree if args.degree is not None else max(L.top_degree // 2, 1)
    if 2 * degree > L.top_degree:
        # the moment matrix reads L(x^gamma) for |gamma| <= 2 degree
        raise ValueError(f"degree {degree} reads moments up to degree {2 * degree}, "
                         f"but the stored keys stop at degree {L.top_degree}")
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
    from .scenarios import SCENARIOS

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


def _tolerance(text: str) -> float:
    """Flag type: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 <= value < float("inf"):  # false for NaN as well
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Flag type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


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
    p.add_argument("--tol", type=_tolerance, default=1e-9)
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
    p.add_argument("--max-iters", type=_positive_int, default=5000)
    p.add_argument("--tol", type=_tolerance, default=1e-7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("fibres", help="bucket samples into fibres and report")
    p.add_argument("--preorder", required=True)
    p.add_argument("--fibre-spec", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="accepted for compatibility; the audit runs in one process")
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
    p.add_argument("--rank-tol", type=_tolerance, default=1e-8)
    p.add_argument("--residual-tol", type=_tolerance, default=1e-8)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser for every ``main`` call, built on the first, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except IndeterminateRankError as err:
        print(f"indeterminate: {err}", file=sys.stderr)
        return EXIT_UNRESOLVED
    except RecoveryFailedError as err:
        print(f"recovery failed: {err}", file=sys.stderr)
        return EXIT_NEGATIVE
    # OverflowError: an exact value past float range reaching a float path
    except (ValueError, KeyError, OverflowError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())
