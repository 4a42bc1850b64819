"""momentext benchmark: seeded CLI workloads, timed in a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-wide --seed 1 --seconds 20 --trace 0

The command starts one child process per run, with a fixed PYTHONHASHSEED
and single-threaded BLAS, which imports momentext from ``src/``, generates
the workload's inputs from the seed and runs its jobs one after another
through ``momentext.cli.main`` until ``--seconds`` have passed.  Every
output is checked.  The last line of standard output is one JSON object:
with ``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  See NOTES.md for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from jobs import KINDS, NUMPY_KINDS, WORKLOADS, RoundBuilder, write_files  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
WORKERS = min(2, os.cpu_count() or 1)
LAYERS = ("cli", "serialize", "extalg", "core", "psd", "feasibility", "recovery",
          "semigroups", "fibres")

END_TO_END = [(f"{kind}_s", "s") for kind in KINDS] + [("setup_s", "s"),
                                                        ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("serialize.load.self_s", "s"), ("serialize.decode.self_s", "s"),
    ("serialize.encode.self_s", "s"), ("serialize.bytes_in", "bytes"),
    ("extalg.truncated_basis.self_s", "s"), ("extalg.basis_size", "count"),
    ("core.moments_of_measure.self_s", "s"), ("core.keys", "count"),
    ("core.gram_matrix.self_s", "s"), ("core.gram_entries", "count"),
    ("core.validate.self_s", "s"), ("core.extend_from_measure.self_s", "s"),
    ("psd.psd_check_exact.self_s", "s"), ("psd.notpsd.self_s", "s"),
    ("psd.verify.self_s", "s"), ("psd.pivots", "count"), ("psd.rank", "count"),
    ("psd.max_den_bits", "bits"), ("psd.cert_bytes", "bytes"),
    ("feasibility.extension_feasibility.self_s", "s"),
    ("feasibility.iterations", "count"), ("feasibility.s_per_iter", "s"),
    ("feasibility.feasible_ratio", "ratio"),
    ("recovery.recover_atoms.self_s", "s"),
    ("recovery.polynomial_moment_residual.self_s", "s"),
    ("recovery.rank", "count"), ("recovery.refused", "ratio"),
    ("semigroups.nplus_extension_check.self_s", "s"),
    ("semigroups.bisgaard_check.self_s", "s"),
    ("semigroups.laurent_relations_check.self_s", "s"),
    ("semigroups.sequence_from_measure.self_s", "s"),
    ("semigroups.sg_to_functions.self_s", "s"),
    ("fibres.fibre_partition_check.self_s", "s"),
    ("fibres.fibre_partition_check.jobs2_s", "s"),
    ("fibres.samples", "count"), ("fibres.audit_pairs", "count"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [("trace.overhead_ratio", "ratio")]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


# -- parent ----------------------------------------------------------------------


def parent(args) -> int:
    argv = [sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("benchmark child timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"benchmark child exited with {proc.returncode}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


# -- child -----------------------------------------------------------------------


def import_program():
    """Import momentext from this checkout's src/, and nowhere else."""
    import momentext.cli
    origin = Path(momentext.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"momentext was imported from {origin}, not {SRC}")
    return momentext.cli


class Runner:
    """Runs jobs, times them, checks their outputs and keeps the samples."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.records: list[tuple[str, bool, float, float]] = []
        self.jobs: list = []
        self.attempted = 0
        self.failed = 0

    def run(self, job, traced: bool = False) -> None:
        self.attempted += 1
        gc.collect()
        sink = io.StringIO()
        code, error = None, None
        if traced:
            self.tracer.begin("cli.main" if job.argv else "replay", job.job_id)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(job.argv) if job.argv else job.action()
        except (Exception, SystemExit):
            error = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.end()
        if error is None and code not in job.expect:
            error = f"exit code {code}, expected {job.expect}\n{sink.getvalue()}"
        if error is None:
            try:
                error = job.check(job, code)
            except (OSError, ValueError, KeyError, TypeError) as err:
                error = f"output check raised {err!r}"
        if error is not None:
            self.failed += 1
            print(f"FAILED {job.job_id} {job.argv}: {error}", file=sys.stderr)
            return
        self.records.append((job.kind, traced, start, start + elapsed))
        if traced:
            self.jobs.append(job)

    def times(self, probe, traced: bool = False) -> dict[str, list[float]]:
        """Reference-speed durations of the successful jobs, by kind (wall
        times when ``probe`` is None)."""
        out: dict[str, list[float]] = {}
        for kind, was_traced, start, end in self.records:
            if was_traced == traced:
                out.setdefault(kind, []).append(
                    probe.normalize(start, end, kind in NUMPY_KINDS)[0] if probe
                    else end - start)
        return out


def make_replay(serialize, extalg, core, PsdVerdict):
    """Consumer replay: load functional and report, rebuild G, verify."""
    def verdict_of(report: dict):
        v = report["verdict"]
        as_q = serialize.scalar_from_json
        if v["outcome"] == "PSD":
            return PsdVerdict(True, permutation=v["permutation"],
                              unit_lower=[[as_q(x) for x in row] for row in v["unit_lower"]],
                              diagonal=[as_q(x) for x in v["diagonal"]])
        return PsdVerdict(False, witness=[as_q(x) for x in v["witness"]],
                          witness_value=as_q(v["witness_value"]))

    def replay(functional_path, report_path, job) -> int:
        L = serialize.functional_from_dict(serialize.load_json(functional_path))
        report = serialize.load_json(report_path)
        config = report["config"]
        basis = extalg.truncated_basis(config["pole_order"], config["degree"],
                                       L.nvars, L.mode)
        gram = core.gram_matrix(L, basis)
        job.stats["verified"] = verdict_of(report).verify(gram)
        job.stats["gram"] = gram
        return 0
    return replay


def measure_setup(builder, probe) -> tuple[float, tuple, bool]:
    """Median of SETUP_REPEATS set-ups: a fresh interpreter importing the
    CLI, plus generating the first round's inputs.  Also reports whether
    every generation gave the same bytes."""
    totals, first, same = [], None, True
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import momentext.cli"], cwd=ROOT,
                       env=child_env(), check=True)
        files, chains = builder.files(0)
        totals.append(probe.normalize(start, time.perf_counter())[0])
        if first is None:
            first = (files, chains)
        elif files != first[0]:
            same = False
    return statistics.median(totals), first, same


def summarize(name: str, samples: list[float], unit: str) -> str:
    line = f"{name}: median {statistics.median(samples):.6g} {unit} over {len(samples)} jobs"
    for q in (99.9, 99, 90):
        if len(samples) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(samples, n=1000)[int(q * 10) - 1]
            line += f", p{q:g} {cut:.6g} {unit}"
            break
    return line


def run_rounds(args, builder, runner: Runner, probe) -> tuple[float, bool, list[int]]:
    """Set up, then run rounds until the deadline.  Returns the set-up
    time, whether generation was deterministic, and the complete traced
    rounds."""
    setup_s, (files, chains), same_bytes = measure_setup(builder, probe)
    write_files(builder.workdir, files)
    deadline = time.perf_counter() + args.seconds
    # The first round (and in a traced run the first traced one) always
    # completes, so that every metric has a sample.
    must_finish = 2 if args.trace else 1
    traced_rounds = []
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            runner.tracer.install()
        try:
            for chain in chains:
                if index >= must_finish and time.perf_counter() >= deadline:
                    return setup_s, same_bytes, traced_rounds
                for job in chain:
                    runner.run(job, traced)
        finally:
            if traced:
                runner.tracer.uninstall()
        if traced:
            traced_rounds.append(index)
        index += 1
        chains = builder.build(index)


def child(args) -> int:
    cli = import_program()
    from momentext import extalg, serialize
    from momentext.functionals import core
    from momentext.functionals.psd import PsdVerdict
    from spans import Tracer

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    builder = RoundBuilder(args.workload, args.seed, work,
                           replay=make_replay(serialize, extalg, core, PsdVerdict),
                           fibres_jobs=WORKERS if args.trace else 0)
    runner = Runner(cli, Tracer() if args.trace else None)
    probe = SpeedProbe()
    try:
        with probe:
            setup_s, same_bytes, traced_rounds = run_rounds(args, builder, runner, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = runner.failed == 0 and same_bytes
    if not same_bytes:
        print("FAILED: the same seed generated different input bytes", file=sys.stderr)
    factors = [probe.normalize(a, b)[1] for _, _, a, b in runner.records]
    print(f"machine speed: Fraction-loop probe time / reference, median {_median(factors):.4g} "
          f"over {len(factors)} jobs (min {min(factors, default=0):.4g}, "
          f"max {max(factors, default=0):.4g})")
    if args.trace:
        runner.tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = layer_metrics(runner, probe, traced_rounds)
    else:
        times, wall = runner.times(probe), runner.times(None)
        metrics = {}
        for kind in KINDS:
            samples = times.get(kind)
            if not samples:
                print(f"FAILED: no successful {kind} job", file=sys.stderr)
                correct = False
                continue
            print(summarize(f"{kind}_s", samples, "s")
                  + f" (wall-clock median {statistics.median(wall[kind]):.6g} s)")
            metrics[f"{kind}_s"] = statistics.median(samples)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb
        print(f"setup_s: median {setup_s:.6g} s over {SETUP_REPEATS} set-ups; "
              f"peak_rss_mb: {peak_rss_mb:.6g} MB")
        metrics = {name: {"value": metrics.get(name, 0.0), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(runner: Runner, probe, rounds: list[int]) -> dict:
    """Per-layer numbers from the complete traced rounds (see NOTES.md).

    Self times are reference-speed seconds per round, averaged over the
    rounds; sizes are the largest instance, iterations and ranks medians."""
    tracer = runner.tracer
    spans = tracer.spans
    factor = {s.job: probe.normalize(s.start, s.end, s.job.split(".", 2)[2] in NUMPY_KINDS)[1]
              for s in spans if s.parent is None}
    per_round: dict[int, dict[str, float]] = {r: {} for r in rounds}
    for job, per_name in tracer.self_times().items():
        index, _, kind = job.split(".", 2)
        totals = per_round.get(int(index))
        if totals is None or kind == "fibres_jobs2":
            continue
        for name, seconds in per_name.items():
            for key in (f"{name}.self_s", f"{name.split('.')[0]}.self_s"):
                totals[key] = totals.get(key, 0.0) + seconds / factor[job]
    values = {name: statistics.fmean(t.get(name, 0.0) for t in per_round.values())
              for name, unit in PER_LAYER if name.endswith(".self_s")}

    def attr(name: str, key: str):
        return [s.attrs[key] for s in spans if s.name == name and key in s.attrs]

    # Sizes: the largest instance, which is the workload's heavy job.
    for metric, name, key in (("serialize.bytes_in", "serialize.load", "bytes_in"),
                              ("extalg.basis_size", "extalg.truncated_basis", "basis_size"),
                              ("core.keys", "core.moments_of_measure", "keys"),
                              ("core.gram_entries", "core.gram_matrix", "gram_entries"),
                              ("psd.pivots", "psd.notpsd", "pivots"),
                              ("psd.rank", "psd.psd_check_exact", "rank"),
                              ("psd.max_den_bits", "psd.psd_check_exact", "max_den_bits"),
                              ("fibres.samples", "fibres.fibre_partition_check", "samples"),
                              ("fibres.audit_pairs", "fibres.fibre_partition_check",
                               "audit_pairs")):
        values[metric] = max(attr(name, key), default=0)
    values["psd.cert_bytes"] = max((j.stats["cert_bytes"] for j in runner.jobs
                                    if "cert_bytes" in j.stats), default=0)
    feas = [s for s in spans if s.name == "feasibility.extension_feasibility"
            and "iterations" in s.attrs]
    values["feasibility.iterations"] = _median(s.attrs["iterations"] for s in feas)
    values["feasibility.s_per_iter"] = _median(
        (s.end - s.start) / factor[s.job] / max(1, s.attrs["iterations"]) for s in feas)
    values["feasibility.feasible_ratio"] = \
        sum(s.attrs["feasible"] for s in feas) / len(feas) if feas else 0.0
    recoveries = [s for s in spans if s.name == "recovery.recover_atoms"]
    values["recovery.rank"] = _median(attr("recovery.recover_atoms", "rank"))
    values["recovery.refused"] = sum(s.attrs.get("raised") == "IndeterminateRankError"
                                     for s in recoveries) / max(1, len(recoveries))
    traced_times, untraced_times = runner.times(probe, traced=True), runner.times(probe)
    values["fibres.fibre_partition_check.jobs2_s"] = _median(
        traced_times.get("fibres_jobs2", []))
    traced = sum(_median(traced_times.get(k, [])) for k in KINDS)
    untraced = sum(_median(untraced_times.get(k, [])) for k in KINDS)
    values["trace.overhead_ratio"] = traced / untraced - 1.0 if untraced else 0.0
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
