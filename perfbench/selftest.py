"""Self-tests of the benchmark itself, at smoke sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that the same seed generates byte-identical inputs, that a tampered
certificate entry and a wrong exit code each count as a failed job, and
that every metric named in BENCHMARK.json comes out of a run with its unit.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import jobs  # noqa: E402
import run  # noqa: E402

SMOKE = {"exact": {size: jobs.EXACT["light"] for size in jobs.EXACT},
         "feasibility": {size: jobs.FEASIBILITY["light"] for size in jobs.FEASIBILITY},
         "recovery": {size: jobs.RECOVERY["light"] for size in jobs.RECOVERY},
         "pipes": {size: jobs.PIPES["light"] for size in jobs.PIPES}}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def test_same_seed_same_bytes(work: Path) -> None:
    for workload in jobs.WORKLOADS:
        first, _ = jobs.RoundBuilder(workload, 7, work).files(0)
        again, _ = jobs.RoundBuilder(workload, 7, work).files(0)
        other, _ = jobs.RoundBuilder(workload, 8, work).files(0)
        check(first == again, f"{workload}: seed 7 regenerates byte-identical inputs")
        check(first != other, f"{workload}: seed 8 generates different inputs")


def _smoke_round(work: Path):
    cli = run.import_program()
    from momentext import extalg, serialize
    from momentext.functionals import core
    from momentext.functionals.psd import PsdVerdict
    builder = jobs.RoundBuilder("exact-wide", 3, work, sizes=SMOKE,
                                replay=run.make_replay(serialize, extalg, core, PsdVerdict))
    return run.Runner(cli), builder.build(0)


def test_failures_are_counted(work: Path) -> None:
    runner, chains = _smoke_round(work)
    for chain in chains:
        for job in chain:
            runner.run(job)
    check(runner.failed == 0 and runner.attempted > 10,
          f"smoke round runs {runner.attempted} jobs without a failure")

    psd, replay = next(c for c in chains if c[0].kind == "psd_check")
    report = json.loads(psd.out.read_text())
    diagonal = report["verdict"]["diagonal"]
    diagonal[0] = str(int(diagonal[0].split("/")[0]) + 1) + \
        ("/" + diagonal[0].split("/")[1] if "/" in diagonal[0] else "")
    psd.out.write_text(json.dumps(report))
    before = runner.failed
    runner.run(replay)
    check(runner.failed == before + 1, "a tampered certificate entry counts as failed")

    psd, witness_replay = next(c for c in chains if c[0].kind == "notpsd")
    report = json.loads(psd.out.read_text())
    report["verdict"]["witness"][0] = "12345"
    psd.out.write_text(json.dumps(report))
    before = runner.failed
    runner.run(witness_replay)
    check(runner.failed == before + 1, "a tampered witness entry counts as failed")

    job = next(c[0] for c in chains if c[0].kind == "extend")
    job.expect = (jobs.EXIT_NEGATIVE[0],)
    before = runner.failed
    runner.run(job)
    check(runner.failed == before + 1, "a wrong exit code counts as failed")


def test_metrics_present() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        check(len(want) == len(spec[key]), f"every {key} name in BENCHMARK.json is used once")
        for workload in spec["workloads"]:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                                   workload["name"], "--seed", "1", "--seconds", "0",
                                   "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want and result["correct"] and result["failed"] == 0,
                  f"{workload['name']} --trace {trace}: every {key} metric with its unit")


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_selftest_") as tmp:
        test_same_seed_same_bytes(Path(tmp))
        test_failures_are_counted(Path(tmp))
    test_metrics_present()
    return 0


if __name__ == "__main__":
    sys.exit(main())
