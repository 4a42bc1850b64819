"""The report corpus: every CLI job of round 0 of the four benchmark
workloads (``perfbench/jobs.py`` at seed 11), ``gen-examples`` for every
scenario and hand-made cases, run in process through ``cli.main`` from one
working directory with relative paths (reports name their input files).
``data/report_corpus.json`` pins what each case must produce; README.md
("Install and test") says what is pinned and how to update it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from fractions import Fraction as F
from pathlib import Path
from typing import NamedTuple

import pytest

from momentext import cli

MANIFEST = json.loads((Path(__file__).parent / "data" / "report_corpus.json").read_text())
SEED = 11
FLOAT_KINDS = ("feasibility", "recover", "bisgaard")

_spec = importlib.util.spec_from_file_location(
    "perfbench_jobs", Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py")
jobs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(jobs)  # dataclasses look their module up in sys.modules


def sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def text(data: dict) -> bytes:
    return (json.dumps(data, indent=1, sort_keys=True) + "\n").encode()


def atoms(*rows) -> list:
    """(weight, point) pairs of Fractions, from rows of a weight and coordinates."""
    return [(F(weight), tuple(map(F, point))) for weight, *point in rows]


def hand_made() -> tuple[dict[str, bytes], dict[str, list[str]]]:
    """Input files written without momentext, and the command lines, in run
    order, that read them and the files gen-examples writes; the reports of
    these go to stdout, those of the benchmark's jobs to --out files."""
    # d = 3 moments on the (pole 2, degree 5) window: four atoms and an origin
    # mass, the same minus a far atom's (NotPSD), and one value off by 1/7
    d3 = jobs.Window(3, 2, 5, 4)
    values = jobs.moment_table(atoms(("1/2", 1, "-2/3", "1/3"), (2, -1, 0, 2),
                                     ("3/4", "1/2", 1, -1), (1, 2, "1/3", "1/2")), F(1, 4), d3)
    far = jobs.moment_table(atoms(("1/100", 5, -7, 3)), F(0), d3)
    broken = {**values, ((2, 2, 2), 1): values[((2, 2, 2), 1)] + F(1, 7)}
    notpsd = jobs.z2_sequence_json(atoms((1, 1, 1), ("1/2", 2, -1)), 2)
    notpsd["entries"] = [{**e, "re": "-1", "im": "0"} if (e["m"], e["n"]) == (0, 0) else e
                         for e in notpsd["entries"]]
    d3_measure = jobs.measure_json(3, atoms(("1/2", 1, "-2/3", "3/5"), (3, -2, 0, 1),
                                            ("2/7", "1/4", "1/2", -1)), F(1, 3))
    d3_measure["sphere_atoms"] = [{"weight": "5/4", "point": ["2/3", "-1/3", "2/3"]}]
    files = {"d3.json": text(d3_measure),
             "d2.json": text(jobs.measure_json(2, atoms((1, "1/2", -3), ("2/3", -2, "5/4"),
                                                        (4, 0, 1)))),
             "L.json": text(jobs.functional_json(values, d3)),
             "signed.json": text(jobs.functional_json(
                 {k: v - far[k] for k, v in values.items()}, d3)),
             "broken.json": text(jobs.functional_json(broken, d3)),
             "notpsd.json": text(notpsd),
             "hankel.json": text({"moments": ["2", "-1", "5", "-7", "17"]})}
    gen = "gen-examples --dir examples --scenario"
    argvs = {f"gen-examples.{s}": f"{gen} {s}"
             for s in ("strip", "bisgaard-two-atoms", "two-atoms-origin")}
    argvs.update((f"gen-examples.random-measure.seed{seed}",
                  f"{gen} random-measure --seed {seed}") for seed in range(6))
    nplus = "semigroup --pipeline nplus-extension --measure examples/random_measure_seed{}.json"
    argvs.update((f"nplus-extension.box{box}.seed{seed}", f"{nplus.format(seed)} --box {box}")
                 for box, seeds in ((2, range(6)), (3, (1, 2, 4))) for seed in seeds)
    argvs.update({
        "bisgaard.no-recovery": "semigroup --pipeline bisgaard --no-recovery "
                                "--sequence examples/bisgaard_two_atoms.json",
        "bisgaard.notpsd": "semigroup --pipeline bisgaard --sequence notpsd.json",
        **{f"laurent-relations.seed{seed}": f"semigroup --pipeline laurent-relations --seed {seed}"
           for seed in range(3)},
        "extend.d3-aplus": "extend d3.json -M 1 -D 3",
        "extend.d2-laurent": "extend d2.json -M 1 -D 3 --mode laurent",
        **{f"psd-check.{name}": f"psd-check {name}.json" for name in ("L", "signed", "broken")},
        "psd-check.hankel": "psd-check --univariate hankel.json",
        "recover-atoms.broken": "recover-atoms broken.json"})
    return files, {name: line.split() for name, line in argvs.items()}


class Result(NamedTuple):
    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes | None]  # written file -> bytes, None if not written
    failure: str | None  # what the benchmark's output check found wrong


def run_case(argv: list[str], job) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    paths = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--out"]
    if argv[0] == "gen-examples" and code == 0:
        paths += json.loads(out.getvalue())["files"].values()
    files = {p: Path(p).read_bytes() if Path(p).exists() else None for p in paths}
    return Result(code, out.getvalue(), err.getvalue(), files, job and job.check(job, code))


def entry(job, result: Result) -> dict:
    if job and job.kind in FLOAT_KINDS:
        return {"exit": result.code, "float": True}
    outputs = {"stdout": result.stdout.encode(), "stderr": result.stderr.encode(),
               **result.files}
    return {"exit": result.code, "sha256": {name: sha(data) for name, data in outputs.items()}}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Input files by group, name -> (argv, benchmark job or None) in run
    order, and name -> Result."""
    inputs, cases = {}, {}
    for workload in jobs.WORKLOADS:
        files, chains = jobs.RoundBuilder(workload, SEED, Path(workload)).files(0)
        inputs[workload] = {f"{workload}/{name}": data for name, data in files.items()}
        cases.update((f"{workload}/{job.job_id}", (job.argv, job))
                     for chain in chains for job in chain)
    inputs["hand-made"], argvs = hand_made()
    cases.update((name, (argv, None)) for name, argv in argvs.items())
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("corpus"))
        for files in inputs.values():
            jobs.write_files(Path(), files)
        results = {name: run_case(*case) for name, case in cases.items()}
    return inputs, cases, results


def canonical(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(MANIFEST["cases"]))
def test_case_matches_the_manifest(corpus, name):
    _, cases, results = corpus
    assert name in cases, f"{name} left the corpus: delete its manifest entry"
    (argv, job), result = cases[name], results[name]
    reports = [data for data in result.files.values() if data is not None]
    for report in reports + ([] if "--out" in argv or not result.stdout else
                             [result.stdout.encode()]):
        assert report.decode() == canonical(json.loads(report))
    assert result.failure is None, f"{name}: {result.failure}"
    got = entry(job, result)
    assert got == MANIFEST["cases"][name], \
        f"{name} changed; regenerated entry:\n{canonical({name: got})}"


def test_manifest_lists_every_case(corpus):
    _, cases, results = corpus
    missing = {name: entry(job, results[name]) for name, (_, job) in cases.items()
               if name not in MANIFEST["cases"]}
    assert not missing, f"cases missing from the manifest:\n{canonical(missing)}"


def test_generated_inputs_are_unchanged(corpus):
    """One digest per group, so that a change in a generator reads as an
    input change, not as a program change."""
    got = {group: sha(b"".join(name.encode() + b"\0" + hashlib.sha256(data).digest()
                               for name, data in sorted(files.items())))
           for group, files in corpus[0].items()}
    assert got == MANIFEST["inputs"], f"generated inputs changed:\n{canonical(got)}"


def test_every_subcommand_and_pipeline_has_a_case(corpus):
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    pipelines = next(a for a in commands["semigroup"]._actions if a.dest == "pipeline").choices
    argvs = [argv for argv, _ in corpus[1].values()]
    for command in commands:
        assert any(argv[0] == command for argv in argvs), command
    for pipeline in pipelines:
        assert ["semigroup", "--pipeline", pipeline] in [argv[:3] for argv in argvs], pipeline


def test_laurent_reports_differ_only_in_their_seed(corpus):
    for seed in range(3):
        report = json.loads(corpus[2][f"laurent-relations.seed{seed}"].stdout)
        assert report.pop("seed") == seed
        assert sha(canonical(report).encode()) == MANIFEST["laurent_report_without_seed"], seed


def test_refusals_name_the_fault(corpus):
    results = corpus[2]
    for seed in (0, 3, 5):  # origin mass cannot feed the punctured-plane extension
        result = results[f"nplus-extension.box2.seed{seed}"]
        assert (result.code, result.stdout) == (2, "") and "atoms at 0 cannot feed" in result.stderr
    refused = results["psd-check.broken"]
    assert refused.stderr.startswith("error: reduction relation violated at keys [((0, 2, 2), 0), ")
    # recover-atoms once recovered atoms from this functional, which breaks
    # the reduction relations that psd-check and feasibility check
    recovered = results["recover-atoms.broken"]
    assert (recovered.code, recovered.stdout, recovered.stderr) == (2, "", refused.stderr)
