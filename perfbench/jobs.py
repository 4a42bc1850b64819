"""Seeded inputs, job lists and output checks for the momentext benchmark.

A workload is a closed loop of *rounds*.  Every round runs all ten job
kinds once or more; the workload decides which group of kinds runs at its
heavy size and which at the light size.  The light jobs are the bypass
case: they execute the same code paths on small inputs, so a change aimed
at one layer should leave them flat on the workloads that do not feature
that layer.

Inputs are written as JSON files and the program only ever sees those
files.  The exact moment tables behind the functionals are computed here,
with per-atom power tables and no momentext code, so that ``extend``
output and every Gram matrix can be checked against an independent value.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# Job kinds, in the order the end-to-end metrics are printed.
KINDS = ("extend", "psd_check", "notpsd", "replay", "feasibility", "recover",
         "nplus", "bisgaard", "laurent", "fibres")
# Kinds whose speed follows numpy rather than big-rational arithmetic.
NUMPY_KINDS = ("feasibility", "recover")

# Which size each group of kinds runs at, per workload.
WORKLOADS = {
    "exact-wide": {"exact": "wide", "float": "light", "pipes": "light"},
    "exact-dense": {"exact": "dense", "float": "light", "pipes": "light"},
    "float-search": {"exact": "light", "float": "heavy", "pipes": "light"},
    "pipelines": {"exact": "light", "float": "light", "pipes": "heavy"},
}

EXIT_OK, EXIT_NEGATIVE, EXIT_UNRESOLVED = (0,), (1,), (3,)


@dataclass(frozen=True)
class Window:
    """One exact measure family: dimension, (pole, degree) window, atoms."""

    dim: int
    pole: int
    degree: int
    atoms: int
    laurent: bool = False
    max_den: int = 9


# Exact chain sizes.  Each entry is the list of measure families one round
# draws; each bounded-generator family also yields a signed (NotPSD) input.
# A Laurent-mode family runs under its own job kinds (``extend_laurent``,
# ...), which are checked and counted but kept out of the end-to-end
# medians, so that its different size cannot make those medians jump.
EXACT = {
    "light": [Window(2, 1, 3, 3)] * 3,
    "wide": [Window(3, 2, 5, 4, max_den=3), Window(2, 1, 5, 3, laurent=True, max_den=3)],
    "dense": [Window(2, 1, 6, 26, max_den=4)],
}
# Fixed atom counts and small coordinate denominators (at most 3 on the
# wide window, 4 on the dense one, against 9 elsewhere) keep the cost of
# one job close to that of the next, so that a median over a dozen jobs is
# steady from seed to seed: on the dense window the spread of psd-check
# times fell from 14% to 8-10% of the mean.


@dataclass(frozen=True)
class Search:
    """``count`` feasibility jobs on degree-``rdeg`` moments of measures
    with ``atoms`` atoms, completed on the (pole, degree) window."""

    dim: int
    rdeg: int
    pole: int
    degree: int
    max_iters: int
    must_converge: bool
    atoms: tuple[int, int]
    count: int = 1


# Must-converge searches use measures with many atoms: their degree-2 data
# sits well inside the moment cone, so Douglas-Rachford converges in a few
# hundred iterations at most, while with 3-4 atoms about one search in
# twenty stalls.  The degree-4 pinned searches stall and run to
# --max-iters, a fixed amount of work; one that converges early still
# passes.
FEASIBILITY = {
    "light": [Search(3, 4, 1, 6, 40, False, (3, 4), count=2)],
    "heavy": [Search(2, 2, 1, 4, 5000, True, (12, 14), count=20),
              Search(3, 2, 1, 4, 5000, True, (14, 16)),
              Search(3, 4, 1, 6, 200, False, (3, 4))],
}
# (dim, atoms, degree, jobs per round) per recovery family.  Three atoms
# at degree 3 recovered in 3000 of 3000 seeds for d = 1, 2, 3; four or five
# atoms failed about once in 1500 (a flatness or rank-band refusal).
RECOVERY = {
    "light": [(2, 2, 2, 3)],
    "heavy": [(1, 3, 3, 3), (2, 3, 3, 3), (3, 3, 3, 3)],
}
TWIN = {"light": False, "heavy": True}

# Pipeline sizes: nplus boxes, bisgaard data box, atoms per complex
# measure, strip grid side.  laurent-relations has no size knob: it is the
# same job at both sizes.
PIPES = {
    "light": {"nplus": [2], "bisgaard": 4, "atoms": 2, "grid": 9},
    "heavy": {"nplus": [3], "bisgaard": 6, "atoms": 3, "grid": 21},
}


# -- exact arithmetic the checks rely on -------------------------------------


def frac_text(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def exponents(dim: int, degree: int) -> list[tuple[int, ...]]:
    if dim == 1:
        return [(degree,)]
    return [(first,) + rest for first in range(degree, -1, -1)
            for rest in exponents(dim - 1, degree - first)]


def basis_exponents(w: Window) -> list[tuple[int, ...]]:
    """Numerator exponents of the truncated basis, in the canonical order."""
    low = 0 if w.laurent else 2 * w.pole
    exps = [e for t in range(low, w.degree + 1) for e in exponents(w.dim, t)]
    return sorted(exps, key=lambda e: (sum(e), tuple(-x for x in e)))


def moment_table(atoms, origin: Fraction, w: Window) -> dict:
    """(gamma, m) -> integral of x^gamma / |x|^(2m), on the stored rectangle.

    Keys cover m <= 2*pole and |gamma| <= 2*degree (and |gamma| >= 2m in
    the bounded-generator mode), as the extension command stores them.
    Origin mass is a direction pinned to e1, seen only where |gamma| = 2m.
    """
    top_m, top_t = 2 * w.pole, 2 * w.degree
    tables = []
    for weight, point in atoms:
        powers = [[Fraction(1)] for _ in point]
        for k, c in enumerate(point):
            for _ in range(top_t):
                powers[k].append(powers[k][-1] * c)
        inv = 1 / sum(c * c for c in point)
        inv_pows = [weight]
        for _ in range(top_m):
            inv_pows.append(inv_pows[-1] * inv)
        tables.append((powers, inv_pows))
    values = {}
    for m in range(top_m + 1):
        low = 0 if w.laurent else 2 * m
        for t in range(low, top_t + 1):
            for gamma in exponents(w.dim, t):
                total = Fraction(0)
                for powers, inv_pows in tables:
                    term = inv_pows[m]
                    for k, e in enumerate(gamma):
                        if e:
                            term *= powers[k][e]
                    total += term
                if origin and t == 2 * m and not any(gamma[1:]):
                    total += origin
                values[(gamma, m)] = total
    return values


def gram_from_table(values: dict, w: Window) -> list[list[Fraction]]:
    """G[i][j] = L(x^(a_i + a_j) / |x|^(4M)), read straight off the table."""
    exps = basis_exponents(w)
    return [[values[(tuple(x + y for x, y in zip(a, b)), 2 * w.pole)] for b in exps]
            for a in exps]


def functional_json(values: dict, w: Window) -> dict:
    entries = [{"exp": list(g), "pole_order": m, "value": frac_text(v)}
               for (g, m), v in sorted(values.items(),
                                       key=lambda kv: (kv[0][1], sum(kv[0][0]),
                                                       [-x for x in kv[0][0]]))]
    return {"nvars": w.dim, "mode": "Laurent" if w.laurent else "Aplus",
            "scalar_kind": "exact_rational", "pole_max": 2 * w.pole,
            "degree_max": 2 * w.degree, "entries": entries}


def signed_weight(values: dict, w: Window, far: tuple) -> Fraction:
    """Weight c of the atom at ``far`` in the signed functional L - c*L(delta).

    With g the basis evaluated at ``far`` and G the Gram matrix of L,
    G - c*g*g^T stops being PSD once c exceeds 1/(g^T G^-1 g).  c is the
    power of two between 4 and 8 times that threshold (a float estimate),
    capped at L(1)/2 so that L(1) stays positive.  A small excess leaves
    most of G's positive directions intact, so the exact LDL^T meets the
    negative pivot only after most of its pivots.
    """
    gram = np.array(gram_from_table(values, w), dtype=float)
    norm2 = float(sum(c * c for c in far))
    g = np.array([math.prod(float(c) ** e for c, e in zip(far, a)) / norm2 ** w.pole
                  for a in basis_exponents(w)])
    q = float(g @ np.linalg.lstsq(gram, g, rcond=None)[0])
    mass = values[((0,) * w.dim, 0)]
    return min(mass / 2, Fraction(1, 2 ** max(0, math.floor(math.log2(q / 4)))))


def polynomial_moments(atoms, dim: int, max_degree: int) -> dict:
    """Pole-free keys (gamma, 0) with |gamma| <= max_degree."""
    w = Window(dim, 0, (max_degree + 1) // 2, 0, laurent=True)
    return {k: v for k, v in moment_table(atoms, Fraction(0), w).items()
            if sum(k[0]) <= max_degree}


def polynomial_functional_json(values: dict, dim: int, max_degree: int) -> dict:
    data = functional_json(values, Window(dim, 0, max_degree, 0))
    data.update(pole_max=0, degree_max=max_degree)
    return data


def functional_values(data: dict) -> dict:
    return {(tuple(e["exp"]), int(e["pole_order"])): Fraction(e["value"])
            for e in data["entries"]}


def measure_json(dim, atoms, origin=Fraction(0)) -> dict:
    return {"dim": dim,
            "atoms": [{"weight": frac_text(w), "point": [frac_text(c) for c in p]}
                      for w, p in atoms],
            "origin_mass": frac_text(origin), "sphere_atoms": []}


def poly_json(nvars: int, terms: dict) -> dict:
    return {"nvars": nvars,
            "terms": [{"coeff": frac_text(c), "exp": list(e)}
                      for e, c in sorted(terms.items())]}


# -- random data ----------------------------------------------------------------


def rand_frac(rng: random.Random, low=-9, high=9, max_den=9, nonzero=False) -> Fraction:
    while True:
        value = Fraction(rng.randint(low, high), rng.randint(1, max_den))
        if value or not nonzero:
            return value


def rand_atoms(rng: random.Random, dim: int, count: int, max_den: int = 9) -> list:
    atoms, seen = [], set()
    while len(atoms) < count:
        point = tuple(rand_frac(rng, max_den=max_den) for _ in range(dim))
        if not any(point) or point in seen:
            continue
        seen.add(point)
        atoms.append((rand_frac(rng, 1, 8, min(4, max_den)), point))
    return atoms


def rand_complex_atoms(rng: random.Random, count: int) -> list:
    atoms, seen = [], set()
    while len(atoms) < count:
        z = (rand_frac(rng, -4, 4, 3), rand_frac(rng, -4, 4, 3))
        if not any(z) or z in seen:
            continue
        seen.add(z)
        atoms.append((rand_frac(rng, 1, 6, 3), z))
    return atoms


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cpow(z, k: int):
    if k < 0:
        norm = z[0] * z[0] + z[1] * z[1]
        z, k = (z[0] / norm, -z[1] / norm), -k
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _cmul(out, z)
    return out


def z2_sequence_json(atoms, box: int) -> dict:
    """s(m, n) = sum w z^m conj(z)^n on the |m|, |n| <= box Laurent window."""
    entries = []
    for m in range(-box, box + 1):
        for n in range(-box, box + 1):
            total = (Fraction(0), Fraction(0))
            for weight, z in atoms:
                term = _cmul(_cpow(z, m), _cpow((z[0], -z[1]), n))
                total = (total[0] + weight * term[0], total[1] + weight * term[1])
            entries.append({"m": m, "n": n, "re": frac_text(total[0]),
                            "im": frac_text(total[1])})
    return {"domain": "Z2", "entries": entries}


# -- jobs -------------------------------------------------------------------------


@dataclass
class Job:
    """One timed unit: a CLI call (``argv``) or an in-process ``action``.

    ``check`` runs untimed after the job and returns a failure reason or
    None.  ``stats`` carries values from the job to its check and to the
    traced run's counts.
    """

    kind: str
    job_id: str
    expect: tuple[int, ...]
    check: Callable[["Job", int], str | None]
    argv: list[str] | None = None
    action: Callable[[], int] | None = None
    out: Path | None = None
    stats: dict = field(default_factory=dict)


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class RoundBuilder:
    """Writes one round's input files and returns its chains of jobs.

    A chain is a list of jobs that run back to back (a psd-check and the
    replay of its certificate).  Inputs of round r depend only on
    (workload, seed, r), so a run never repeats an input and the same seed
    regenerates the same bytes.
    """

    def __init__(self, workload: str, seed: int, workdir: Path,
                 replay: Callable | None = None, fibres_jobs: int = 0,
                 sizes: dict | None = None):
        self.plan = WORKLOADS[workload]
        self.fibres_jobs = fibres_jobs
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.replay = replay
        self.sizes = sizes or {"exact": EXACT, "feasibility": FEASIBILITY,
                               "recovery": RECOVERY, "pipes": PIPES}

    def files(self, index: int) -> tuple[dict[str, bytes], list[list[Job]]]:
        """In-memory file bytes and the job chains of round ``index``."""
        rng = random.Random(f"{self.workload}/{self.seed}/{index}")
        self._files: dict[str, bytes] = {}
        self._dir = self.workdir / f"r{index}"
        self._index = index
        self._count = 0
        chains = []
        chains += self._exact(rng, self.sizes["exact"][self.plan["exact"]])
        chains += self._float(rng, self.plan["float"])
        chains += self._pipes(rng, self.sizes["pipes"][self.plan["pipes"]])
        return self._files, chains

    def build(self, index: int) -> list[list[Job]]:
        files, chains = self.files(index)
        write_files(self.workdir, files)
        return chains

    def _put(self, name: str, data: dict) -> Path:
        path = self._dir / name
        text = json.dumps(data, indent=1, sort_keys=True) + "\n"
        self._files[str(path.relative_to(self.workdir))] = text.encode()
        return path

    def _id(self, kind: str) -> str:
        self._count += 1
        return f"{self._index}.{self._count}.{kind}"

    # exact chain: extend, psd-check (PSD and NotPSD), replay ------------------

    def _exact(self, rng, windows: list[Window]) -> list[list[Job]]:
        chains = []
        for i, w in enumerate(windows):
            suffix = "_laurent" if w.laurent else ""
            atoms = rand_atoms(rng, w.dim, w.atoms, w.max_den)
            origin = rand_frac(rng, 1, 4, 4) if not w.laurent and rng.random() < 0.5 \
                else Fraction(0)
            values = moment_table(atoms, origin, w)
            tag = f"x{i}"
            mpath = self._put(f"{tag}_measure.json", measure_json(w.dim, atoms, origin))
            fpath = self._put(f"{tag}_functional.json", functional_json(values, w))
            argv = ["extend", str(mpath), "-M", str(w.pole), "-D", str(w.degree),
                    "--mode", "laurent" if w.laurent else "aplus"]
            chains.append([self._cli("extend" + suffix, argv, EXIT_OK,
                                     _check_extend(values))])
            chains.append(self._psd_chain("psd_check" + suffix, fpath, values, w, EXIT_OK))
            if not w.laurent:
                far = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(30, 60))
                            for _ in range(w.dim))
                delta = moment_table([(signed_weight(values, w, far), far)], Fraction(0), w)
                signed = {k: v - delta[k] for k, v in values.items()}
                spath = self._put(f"{tag}_signed.json", functional_json(signed, w))
                chains.append(self._psd_chain("notpsd", spath, signed, w, EXIT_NEGATIVE))
        return chains

    def _psd_chain(self, kind, fpath: Path, values: dict, w: Window,
                   expect: int) -> list[Job]:
        out = fpath.with_name(fpath.stem + "_report.json")
        chain = [self._cli(kind, ["psd-check", str(fpath)], expect, _check_psd, out)]
        if self.replay is not None:
            # Only PSD certificates feed replay_s: a witness replays in a
            # fraction of the time, and mixing both would make the median
            # jump between the two.
            rkind = {"psd_check": "replay", "notpsd": "replay_witness"}.get(
                kind, "replay_laurent")
            replay = Job(rkind, self._id(rkind), EXIT_OK, _check_replay(values, w), out=out)
            replay.action = lambda: self.replay(fpath, out, replay)
            chain.append(replay)
        return chain

    def _cli(self, kind, argv, expect, check, out: Path | None = None) -> Job:
        job_id = self._id(kind)
        out = out or self._dir / f"{job_id}.out.json"
        return Job(kind, job_id, expect, check, argv=argv + ["--out", str(out)], out=out)

    # float searches: feasibility and atom recovery --------------------------

    def _float(self, rng, size: str) -> list[list[Job]]:
        chains = []
        for search in self.sizes["feasibility"][size]:
            for _ in range(search.count):
                chains.append([self._feasibility(rng, search)])
        for dim, count, degree, jobs in self.sizes["recovery"][size]:
            for _ in range(jobs):
                chains.append([self._recovery(rng, dim, count, degree, twin=False)])
        if TWIN[size]:
            chains.append([self._recovery(rng, 2, 2, 3, twin=True)])
        return chains

    def _feasibility(self, rng, search: Search) -> Job:
        atoms = rand_atoms(rng, search.dim, rng.randint(*search.atoms))
        values = polynomial_moments(atoms, search.dim, search.rdeg)
        path = self._put(f"feas_{self._count}.json",
                         polynomial_functional_json(values, search.dim, search.rdeg))
        argv = ["feasibility", str(path), "-M", str(search.pole), "-D", str(search.degree),
                "--tol", "1e-7", "--max-iters", str(search.max_iters)]
        # A search that may stall is allowed to converge early, too.
        expect = EXIT_OK if search.must_converge else EXIT_OK + EXIT_UNRESOLVED
        return self._cli("feasibility", argv, expect,
                         _check_feasibility(values, search.pole, search.must_converge))

    def _recovery(self, rng, dim: int, count: int, degree: int, twin: bool) -> Job:
        if twin:
            base = (Fraction(rng.randint(1, 9), 10), Fraction(rng.randint(1, 9), 10))
            eps = Fraction(1, 10 ** 12)
            atoms = [(Fraction(1), base), (Fraction(1), (base[0] + eps, base[1]))]
        else:
            atoms, seen = [], set()
            while len(atoms) < count:
                point = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                              for _ in range(dim))
                if any(point) and point not in seen:
                    seen.add(point)
                    atoms.append((Fraction(rng.randint(1, 4), rng.randint(1, 3)), point))
        values = polynomial_moments(atoms, dim, 2 * degree)
        path = self._put(f"recover_{self._count}.json",
                         polynomial_functional_json(values, dim, 2 * degree))
        argv = ["recover-atoms", str(path)]
        if twin:
            return self._cli("recover", argv + ["--rank-tol", "1e-15"], EXIT_UNRESOLVED,
                             _check_refused)
        return self._cli("recover", argv, EXIT_OK, _check_recovered(values, atoms))

    # pipelines: semigroups and fibres ------------------------------------------

    def _pipes(self, rng, size: dict) -> list[list[Job]]:
        chains = []
        for box in size["nplus"]:
            atoms = rand_complex_atoms(rng, size["atoms"])
            path = self._put(f"nplus_{box}.json", measure_json(2, atoms))
            chains.append([self._cli("nplus", ["semigroup", "--pipeline", "nplus-extension",
                                               "--measure", str(path), "--box", str(box)],
                                     EXIT_OK, _check_passed)])
        atoms = rand_complex_atoms(rng, size["atoms"])
        path = self._put("bisgaard.json", z2_sequence_json(atoms, size["bisgaard"]))
        chains.append([self._cli("bisgaard", ["semigroup", "--pipeline", "bisgaard",
                                              "--sequence", str(path)],
                                 EXIT_OK, _check_bisgaard(atoms))])
        chains.append([self._cli("laurent", ["semigroup", "--pipeline", "laurent-relations",
                                             "--seed", str(rng.randrange(1 << 30))],
                                 EXIT_OK, _check_passed)])
        chains.append([self._fibres(rng, size["grid"], 1)])
        if self.fibres_jobs:
            chains.append([self._fibres(rng, size["grid"], self.fibres_jobs)])
        return chains

    def _fibres(self, rng, side: int, workers: int) -> Job:
        """Strip {0 <= x1 <= 1} with h = x1: one fibre per grid column."""
        one, x1 = (0, 0), (1, 0)
        tag = f"strip{workers}"
        pre = self._put(f"{tag}_preorder.json", {
            "dim": 2, "generators": [poly_json(2, {x1: Fraction(1)}),
                                     poly_json(2, {one: Fraction(1), x1: Fraction(-1)})]})
        spec = self._put(f"{tag}_spec.json", {"bounded": [poly_json(2, {x1: Fraction(1)})],
                                             "value": ["1/2"]})
        rows = sorted({rand_frac(rng, -60, 60, 7) for _ in range(side * 3)})[:side]
        points = [[frac_text(Fraction(i, side - 1)), frac_text(y)]
                  for i in range(side) for y in rows]
        samples = self._put(f"{tag}_samples.json", {"dim": 2, "points": points})
        argv = ["fibres", "--preorder", str(pre), "--fibre-spec", str(spec),
                "--samples", str(samples), "--jobs", str(workers)]
        kind = "fibres" if workers == 1 else "fibres_jobs2"
        return self._cli(kind, argv, EXIT_OK, _check_fibres(side, len(points)))


def write_files(root: Path, files: dict[str, bytes]) -> None:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


# -- checks -----------------------------------------------------------------------


def _check_extend(expected: dict):
    def check(job: Job, code: int) -> str | None:
        got = functional_values(_load(job.out))
        if got != expected:
            return "extend output differs from the independent moment table"
        return None
    return check


def _check_psd(job: Job, code: int) -> str | None:
    report = _load(job.out)
    verdict = report["verdict"]
    want = "PSD" if job.expect == EXIT_OK else "NotPSD"
    if verdict["outcome"] != want or verdict["kind"] != "exact":
        return f"verdict {verdict['outcome']} ({verdict['kind']}), expected exact {want}"
    job.stats["cert_bytes"] = job.out.stat().st_size
    return None


def _check_replay(values: dict, w: Window):
    """The certificate verified, against the Gram matrix of the table."""
    def check(job: Job, code: int) -> str | None:
        if not job.stats.pop("verified"):
            return "certificate does not replay through PsdVerdict.verify"
        if job.stats.pop("gram") != gram_from_table(values, w):
            return "Gram matrix differs from the independent moment table"
        return None
    return check


def _check_feasibility(fixed: dict, pole: int, must_converge: bool):
    def check(job: Job, code: int) -> str | None:
        report = _load(job.out)
        if report["status"] != "feasible":
            return "must-converge search came back unresolved" if must_converge else None
        # Audit the completion: pinned values kept, Gram matrix PSD.
        values = {(tuple(e["exp"]), int(e["pole_order"])): float(e["value"])
                  for e in report["functional"]["entries"]}
        scale = max(abs(float(v)) for v in fixed.values())
        worst = max(abs(values[k] - float(v)) for k, v in fixed.items())
        if worst > 1e-6 * scale:
            return f"completion misses a pinned value by {worst:.3e}"
        degree = report["config"]["degree"]
        d = len(next(iter(fixed))[0])
        exps = [e for t in range(2 * pole, degree + 1) for e in exponents(d, t)]
        gram = np.array([[values[(tuple(x + y for x, y in zip(a, b)), 2 * pole)]
                          for b in exps] for a in exps])
        smallest = float(np.linalg.eigvalsh(gram)[0])
        if smallest < -1e-6 * float(np.abs(gram).max()):
            return f"completion Gram matrix has eigenvalue {smallest:.3e}"
        return None
    return check


def _check_recovered(values: dict, atoms: list):
    def check(job: Job, code: int) -> str | None:
        report = _load(job.out)
        got = [(float(a["weight"]), [float(c) for c in a["point"]])
               for a in report["measure"]["atoms"]]
        if len(got) != len(atoms):
            return f"recovered {len(got)} atoms, expected {len(atoms)}"
        scale = max(1.0, max(abs(float(v)) for v in values.values()))
        for (gamma, _), value in values.items():
            est = sum(w * math.prod(c ** e for c, e in zip(p, gamma)) for w, p in got)
            if abs(est - float(value)) > 1e-6 * scale:
                return f"recovered measure misses moment {gamma} by {abs(est - float(value)):.3e}"
        return None
    return check


def _check_refused(job: Job, code: int) -> str | None:
    status = _load(job.out)["status"]
    return None if status == "indeterminate-rank" else f"twin atoms gave status {status}"


def _check_passed(job: Job, code: int) -> str | None:
    return None if _load(job.out)["passed"] is True else "pipeline did not pass"


def _check_bisgaard(atoms: list):
    def check(job: Job, code: int) -> str | None:
        report = _load(job.out)
        if report["passed"] is not True:
            return f"bisgaard did not pass: {report.get('recovery_error')}"
        got = report["recovered_atoms"]
        if len(got) != len(atoms):
            return f"recovered {len(got)} atoms, expected {len(atoms)}"
        for weight, z in atoms:
            err = min(abs(float(weight) - rw) + abs(complex(float(z[0]), float(z[1]))
                                                     - complex(re, im))
                      for rw, re, im in got)
            if err > 1e-6:
                return f"bisgaard recovery misses atom {z} by {err:.3e}"
        return None
    return check


def _check_fibres(side: int, samples: int):
    def check(job: Job, code: int) -> str | None:
        report = _load(job.out)
        bucketed = sum(b["count"] for b in report["buckets"])
        if not report["disjoint"] or len(report["buckets"]) != side or bucketed != samples:
            return (f"fibres: disjoint={report['disjoint']}, {len(report['buckets'])} "
                    f"buckets (expected {side}), {bucketed} of {samples} samples bucketed")
        return None
    return check
