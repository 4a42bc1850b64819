"""Seeded random inputs and ready-made example scenarios.

Everything here is driven by an explicit ``random.Random`` seed so tests
and the command line produce reproducible data.  Sphere directions come
from rational parametrizations (so they are exactly unit length), and the
measure generators favour 3-4 atoms in general position, which keeps the
degree-2 moment matrices nondegenerate for the feasibility searches.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from .fibres import FibreSpec, Preorder
from .functionals.core import DiscreteMeasure
from .polyalg import Poly
from .semigroups import SgDomain, box_window, sequence_from_measure
from . import serialize


def random_fraction(rng: random.Random, low: int = -9, high: int = 9,
                    max_den: int = 9, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(low, high), rng.randint(1, max_den))
        if value != 0 or not nonzero:
            return value


def random_point(rng: random.Random, dim: int, nonzero: bool = True) -> tuple[Fraction, ...]:
    while True:
        point = tuple(random_fraction(rng) for _ in range(dim))
        if not nonzero or any(c != 0 for c in point):
            return point


def rational_direction(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    """An exactly-unit vector from the rational parametrization of the sphere.

    dim = 1 gives +-1; dim = 2 uses the tangent half-angle map; higher
    dimensions compose the stereographic-style map (2u, 1 - |u|^2)/(1 + |u|^2)
    from a rational point u of dimension dim - 1.
    """
    if dim == 1:
        return (Fraction(rng.choice((-1, 1))),)
    u = [random_fraction(rng, -5, 5, 5) for _ in range(dim - 1)]
    norm2 = sum(c * c for c in u)
    denom = 1 + norm2
    direction = tuple(2 * c / denom for c in u) + ((1 - norm2) / denom,)
    mixed = list(direction)
    rng.shuffle(mixed)
    return tuple(mixed)


def random_measure(rng: random.Random, dim: int, max_atoms: int = 4,
                   min_atoms: int = 1, allow_origin: bool = True,
                   allow_sphere: bool = False) -> DiscreteMeasure:
    atoms = []
    seen = set()
    for _ in range(rng.randint(min_atoms, max_atoms)):
        point = random_point(rng, dim)
        if point in seen:
            continue
        seen.add(point)
        atoms.append((random_fraction(rng, 1, 8, 4), point))
    origin = random_fraction(rng, 1, 4, 4) if allow_origin and rng.random() < 0.5 \
        else Fraction(0)
    sphere = []
    if allow_sphere and rng.random() < 0.5:
        sphere.append((random_fraction(rng, 1, 4, 4), rational_direction(rng, dim)))
    return DiscreteMeasure(dim, tuple(atoms), origin, tuple(sphere))


# -- scenario writers --------------------------------------------------------


def write_strip_scenario(out_dir: Path, seed: int = 0) -> dict[str, str]:
    """Strip preorder {x1, 1 - x1}, bounded element x1, and a sample grid."""
    del seed  # the grid is deterministic
    x1 = Poly.variable(2, 0)
    preorder = Preorder(2, (x1, Poly.constant(2, 1) - x1))
    spec = FibreSpec((x1,), (Fraction(1, 2),))
    points = [(Fraction(i, 20), Fraction(j, 2) - 5)
              for i in range(21) for j in range(21)]
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "preorder": out_dir / "strip_preorder.json",
        "fibre_spec": out_dir / "strip_fibre_spec.json",
        "samples": out_dir / "strip_samples.json",
    }
    serialize.dump_json(serialize.preorder_to_dict(preorder), paths["preorder"])
    serialize.dump_json(serialize.fibre_spec_to_dict(spec), paths["fibre_spec"])
    serialize.dump_json(serialize.samples_to_dict(2, points), paths["samples"])
    return {name: str(path) for name, path in paths.items()}


def write_bisgaard_two_atoms_scenario(out_dir: Path, seed: int = 0) -> dict[str, str]:
    """Laurent moment data of 2*delta_{z=1} + delta_{z=-2i} on the box-6 window."""
    del seed
    measure = DiscreteMeasure(2, ((Fraction(2), (1, 0)), (Fraction(1), (0, -2))))
    seq = sequence_from_measure(measure, box_window(6, SgDomain.Z2))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "bisgaard_two_atoms.json"
    serialize.dump_json(serialize.sequence_to_dict(seq), path)
    return {"sequence": str(path)}


def write_two_atoms_origin_scenario(out_dir: Path, seed: int = 0) -> dict[str, str]:
    """A small plane measure with origin mass, for the extension commands."""
    del seed
    measure = DiscreteMeasure(
        2, ((Fraction(1), (Fraction(1), Fraction(0))),
            (Fraction(1), (Fraction(0), Fraction(1)))),
        Fraction(1, 2), ())
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "two_atoms_origin.json"
    serialize.dump_json(serialize.measure_to_dict(measure), path)
    return {"measure": str(path)}


def write_random_measure_scenario(out_dir: Path, seed: int = 0) -> dict[str, str]:
    """A seeded random plane measure, as used by the acceptance runs."""
    rng = random.Random(seed)
    measure = random_measure(rng, 2, max_atoms=4, min_atoms=3)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"random_measure_seed{seed}.json"
    serialize.dump_json(serialize.measure_to_dict(measure), path)
    return {"measure": str(path)}


SCENARIOS = {
    "strip": write_strip_scenario,
    "bisgaard-two-atoms": write_bisgaard_two_atoms_scenario,
    "two-atoms-origin": write_two_atoms_origin_scenario,
    "random-measure": write_random_measure_scenario,
}
