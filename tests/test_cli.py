from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import momentext
from momentext import serialize
from momentext.cli import main
from momentext.functionals.core import DiscreteMeasure, polynomial_moments


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_measure(path, atoms, origin=Fraction(0)):
    mu = DiscreteMeasure(2, atoms=tuple(atoms), origin_mass=origin)
    serialize.dump_json(serialize.measure_to_dict(mu), path)
    return str(path)


def test_gen_examples_then_fibres(tmp_path, capsys):
    code, out, err = run(capsys, "gen-examples", "--scenario", "strip",
                         "--dir", str(tmp_path))
    assert code == 0
    files = json.loads(out)["files"]
    assert set(files) == {"preorder", "fibre_spec", "samples"}

    code, out, err = run(capsys, "fibres",
                         "--preorder", files["preorder"],
                         "--fibre-spec", files["fibre_spec"],
                         "--samples", files["samples"],
                         "--out", str(tmp_path / "report.json"))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["disjoint"] is True
    assert len(report["buckets"]) == 21
    assert report["outside"] == []
    assert "disjoint: True" in out

    code, _, _ = run(capsys, "fibres",
                     "--preorder", files["preorder"],
                     "--fibre-spec", files["fibre_spec"],
                     "--samples", files["samples"], "--jobs", "2",
                     "--out", str(tmp_path / "report2.json"))
    assert code == 0
    assert (tmp_path / "report.json").read_bytes() == \
        (tmp_path / "report2.json").read_bytes()


def test_extend_psd_recover_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "gen-examples", "--scenario", "two-atoms-origin",
                       "--dir", str(tmp_path))
    measure_path = json.loads(out)["files"]["measure"]

    functional_path = str(tmp_path / "L.json")
    code, out, _ = run(capsys, "extend", measure_path, "-M", "2", "-D", "6",
                       "--out", functional_path)
    assert code == 0
    assert "stored keys" in out

    code, out, err = run(capsys, "psd-check", functional_path)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["outcome"] == "PSD"
    assert report["verdict"]["kind"] == "exact"
    assert report["basis_size"] == 18
    assert "PSD" in err

    code, out, _ = run(capsys, "recover-atoms", functional_path)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "recovered"
    assert len(report["measure"]["atoms"]) == 2
    assert abs(report["measure"]["origin_mass"] - 0.5) < 1e-8
    assert report["moment_residual"] < 1e-8


def test_psd_check_univariate(tmp_path, capsys):
    good = tmp_path / "good.json"
    serialize.dump_json({"moments": ["2", "-1", "5", "-7", "17"]}, good)
    code, out, _ = run(capsys, "psd-check", str(good), "--univariate")
    assert code == 0
    assert json.loads(out)["verdict"]["outcome"] == "PSD"

    bad = tmp_path / "bad.json"
    serialize.dump_json({"moments": ["1", "0", "-1"]}, bad)
    code, out, _ = run(capsys, "psd-check", str(bad), "--univariate")
    assert code == 1
    verdict = json.loads(out)["verdict"]
    assert verdict["outcome"] == "NotPSD"
    assert verdict["witness_value"].startswith("-")


def test_feasibility_cli(tmp_path, capsys):
    mu = DiscreteMeasure(2, atoms=(
        (Fraction(1), (Fraction(1), Fraction(2))),
        (Fraction(1, 2), (Fraction(-2), Fraction(1))),
        (Fraction(1, 3), (Fraction(1, 2), Fraction(-1)))))
    path = tmp_path / "poly.json"
    serialize.dump_json(serialize.functional_to_dict(polynomial_moments(mu, 2)), path)

    code, out, _ = run(capsys, "feasibility", str(path), "-M", "1", "-D", "4")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "feasible"
    assert report["gap"] < 1e-7
    assert report["fixed_key_residual"] < 1e-7
    assert report["functional"]["scalar_kind"] == "float"

    code, out, err = run(capsys, "feasibility", str(path), "-M", "1", "-D", "4",
                         "--max-iters", "2")
    assert code == 3
    assert json.loads(out)["status"] == "unresolved"
    assert "not an infeasibility proof" in err


def test_semigroup_nplus_cli(tmp_path, capsys):
    measure_path = write_measure(tmp_path / "m.json",
                                 [(Fraction(1), (Fraction(1), Fraction(1))),
                                  (Fraction(1, 2), (Fraction(2), Fraction(-1)))])
    code, out, _ = run(capsys, "semigroup", "--pipeline", "nplus-extension",
                       "--measure", measure_path, "--box", "2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["psd"]["outcome"] == "PSD"

    with_origin = write_measure(tmp_path / "o.json",
                                [(Fraction(1), (Fraction(1), Fraction(1)))],
                                origin=Fraction(1, 2))
    code, _, err = run(capsys, "semigroup", "--pipeline", "nplus-extension",
                       "--measure", with_origin, "--box", "2")
    assert code == 2
    assert "error" in err


def test_semigroup_bisgaard_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "gen-examples", "--scenario", "bisgaard-two-atoms",
                       "--dir", str(tmp_path))
    sequence_path = json.loads(out)["files"]["sequence"]

    code, out, _ = run(capsys, "semigroup", "--pipeline", "bisgaard",
                       "--sequence", sequence_path)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["matrix_box"] == 3
    assert report["recovery_residual"] < 1e-8
    atoms = sorted(report["recovered_atoms"])
    assert atoms[0][0] == pytest.approx(1.0, abs=1e-6)
    assert atoms[0][1:] == pytest.approx([0.0, -2.0], abs=1e-6)
    assert atoms[1][0] == pytest.approx(2.0, abs=1e-6)
    assert atoms[1][1:] == pytest.approx([1.0, 0.0], abs=1e-6)

    code, out, _ = run(capsys, "semigroup", "--pipeline", "bisgaard",
                       "--sequence", sequence_path, "--no-recovery")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True and report["recovered_atoms"] == []


def test_laurent_relations_cli_deterministic(tmp_path, capsys):
    first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    code, _, _ = run(capsys, "semigroup", "--pipeline", "laurent-relations",
                     "--seed", "3", "--out", first)
    assert code == 0
    code, _, _ = run(capsys, "semigroup", "--pipeline", "laurent-relations",
                     "--seed", "3", "--out", second)
    assert code == 0
    a, b = open(first, "rb").read(), open(second, "rb").read()
    assert a == b
    assert json.loads(a)["passed"] is True


def test_recover_atoms_failure_modes(tmp_path, capsys):
    # non-atomic data: Lebesgue moments on [0,1] embedded as a plane measure
    # supported on the x2 = 0 slice fail flatness
    values = {}
    for k in range(7):
        for l in range(7 - k):
            values[((k, l), 0)] = Fraction(1, k + 1) if l == 0 else Fraction(0)
    from momentext.extalg import Mode
    from momentext.functionals.core import (LinearFunctional, SCALAR_EXACT,
                                            SCALAR_FLOAT)
    L = LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, values)
    path = tmp_path / "lebesgue.json"
    serialize.dump_json(serialize.functional_to_dict(L), path)
    code, out, _ = run(capsys, "recover-atoms", str(path), "--degree", "3")
    assert code == 1
    assert json.loads(out)["status"] == "recovery-failed"

    # duplicated atom at sub-float separation: indeterminate rank, exit 3
    base = Fraction(7, 10)
    dup = {}
    for k in range(7):
        for l in range(7 - k):
            dup[((k, l), 0)] = float(base ** k * Fraction(3, 10) ** l) * 2.0
    Ld = LinearFunctional(2, Mode.APLUS, SCALAR_FLOAT, dup)
    dpath = tmp_path / "dup.json"
    serialize.dump_json(serialize.functional_to_dict(Ld), dpath)
    code, out, _ = run(capsys, "recover-atoms", str(dpath), "--degree", "3",
                       "--rank-tol", "1e-15")
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "indeterminate-rank"
    assert report["band"][0] < report["band"][1]


def test_input_error_paths(tmp_path, capsys):
    code, _, err = run(capsys, "gen-examples", "--scenario", "nonsense",
                       "--dir", str(tmp_path))
    assert code == 2 and "unknown scenario" in err

    code, _, err = run(capsys, "psd-check", str(tmp_path / "missing.json"))
    assert code == 2

    code, _, err = run(capsys, "semigroup", "--pipeline", "nplus-extension")
    assert code == 2 and "--measure" in err

    with pytest.raises(SystemExit) as exc:
        main(["semigroup", "--pipeline", "unheard-of"])
    assert exc.value.code == 2


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(momentext.__file__).parents[1]))
    hankel = tmp_path / "hankel.json"
    hankel.write_text(json.dumps({"moments": ["2", "-1", "5", "-7", "17"]}))
    ok = subprocess.run([sys.executable, "-m", "momentext", "psd-check", "--univariate",
                         str(hankel)], capture_output=True, text=True, env=env, timeout=60)
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["verdict"]["outcome"] == "PSD"
    bad = subprocess.run([sys.executable, "-m", "momentext", "psd-check",
                          str(tmp_path / "missing.json")],
                         capture_output=True, text=True, env=env, timeout=60)
    assert bad.returncode == 2 and "error:" in bad.stderr


def test_top_level_list_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, _, err = run(capsys, "extend", str(path), "-M", "1", "-D", "2")
    assert code == 2 and "must be a JSON object" in err


def test_univariate_moment_string_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "moments.json"
    path.write_text(json.dumps({"moments": "12345"}))
    code, out, err = run(capsys, "psd-check", "--univariate", str(path))
    assert code == 2 and out == "" and "must be a JSON array" in err


def test_non_list_exponent_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "functional.json"
    path.write_text(json.dumps({"nvars": 1, "mode": "Aplus", "scalar_kind": "exact_rational",
                                "entries": [{"exp": 5, "pole_order": 0, "value": "1"}]}))
    code, out, err = run(capsys, "psd-check", str(path))
    assert code == 2 and out == "" and "exponent" in err
