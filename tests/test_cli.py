from __future__ import annotations

import contextlib
import copy
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentext
from momentext import semigroups, serialize
from momentext.cli import _refuse_unstored_window, build_parser, main
from momentext.extalg import Mode, truncated_basis
from momentext.functionals.core import (DiscreteMeasure, DomainOverflowError,
                                        LinearFunctional, SCALAR_EXACT, SCALAR_FLOAT,
                                        _moment_table, gram_matrix, moments_of_measure,
                                        polynomial_moments)
from momentext.functionals.recovery import IndeterminateRankError, RecoveryFailedError
from momentext.scenarios import SCENARIOS
from momentext.semigroups import SgDomain, box_window, sequence_from_measure


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


def test_nplus_extension_refuses_an_empty_window(tmp_path, capsys):
    measure = write_measure(tmp_path / "m.json", [(Fraction(1), (Fraction(1), Fraction(1)))])
    mu = DiscreteMeasure(2, ((Fraction(1), (1, 1)),))
    sequence = str(tmp_path / "n02.json")
    serialize.dump_json(serialize.sequence_to_dict(
        sequence_from_measure(mu, box_window(2, SgDomain.N02))), sequence)
    report = tmp_path / "report.json"
    for box in ("-1", "-2"):
        for given in ([], ["--sequence", sequence]):
            code, out, err = run(capsys, "semigroup", "--pipeline", "nplus-extension",
                                 "--measure", measure, "--box", box, *given,
                                 "--out", str(report))
            assert (code, out, err) == (2, "", "error: window must be nonempty\n"), given
            assert not report.exists()


def test_nplus_cross_path_mismatch_is_a_negative_verdict(tmp_path, capsys, monkeypatch):
    measure = write_measure(tmp_path / "m.json", [(Fraction(1), (Fraction(1), Fraction(1)))])
    translate = semigroups.sg_to_functions

    def off_at_one_key(u):  # Re z read as 2 Re z: L gives 2, the sequence 1
        re, im = translate(u)
        return (re + re, im) if (u.m, u.n) == (1, 0) else (re, im)

    monkeypatch.setattr(semigroups, "sg_to_functions", off_at_one_key)
    code, out, err = run(capsys, "semigroup", "--pipeline", "nplus-extension",
                         "--measure", measure, "--box", "1")
    assert code == 1
    report = json.loads(out)
    assert (report["restriction_ok"], report["psd"]["outcome"]) == (True, "PSD")
    assert (report["cross_path_ok"], report["cross_path_mismatches"]) == (False, [[1, 0]])
    assert err == "extension audit: restriction True, psd PSD, cross-path False\n"


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


def test_bisgaard_undecided_recovery_is_unresolved(tmp_path, capsys):
    # 2*delta_1 + delta_(-2i) on the box-1 window: the moment matrix is PSD but
    # the window is too small to recover atoms, which decides nothing
    mu = DiscreteMeasure(2, ((Fraction(2), (1, 0)), (Fraction(1), (0, -2))))
    path = tmp_path / "sequence.json"
    serialize.dump_json(serialize.sequence_to_dict(
        sequence_from_measure(mu, box_window(1, SgDomain.Z2))), path)
    code, out, err = run(capsys, "semigroup", "--pipeline", "bisgaard", "--sequence", str(path))
    assert code == 3
    report = json.loads(out)
    assert report["psd"]["outcome"] == "PSD" and report["passed"] is False
    assert report["recovery_error"] == "window too small for recovery"
    assert "recovery_unresolved" not in report
    assert err == "laurent positivity: FAIL (window too small for recovery)\n"


@pytest.mark.parametrize("error,code", [
    (IndeterminateRankError("rank undecided", [1e-4], (1e-5, 1e-3)), 3),
    (RecoveryFailedError("atoms miss", 1.0), 1)])
def test_bisgaard_recovery_errors_keep_their_exit_codes(tmp_path, capsys, monkeypatch,
                                                        error, code):
    run(capsys, "gen-examples", "--scenario", "bisgaard-two-atoms", "--dir", str(tmp_path))

    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(semigroups, "recover_atoms", fail)
    assert run(capsys, "semigroup", "--pipeline", "bisgaard",
               "--sequence", str(tmp_path / "bisgaard_two_atoms.json"))[0] == code


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
    for moments, message in [("12345", "must be a JSON array"),
                             ([1.0, 0, 1], "not an exact rational")]:
        path.write_text(json.dumps({"moments": moments}))
        code, out, err = run(capsys, "psd-check", "--univariate", str(path))
        assert code == 2 and out == "" and message in err


def test_non_list_exponent_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "functional.json"
    path.write_text(json.dumps({"nvars": 1, "mode": "Aplus", "scalar_kind": "exact_rational",
                                "entries": [{"exp": 5, "pole_order": 0, "value": "1"}]}))
    code, out, err = run(capsys, "psd-check", str(path))
    assert code == 2 and out == "" and "exponent" in err


def test_negative_exponent_is_an_input_error(tmp_path, capsys):
    entries = [{"exp": list(g), "pole_order": 0, "value": v}
               for g, v in [((0, 0), "1"), ((1, 0), "0"), ((0, 1), "0"),
                            ((2, 0), "1"), ((1, 1), "0"), ((0, 2), "1")]]
    entries.append({"exp": [-1, 1], "pole_order": 0, "value": "5"})
    path = tmp_path / "functional.json"
    path.write_text(json.dumps({"nvars": 2, "mode": "Aplus", "scalar_kind": "exact_rational",
                                "entries": entries}))
    code, out, err = run(capsys, "psd-check", str(path), "-D", "1")
    assert code == 2 and out == "" and "negative" in err


def d3_wide_functional() -> LinearFunctional:
    """A measure's moments on the (2, 5) window in d = 3 (1230 keys)."""
    F = Fraction
    mu = DiscreteMeasure(3, atoms=(
        (F(1, 2), (F(1), F(-2, 3), F(1, 3))),
        (F(2), (F(-1), F(0), F(2))),
        (F(3, 4), (F(1, 2), F(1), F(-1))),
        (F(1), (F(2), F(1, 3), F(1, 2)))), origin_mass=F(1, 4))
    return moments_of_measure(mu, truncated_basis(2, 5, 3, Mode.APLUS))


def test_psd_check_refuses_a_window_beyond_the_stored_keys(tmp_path, capsys):
    L = d3_wide_functional()
    data = serialize.functional_to_dict(L)
    path = tmp_path / "inflated.json"
    # keys stop at degree 10, so the default window (pole 2, degree 12) of
    # degree_max 24 reads past them; a window sized from degree_max 200
    # would have 176851 basis elements
    serialize.dump_json({**data, "degree_max": 24}, path)
    code, out, err = run(capsys, "psd-check", str(path))
    assert code == 2 and out == ""
    assert err == ("error: window (pole 2, degree 12) reads keys up to pole 4 and "
                   "degree 24, but the stored keys stop at pole 4 and degree 10\n")
    for flags in (["-M", "3", "-D", "6"], ["-M", "0", "-D", "6"]):
        code, out, err = run(capsys, "psd-check", str(path), *flags)
        assert code == 2 and "reads keys up to" in err
    code, out, _ = run(capsys, "psd-check", str(path), "-M", "1", "-D", "5")
    assert code == 0 and json.loads(out)["basis_size"] == 52
    serialize.dump_json({**data, "degree_max": -7}, path)
    code, out, err = run(capsys, "psd-check", str(path))
    assert (code, out) == (2, "") and "declared degree_max -7 is negative" in err
    # one variable: product keys reduce, so the corner 1/|x|^4 of the default
    # Laurent window (pole 1, degree 2) is read past the stored pole 0
    line = LinearFunctional(1, Mode.LAURENT, SCALAR_EXACT,
                            {((k,), 0): Fraction(1, k + 1) for k in range(5)})
    serialize.dump_json({**serialize.functional_to_dict(line), "pole_max": 2}, path)
    code, _, err = run(capsys, "psd-check", str(path), "--scalar", "exact")
    assert code == 2 and err == ("error: window (pole 1, degree 2) reads keys up to pole 2 "
                                 "and degree 0, but the stored keys stop at pole 0 and degree 4\n")


def test_exact_psd_check_reads_unstored_classes_through_their_lifts(tmp_path, capsys):
    """With pole 2 dropped, every Gram class of the Laurent (1, 3) window in
    two variables is read by its lift, and the verdict is the full table's."""
    mu = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(1), Fraction(2))),
                                   (Fraction(1, 2), (Fraction(-1), Fraction(1, 3)))))
    full = _moment_table(mu, 3, 8, Mode.LAURENT)
    reports = []
    for values in (full, {key: v for key, v in full.items() if key[1] != 2}):
        path = tmp_path / f"L{len(reports)}.json"
        serialize.dump_json(serialize.functional_to_dict(
            LinearFunctional(2, Mode.LAURENT, SCALAR_EXACT, values)), path)
        code, out, _ = run(capsys, "psd-check", str(path), "-M", "1", "-D", "3")
        reports.append((code, {k: v for k, v in json.loads(out).items() if k != "input"}))
    assert reports[0] == reports[1] and reports[0][0] == 0


def gram_outcome(L, pole: int, degree: int):
    """What the window's Gram matrix comes to without the refusal."""
    try:
        basis = truncated_basis(pole, degree, L.nvars, L.mode)
        gram_matrix(L, basis)
    except (ValueError, DomainOverflowError) as err:
        return type(err)
    return "built"


@settings(max_examples=200, deadline=None)
@given(laurent=st.booleans(), data=st.data())
def test_one_variable_windows_are_refused_only_where_the_gram_matrix_fails(laurent, data):
    """In one variable the refusal bounds the window by the reduced corner
    keys of its Gram matrix, so it refuses only windows whose Gram matrix
    would end in DomainOverflowError; the rest behave as they did."""
    mode = Mode.LAURENT if laurent else Mode.APLUS
    candidates = [((g,), m) for m in range(4) for g in range(7) if laurent or g >= 2 * m]
    keys = data.draw(st.lists(st.sampled_from(candidates), unique=True, max_size=12), label="keys")
    L = LinearFunctional(1, mode, SCALAR_EXACT,
                         {key: Fraction(1, 1 + sum(key[0]) + key[1]) for key in keys})
    pole, degree = data.draw(st.integers(-1, 3), label="pole"), data.draw(st.integers(-1, 8),
                                                                        label="degree")
    try:
        _refuse_unstored_window(L, pole, degree)
    except ValueError as err:
        assert str(err).startswith(f"window (pole {pole}, degree {degree}) reads keys up to")
        assert gram_outcome(L, pole, degree) is DomainOverflowError


def test_one_variable_refusal_covers_both_corners():
    line = {((k,), 0): Fraction(1, k + 1) for k in range(5)}
    aplus = LinearFunctional(1, Mode.APLUS, SCALAR_EXACT, line)
    poles = {((g,), m): Fraction(1, 2 + g + m) for g in (0, 1) for m in (1, 2)}
    laurent = LinearFunctional(1, Mode.LAURENT, SCALAR_EXACT, {**line, **poles})
    for L, pole, degree in ((aplus, 0, 2), (aplus, 3, 8), (laurent, 1, 4), (laurent, 0, 2)):
        _refuse_unstored_window(L, pole, degree)  # the corners are stored
        assert gram_outcome(L, pole, degree) == "built"
    for L, pole, degree in ((aplus, 0, 3), (aplus, 2, 7), (laurent, 2, 4), (laurent, 1, 5)):
        with pytest.raises(ValueError, match="reads keys up to"):
            _refuse_unstored_window(L, pole, degree)
        assert gram_outcome(L, pole, degree) is DomainOverflowError


def test_the_parser_is_built_once(monkeypatch, capsys, tmp_path):
    from momentext import cli
    cli._parser.cache_clear()
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    hankel = tmp_path / "hankel.json"
    serialize.dump_json({"moments": ["2", "-1", "5"]}, hankel)
    for _ in range(3):
        assert run(capsys, "psd-check", str(hankel), "--univariate")[0] == 0
    assert len(built) == 1


def loaded_modules(code: str) -> list[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(Path(momentext.__file__).parents[1]))
    probe = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\n"
                            "print('\\n'.join(sorted(sys.modules)))"],
                           capture_output=True, text=True, env=env, timeout=60)
    assert probe.returncode == 0, probe.stderr
    return probe.stdout.split()


def test_importing_the_package_leaves_numpy_unloaded():
    # numpy is imported inside the float paths, so exact commands never pay for
    # it; no command starts a process pool; and the package and the CLI load
    # only themselves, the rest comes with the subcommand that runs it
    heavy = {"numpy", "multiprocessing", "concurrent.futures.process"}
    for module, own in [("momentext", {"momentext"}),
                        ("momentext.cli", {"momentext", "momentext.cli",
                                           "momentext.functionals",
                                           "momentext.functionals.errors"})]:
        loaded = loaded_modules(f"import {module}")
        assert not heavy & set(loaded), module
        assert {m for m in loaded if m.split(".")[0] == "momentext"} == own


def test_exact_subcommands_load_only_their_layers(tmp_path):
    measure = write_measure(tmp_path / "measure.json",
                            [(Fraction(1), (Fraction(1), Fraction(2)))], Fraction(1, 3))
    functional = tmp_path / "L.json"
    loaded = loaded_modules(
        "from momentext.cli import main\n"
        f"assert main(['extend', {measure!r}, '-M', '1', '-D', '2', "
        f"'--out', {str(functional)!r}]) == 0\n"
        f"assert main(['psd-check', {str(functional)!r}, "
        f"'--out', {str(tmp_path / 'report.json')!r}]) == 0")
    assert "momentext.functionals.psd" in loaded
    assert not {"numpy", "momentext.semigroups", "momentext.fibres",
                "momentext.functionals.feasibility", "momentext.functionals.recovery",
                "momentext.scenarios"} & set(loaded)


def test_extend_and_recovery_leave_the_psd_layer_unloaded(tmp_path):
    # the certificate schema sits in serialize, which imports the psd layer
    # only when a verdict is written
    measure = write_measure(tmp_path / "measure.json",
                            [(Fraction(1), (Fraction(1), Fraction(2))),
                             (Fraction(1, 2), (Fraction(-1), Fraction(1, 3)))])
    functional = str(tmp_path / "L.json")
    loaded = loaded_modules(
        "from momentext.cli import main\n"
        f"assert main(['extend', {measure!r}, '-M', '0', '-D', '2', "
        f"'--out', {functional!r}]) == 0\n"
        f"assert main(['recover-atoms', {functional!r}, "
        f"'--out', {str(tmp_path / 'report.json')!r}]) == 0")
    assert "momentext.functionals.recovery" in loaded
    assert "momentext.functionals.psd" not in loaded


def test_cli_leaves_report_text_and_certificate_schema_to_serialize():
    source = Path(momentext.cli.__file__).read_text(encoding="utf-8")
    assert "_ZERO" not in source and "_ONE" not in source
    assert "json.dump" not in source


def test_cli_reports_are_plain_and_never_reach_json_dumps(tmp_path, capsys, monkeypatch):
    """Every subcommand, exact and float, to stdout and to --out: ``json_text``
    writes each report itself and never hands it to ``json.dumps``."""
    dumps, fallbacks = json.dumps, []

    def dumps_outside_json_text(*args, **kwargs):
        if sys._getframe(1).f_code is serialize.json_text.__code__:
            fallbacks.append(args[0])
            raise AssertionError("json_text handed a report to json.dumps")
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps_outside_json_text)
    files = {}
    for scenario in sorted(SCENARIOS):
        for out in ([], ["--out", str(tmp_path / f"{scenario}.json")]):
            code, text, _ = run(capsys, "gen-examples", "--scenario", scenario,
                                "--dir", str(tmp_path), *out)
            assert code == 0
            if not out:
                files[scenario] = json.loads(text)["files"]
    origin, strip = files["two-atoms-origin"]["measure"], files["strip"]
    plain = write_measure(tmp_path / "plain.json", [(Fraction(1), (Fraction(1), Fraction(1))),
                                                    (Fraction(1, 2), (Fraction(2), Fraction(-1)))])
    moments = str(tmp_path / "moments.json")
    serialize.dump_json({"moments": ["2", "-1", "5", "-7", "17"]}, moments)
    mu = DiscreteMeasure(2, ((Fraction(1), (1, 1)), (Fraction(1, 2), (2, -1))))
    sequence = str(tmp_path / "n02.json")
    serialize.dump_json(serialize.sequence_to_dict(
        sequence_from_measure(mu, box_window(2, SgDomain.N02))), sequence)
    wide, small = str(tmp_path / "L.json"), str(tmp_path / "L01.json")
    jobs = [
        ("extend", origin, "-M", "1", "-D", "2"),
        ("extend", plain, "-M", "1", "-D", "2", "--mode", "laurent"),
        ("psd-check", wide),
        ("psd-check", wide, "--scalar", "float"),
        ("psd-check", moments, "--univariate"),
        ("recover-atoms", wide),
        ("feasibility", small, "-M", "0", "-D", "2", "--max-iters", "40"),
        ("fibres", "--preorder", strip["preorder"], "--fibre-spec", strip["fibre_spec"],
         "--samples", strip["samples"]),
        ("semigroup", "--pipeline", "nplus-extension", "--measure", plain, "--box", "2"),
        ("semigroup", "--pipeline", "nplus-extension", "--measure", plain,
         "--sequence", sequence, "--box", "2"),
        ("semigroup", "--pipeline", "bisgaard",
         "--sequence", files["bisgaard-two-atoms"]["sequence"]),
        ("semigroup", "--pipeline", "laurent-relations", "--seed", "1"),
    ]
    assert run(capsys, "extend", origin, "-M", "1", "-D", "2", "--out", wide)[0] == 0
    assert run(capsys, "extend", origin, "-M", "0", "-D", "1", "--out", small)[0] == 0
    for argv in jobs:
        report = tmp_path / "report.json"
        for out in ([], ["--out", str(report)]):
            code, text, _ = run(capsys, *argv, *out)
            assert code == 0, argv
            written = report.read_text(encoding="utf-8") if out else text
            assert written == dumps(json.loads(written), indent=2, sort_keys=True) + "\n"
    assert fallbacks == []


def test_nplus_extension_with_a_sequence_builds_no_quarter_plane_sequence(
        tmp_path, capsys, monkeypatch):
    measure = write_measure(tmp_path / "m.json", [(Fraction(1), (Fraction(1), Fraction(1)))])
    mu = DiscreteMeasure(2, ((Fraction(1), (1, 1)),))
    sequence = str(tmp_path / "n02.json")
    serialize.dump_json(serialize.sequence_to_dict(
        sequence_from_measure(mu, box_window(2, SgDomain.N02))), sequence)
    domains = []

    def recording(measure, window):
        domains.append(window[0].domain)
        return sequence_from_measure(measure, window)

    monkeypatch.setattr(semigroups, "sequence_from_measure", recording)
    argv = ["semigroup", "--pipeline", "nplus-extension", "--measure", measure, "--box", "2"]
    assert run(capsys, *argv)[0] == 0
    assert domains == [SgDomain.N02, SgDomain.NPLUS]
    domains.clear()
    assert run(capsys, *argv, "--sequence", sequence)[0] == 0
    assert domains == [SgDomain.NPLUS]


def test_nplus_extension_refuses_origin_mass_first(tmp_path, capsys, monkeypatch):
    """Mass at the origin is one input error on every box, with or without
    given quarter-plane data, before the extension does any work."""
    code, out, _ = run(capsys, "gen-examples", "--scenario", "two-atoms-origin",
                       "--dir", str(tmp_path))
    measure = json.loads(out)["files"]["measure"]
    sequence = str(tmp_path / "n02.json")
    serialize.dump_json(serialize.sequence_to_dict(sequence_from_measure(
        serialize.measure_from_dict(serialize.load_json(measure)),
        box_window(3, SgDomain.N02))), sequence)

    def no_work(*args):
        raise AssertionError("the extension ran before the origin-mass refusal")

    for name in ("_embedded_window", "psd_check_cleared", "extend_from_measure"):
        monkeypatch.setattr(semigroups, name, no_work)
    for box in range(4):
        for given_data in ([], ["--sequence", sequence]):
            assert run(capsys, "semigroup", "--pipeline", "nplus-extension",
                       "--measure", measure, "--box", str(box), *given_data) == \
                (2, "", "error: atoms at 0 cannot feed the punctured-plane extension\n")


@pytest.mark.parametrize("package",["momentext", "momentext.functionals"])
def test_lazy_exports_are_the_defining_modules_objects(package):
    pkg = importlib.import_module(package)
    assert len(set(pkg.__all__)) == len(pkg.__all__)
    for name in pkg.__all__:
        module = importlib.import_module(f"{package}.{pkg._EXPORTS[name]}")
        value = getattr(pkg, name)
        assert value is vars(module)[name], name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module.__name__, name
    star: dict = {}
    exec(f"from {package} import *", star)
    assert all(star[name] is getattr(pkg, name) for name in pkg.__all__)
    assert set(pkg.__all__) <= set(dir(pkg))
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name  # noqa: B018
    assert not hasattr(pkg, "_trusted")


def test_recovery_errors_keep_their_identity_and_exit_codes(tmp_path, capsys, monkeypatch):
    from momentext.functionals import errors, feasibility, recovery
    assert (recovery.IndeterminateRankError, recovery.RecoveryFailedError) == \
        (errors.IndeterminateRankError, errors.RecoveryFailedError)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(float_functional(1.0)))
    for error, code, text in [
            (IndeterminateRankError("rank undecided", [1e-4], (1e-5, 1e-3)), 3,
             "indeterminate: rank undecided\n"),
            (RecoveryFailedError("atoms miss", 1.0), 1, "recovery failed: atoms miss\n")]:
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(feasibility, "extension_feasibility", fail)
        assert run(capsys, "feasibility", str(path), "-M", "0", "-D", "2") == (code, "", text)


def float_functional(value, degree=2):
    """A float L(1) = value on the line, with L(x) = 0 and L(x^2) = 1 up to degree."""
    values = [value, 0.0, 1.0][:degree + 1]
    return {"nvars": 1, "mode": "Aplus", "scalar_kind": "float",
            "entries": [{"exp": [k], "pole_order": 0, "value": v} for k, v in enumerate(values)]}


# Each of these once became a verdict, a traceback or an unresolved search.
@pytest.mark.parametrize("command,data", [
    pytest.param(["semigroup", "--pipeline", "nplus-extension", "--box", "1",
                  "--measure", "{measure}", "--sequence", "{input}"],
                 {"domain": "N02", "entries": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]},
                 id="float-sequence"),
    pytest.param(["psd-check", "--univariate", "{input}"], {"moments": [1.0, 0, 1]},
                 id="float-moment"),
    pytest.param(["psd-check", "{input}"], float_functional(float("nan")), id="nan"),
    pytest.param(["psd-check", "{input}"], float_functional(float("inf")), id="infinity"),
    pytest.param(["psd-check", "{input}"], float_functional("1e400"), id="overflow"),
    pytest.param(["feasibility", "{input}", "-M", "0", "-D", "0"],
                 float_functional(float("nan"), degree=0), id="nan-feasibility"),
])
def test_malformed_numbers_are_input_errors(tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    measure = write_measure(tmp_path / "measure.json", [(Fraction(1), (Fraction(1), Fraction(2)))])
    env = dict(os.environ, PYTHONPATH=str(Path(momentext.__file__).parents[1]))
    argv = [arg.format(input=path, measure=measure) for arg in command]
    proc = subprocess.run([sys.executable, "-m", "momentext", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


# Each of these flags once became a verdict or an unresolved search.
@pytest.mark.parametrize("command,flag", [
    pytest.param(["psd-check", "{input}", "--tol", "nan"], "--tol", id="psd-tol-nan"),
    pytest.param(["psd-check", "{input}", "--tol", "-1"], "--tol", id="psd-tol-negative"),
    pytest.param(["feasibility", "{input}", "-M", "0", "-D", "2", "--tol", "-1"], "--tol",
                 id="feasibility-tol-negative"),
    pytest.param(["feasibility", "{input}", "-M", "0", "-D", "2", "--max-iters", "0"],
                 "--max-iters", id="max-iters-zero"),
    pytest.param(["feasibility", "{input}", "-M", "0", "-D", "2", "--max-iters", "-5"],
                 "--max-iters", id="max-iters-negative"),
    pytest.param(["recover-atoms", "{input}", "--rank-tol", "nan"], "--rank-tol",
                 id="rank-tol-nan"),
    pytest.param(["recover-atoms", "{input}", "--residual-tol", "-1"], "--residual-tol",
                 id="residual-tol-negative"),
    pytest.param(["fibres", "--preorder", "{input}", "--fibre-spec", "{input}",
                  "--samples", "{input}", "--jobs", "0"], "--jobs", id="jobs-zero"),
])
def test_out_of_range_flags_are_usage_errors(tmp_path, capsys, command, flag):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(float_functional(1.0)))
    with pytest.raises(SystemExit) as stop:
        main([arg.format(input=path) for arg in command])
    captured = capsys.readouterr()
    assert stop.value.code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"error: argument {flag}: " in errors[0], errors


def test_in_range_flags_keep_their_values():
    args = build_parser().parse_args(["feasibility", "f.json", "-M", "0", "-D", "2",
                                      "--tol", "0", "--max-iters", "1"])
    assert (args.tol, args.max_iters) == (0.0, 1)
    args = build_parser().parse_args(["recover-atoms", "f.json", "--rank-tol", "1e-15"])
    assert (args.rank_tol, args.residual_tol) == (1e-15, 1e-8)


def test_a_missing_field_is_named(tmp_path, capsys):
    data = float_functional(1.0)
    del data["scalar_kind"]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "psd-check", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: functional has no 'scalar_kind' field"]

    preorder = {"dim": 1, "generators": [{"nvars": 1, "terms": [{"exp": [1]}]}]}
    path.write_text(json.dumps(preorder))
    code, _, err = run(capsys, "fibres", "--preorder", str(path), "--fibre-spec", str(path),
                       "--samples", str(path))
    assert code == 2
    assert err.splitlines() == ["error: polynomial term has no 'coeff' field"]


def wide_document(tmp_path, drop=(), **fields) -> str:
    """The d=3 (2, 5)-window moments as a file, minus the keys in ``drop``
    and with the top-level ``fields`` replaced."""
    data = serialize.functional_to_dict(d3_wide_functional())
    data["entries"] = [e for e in data["entries"] if (e["exp"], e["pole_order"]) not in drop]
    path = tmp_path / "wide.json"
    serialize.dump_json({**data, **fields}, path)
    return str(path)


def run_limited(argv) -> subprocess.CompletedProcess:
    """``python -m momentext argv`` in 1.5 GB of address space and 10 s."""
    limit = 1536 * 2 ** 20
    env = dict(os.environ, PYTHONPATH=str(Path(momentext.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "momentext", *argv],
                          capture_output=True, text=True, env=env, timeout=10,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                (limit, limit)))


NEGATIVE_EXPONENT = {"nvars": 2, "mode": "Aplus", "scalar_kind": "exact_rational",
                     "entries": [{"exp": [1, 0], "pole_order": 0, "value": "0"},
                                 {"exp": [-1, 1], "pole_order": 0, "value": "5"}]}


# Each of these once hung, ran out of memory or gave a bare KeyError text.
@pytest.mark.parametrize("document,command,message", [
    pytest.param(lambda tmp: wide_document(tmp, drop=[([10, 0, 0], 4)], pole_max=10 ** 6),
                 ["psd-check", "{input}", "-M", "2", "-D", "5"],
                 "error: 'functional has no value for x^(10, 0, 0) / ||x||^8'",
                 id="declared-pole-past-the-stored-keys"),
    pytest.param(lambda tmp: wide_document(tmp, degree_max=200),
                 ["recover-atoms", "{input}", "--degree", "100"],
                 "error: degree 100 reads moments up to degree 200, "
                 "but the stored keys stop at degree 10",
                 id="recovery-degree-past-the-stored-keys"),
    pytest.param(lambda tmp: wide_document(tmp, degree_max=200),
                 ["psd-check", "{input}"],
                 "error: window (pole 2, degree 100) reads keys up to pole 4 and degree 200, "
                 "but the stored keys stop at pole 4 and degree 10",
                 id="declared-degree-past-the-stored-keys"),
    *[pytest.param(lambda tmp, mode=mode: {
                       "nvars": 1, "mode": mode, "scalar_kind": "exact_rational",
                       "degree_max": 40000, "entries": [
                           {"exp": [k], "pole_order": 0, "value": v}
                           for k, v in enumerate(["1", "1/2", "1/3"])]},
                   ["psd-check", "{input}"],
                   "error: window (pole 0, degree 20000) reads keys up to pole 0 and degree "
                   "40000, but the stored keys stop at pole 0 and degree 2",
                   id=f"one-variable-declared-degree-past-the-stored-keys-{mode}")
      for mode in ("Aplus", "Laurent")],
    pytest.param(lambda tmp: {k: v for k, v in float_functional(1.0).items()
                              if k != "scalar_kind"},
                 ["psd-check", "{input}"], "error: functional has no 'scalar_kind' field",
                 id="no-scalar-kind"),
    pytest.param(lambda tmp: NEGATIVE_EXPONENT, ["psd-check", "{input}", "-D", "1"],
                 "error: key exponent (-1, 1) has a negative entry", id="negative-exponent"),
    pytest.param(lambda tmp: {**float_functional(1.0), "scalar_kind": "exact_rational",
                              "entries": [{"exp": [k], "pole_order": 0, "value": v}
                                          for k, v in enumerate(["1e400", "0", "1"])]},
                 ["recover-atoms", "{input}", "--degree", "1"],
                 "error: integer division result too large for a float",
                 id="exact-value-past-float-range"),
])
def test_known_malformed_inputs_exit_2_with_one_error_line(tmp_path, document, command,
                                                           message):
    path = document(tmp_path)
    if isinstance(path, dict):
        serialize.dump_json(path, tmp_path / "input.json")
        path = str(tmp_path / "input.json")
    proc = run_limited([arg.format(input=path) for arg in command])
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.splitlines() == [message]


# A repeated key once kept its last value and went on to a verdict: x^2 as
# "1" then "-5" was NotPSD (exit 1), (0,0) twice a bisgaard FAIL.
@pytest.mark.parametrize("document,command,message", [
    pytest.param({**float_functional(1.0), "scalar_kind": "exact_rational",
                  "entries": [{"exp": [k], "pole_order": 0, "value": v}
                              for k, v in ((0, "1"), (1, "0"), (2, "1"), (2, "-5"))]},
                 ["psd-check", "{input}"],
                 "functional lists the key (exp [2], pole_order 0) more than once",
                 id="repeated-functional-key"),
    pytest.param({"domain": "Z2", "entries": [{"m": 0, "n": 0, "re": "1"},
                                              {"m": 0, "n": 0, "re": "-1"}]},
                 ["semigroup", "--pipeline", "bisgaard", "--sequence", "{input}"],
                 "sequence lists the entry (0,0) more than once", id="repeated-sequence-entry"),
    pytest.param({"dim": 1, "generators": [{"nvars": 1, "terms": [
                     {"exp": [1], "coeff": "1"}, {"exp": [0], "coeff": "1"},
                     {"exp": [1], "coeff": "-2"}]}]},
                 ["fibres", "--preorder", "{input}", "--fibre-spec", "{input}",
                  "--samples", "{input}"],
                 "polynomial lists the exponent [1] more than once", id="repeated-term"),
    pytest.param({"nvars": 2, "mode": "Aplus", "scalar_kind": "float", "entries": [
                     {"exp": [0, 0], "pole_order": 0, "value": 1.0},
                     {"exp": [2, 0], "pole_order": 1, "value": 0.25},
                     {"exp": [0, 2], "pole_order": 1, "value": 0.25}]},
                 ["psd-check", "{input}"],
                 "reduction relation violated at keys [((0, 0), 0)]", id="float-relation"),
    pytest.param(float_functional(1.0), ["psd-check", "{input}", "--scalar", "exact"],
                 "cannot run the exact check on float-valued input", id="exact-on-float"),
    pytest.param(float_functional(1.0), ["semigroup", "--pipeline", "bisgaard"],
                 "--sequence is required for the bisgaard pipeline", id="bisgaard-no-sequence"),
])
def test_input_faults_exit_2_naming_the_fault(tmp_path, capsys, document, command, message):
    path = tmp_path / "input.json"
    serialize.dump_json(document, path)
    assert run(capsys, *[arg.format(input=path) for arg in command]) == \
        (2, "", f"error: {message}\n")


def test_recovery_degree_defaults_to_the_stored_keys(tmp_path):
    # a declared degree_max of 200 once sized a degree-100 moment window
    proc = run_limited(["recover-atoms", wide_document(tmp_path, degree_max=200)])
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["status"], report["config"]["degree"]) == ("recovered", 5)
    assert len(report["measure"]["atoms"]) == 4


# -- fuzzed command lines ------------------------------------------------------------

# The fuzz runs each command on documents with fields dropped or retyped and
# on flag values out of range; every run has to end in an exit code.

# JSON values a mutated field may take: wrong types, NaN and infinities, zero
# denominators, and small integers (wrong dimensions, exponents, keys)
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
                 st.sampled_from([float("nan"), float("inf"), -1.5, "1/0", "0/0", "-3/2",
                                  "x", "1e400", [], {}, [[0]], {"exp": [0]}]))


def flag(valid, bad):
    """A flag value, in range three times in four, else negative, zero, NaN or no number."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(valid if k else bad))


INTS = flag(["0", "1", "2", "3"], ["-5", "-1", "x"])
TOLS = flag(["0", "1e-9", "1e-6"], ["-1", "nan", "inf", "x"])


def json_paths(data, prefix=()):
    yield prefix
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


@st.composite
def mutated(draw, data):
    """``data`` with up to three fields dropped or replaced by junk; half the
    files stay well-formed, so that the commands get past loading."""
    data = copy.deepcopy(data)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        path = draw(st.sampled_from(list(json_paths(data))))
        junk = copy.deepcopy(draw(JUNK))  # JUNK's lists and dicts are shared
        if not path:
            return junk
        node = data
        for key in path[:-1]:
            node = node[key]
        if draw(st.booleans()):
            del node[path[-1]]
        else:
            node[path[-1]] = junk
    return data


COMMANDS = {
    "psd-check": lambda f, d: ["psd-check", f("functional"), "--tol", d(TOLS),
                               *(["-M", d(INTS), "-D", d(INTS)] if d(st.booleans()) else [])],
    "hankel": lambda f, d: ["psd-check", "--univariate", f("moments"), "--tol", d(TOLS)],
    "extend": lambda f, d: ["extend", f("measure"), "-M", d(INTS), "-D", d(INTS),
                            "--mode", d(st.sampled_from(["aplus", "laurent"]))],
    "feasibility": lambda f, d: ["feasibility", f("functional"), "-M", d(INTS), "-D", d(INTS),
                                 "--max-iters", d(INTS), "--tol", d(TOLS)],
    "recover-atoms": lambda f, d: ["recover-atoms", f("functional"), "--degree", d(INTS),
                                   "--rank-tol", d(TOLS), "--residual-tol", d(TOLS)],
    "fibres": lambda f, d: ["fibres", "--preorder", f("preorder"), "--fibre-spec",
                            f("fibre_spec"), "--samples", f("samples"), "--jobs", d(INTS)],
    "nplus": lambda f, d: ["semigroup", "--pipeline", "nplus-extension", "--measure",
                           f("measure"), "--box", d(INTS)],
    "bisgaard": lambda f, d: ["semigroup", "--pipeline", "bisgaard", "--sequence",
                              f("sequence"), *(["--no-recovery"] if d(st.booleans()) else [])],
    "gen-examples": lambda f, d: ["gen-examples", "--scenario",
                                  d(st.sampled_from(sorted(SCENARIOS) + ["nope"])),
                                  "--dir", f("dir")],
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A work directory and one well-formed document of each kind the commands read."""
    work = tmp_path_factory.mktemp("fuzz")
    measure = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(1), Fraction(0))),
                                        (Fraction(2), (Fraction(1, 3), Fraction(-1)))))
    two_atoms = DiscreteMeasure(2, ((Fraction(2), (1, 0)), (Fraction(1), (0, -2))))
    docs = {"functional": serialize.functional_to_dict(polynomial_moments(measure, 2)),
            "measure": serialize.measure_to_dict(measure),
            "moments": {"moments": ["1", "0", "1", "0", "3"]},
            "sequence": serialize.sequence_to_dict(
                sequence_from_measure(two_atoms, box_window(2, SgDomain.Z2)))}
    for kind, path in SCENARIOS["strip"](work).items():
        docs[kind] = json.loads(Path(path).read_text())
    return work, docs


@settings(max_examples=120, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_fuzzed_command_lines_exit_with_a_code(fuzz_inputs, command, data):
    # malformed files and flags must come back as exit codes 0-3 (argparse's
    # usage exit is 2), never as an exception out of main
    work, docs = fuzz_inputs

    def write(kind):
        if kind == "dir":
            return str(work / "examples")
        path = work / f"{kind}.json"
        path.write_text(json.dumps(data.draw(mutated(docs[kind]), label=kind)))
        return str(path)
    argv = COMMANDS[command](write, data.draw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
