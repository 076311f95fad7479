import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import me2ph
from me2ph import DEFAULT_TOL, DeconvParams, FEBlock, MERep, PHRep, moments, phrep_moments
from me2ph.cli import main
from me2ph.io import read_file, read_me_file, read_ph_file, write_me_file, write_ph_file
from conftest import SCALE
from genutil import rep_from_terms, sign_changing_rep


@pytest.fixture()
def worked_me_file(tmp_path, worked_rep):
    path = tmp_path / "input.json"
    write_me_file(worked_rep, path)
    return path


def test_me_file_round_trip(tmp_path, worked_rep):
    path = tmp_path / "rep.json"
    write_me_file(worked_rep, path)
    loaded = read_me_file(path)
    assert np.array_equal(loaded.alpha, worked_rep.alpha)
    assert np.array_equal(loaded.A, worked_rep.A)
    again = tmp_path / "rep2.json"
    write_me_file(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_me_file_complex_entries(tmp_path, worked_minimal):
    path = tmp_path / "minimal.json"
    write_me_file(worked_minimal, path)
    doc = json.loads(path.read_text())
    assert isinstance(doc["A"][4][4], list)  # [re, im] encoding
    loaded = read_me_file(path)
    assert np.array_equal(loaded.alpha, worked_minimal.alpha)
    assert np.array_equal(loaded.A, worked_minimal.A)


def test_me_file_tolerance_override(tmp_path):
    path = tmp_path / "loose.json"
    path.write_text(json.dumps({
        "alpha": [0.7, 0.2],
        "A": [[-1.0, 0.0], [0.0, -2.0]],
        "tolerances": {"alpha_sum": 0.5},
    }))
    rep = read_me_file(path)
    assert rep.tol.alpha_sum == 0.5
    assert rep.order == 2


def test_ph_file_round_trip(tmp_path, worked_conversion):
    ph, _ = worked_conversion
    path = tmp_path / "out.json"
    write_ph_file(ph, path)
    loaded = read_ph_file(path)
    assert loaded.order == ph.order
    assert np.array_equal(loaded.head_gamma, ph.head_gamma)
    assert np.array_equal(loaded.tail_weights, ph.tail_weights)
    assert loaded.blocks == ph.blocks
    assert (loaded.prefix.l, loaded.prefix.mu) == (ph.prefix.l, ph.prefix.mu)


def test_ph_file_empty_prefix_is_none(tmp_path):
    ph = PHRep(np.ones(1), (FEBlock(1, 1.0, 0.0),), 0.0, 0, np.zeros(0), prefix=DeconvParams(0, 0.0))
    assert ph.prefix is None and ph.order == 1
    path = tmp_path / "exp.ph.json"
    write_ph_file(ph, path)
    assert json.loads(path.read_text())["prefix"] is None
    assert read_ph_file(path).prefix is None


def test_ph_file_sidecar_for_huge_tails(tmp_path):
    n = 1_000_001
    weights = np.full(n, 0.5 / n)
    ph = PHRep(np.array([0.5]), (FEBlock(1, 1.0, 0.0),), 10.0, n, weights)
    path = tmp_path / "big.json"
    write_ph_file(ph, path)
    sidecar = tmp_path / "big.json.weights"
    assert sidecar.exists()
    assert sidecar.stat().st_size == 8 * n
    loaded = read_ph_file(path)
    assert np.array_equal(loaded.tail_weights, weights)


def _half_tail(n: int) -> PHRep:
    """Mass 1/2 on one exponential state, 1/2 spread over an n-weight tail."""
    return PHRep(np.array([0.5]), (FEBlock(1, 1.0, 0.0),), 10.0, n, np.full(n, 0.5 / n))


def test_ph_file_small_tail_goes_to_sidecar(tmp_path):
    ph = _half_tail(3)
    path = tmp_path / "small.json"
    write_ph_file(ph, path)
    sidecar = tmp_path / "small.json.weights"
    assert sidecar.read_bytes() == ph.tail_weights.astype("<f8").tobytes()
    assert len(sidecar.read_bytes()) == 24
    tail = json.loads(path.read_text())["tail"]
    assert tail == {"lambda": 10.0, "n": 3, "weights_path": "small.json.weights"}
    assert np.array_equal(read_ph_file(path).tail_weights, ph.tail_weights)


def test_ph_file_document_size_does_not_depend_on_tail(tmp_path):
    docs = {}
    for n in (3, 100_000):
        path = tmp_path / f"n{n}" / "out.json"
        path.parent.mkdir()
        write_ph_file(_half_tail(n), path)
        docs[n] = path.read_text()
    # the documents differ in the digits of n alone
    assert docs[100_000].replace('"n": 100000', '"n": 3') == docs[3]
    assert len(docs[3]) < 300


def test_ph_file_reads_inline_weights(tmp_path, capsys):
    # the layout earlier versions wrote for tails of up to a million weights
    weights = [0.1, 0.2, 0.123456789012345678, 0.5 - 0.1 - 0.2 - 0.123456789012345678]
    path = tmp_path / "inline.ph.json"
    path.write_text(json.dumps({
        "prefix": None,
        "blocks": [{"b": 1, "sigma": 1.0, "z": 0.0}],
        "head_gamma": [0.5],
        "tail": {"lambda": 10.0, "n": 4, "weights": weights},
    }))
    loaded = read_ph_file(path)
    assert np.array_equal(loaded.tail_weights, np.array(weights))
    assert loaded.tail_weights.tobytes() == np.array(weights, dtype="<f8").tobytes()
    assert (loaded.tail_lambda, loaded.tail_n, loaded.order) == (10.0, 4, 5)
    assert main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["markovian"] is True


def test_read_file_kinds(tmp_path, worked_conversion):
    me_path, ph_path, other = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    write_me_file(MERep(np.array([1.0]), np.array([[-2.0]])), me_path)
    write_ph_file(worked_conversion[0], ph_path)
    other.write_text('{"x": 1}')
    kind, rep = read_file(me_path)
    assert kind == "me" and rep.A[0, 0] == -2.0
    kind, ph = read_file(ph_path)
    assert kind == "ph" and ph.order == worked_conversion[0].order
    with pytest.raises(ValueError, match="unrecognized"):
        read_file(other)


def test_convert_cli_exponential(tmp_path, capsys):
    inp = tmp_path / "exp.json"
    write_me_file(MERep(np.array([1.0]), np.array([[-1.0]])), inp)
    out = tmp_path / "exp.ph.json"
    code = main(["convert", str(inp), str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "final order: 1" in captured.out
    doc = json.loads(out.read_text())
    assert doc["tail"] is None and doc["prefix"] is None


def test_convert_cli_worked_example_paper_bounds(tmp_path, capsys, worked_me_file):
    out = tmp_path / "worked.ph.json"
    code = main(["convert", str(worked_me_file), str(out), "--paper-bounds"])
    assert code == 0
    captured = capsys.readouterr()
    assert "tau: 0.5" in captured.out
    assert "final order: 403309" in captured.out
    assert '"lambda": 806600.0' in captured.out
    assert 'tail: {"tau": 0.5, "lambda": 806600.0, "n": 403300, "jumps": 0}' in captured.out
    loaded = read_ph_file(out)
    assert loaded.order == 403309


def test_convert_cli_prints_certificate_and_applied_tail(tmp_path, capsys, worked_me_file):
    # the search finds the tail without a certificate: only the applied tail
    # is printed, and it is far below the certified 950,965 states
    out = tmp_path / "worked.ph.json"
    assert main(["convert", str(worked_me_file), str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    json_line = {line.split(": ", 1)[0]: json.loads(line.split(": ", 1)[1])
                 for line in printed if line.startswith(("bounds: {", "tail: {"))}
    assert "bounds" not in json_line
    applied = json_line["tail"]
    assert applied["n"] == read_ph_file(out).tail_n == 32
    assert applied["jumps"] == 100 < 950_965
    assert f"applied n: {applied['n']}" in printed
    assert f"jumps swept: {applied['jumps']}" in printed
    assert not any(line.startswith("tau: ") for line in printed)


def test_convert_cli_deterministic_output(tmp_path, capsys, worked_me_file):
    # the same output name in two directories: each document names its sidecar
    out1 = tmp_path / "a" / "out.json"
    out2 = tmp_path / "b" / "out.json"
    out1.parent.mkdir()
    out2.parent.mkdir()
    assert main(["convert", str(worked_me_file), str(out1), "--paper-bounds"]) == 0
    first = capsys.readouterr().out
    assert main(["convert", str(worked_me_file), str(out2), "--paper-bounds"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert out1.read_bytes() == out2.read_bytes()
    weights1 = out1.with_name("out.json.weights").read_bytes()
    assert len(weights1) == 8 * read_ph_file(out1).tail_n > 0
    assert weights1 == out2.with_name("out.json.weights").read_bytes()


def test_convert_cli_dec_violation(tmp_path, capsys):
    rep = rep_from_terms([(-1.0 + 0j, [0.6]), (-1.0 + 2j, [0.2 + 0.1j])])
    inp = tmp_path / "tie.json"
    write_me_file(rep, inp)
    code = main(["convert", str(inp), str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "dec-violation" in err
    assert "-1+2j" in err or "-1-2j" in err


def test_convert_cli_positive_density_violation(tmp_path, capsys):
    rep = rep_from_terms([(-1.0 + 0j, [1.0]), (-2.0 + 4j, [2.5])])
    inp = tmp_path / "dip.json"
    write_me_file(rep, inp)
    code = main(["convert", str(inp), str(tmp_path / "x.json")])
    assert code == 3
    assert "positive-density" in capsys.readouterr().err


def test_convert_cli_max_order(tmp_path, capsys, worked_me_file):
    code = main(["convert", str(worked_me_file), str(tmp_path / "x.json"),
                 "--paper-bounds", "--max-order", "1000"])
    assert code == 4
    assert "numeric" in capsys.readouterr().err


def test_convert_cli_max_order_without_tail(tmp_path, capsys):
    inp = tmp_path / "body.json"
    out = tmp_path / "x.json"
    write_me_file(rep_from_terms([(-1.0, [1.0]), (-1.1 + 2j, [0.3])]), inp)
    assert main(["convert", str(inp), str(out), "--max-order", "10"]) == 4
    assert "numeric" in capsys.readouterr().err
    assert not out.exists()


def test_convert_cli_converts_where_the_certified_rate_overflows(tmp_path, capsys):
    # its 195-state body overflows the derivative powers of the spectral
    # fit, and the certified rate lambda' alone is far beyond 1e15; the
    # search, which needs no certificate, finds a tail within its budget
    rep = rep_from_terms([(-1.0, [0.62]), (-2.0 + 1.2j, [0.35 + 0.3j]), (-1.1 + 6j, [0.02])])
    inp = tmp_path / "overflow.json"
    out = tmp_path / "x.json"
    write_me_file(rep, inp)
    assert main(["convert", str(inp), str(out)]) == 0
    printed = capsys.readouterr().out
    assert "bounds: {" not in printed and "monocyclic order: 195" in printed
    ph = read_ph_file(out)
    assert 0 < ph.tail_n <= 2**14
    got, ref = np.array(phrep_moments(ph, 5)), np.array(moments(rep, 5))
    assert np.abs(got / ref - 1).max() <= DEFAULT_TOL.equivalence_rel


def test_convert_cli_sign_changing_input_exits_numeric(tmp_path, capsys):
    inp = tmp_path / "dip.json"
    out = tmp_path / "x.json"
    write_me_file(sign_changing_rep(), inp)
    assert main(["convert", str(inp), str(out)]) == 4
    assert "exceeds 1e15" in capsys.readouterr().err
    assert not out.exists()


def test_convert_cli_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["convert", str(bad), str(tmp_path / "x.json")])
    assert code == 1


@pytest.mark.parametrize("name, value", [
    # a name that never was a tolerance, and fixed constants that once were
    ("fe_r_check", 1e-10),
    ("pos_grid_points", 0),
    ("pos_grid_points", -3),
    ("eig_cluster_rel", -1),
    ("equivalence_rel", 1e-7),
    ("markov_slack_rel", 1e-12),
    ("max_doublings", 60),
])
def test_convert_cli_unknown_tolerance_is_input_error(tmp_path, capsys, name, value):
    bad = tmp_path / "tol.json"
    doc = {"alpha": [1.0], "A": [[-1.0]], "tolerances": {name: value}}
    bad.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    assert main(["convert", str(bad), str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input:") and f"'tolerances.{name}'" in err and str(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("name, value", [
    # a NaN crashed with a bare ValueError; it and 0 switch the check off
    ("alpha_sum", float("nan")),
    ("alpha_sum", 0),
])
def test_convert_cli_out_of_range_tolerance_is_input_error(tmp_path, capsys, name, value):
    bad = tmp_path / "tol.json"
    doc = {"alpha": [0.5, 0.5], "A": [[-1.0, 0.0], [0.0, -2.0]], "tolerances": {name: value}}
    bad.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    assert main(["convert", str(bad), str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input:") and f"'{name}'" in err and str(bad) in err
    assert not out.exists()


def test_convert_cli_alpha_sum_from_the_file_reaches_convert(tmp_path, capsys):
    # a vector 1e-7 off a unit sum is refused at the default alpha_sum and
    # converts under the file's looser one, to an output of unit mass that
    # reads back: it validates, matches the input and evaluates
    doc = {"alpha": [0.5, 0.5 + 1e-7], "A": [[-1.0, 0.5], [0.0, -2.0]]}
    path, out = tmp_path / "near.json", tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    assert main(["convert", str(path), str(out)]) == 1
    assert "alpha must sum to 1" in capsys.readouterr().err and not out.exists()
    path.write_text(json.dumps({**doc, "tolerances": {"alpha_sum": 1e-6}}))
    assert main(["convert", str(path), str(out)]) == 0
    assert "final order: 2" in capsys.readouterr().out and out.exists()
    assert main(["validate", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["markovian"] is True
    assert main(["validate", str(out), "--against", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["equivalence"]["pass"] is True
    assert main(["pdf", str(out), "--grid", "0:8:5"]) == 0
    assert capsys.readouterr().out.startswith("x,f\n")


def test_convert_cli_singular_matrix_is_input_error(tmp_path, capsys):
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps({"alpha": [0.5, 0.5], "A": [[-1.0, 1.0], [1.0, -1.0]]}))
    code = main(["convert", str(bad), str(tmp_path / "x.json")])
    assert code == 1
    assert "error: input:" in capsys.readouterr().err


@pytest.fixture()
def negative_head_file(tmp_path):
    path = tmp_path / "negative.ph.json"
    path.write_text(json.dumps({
        "prefix": None,
        "blocks": [{"b": 1, "sigma": 1.0, "z": 0.0}],
        "head_gamma": [-0.5],
        "tail": None,
    }))
    return path


def test_validate_cli_broken_invariant_is_input_error(capsys, negative_head_file):
    assert main(["validate", str(negative_head_file)]) == 1
    assert "error: input:" in capsys.readouterr().err


def test_pdf_cli_broken_invariant_is_input_error(capsys, negative_head_file):
    assert main(["pdf", str(negative_head_file), "--grid", "0:1:2"]) == 1
    assert "error: input:" in capsys.readouterr().err


def test_cli_non_finite_structured_entries_are_input_errors(tmp_path, capsys):
    # json reads NaN and Infinity; every '< 0' test is false on NaN
    good = {"prefix": None, "blocks": [{"b": 1, "sigma": 1.0, "z": 0.0}],
            "head_gamma": [0.5], "tail": {"lambda": 2.0, "n": 1, "weights": [0.5]}}
    bad = [{"head_gamma": [float("nan")]},
           {"tail": {"lambda": 2.0, "n": 1, "weights": [float("nan")]}},
           {"tail": {"lambda": float("inf"), "n": 1, "weights": [0.5]}},
           {"blocks": [{"b": 1, "sigma": float("inf"), "z": 0.0}]},
           {"prefix": {"l": 1, "mu": float("inf")}}]
    path = tmp_path / "nonfinite.ph.json"
    for change in bad:
        path.write_text(json.dumps({**good, **change}))
        for argv in (["validate"], ["pdf", "--grid", "0:1:2"]):
            assert main([argv[0], str(path), *argv[1:]]) == 1, change
            captured = capsys.readouterr()
            assert captured.err.startswith("error: input:"), change
            assert captured.out == ""


def _input_error_in_every_command(tmp_path, capsys, doc, commands):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    args = {
        "convert": [str(tmp_path / "x.json")],
        "validate": [],
        "pdf": ["--grid", "0:1:2"],
    }
    for command in commands:
        assert main([command, str(path), *args[command]]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error: input:") and str(path) in err, err
    return err


def test_cli_block_missing_sigma_is_input_error(tmp_path, capsys):
    doc = {"blocks": [{"b": 1}], "head_gamma": [1.0], "tail": None}
    err = _input_error_in_every_command(tmp_path, capsys, doc, ("validate", "pdf"))
    assert "blocks[0].sigma" in err


def test_cli_tail_missing_n_is_input_error(tmp_path, capsys):
    doc = {"blocks": [{"b": 1, "sigma": 2.0, "z": 0.0}], "head_gamma": [1.0],
           "tail": {"lambda": 2.0}}
    err = _input_error_in_every_command(tmp_path, capsys, doc, ("validate", "pdf"))
    assert "tail.n" in err


def test_cli_scalar_alpha_is_input_error(tmp_path, capsys):
    doc = {"alpha": 1.0, "A": [[-1.0]]}
    err = _input_error_in_every_command(tmp_path, capsys, doc, ("convert", "validate", "pdf"))
    assert "'alpha'" in err


def test_cli_string_tolerance_is_input_error(tmp_path, capsys):
    doc = {"alpha": [1.0], "A": [[-1.0]], "tolerances": {"alpha_sum": "x"}}
    err = _input_error_in_every_command(tmp_path, capsys, doc, ("convert", "validate", "pdf"))
    assert "tolerances.alpha_sum" in err


@pytest.mark.parametrize("name, data, detail", [
    ("w.weights", b"\0" * 4, "holds 20 bytes, expected 16"),
    ("missing.weights", None, "no file 'missing.weights'"),
    ("../w.weights", None, "must be a file name"),
    ("ABSOLUTE", None, "must be a file name"),
    ("", None, "must be a file name"),
    ("..", None, "must be a file name"),
    ("w.weights", "nan", "non-finite"),
], ids=["trailing-bytes", "missing", "parent-dir", "absolute", "empty", "dot-dot", "nan"])
def test_cli_bad_sidecar_is_input_error(tmp_path, capsys, name, data, detail):
    doc_dir = tmp_path / "doc"
    doc_dir.mkdir()
    path = doc_dir / "tail.ph.json"

    def write_doc(weights_path):
        path.write_text(json.dumps({
            "prefix": None, "blocks": [{"b": 1, "sigma": 1.0, "z": 0.0}], "head_gamma": [0.5],
            "tail": {"lambda": 2.0, "n": 2, "weights_path": weights_path},
        }))

    # two good weights beside the document, one directory up, and at an
    # absolute path: each would read if its name were accepted
    good = np.array([0.25, 0.25], dtype="<f8").tobytes()
    for target in (doc_dir / "w.weights", tmp_path / "w.weights", tmp_path / "abs.weights"):
        target.write_bytes(good)
    write_doc("w.weights")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()

    if name == "ABSOLUTE":
        name = str(tmp_path / "abs.weights")
    if data == "nan":
        (doc_dir / name).write_bytes(np.array([np.nan, 0.25], dtype="<f8").tobytes())
    elif data is not None:
        (doc_dir / name).write_bytes(good + data)
    write_doc(name)
    for argv in (["validate"], ["pdf", "--grid", "0:1:2"]):
        assert main([argv[0], str(path), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: input:") and detail in captured.err, captured.err
        if data != "nan":
            assert f"{path}: field 'tail.weights_path'" in captured.err
        assert captured.out == ""


def test_validate_cli_me_file(capsys, worked_me_file):
    code = main(["validate", str(worked_me_file)])
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict == {"markovian": False, "dec": True, "positive_density": True}


def test_validate_cli_against(tmp_path, capsys, worked_me_file):
    out = tmp_path / "w.ph.json"
    assert main(["convert", str(worked_me_file), str(out), "--paper-bounds"]) == 0
    capsys.readouterr()
    code = main(["validate", str(out), "--against", str(worked_me_file)])
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["markovian"] is True
    assert verdict["dec"] is True
    assert verdict["positive_density"] is True
    assert verdict["equivalence"]["pass"] is True


def test_validate_cli_tol_zero_is_not_default(tmp_path, capsys, worked_me_file, worked_conversion):
    out = tmp_path / "w.ph.json"
    write_ph_file(worked_conversion[0], out)
    verdicts = {}
    for tol in ("0", "1e-6"):
        assert main(["validate", str(out), "--against", str(worked_me_file), "--tol", tol]) == 0
        verdicts[tol] = json.loads(capsys.readouterr().out)["equivalence"]
    assert 0 < verdicts["0"]["max_rel_error"] < 1e-6
    assert verdicts["0"]["pass"] is False
    assert verdicts["1e-6"]["pass"] is True


def test_cli_overflowing_density_is_numeric_error(tmp_path):
    # a fresh interpreter, so that stderr holds exactly what a user sees,
    # numpy's overflow warnings included
    path = tmp_path / "growing.json"
    path.write_text(json.dumps({"alpha": [1.0], "A": [[1000.0]]}))
    src = str(Path(me2ph.__file__).parents[1])
    path_dirs = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_dirs)}
    run_main = "import sys; from me2ph.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in (["pdf", str(path), "--grid", "0:1:2"],
                 ["validate", str(path), "--against", str(path)]):
        proc = subprocess.run([sys.executable, "-c", run_main, *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 4, (argv, proc.stderr)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: numeric:"), proc.stderr
        assert "inf" not in proc.stdout.lower()


@pytest.mark.parametrize("output", ["nodir/out.json", "taken"], ids=["missing-dir", "is-dir"])
def test_convert_cli_unwritable_output_is_one_error_line(tmp_path, output):
    inp = tmp_path / "exp.json"
    inp.write_text(json.dumps({"alpha": [1.0], "A": [[-1.0]]}))
    (tmp_path / "taken").mkdir()
    src = str(Path(me2ph.__file__).parents[1])
    path_dirs = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_dirs)}
    run_main = "import sys; from me2ph.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", run_main, "convert", str(inp), str(tmp_path / output)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: output:"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_convert_cli_failed_document_write_leaves_no_sidecar(tmp_path, capsys):
    # the output has a tail, whose weights are written before the document
    inp = tmp_path / "anchor.json"
    write_me_file(rep_from_terms([(-1.0, [1.0]),
                                  (complex(-1.8886, 1.5962), [1.3108 * np.exp(5.793j) / 2])]), inp)
    (tmp_path / "taken").mkdir()
    assert main(["convert", str(inp), str(tmp_path / "taken")]) == 1
    assert capsys.readouterr().err.startswith("error: output:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["anchor.json", "taken"]
    assert main(["convert", str(inp), str(tmp_path / "out.json")]) == 0
    tail_n = read_ph_file(tmp_path / "out.json").tail_n
    assert (tmp_path / "out.json.weights").stat().st_size == 8 * tail_n > 0


def _one_input_error(capsys, argv) -> str:
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: input:"), captured.err
    return lines[0]


@pytest.fixture()
def exp_ph_file(tmp_path):
    path = tmp_path / "exp.ph.json"
    write_ph_file(PHRep(np.ones(1), (FEBlock(1, 1.0, 0.0),), 0.0, 0, np.zeros(0)), path)
    return path


def test_validate_cli_negative_seed_is_input_error(capsys, exp_ph_file):
    _one_input_error(capsys, ["validate", str(exp_ph_file), "--monte-carlo", "10", "--seed", "-1"])


def test_validate_cli_negative_tol_is_input_error(capsys, exp_ph_file):
    for tol in ("-1", "nan"):
        _one_input_error(capsys, ["validate", str(exp_ph_file), "--against", str(exp_ph_file),
                                  "--tol", tol])


def test_validate_cli_tol_without_against_is_input_error(capsys, exp_ph_file):
    assert "--against" in _one_input_error(capsys, ["validate", str(exp_ph_file), "--tol", "1e-3"])


def test_validate_cli_seed_without_monte_carlo_is_input_error(capsys, exp_ph_file):
    for argv in (["--seed", "3"], ["--seed", "3", "--monte-carlo", "0"]):
        assert "--monte-carlo" in _one_input_error(capsys, ["validate", str(exp_ph_file), *argv])


def test_convert_cli_max_order_below_one_is_input_error(tmp_path, capsys, worked_me_file):
    out = tmp_path / "x.json"
    for limit in ("0", "-5"):
        _one_input_error(capsys, ["convert", str(worked_me_file), str(out), "--max-order", limit])
    assert not out.exists()


def test_validate_cli_monte_carlo_beyond_memory_is_input_error(capsys, exp_ph_file):
    # 10^15 float64 samples are 7.1 PiB: the allocation is refused at once, using no memory
    _one_input_error(capsys, ["validate", str(exp_ph_file), "--monte-carlo", str(10**15)])


def test_pdf_cli_grid_beyond_memory_is_input_error(capsys, exp_ph_file):
    _one_input_error(capsys, ["pdf", str(exp_ph_file), "--grid", f"0:1:{10**15}"])


def test_validate_cli_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    assert main(["validate", str(bad)]) == 1


def test_validate_cli_monte_carlo(tmp_path, capsys, worked_me_file):
    out = tmp_path / "w.ph.json"
    assert main(["convert", str(worked_me_file), str(out), "--paper-bounds"]) == 0
    capsys.readouterr()
    assert main(["validate", str(out), "--monte-carlo", "5000", "--seed", "3"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["dec"] is True
    assert verdict["monte_carlo"]["samples"] == 5000
    assert 0 < verdict["monte_carlo"]["ks"] < 0.05
    assert main(["validate", str(worked_me_file), "--monte-carlo", "100"]) == 1
    capsys.readouterr()
    assert main(["validate", str(out), "--monte-carlo", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: input:") and captured.out == ""


def test_validate_cli_missing_against_file(tmp_path, capsys, worked_me_file):
    code = main(["validate", str(worked_me_file), "--against", str(tmp_path / "none.json")])
    assert code == 1
    assert "error: input:" in capsys.readouterr().err


def test_pdf_cli_exponential(tmp_path, capsys):
    inp = tmp_path / "exp.json"
    write_me_file(MERep(np.array([1.0]), np.array([[-1.0]])), inp)
    code = main(["pdf", str(inp), "--grid", "0:1:2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,f"
    x0, f0 = lines[1].split(",")
    x1, f1 = lines[2].split(",")
    assert (float(x0), float(f0)) == pytest.approx((0.0, 1.0))
    assert (float(x1), float(f1)) == pytest.approx((1.0, np.exp(-1)))


def test_pdf_cli_worked_example_value(capsys, worked_me_file):
    code = main(["pdf", str(worked_me_file), "--grid", "1:1:1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    expected = SCALE * (
        2 * np.exp(-1) + np.exp(-3) - 10 * np.exp(-4)
        + np.exp(-5) * (8 * np.cos(3) + 4 * np.sin(3))
    )
    assert float(lines[1].split(",")[1]) == pytest.approx(expected, rel=1e-10)


def test_pdf_cli_ph_and_me_agree(tmp_path, capsys, worked_me_file):
    out = tmp_path / "w.ph.json"
    assert main(["convert", str(worked_me_file), str(out), "--paper-bounds"]) == 0
    capsys.readouterr()
    assert main(["pdf", str(worked_me_file), "--grid", "0.5:6:12"]) == 0
    me_rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert main(["pdf", str(out), "--grid", "0.5:6:12"]) == 0
    ph_rows = capsys.readouterr().out.strip().splitlines()[1:]
    for me_row, ph_row in zip(me_rows, ph_rows):
        fm = float(me_row.split(",")[1])
        fp = float(ph_row.split(",")[1])
        assert fp == pytest.approx(fm, rel=1e-5)


def test_pdf_cli_bad_grid(tmp_path, capsys, worked_me_file):
    assert main(["pdf", str(worked_me_file), "--grid", "nope"]) == 1
    ph_path = tmp_path / "exp.ph.json"
    write_ph_file(PHRep(np.ones(1), (FEBlock(1, 1.0, 0.0),), 0.0, 0, np.zeros(0)), ph_path)
    for path in (worked_me_file, ph_path):
        for grid in ("0:inf:3", "nan:1:3", "0:nan:3"):
            assert main(["pdf", str(path), "--grid", grid]) == 1, grid
            assert capsys.readouterr().err.startswith("error: input:"), grid
        # finite bounds at which the density cannot be evaluated
        assert main(["pdf", str(path), "--grid", "0:1e308:3"]) == 4
        assert capsys.readouterr().err.startswith("error: numeric:")
