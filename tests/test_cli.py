from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from corrqec import cli, kernels, scheme
from corrqec.channels import PauliChannel
from corrqec.cli import (
    cmd_optimality,
    cmd_trial,
    cmd_verify,
    load_channels,
    main,
)
from corrqec.errors import AncillaSizeError, BadQubitCount

GOLDEN = Path(__file__).parent / "golden"


def test_cmd_verify_odd():
    report = cmd_verify(3, trials=5, seed=42)
    assert report.passed
    assert report.conjugation_residuals == (0.0, 0.0, 0.0)
    assert report.cnot_count == 3 and report.h_count == 0
    assert len(report.trials) == 5
    assert all(t["hybrid_exact"] is None for t in report.trials)


def test_cmd_verify_even_includes_hybrid_sweep():
    report = cmd_verify(4, trials=5, seed=42)
    assert report.passed
    assert len(report.trials) == 9  # 5 random + 4 classical ancillas
    assert sum(1 for t in report.trials if t["hybrid_exact"] is True) == 4


def test_cmd_verify_rejects_bad_n():
    with pytest.raises(BadQubitCount):
        cmd_verify(1, 1, 0)
    with pytest.raises(BadQubitCount):
        cmd_verify(13, 1, 0)


def test_cmd_verify_deterministic():
    a = cmd_verify(5, trials=3, seed=7)
    b = cmd_verify(5, trials=3, seed=7)
    assert a == b


def test_report_round_trips_through_json():
    report = cmd_verify(4, trials=2, seed=3)
    blob = json.dumps(report.to_dict())
    assert json.loads(blob) == report.to_dict()
    assert json.loads(blob)["pass"] is True


def test_verify_cli_exit_and_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--n", "3", "--trials", "2", "--seed", "1",
                 "--json", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "result: PASS" in stdout
    data = json.loads(out.read_text())
    assert data["n"] == 3 and data["pass"] is True


def test_verify_cli_error_exit(capsys):
    assert main(["verify", "--n", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_negative_trials(capsys):
    with pytest.raises(ValueError, match="trials"):
        cmd_verify(3, trials=-2)
    assert main(["verify", "--n", "3", "--trials", "-2"]) == 2
    captured = capsys.readouterr()
    assert "result:" not in captured.out
    assert "error:" in captured.err
    assert main(["verify", "--n", "3", "--trials", "0"]) == 0


def test_trial_cli_json_output(capsys):
    code = main(["trial", "--n", "3", "--probs", "0.4,0.3,0.2,0.1", "--seed", "5"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 3
    assert data["rho_residual"] < 1e-11
    assert data["ancilla_residual"] < 1e-11
    assert data["hybrid_exact"] is None
    assert len(data["ancilla_out"]["re"]) == 2


def test_trial_cli_classical(capsys):
    code = main(["trial", "--n", "4", "--probs", "0,0,1,0", "--classical", "10"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hybrid_exact"] is True
    assert data["sigma"] == "classical:10"


def test_trial_cli_classical_takes_the_seed(capsys):
    # --seed draws the data state rho, with a classical ancilla as well
    probs = (0.25, 0.25, 0.25, 0.25)
    argv = ["trial", "--n", "4", "--probs", "0.25,0.25,0.25,0.25", "--classical", "10"]
    assert main(argv + ["--seed", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["seed"] == 5
    assert data["sigma"] == "classical:10"
    assert data["recovered_rho"] == cmd_trial(4, probs, "10", 5, None, 1)["recovered_rho"]
    assert data["recovered_rho"] != cmd_trial(4, probs, "10", 6, None, 1)["recovered_rho"]


def test_trial_classical_needs_even_n():
    with pytest.raises(AncillaSizeError):
        cmd_trial(3, (1, 0, 0, 0), "10", 0, None, 1)


def test_trial_rejects_n_past_physical_memory(capsys):
    with pytest.raises(BadQubitCount):
        cmd_trial(30, (1, 0, 0, 0), None, 0, None, 1)
    assert main(["trial", "--n", "30", "--probs", "1,0,0,0"]) == 2
    assert "physical memory" in capsys.readouterr().err


def test_trial_cli_rejects_bad_probs(capsys):
    assert main(["trial", "--n", "3", "--probs", "0.5,0.5,0.5,0.5"]) == 2
    assert main(["trial", "--n", "3", "--probs", "0.5,0.5"]) == 2
    assert main(["trial", "--n", "3"]) == 2
    capsys.readouterr()


def test_trial_channels_file(tmp_path, capsys):
    s = float(np.sqrt(0.5))
    spec = [
        {"pauli": [0.7, 0.1, 0.1, 0.1]},
        {"span": [[s, 0, 0, 0, 0, 0, 0, 0], [0, 0, s, 0, 0, 0, 0, 0]]},
    ]
    path = tmp_path / "channels.json"
    path.write_text(json.dumps(spec))
    channels = load_channels(path, 3)
    assert len(channels) == 2
    code = main(["trial", "--n", "3", "--channels", str(path), "--repeats", "2"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["repeats"] == 2
    assert data["rho_residual"] < 1e-10


def test_trial_rejects_probs_plus_channels(tmp_path, capsys):
    path = tmp_path / "channels.json"
    path.write_text(json.dumps([{"pauli": [1, 0, 0, 0]}]))
    code = main(["trial", "--n", "3", "--probs", "1,0,0,0", "--channels", str(path)])
    assert code == 2
    capsys.readouterr()


def test_channels_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"wat": []}]))
    with pytest.raises(ValueError):
        load_channels(path, 2)
    path.write_text(json.dumps([{"span": [[1, 0, 0]]}]))
    with pytest.raises(ValueError):
        load_channels(path, 2)
    path.write_text(json.dumps({}))
    with pytest.raises(ValueError):
        load_channels(path, 2)
    # json accepts NaN and Infinity
    for text in (
        '[{"pauli": [NaN, 0, 0, 1]}]',
        '[{"span": [[Infinity, 0, 0, 0, 0, 0, 0, 0]]}]',
    ):
        path.write_text(text)
        with pytest.raises(ValueError):
            load_channels(path, 2)
    # entries of the wrong JSON type, and an integer past the float range
    for entry in (
        {"pauli": 5},
        {"pauli": None},
        {"pauli": ["0.7", 0.1, 0.1, 0.1]},
        {"pauli": [True, 0, 0, 0]},
        {"pauli": [10**400, 0, 0, 0]},
        {"span": 5},
        {"span": [5]},
        {"span": [["a", 0, 0, 0, 0, 0, 0, 0]]},
        {"span": [[[1], 0, 0, 0, 0, 0, 0, 0]]},
    ):
        path.write_text(json.dumps([entry]))
        with pytest.raises(ValueError):
            load_channels(path, 3)
        code = main(["trial", "--n", "3", "--channels", str(path)])
        assert code == 2, entry


@pytest.mark.parametrize("repeats", [0, -1, 2.0])
def test_bad_repeats_rejected_before_any_state_is_built(monkeypatch, repeats):
    def fail(*args):
        raise AssertionError("a state was built before repeats was checked")

    monkeypatch.setattr(kernels, "trial_pass", fail)
    monkeypatch.setattr(cli, "random_density", fail)
    probs = (0.7, 0.1, 0.1, 0.1)
    error = TypeError if isinstance(repeats, float) else ValueError
    with pytest.raises(error, match="repeats"):
        cmd_trial(11, probs, None, 0, None, repeats)
    sigma, rho = np.eye(2) / 2, np.eye(1024) / 1024
    with pytest.raises(error, match="repeats"):
        scheme.run_trial(11, sigma, rho, PauliChannel(11, probs), repeats)


def test_export_qasm_cli(tmp_path):
    out = tmp_path / "enc.qasm"
    code = main(["export-qasm", "--n", "2", "--which", "encode", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[4:] == [
        "cx q[0],q[1];", "h q[0];", "cx q[0],q[1];"
    ]


def test_optimality_cli(capsys):
    assert main(["optimality"]) == 0
    out = capsys.readouterr().out
    assert "12" in out
    assert "no length-2 decomposition" in out
    assert "witness realizes P3 exactly: True" in out
    # deterministic on rerun
    assert cmd_optimality() == cmd_optimality()


def test_optimality_output_matches_golden_file(capsys):
    golden = (GOLDEN / "optimality.txt").read_bytes()
    assert (cmd_optimality() + "\n").encode() == golden
    assert main(["optimality"]) == 0
    assert capsys.readouterr().out.encode() == golden


def test_a_channels_file_nested_past_the_recursion_limit_is_rejected(tmp_path, capsys):
    # json.loads raises RecursionError on a deeply nested file; it is a bad
    # channels file like any other, so main prints one error line and
    # returns 2, with no traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**5 + "]" * 10**5)
    with pytest.raises(ValueError, match="nests too deeply"):
        load_channels(path, 3)
    assert main(["trial", "--n", "3", "--channels", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


_DEEP = 300  # parses under pytest's stack; the CI smoke step runs 985 deep


@pytest.mark.parametrize(
    "text, what",
    [
        ("[" * (_DEEP + 1) + "]" * (_DEEP + 1), "must be an object"),
        ('[{"pauli": ' + "[" * _DEEP + "]" * _DEEP + "}]", "pauli needs a list"),
        ('[{"span": [' + "[" * _DEEP + "]" * _DEEP + "]}]", "a span row"),
        ('[{"span": {"a": ' + "[" * _DEEP + "]" * _DEEP + "}}]", "span needs a list of rows"),
        ('[{"x": ' + "[" * _DEEP + "]" * _DEEP + ', "y": "' + "z" * 5000 + '"}]',
         "needs 'pauli' or 'span'"),
    ],
    ids=["entry", "pauli", "span-row", "span", "kind"],
)
def test_an_error_line_of_a_nested_channels_file_stays_short(tmp_path, capsys, text, what):
    # each of load_channels' messages shows the offending entry cut short
    # by reprlib (whole, an entry nested 300 deep printed a line of over
    # 600 characters), so the line stays readable and still names what
    # was wrong
    path = tmp_path / "nested.json"
    path.write_text(text)
    assert main(["trial", "--n", "3", "--channels", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and what in err and "Traceback" not in err
    assert len(err.rstrip("\n")) < 200, err
