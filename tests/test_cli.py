"""End-to-end CLI coverage: every subcommand, exit codes, determinism."""
import json
from pathlib import Path

import pytest

from triarc import circuits as C
from triarc import simulator as S
from triarc.cli import main
from triarc.circuits import GateKind


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- build ------------------------------------------------------------------

def test_build_adder(tmp_path, capsys):
    out = tmp_path / "adder.json"
    code, _, _ = run_cli(capsys, "build", "--op", "adder", "--n", "3", "--out", str(out))
    assert code == 0
    circ = C.from_json(out.read_text())
    assert len(circ.wires) == 8


def test_build_multiplier(tmp_path, capsys):
    out = tmp_path / "mult.json"
    code, _, _ = run_cli(capsys, "build", "--op", "multiplier", "--na", "3", "--nb", "2",
                         "--out", str(out))
    assert code == 0
    circ = C.from_json(out.read_text())
    assert C.gate_count(circ, GateKind.TOFFOLI) == 18


def test_build_adder_requires_n(capsys):
    code, _, err = run_cli(capsys, "build", "--op", "adder")
    assert code == 1
    assert "error" in err


# --- decompose ----------------------------------------------------------------

def test_decompose_qutrit(tmp_path, capsys):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    run_cli(capsys, "build", "--op", "adder", "--n", "2", "--out", str(src))
    code, _, _ = run_cli(capsys, "decompose", "--strategy", "qutrit",
                         "--in", str(src), "--out", str(dst))
    assert code == 0
    original = C.from_json(src.read_text())
    lowered = C.from_json(dst.read_text())
    assert C.gate_count(lowered) == C.gate_count(original) + 2 * C.gate_count(
        original, GateKind.TOFFOLI
    )
    assert any(w.dimension == 3 for w in lowered.wires)


def test_decompose_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "decompose", "--strategy", "qutrit",
                           "--in", str(tmp_path / "absent.json"))
    assert code == 1
    assert "error" in err


# --- simulate -------------------------------------------------------------------

def test_simulate_state_dump(tmp_path, capsys):
    src = tmp_path / "in.json"
    run_cli(capsys, "build", "--op", "adder", "--n", "2", "--out", str(src))
    code, out, _ = run_cli(capsys, "simulate", "--in", str(src), "--input", "011000")
    assert code == 0
    amps = json.loads(out)
    assert amps[28] == [1.0, 0.0]  # A=2, B=1 -> B register reads 3
    assert sum(abs(re) + abs(im) for re, im in amps) == 1.0


def test_simulate_histogram(tmp_path, capsys):
    src = tmp_path / "in.json"
    run_cli(capsys, "build", "--op", "adder", "--n", "2", "--out", str(src))
    code, out, _ = run_cli(capsys, "simulate", "--in", str(src), "--input", "011000",
                           "--shots", "25", "--seed", "9")
    assert code == 0
    assert out == "label,count\n011100,25\n"


def test_simulate_refuses_with_the_library_limit(tmp_path, monkeypatch, capsys):
    # 2^23 amplitudes: a CLI-side cap at or below 2^22 would refuse first, with its own message
    src = tmp_path / "wide.json"
    src.write_text(C.to_json(C.new_circuit([2] * 23)))

    def no_allocation(*args):
        raise AssertionError("simulate allocated a state beyond MAX_STATE_DIM")

    monkeypatch.setattr(S, "MAX_STATE_DIM", 16)
    monkeypatch.setattr(S, "basis_state", no_allocation)
    code, out, err = run_cli(capsys, "simulate", "--in", str(src), "--input", "0" * 23)
    assert code == 1
    assert out == ""
    assert "MAX_STATE_DIM" in err


DATA = Path(__file__).parent / "data"


def build_adder3(tmp_path, capsys, strategy):
    plain, lowered = tmp_path / "adder3.json", tmp_path / f"adder3_{strategy}.json"
    run_cli(capsys, "build", "--op", "adder", "--n", "3", "--out", str(plain))
    run_cli(capsys, "decompose", "--strategy", strategy, "--in", str(plain), "--out", str(lowered))
    return lowered


@pytest.mark.parametrize("strategy", ["cliffordt", "qutrit"])
def test_simulate_state_dump_matches_golden(tmp_path, capsys, strategy):
    # the Clifford+T dump holds 0.999999999999999, residues near 1e-16 and
    # negative zeros, so any change in rounding or sign shows in the bytes
    lowered = build_adder3(tmp_path, capsys, strategy)
    code, out, _ = run_cli(capsys, "simulate", "--in", str(lowered), "--input", "11010100")
    assert code == 0
    assert out.encode() == (DATA / f"adder3_{strategy}_state.json").read_bytes()


def test_simulate_histogram_matches_golden(tmp_path, capsys):
    lowered = build_adder3(tmp_path, capsys, "cliffordt")
    code, out, _ = run_cli(capsys, "simulate", "--in", str(lowered), "--input", "11010100",
                           "--shots", "1000", "--seed", "5")
    assert code == 0
    assert out.encode() == (DATA / "adder3_cliffordt_shots.csv").read_bytes()


def test_mixed_radix_superposition_matches_golden(capsys):
    # every unitary kind on wires (2, 3, 2, 3, 2), controls on 1 and 2
    src = str(DATA / "mixed_radix.json")
    code, out, _ = run_cli(capsys, "simulate", "--in", src, "--input", "01010")
    assert code == 0
    assert out.encode() == (DATA / "mixed_radix_state.json").read_bytes()
    code, out, _ = run_cli(capsys, "simulate", "--in", src, "--input", "01010",
                           "--shots", "1000", "--seed", "5")
    assert code == 0
    assert out.encode() == (DATA / "mixed_radix_shots.csv").read_bytes()


# --- estimate ---------------------------------------------------------------------

def test_estimate_sqrt_qutrit(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--op", "sqrt", "--n", "4",
                           "--strategy", "qutrit")
    assert code == 0
    payload = json.loads(out)
    assert payload["cnot_count_ternary"] == 48.0
    assert payload["t_depth"] == 0.0


def test_estimate_csv_format(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--op", "mul", "--n", "4",
                           "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["toffoli_count"] == "30.0"


# --- noise-curve -------------------------------------------------------------------

def test_noise_curve_endpoint_row(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "noise-curve", "--max-toffoli", "30", "--tau", "0",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "toffoli_count,p_success_conventional,p_success_qutrit"
    last_data = [ln for ln in lines if not ln.startswith("#")][-1]
    count, conventional, qutrit = last_data.split(",")
    assert count == "30"
    assert float(conventional) == pytest.approx(0.00786, abs=1e-4)
    assert float(qutrit) == pytest.approx(0.4047, abs=5e-4)
    footnotes = [ln for ln in lines if ln.startswith("#")]
    assert any("99.95" in ln for ln in footnotes)
    assert any("unreconciled" in ln for ln in footnotes)


def test_noise_curve_single_strategy(capsys):
    code, out, _ = run_cli(capsys, "noise-curve", "--strategy", "qutrit",
                           "--max-toffoli", "3")
    assert code == 0
    assert out.splitlines()[0] == "toffoli_count,p_success_qutrit"


# --- bounds ------------------------------------------------------------------------

def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--d", "1", "--T", "1", "--w", "5",
                           "--n", "4", "--beta", "1", "--range", "0", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["trunc_error_bound"] == pytest.approx(7.4533e-6, rel=1e-4)
    assert payload["disc_error"] == pytest.approx(8 / 6144, rel=1e-9)


# --- verify ------------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


# --- config and exit codes ------------------------------------------------------------

def test_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"p2": 0.005}))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run_cli(capsys, "--config", str(config), "noise-curve", "--max-toffoli", "2",
            "--out", str(out_a))
    run_cli(capsys, "noise-curve", "--max-toffoli", "2", "--p2", "0.005",
            "--out", str(out_b))
    assert out_a.read_text() == out_b.read_text()


def test_config_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_state_dim": 64}))
    code, out, err = run_cli(capsys, "--config", str(config), "verify")
    assert code == 1
    assert out == ""
    assert "max_state_dim" in err


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_subcommand_usage_error(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("command", ["noise-curve", "verify"])
def test_deterministic_commands_reject_seed(capsys, command):
    assert main([command, "--seed", "1"]) == 2


# --- determinism ------------------------------------------------------------------------

def test_verify_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "verify")
    _, second, _ = run_cli(capsys, "verify")
    assert first == second


def test_noise_curve_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run_cli(capsys, "noise-curve", "--max-toffoli", "40", "--out", str(out_a))
    run_cli(capsys, "noise-curve", "--max-toffoli", "40", "--out", str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_byte_identical_with_seed(tmp_path, capsys):
    src = tmp_path / "in.json"
    run_cli(capsys, "build", "--op", "adder", "--n", "2", "--out", str(src))
    outputs = []
    for name in ("h1.csv", "h2.csv"):
        dst = tmp_path / name
        run_cli(capsys, "simulate", "--in", str(src), "--input", "010000",
                "--shots", "100", "--seed", "3", "--out", str(dst))
        outputs.append(dst.read_bytes())
    assert outputs[0] == outputs[1]
