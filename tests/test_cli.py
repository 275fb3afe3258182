"""End-to-end CLI coverage: every subcommand, exit codes, determinism."""
import hashlib
import json
import re
import runpy
from pathlib import Path

import pytest

from triarc import circuits as C
from triarc import resources as R
from triarc import simulator as S
from triarc.cli import Config, main
from triarc.circuits import GateKind
from triarc.noise import NoiseParams


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
    assert 3 in lowered.wires


def test_decompose_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "decompose", "--strategy", "qutrit",
                           "--in", str(tmp_path / "absent.json"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "gate",
    [
        {"kind": "X", "controls": [], "targets": [0.5]},
        {"kind": "X", "controls": [{"wire": 1.0, "value": 1}], "targets": [0]},
    ],
)
def test_decompose_rejects_a_non_integer_index(tmp_path, capsys, gate):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_text(json.dumps({"wires": [{"dim": 2}, {"dim": 2}], "gates": [gate]}))
    code, _, err = run_cli(capsys, "decompose", "--strategy", "qutrit",
                           "--in", str(src), "--out", str(dst))
    assert code == 1
    assert "must be an integer" in err
    assert not dst.exists()


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
    monkeypatch.setattr(S, "_evolve", no_allocation)
    code, out, err = run_cli(capsys, "simulate", "--in", str(src), "--input", "0" * 23)
    assert code == 1
    assert out == ""
    assert "MAX_STATE_DIM" in err


def test_a_measure_gate_in_json_is_refused(tmp_path, capsys):
    data = C.circuit_to_dict(C.append(C.new_circuit([2, 2]), C.x(0)))
    data["gates"].append({"kind": "MEASURE", "controls": [], "targets": [0, 1]})
    src = tmp_path / "measured.json"
    src.write_text(json.dumps(data, indent=2))
    message = "'MEASURE' is not a valid GateKind"
    with pytest.raises(ValueError, match=f"^{message}$"):
        C.from_json(src.read_text())
    for argv in (
        ["simulate", "--in", str(src), "--input", "00"],
        ["decompose", "--strategy", "qutrit", "--in", str(src)],
        ["decompose", "--strategy", "cliffordt", "--in", str(src)],
    ):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


DATA = Path(__file__).parent / "data"


def build_adder3(tmp_path, capsys, strategy):
    plain, lowered = tmp_path / "adder3.json", tmp_path / f"adder3_{strategy}.json"
    run_cli(capsys, "build", "--op", "adder", "--n", "3", "--out", str(plain))
    run_cli(capsys, "decompose", "--strategy", strategy, "--in", str(plain), "--out", str(lowered))
    return lowered


BUILD_ARGV = {"adder3": ["--op", "adder", "--n", "3"],
              "multiplier2x2": ["--op", "multiplier", "--na", "2", "--nb", "2"]}


@pytest.mark.parametrize(
    "name, strategy",
    [("adder3", None), ("adder3", "qutrit"), ("adder3", "cliffordt"),
     ("multiplier2x2", "qutrit"), ("multiplier2x2", "cliffordt")],
)
def test_build_and_decompose_json_match_golden(tmp_path, capsys, name, strategy):
    code, out, _ = run_cli(capsys, "build", *BUILD_ARGV[name])
    assert code == 0
    golden = f"{name}.json"
    if strategy is not None:
        plain = tmp_path / golden
        plain.write_text(out)
        code, out, _ = run_cli(capsys, "decompose", "--strategy", strategy, "--in", str(plain))
        assert code == 0
        golden = f"{name}_{strategy}.json"
    assert out.encode() == (DATA / golden).read_bytes()


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


def test_fanout_state_dump_and_histogram_match_their_sha256_goldens(capsys):
    """16 qubits, H on wires 0-3 fanned out by CX to the other 12: the whole
    run stays on the sparse start, and the 16 equally likely outcomes sit
    between runs of zero probability."""
    goldens = dict(reversed(line.split()) for line in (DATA / "simulate_sha256.txt").read_text().splitlines())
    argv = ["simulate", "--in", str(DATA / "fanout16.json"), "--input", "0" * 16]
    for name, extra in (("fanout16_0000000000000000.json", []),
                        ("fanout16_0000000000000000_shots.csv", ["--shots", "100000", "--seed", "5"])):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == goldens[name], name


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


@pytest.mark.parametrize("fmt, golden", [
    (fmt, f"{stem}.{ext}")
    for stem in ("estimate_n16_p4_k2_M4", "estimate_n5_p0_k1_M1_d3_z2",
                 "estimate_n2_p2_k3_M3_z4")
    for fmt, ext in (("json", "txt"), ("csv", "csv"))
])
def test_estimate_matches_golden(capsys, fmt, golden):
    # every operation under both strategies, concatenated in OPERATIONS order;
    # the file name spells the flags: estimate_n16_p4 -> --n 16 --p 4
    flags = [arg for name, value in re.findall(r"_([a-zA-Z]+)(\d+)", golden)
             for arg in (f"--{name}", value)]
    outputs = []
    for op in R.OPERATIONS:
        for strategy in ("qutrit", "baseline"):
            code, out, _ = run_cli(capsys, "estimate", "--op", op, *flags,
                                   "--strategy", strategy, "--format", fmt)
            assert code == 0
            outputs.append(out)
    assert "".join(outputs).encode() == (DATA / golden).read_bytes()


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


@pytest.mark.parametrize("count", ["0", "-3"])
def test_noise_curve_rejects_a_count_below_1(capsys, count):
    code, out, err = run_cli(capsys, "noise-curve", "--max-toffoli", count)
    assert code == 1
    assert out == ""
    assert "the count range needs at least one entry" in err


def test_noise_curve_default_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "noise-curve")
    assert code == 0
    assert out.encode() == (DATA / "noise_curve_default.csv").read_bytes()


@pytest.mark.parametrize("strategy", ["qutrit", "conventional"])
def test_noise_curve_single_strategy_matches_golden(capsys, strategy):
    code, out, _ = run_cli(capsys, "noise-curve", "--strategy", strategy)
    assert code == 0
    assert out.encode() == (DATA / f"noise_curve_{strategy}.csv").read_bytes()


def test_headline_numbers_script_matches_golden(capsys):
    script = Path(__file__).parent.parent / "scripts" / "headline_numbers.py"
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.encode() == (DATA / "headline_numbers.txt").read_bytes()


# --- bounds ------------------------------------------------------------------------

def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--d", "1", "--T", "1", "--w", "5",
                           "--n", "4", "--beta", "1", "--range", "0", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["trunc_error_bound"] == pytest.approx(7.4533e-6, rel=1e-4)
    assert payload["disc_error"] == pytest.approx(8 / 6144, rel=1e-9)


def test_bounds_matches_golden(capsys):
    # one `triarc bounds` run per line of bounds_args.txt, outputs concatenated
    outputs = []
    for line in (DATA / "bounds_args.txt").read_text().splitlines():
        code, out, err = run_cli(capsys, "bounds", *line.split())
        assert (code, err) == (0, ""), line
        outputs.append(out)
    assert "".join(outputs).encode() == (DATA / "bounds.txt").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["--w", "nan", "--beta", "nan"],                  # refused by PricingSetup
        ["--range", "0", "inf"],                          # refused by PricingSetup
        ["--range", "0", "1e300", "--d", "3", "--T", "20"],  # OverflowError in the power
        ["--beta", "1e300", "--range", "0", "1e10"],      # finite inputs, infinite disc_error
    ],
)
def test_bounds_refuses_a_non_finite_or_overflowing_result(capsys, argv):
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_bounds_takes_a_register_too_wide_for_a_float_power(capsys):
    for argv in (["--n", "600"], ["--n", "600", "--range", "0", "2"]):
        code, out, err = run_cli(capsys, "bounds", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["disc_error"] == 0.0


def test_bounds_names_the_overflowing_power(capsys):
    code, out, err = run_cli(capsys, "bounds", "--range", "0", "1e300", "--d", "3", "--T", "20")
    assert code == 1
    assert out == ""
    assert err == ("error: disc_error: range width 1e+300 to the power d*T+2 = 62 "
                   "overflows a float\n")


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


@pytest.mark.parametrize("op", ["add", "sub", "sqrt"])
def test_estimate_refuses_a_p_above_n_for_operations_that_read_no_p(capsys, op):
    code, out, err = run_cli(capsys, "estimate", "--op", op, "--n", "4", "--p", "9")
    assert (code, out, err) == (1, "", "error: integer-bit count p must satisfy 0 <= p <= n\n")


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


# --- config resolution: flag, then config file, then the NoiseParams default -------------

def run_with_config(tmp_path, capsys, values, *argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    return run_cli(capsys, "--config", str(config), *argv)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_config_format_gives_the_estimate_bytes_of_the_flag(tmp_path, capsys, fmt):
    argv = ["estimate", "--op", "mul", "--n", "4"]
    code, from_config, _ = run_with_config(tmp_path, capsys, {"format": fmt}, *argv)
    assert code == 0
    assert from_config == run_cli(capsys, *argv, "--format", fmt)[1]


def test_config_seed_gives_the_histogram_of_the_flag(tmp_path, capsys):
    argv = ["simulate", "--in", str(DATA / "mixed_radix.json"), "--input", "01010",
            "--shots", "200"]
    code, from_config, _ = run_with_config(tmp_path, capsys, {"seed": 5}, *argv)
    assert code == 0
    assert from_config == run_cli(capsys, *argv, "--seed", "5")[1]
    assert from_config != run_cli(capsys, *argv)[1]


@pytest.mark.parametrize("name, value", [("p1", 1e-3), ("p2", 5e-3), ("t1a", 50.0),
                                         ("t1b", 20.0), ("tau", 0.1)])
def test_config_noise_field_gives_the_curve_of_the_flag(tmp_path, capsys, name, value):
    # a nonzero tau, so the relaxation times show in the curve
    argv = ["noise-curve", "--max-toffoli", "3"] + (["--tau", "0.5"] if name != "tau" else [])
    code, from_config, _ = run_with_config(tmp_path, capsys, {name: value}, *argv)
    assert code == 0
    assert from_config == run_cli(capsys, *argv, f"--{name}", str(value))[1]
    assert from_config != run_cli(capsys, *argv)[1]


@pytest.mark.parametrize("values, argv", [
    ({"p2": 5e-3}, ["noise-curve", "--max-toffoli", "3", "--p2", "0.02"]),
    ({"format": "csv"}, ["estimate", "--op", "add", "--n", "8", "--format", "json"]),
    ({"seed": 5}, ["simulate", "--in", str(DATA / "mixed_radix.json"), "--input", "01010",
                   "--shots", "200", "--seed", "9"]),
])
def test_a_flag_beats_the_config_value(tmp_path, capsys, values, argv):
    code, from_both, _ = run_with_config(tmp_path, capsys, values, *argv)
    assert code == 0
    assert from_both == run_cli(capsys, *argv)[1]


SIMULATE_SHOTS = ["simulate", "--in", str(DATA / "mixed_radix.json"), "--input", "01010",
                  "--shots", "20"]


@pytest.mark.parametrize("name, value, argv", [
    ("seed", None, SIMULATE_SHOTS),
    ("seed", True, SIMULATE_SHOTS),
    ("seed", 1.5, SIMULATE_SHOTS),
    ("seed", "5", SIMULATE_SHOTS),
    ("p1", True, ["noise-curve", "--max-toffoli", "2"]),
    ("p2", None, ["noise-curve", "--max-toffoli", "2"]),
    ("t1a", "50", ["noise-curve", "--max-toffoli", "2"]),
    ("t1b", False, ["noise-curve", "--max-toffoli", "2"]),
    ("tau", [0.1], ["noise-curve", "--max-toffoli", "2"]),
])
def test_config_refuses_a_field_of_the_wrong_type(tmp_path, capsys, name, value, argv):
    code, out, err = run_with_config(tmp_path, capsys, {name: value}, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: config {name} must be ")


def test_config_refuses_a_format_other_than_json_or_csv(tmp_path, capsys):
    argv = ["estimate", "--op", "add", "--n", "8"]
    code, out, err = run_with_config(tmp_path, capsys, {"format": "xml"}, *argv)
    assert (code, out, err) == (1, "", "error: format must be json or csv\n")


def test_config_takes_an_integer_noise_field(tmp_path, capsys):
    argv = ["noise-curve", "--max-toffoli", "3", "--tau", "0.5"]
    code, from_config, _ = run_with_config(tmp_path, capsys, {"t1a": 50}, *argv)
    assert code == 0
    assert from_config == run_cli(capsys, *argv, "--t1a", "50")[1]


def test_config_noise_defaults_are_the_noise_params_defaults():
    config, params = Config(), NoiseParams()
    assert (config.p1, config.p2, config.t1a, config.t1b, config.tau) == (
        params.p1, params.p2, params.T1_level1, params.T1_level2, params.tau_gate)


@pytest.mark.parametrize("argv, field", [
    (["--tau", "nan"], "tau_gate"),
    (["--t1a", "nan", "--tau", "1"], "T1_level1"),
    (["--t1b", "inf", "--tau", "inf"], "T1_level2"),
    (["--p1", "nan"], "p1"),
    (["--p2", "inf"], "p2"),
])
def test_noise_curve_refuses_a_non_finite_parameter(capsys, argv, field):
    code, out, err = run_cli(capsys, "noise-curve", "--max-toffoli", "2", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field} must be finite")
