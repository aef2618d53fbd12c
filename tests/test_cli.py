import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gent
from gent import cli, cm_core
from gent.bures import bures_entanglement
from gent.errors import UnphysicalState
from gent.relent import rel_ent_entanglement
from gent.standard_forms import StandardFormI, SymmetricState, make_scaled_cm, ScaledState, symmetric_sts


def run_cli(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_check_separable(capsys):
    code, out, _ = run_cli(capsys, "check", "--b", "0.5", "--c", "0", "--d", "0")
    assert code == 0
    assert "separable:          True" in out


def test_check_entangled(capsys):
    code, out, _ = run_cli(capsys, "check", "--b", "1", "--c", "0.8", "--d", "-0.6")
    assert code == 3
    assert "0.28284" in out


def test_check_unphysical(capsys):
    code, _, _ = run_cli(capsys, "check", "--b", "1", "--c", "0.99", "--d", "-0.99")
    assert code == 2


def test_parse_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", "--b", "1", "--c", "0.3")
    assert code == 1
    assert "--b requires --c and --d" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "check", "--cm", str(bad))
    assert code == 1
    assert "--cm" in err
    code, _, err = run_cli(capsys, "bures")
    assert code == 1


def test_bures_json(capsys):
    code, out, _ = run_cli(capsys, "bures", "--b", "1", "--c", "0.8", "--d", "-0.6")
    assert code == 0
    payload = json.loads(out)
    assert payload["version"]
    assert payload["e_b"] == pytest.approx(0.03924, abs=1e-5)
    assert payload["f_max"] == pytest.approx(0.9230516, abs=1e-6)


def test_bures_separable(capsys):
    code, out, _ = run_cli(capsys, "bures", "--b", "1", "--c", "0.5", "--d", "-0.25")
    assert code == 0
    payload = json.loads(out)
    assert payload["e_b"] == 0.0
    assert payload["kappa_tilde_minus"] == pytest.approx(math.sqrt(0.375), abs=1e-9)


def test_relent_json_with_verify(capsys):
    code, out, _ = run_cli(capsys, "relent", "--b", "1", "--c", "0.8", "--d", "-0.6", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["e_s"] - 0.199) < 0.005
    assert payload["verify"]["discrepancy"] < 1e-6


def test_relent_separable_reports_library_result(capsys):
    code, out, _ = run_cli(capsys, "relent", "--b", "1", "--c", "0.3", "--d", "-0.2")
    assert code == 0
    payload = json.loads(out)
    lib = rel_ent_entanglement(SymmetricState(1.0, 0.3, 0.2))
    for key in ("e_s", "s_n1", "s_n2", "x1_star", "x2_star"):
        assert payload[key] == pytest.approx(getattr(lib, key), rel=1e-12), key
    assert payload["s_n1"] == pytest.approx(0.976271, abs=1e-6)


@pytest.mark.parametrize("argv", [("bures", "--r", "0.05"), ("bures", "--r", "3"), ("relent", "--r", "3")])
def test_pure_states_accepted(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)["kappa_tilde_minus"] < 0.5


def test_positive_det_c_refused(capsys):
    code, _, err = run_cli(capsys, "bures", "--b", "1", "--c", "0.3", "--d", "0.2")
    assert code == 4
    assert "det C > 0" in err


@settings(
    max_examples=60, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.one_of(
        st.tuples(st.just("bcd"), st.floats(0.5, 5.0), st.floats(0.0, 0.999), st.floats(0.0, 1.0)),
        st.tuples(st.just("sts"), st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.just(0.0)),
    )
)
def test_cli_json_matches_library(capsys, case):
    kind, p1, p2, p3 = case
    if kind == "bcd":  # c and |d| as fractions of b and c
        c = p1 * p2
        state, argv = SymmetricState(p1, c, c * p3), ["--b", repr(p1), "--c", repr(c), "--d", repr(-c * p3)]
    else:
        state, argv = symmetric_sts(p1, p2), ["--r", repr(p1), "--nbar", repr(p2)]
    try:
        lib_b, lib_s = bures_entanglement(state), rel_ent_entanglement(state)
    except UnphysicalState:
        assert run_cli(capsys, "bures", *argv)[0] == 2
        return
    code_b, out_b, _ = run_cli(capsys, "bures", *argv)
    code_s, out_s, _ = run_cli(capsys, "relent", *argv)
    assert code_b == code_s == 0
    got_b, got_s = json.loads(out_b), json.loads(out_s)
    close = lambda x: pytest.approx(x, rel=1e-9, abs=1e-12)
    assert got_b["e_b"] == close(lib_b.e_b)
    assert got_b["kappa_tilde_minus"] == close(lib_b.kappa_tilde_minus)
    assert got_s["kappa_tilde_minus"] == close(state.kappa_tilde_minus)
    for key in ("e_s", "s_n1", "s_n2"):
        assert got_s[key] == close(getattr(lib_s, key)), key


def test_large_unphysical_cm_rejected(capsys, tmp_path):
    path = tmp_path / "big.json"
    cm_core.dump_cm_json(np.diag([1e6, 1e-7, 1e6, 1e-7]), path)
    code, out, _ = run_cli(capsys, "check", "--cm", str(path))
    assert code == 2
    assert "physical:           False" in out


@pytest.mark.parametrize("command", ["check", "bures", "relent"])
def test_ill_conditioned_state_refused(capsys, command):
    code, _, err = run_cli(capsys, command, "--r", "7.5")
    assert code == 1
    assert "ill-conditioned" in err


def test_zero_det_c_after_local_symplectic(capsys, tmp_path, rng):
    # det C = 0 comes back as d = +-1e-17; either sign is the separable state with d = 0
    from conftest import random_local_symplectic

    v = StandardFormI(1.0, 1.0, 0.4, 0.0).to_cm()
    path = tmp_path / "cm.json"
    for _ in range(20):
        t = random_local_symplectic(rng)
        cm_core.dump_cm_json(t @ v @ t.T, path)
        code, out, _ = run_cli(capsys, "bures", "--cm", str(path))
        assert code == 0
        assert json.loads(out)["e_b"] == 0.0


def test_asymmetric_cm_rejected(capsys, tmp_path):
    v = make_scaled_cm(ScaledState(StandardFormI(1.0, 1.3, 0.5, -0.3), 1.0, 1.0))
    path = tmp_path / "asym.json"
    cm_core.dump_cm_json(v, path)
    code, _, err = run_cli(capsys, "bures", "--cm", str(path))
    assert code == 4
    assert "not symmetric" in err


def test_cm_file_roundtrip(capsys, tmp_path):
    v = StandardFormI(1.0, 1.0, 0.8, -0.6).to_cm()
    path = tmp_path / "cm.json"
    cm_core.dump_cm_json(v, path)
    code, out, _ = run_cli(capsys, "bures", "--cm", str(path))
    assert code == 0
    assert json.loads(out)["e_b"] == pytest.approx(0.03924, abs=1e-5)


def test_sweep_monotone_and_reproducible(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (out1, out2):
        code, _, _ = run_cli(
            capsys,
            "sweep", "--measure", "bures", "--parameter", "r",
            "--start", "0.05", "--stop", "1.0", "--steps", "12",
            "--output", str(path),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "param,b,c,d,kappa_plus,kappa_minus,kappa_tilde_minus,e_b,e_s,x1_star,x2_star"
    e_b = [float(line.split(",")[7]) for line in lines[1:]]
    assert all(x < y for x, y in zip(e_b, e_b[1:]))
    # relent columns are empty for a bures-only sweep
    assert lines[1].endswith(",,")


def test_sweep_pure_states_to_strong_squeezing(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "sweep", "--measure", "both", "--parameter", "r",
        "--start", "0.05", "--stop", "3", "--steps", "10000",
        "--output", str(tmp_path / "pure.csv"),
    )
    assert code == 0, err


def test_sweep_both_keeps_its_columns(capsys, tmp_path):
    # the benchmark compares this CSV string for string, so E_F is not a column
    path = tmp_path / "both.csv"
    code, _, err = run_cli(
        capsys,
        "sweep", "--measure", "both", "--parameter", "r",
        "--start", "0.05", "--stop", "1.0", "--steps", "7", "--nbar", "0.1",
        "--output", str(path),
    )
    assert code == 0, err
    lines = path.read_text().splitlines()
    assert lines[0] == "param,b,c,d,kappa_plus,kappa_minus,kappa_tilde_minus,e_b,e_s,x1_star,x2_star"
    assert len(lines) == 8
    assert all(len(line.split(",")) == 11 for line in lines[1:])


def test_sweep_kappa_tilde_matches_closed_form(capsys, tmp_path):
    path = tmp_path / "kt.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--measure", "bures", "--parameter", "kappa_tilde",
        "--start", "0.05", "--stop", "0.45", "--steps", "9",
        "--output", str(path),
    )
    assert code == 0
    for line in path.read_text().strip().splitlines()[1:]:
        cells = line.split(",")
        kt, e_b = float(cells[0]), float(cells[7])
        assert e_b == pytest.approx((math.sqrt(2 * kt) - 1) ** 2 / (2 * kt + 1), abs=1e-9)
        assert float(cells[6]) == pytest.approx(kt, abs=1e-9)


def test_sweep_thermal_threshold(capsys, tmp_path):
    # nbar > 0: no entanglement until the squeezing crosses the threshold
    path = tmp_path / "th.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--measure", "bures", "--parameter", "r",
        "--start", "0.05", "--stop", "1.2", "--steps", "24",
        "--nbar", "0.5", "--output", str(path),
    )
    assert code == 0
    e_b = [float(l.split(",")[7]) for l in path.read_text().strip().splitlines()[1:]]
    assert e_b[0] == 0.0
    assert e_b[-1] > 0.0
    assert sorted(e_b) == e_b


def test_sweep_validation(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "sweep", "--measure", "bures", "--parameter", "kappa_tilde",
        "--start", "0.2", "--stop", "0.9", "--steps", "5",
        "--output", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "kappa_tilde" in err


def test_oracle_fidelity_identical(capsys):
    code, out, _ = run_cli(capsys, "oracle", "fidelity", "--state1", "0.7,0.8", "--state2", "0.7,0.8")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.0, abs=1e-7)
    assert payload["discrepancy"] < 1e-7


def test_oracle_fidelity_vacuum_thermal(capsys):
    code, out, _ = run_cli(capsys, "oracle", "fidelity", "--state1", "0.5,0.5", "--state2", "1.0,1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_oracle_entropy_thermal(capsys):
    code, out, _ = run_cli(capsys, "oracle", "entropy", "--state1", "1.0,1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.95477, abs=1e-5)
    assert payload["closed_form"] == pytest.approx(payload["value"], abs=1e-8)


def test_oracle_support_violation(capsys):
    # reference state (state2) pure, state (state1) mixed: diverges
    code, _, err = run_cli(capsys, "oracle", "relent", "--state1", "1.0,1.0", "--state2", "0.5,0.5")
    assert code == 5
    assert "support" in err.lower()


def test_oracle_relent_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "oracle", "relent", "--state1", "0.5,0.5", "--state2", "1.0,1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["discrepancy"] < 1e-8


def test_oracle_input_validation(capsys):
    code, _, err = run_cli(capsys, "oracle", "fidelity", "--state1", "0.5,0.5")
    assert code == 1
    code, _, err = run_cli(capsys, "oracle", "entropy", "--state1", "0.5;0.5")
    assert code == 1
    assert "sigma_qq" in err
    for dim in ("0", "1", "-3"):
        code, _, err = run_cli(capsys, "oracle", "entropy", "--state1", "0.5,0.5", "--dim", dim)
        assert code == cli.EXIT_PARSE
        assert "--dim" in err


@pytest.mark.parametrize("value", ["-1e-5", "-1.5E-300", "-2.e-1", "-.5e-1"])
def test_negative_exponent_after_space(capsys, value):
    code, out, err = run_cli(capsys, "bures", "--b", "1", "--c", "0.3", "--d", value)
    assert code == 0, err
    assert json.loads(out)["input"]["d"] == pytest.approx(float(value), rel=1e-12)


@pytest.mark.parametrize(
    "argv", [("bures", "--b"), ("frobnicate",), ("sweep", "--measure", "bures"), ("check", "--b", "x")]
)
def test_usage_errors_exit_parse(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_PARSE
    assert "usage:" in err


def test_cli_import_leaves_out_oracle_and_scipy():
    src = os.path.dirname(os.path.dirname(gent.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, gent.cli; print([m for m in sys.modules if m == 'gent.fock' or m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_threshold_within_rounding_is_separable(capsys):
    # kt = 1/2 - 5e-13 is within rounding_tol(1) = 1e-12 of the threshold
    s = SymmetricState(1.0, 1.0 - (0.5 - 5e-13) ** 2, 0.0)
    assert s.is_separable() and s.kappa_tilde_minus < 0.5
    assert bures_entanglement(s).e_b == 0.0
    assert rel_ent_entanglement(s).e_s == 0.0
    for command, key in (("bures", "e_b"), ("relent", "e_s")):
        code, out, err = run_cli(capsys, command, "--b", "1", "--c", repr(s.c), "--d", "0", "--verify")
        assert code == 0, err
        payload = json.loads(out)
        assert payload[key] == 0.0
        assert "verify" not in payload


def test_vacuum_after_local_symplectic(capsys, tmp_path, rng):
    # the recovered b of a vacuum-local block can come back as 0.49999999999999994
    from conftest import random_local_symplectic

    path = tmp_path / "vacuum.json"
    for _ in range(50):
        t = random_local_symplectic(rng)
        cm_core.dump_cm_json(0.5 * t @ t.T, path)
        for command, key in (("bures", "e_b"), ("relent", "e_s")):
            code, out, err = run_cli(capsys, command, "--cm", str(path))
            assert code == 0, err
            assert json.loads(out)[key] == 0.0


def test_relent_verify_at_strong_squeezing(capsys):
    # x1* = 105 here: a grid stopping at a fixed x such as 50 misses the minimum
    code, out, err = run_cli(capsys, "relent", "--r", "5", "--nbar", "0.5", "--verify")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["x1_star"] > 100
    assert payload["verify"]["discrepancy"] < 1e-9


@pytest.mark.parametrize("command", ["check", "bures", "relent"])
def test_non_positive_definite_cm_is_unphysical(capsys, tmp_path, command):
    path = tmp_path / "npd.json"
    cm_core.dump_cm_json(np.diag([1.0, 1.0, 1.0, -0.1]), path)
    code, _, err = run_cli(capsys, command, "--cm", str(path))
    assert code == cli.EXIT_UNPHYSICAL, err
    assert "unphysical" in err


def test_non_positive_definite_cm_is_unphysical_in_oracle(capsys, tmp_path):
    path = tmp_path / "npd.json"
    cm_core.dump_cm_json(np.array([[1.0, 0, 2, 0], [0, 1, 0, 0], [2, 0, 1, 0], [0, 0, 0, 1]]), path)
    code, _, err = run_cli(capsys, "oracle", "entropy", "--cm1", str(path))
    assert code == cli.EXIT_UNPHYSICAL, err
    assert "unphysical" in err
