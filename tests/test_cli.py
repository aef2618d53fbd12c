import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gent
from gent import cli, cm_core, standard_forms
from gent.bures import bures_entanglement
from gent.errors import NonPositiveDefinite, UnphysicalState
from gent.relent import rel_ent_entanglement
from gent.standard_forms import StandardFormI, SymmetricState, make_scaled_cm, ScaledState, symmetric_sts

from conftest import band_edge_cms, dump_cm_json, random_local_symplectic, random_physical_cm


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


# gent check's whole report for each of its exit codes 0, 2 and 3
CHECK_REPORTS = {
    ("1", "0.5", "-0.25"): (
        0,
        """\
physical:           True  (kappa_minus = 0.790569415)
uncertainty det:    0.328125
separable:          True  (kappa_tilde_minus = 0.612372436)
kappas:             k+ = 1.06066017  k- = 0.790569415  kt+ = 1.36930639  kt- = 0.612372436
invariants:         det V1 = 1  det V2 = 1  det C = -0.125  det V = 0.703125
standard form I:    b1 = 1  b2 = 1  c = 0.5  d = -0.25
""",
    ),
    ("0.7", "0.65", "-0.6"): (
        2,
        """\
physical:           False  (kappa_minus = 0.254950976)
uncertainty det:    0.021275
separable:          n/a (unphysical)
""",
    ),
    ("1", "0.8", "-0.6"): (
        3,
        """\
physical:           True  (kappa_minus = 0.565685425)
uncertainty det:    0.0329
separable:          False  (kappa_tilde_minus = 0.282842712)
kappas:             k+ = 0.848528137  k- = 0.565685425  kt+ = 1.69705627  kt- = 0.282842712
invariants:         det V1 = 1  det V2 = 1  det C = -0.48  det V = 0.2304
standard form I:    b1 = 1  b2 = 1  c = 0.8  d = -0.6
""",
    ),
}


@pytest.mark.parametrize("form", ["--b", "--cm"])
@pytest.mark.parametrize("bcd", list(CHECK_REPORTS))
def test_check_report_byte_for_byte(capsys, tmp_path, bcd, form):
    standard_forms._reduce.cache_clear()
    b, c, d = bcd
    argv = ["--b", b, "--c", c, "--d", d]
    if form == "--cm":
        argv = ["--cm", str(tmp_path / "cm.json")]
        dump_cm_json(StandardFormI(float(b), float(b), float(c), float(d)).to_cm(), argv[1])
    code, out, err = run_cli(capsys, "check", *argv)
    assert (code, out) == CHECK_REPORTS[bcd]
    assert err == ""
    # one reduction of a matrix gives its form and spectrum; parameters need none
    assert standard_forms._reduce.cache_info().misses == (form == "--cm")


# parameter inputs at the edge of the rounding band: an eigensolve of the first one's CM
# reads kt- within the band, where SymmetricState reads it beyond (e_b = 8.0e-25); the
# second's b lies within the band below 1/2, where the measures read it as 1/2
BAND_EDGE_FLAGS = [
    ("--b", "6.6576943615417035", "--c", "6.604681177328374", "--d", "-1.941886327964387"),
    ("--b", repr(0.5 - 9e-13), "--c", "2e-13", "--d", "-2e-13"),
    ("--r", "6.5"),
    ("--r", "2", "--nbar", "0.3"),
]


def _band_edge_flags():
    """BAND_EDGE_FLAGS, then seeded (b, c, d) with kt within four rounding bands of 1/2."""
    rng = np.random.default_rng(2222)
    cases = list(BAND_EDGE_FLAGS)
    for _ in range(200):
        b = rng.uniform(0.6, 8.0)
        kt = 0.5 + cm_core.rounding_tol(b) * rng.uniform(-4.0, 4.0)
        e = rng.uniform(kt * kt / b, kt)  # b - c, so that 0 <= |d| <= c
        cases.append(("--b", repr(b), "--c", repr(b - e), "--d", repr(kt * kt / e - b)))
    return cases


def test_check_decides_parameters_as_the_measures_do(capsys):
    # check reads --b and --r on the floats of bures' and relent's SymmetricState, so it
    # exits 0 exactly when both measures are 0 and prints the state's own kappas
    for flags in _band_edge_flags():
        code, out, err = run_cli(capsys, "check", *flags)
        assert code in (cli.EXIT_SEPARABLE, cli.EXIT_ENTANGLED), (flags, err)
        measures = {}
        for command, key in (("bures", "e_b"), ("relent", "e_s")):
            code_m, out_m, err_m = run_cli(capsys, command, *flags)
            assert code_m == 0, (flags, err_m)
            payload = json.loads(out_m)
            measures[key], inp = payload[key], payload["input"]
        assert (code == cli.EXIT_SEPARABLE) == (measures["e_b"] == measures["e_s"] == 0), (flags, measures)
        state = SymmetricState(inp["b"], inp["c"], -inp["d"])
        kt_plus = math.sqrt((state.b + state.d_abs) * (state.b + state.c))
        want = [state.kappa_minus, state.kappa_tilde_minus, state.kappa_plus, state.kappa_minus, kt_plus,
                state.kappa_tilde_minus]
        printed = re.findall(r"= ([^\s)]+)", "\n".join(out.splitlines()[:4]))
        assert printed == [f"{k:.9g}" for k in want], flags
    # r = -0.0 is read as 0: each command prints what it prints for --r 0
    for command in ("check", "bures", "relent"):
        assert run_cli(capsys, command, "--r", "-0.0") == run_cli(capsys, command, "--r", "0"), command
    # and d = 0 prints as 0, not as the -0 of d = -|d|
    for command in ("check", "bures", "relent"):
        for flags in (("--r", "0"), ("--b", "1", "--c", "0.5", "--d", "0")):
            _, out, _ = run_cli(capsys, command, *flags)
            numbers = re.findall(r"-?\d+\.?\d*(?:e[-+]?\d+)?", out)
            assert not [t for t in numbers if t.startswith("-") and float(t) == 0], (command, flags, out)


def test_check_reads_the_sign_of_d_as_the_measures_do(capsys):
    # sign(d') = sign(c d) from the signs of c and d, where c d underflows to -0.0: check's
    # standard form I carries the d that bures and relent print, and an underflowing det C
    # prints as 0, not as -0
    for c, d in (("1e-200", "-1e-200"), ("-1e-200", "1e-200"), ("-1e-200", "-1e-200"), ("1e-200", "1e-200")):
        _, out, _ = run_cli(capsys, "check", "--b", "1", "--c", c, "--d", d)
        printed = float(re.search(r"standard form I:.*d = (\S+)", out).group(1))
        want = math.copysign(1e-200, float(c) * 1e200 * float(d))
        assert printed == want, (c, d, out)
        if want < 0:  # a d > 0 within the rounding allowance bures reads as -|d|
            _, out_b, _ = run_cli(capsys, "bures", "--b", "1", "--c", c, "--d", d)
            assert json.loads(out_b)["input"]["d"] == want, (c, d)
    for flags in (("--r", "1e-320"), ("--b", "1", "--c", "1e-200", "--d", "-1e-200")):
        _, out, _ = run_cli(capsys, "check", *flags)
        assert not [t for t in re.findall(r"= (\S+)", out) if t.startswith("-") and float(t) == 0], (flags, out)


def test_oracle_fidelity_reads_a_near_pure_mode_as_the_fock_build_does(capsys):
    # nu - 1/2 = 2.5e-14 is within the band: OneModeCM's reader and the Fock build both read the
    # mode as pure; what is left is the O(nu - 1/2) gap between the given variances and the
    # squeezed vacuum the build makes, measured 1.4e-14 (1.2e-7 with det V - 1/4 kept at 2.5e-14)
    code, out, _ = run_cli(capsys, "oracle", "fidelity", "--state1", "0.50000000000005,0.5", "--state2", "1,0.8",
                           "--dim", "60")
    assert code == 0 and json.loads(out)["discrepancy"] <= 3e-14, out


def _check_numbers(out):
    """The uncertainty det and the invariants (det V1, det V2, det C, det V) of a gent check report."""
    lines = dict(line.split(":", 1) for line in out.splitlines())
    inv = [float(field.split("=")[1]) for field in lines["invariants"].split("  ") if "=" in field]
    return float(lines["uncertainty det"]), inv


@pytest.mark.parametrize("r", ["4", "5", "6"])
def test_pure_state_uncertainty_det_is_nonnegative(capsys, r):
    # kappa_- reads 1/2 within the rule, so (k^2 - 1/4) is taken as 0, not as
    # a rounding below it; a sum of determinants of size b^2 would cancel here
    code, out, _ = run_cli(capsys, "check", "--r", r)
    assert code == 3
    assert _check_numbers(out)[0] >= 0


def test_check_report_matches_matrix_determinants(capsys, tmp_path):
    # the report reads the uncertainty det from the spectrum and the
    # invariants from standard form I; both agree with the determinants of V
    # to the 9 printed digits, and no physical state prints a negative det
    rng = np.random.default_rng(1616)
    om = cm_core.omega(2)
    path = tmp_path / "v.json"
    for i in range(300):
        if i % 2:
            v = random_physical_cm(rng)
        else:
            t = random_local_symplectic(rng)
            v = t @ symmetric_sts(rng.uniform(0.0, 4.0)).to_cm() @ t.T
        dump_cm_json(v, path)
        code, out, _ = run_cli(capsys, "check", "--cm", str(path))
        assert code in (0, 3)
        sp2, inv = _check_numbers(out)
        v = cm_core.load_cm_json(path)
        bound = 1e-8 * max(1.0, cm_core.entry_scale(v)) ** 4
        assert sp2 >= 0
        assert abs(sp2 - np.linalg.det(v + 0.5j * om).real) <= bound
        ref = [np.linalg.det(v[:2, :2]), np.linalg.det(v[2:, 2:]), np.linalg.det(v[:2, 2:]), np.linalg.det(v)]
        assert np.max(np.abs(np.subtract(inv, ref))) <= bound


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


def test_bures_distance_near_the_threshold(capsys):
    # 1/2 - kt = 1e-10, so E_B = 5e-21 and d_bures = sqrt(2 E_B) = 1e-10, where
    # sqrt(2 - 2 sqrt(f_max)) cancels to 0.0; the decimal inputs carry 1/2 - kt to ~1e-6 relative
    code, out, _ = run_cli(capsys, "bures", "--b", "1", "--c", "0.5000000001", "--d", "-0.5000000001")
    assert code == 0
    payload = json.loads(out)
    assert payload["d_bures"] == pytest.approx(1e-10, rel=1e-5)
    assert payload["d_bures"] == math.sqrt(2 * payload["e_b"])


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
    dump_cm_json(np.diag([1e6, 1e-7, 1e6, 1e-7]), path)
    code, out, _ = run_cli(capsys, "check", "--cm", str(path))
    assert code == 2
    assert "physical:           False" in out


@pytest.mark.parametrize("command", ["check", "bures", "relent"])
def test_vacuum_local_cm_at_large_entries_is_ill_conditioned(capsys, tmp_path, command):
    # b = 1/2 read at entries of 5e5, where the band passes MAX_ROUNDING_TOL: bures and
    # relent refuse the state as check does, on either side of rounding
    path = tmp_path / "big.json"
    for f in (1.0, 1 + 3e-16, 1 - 3e-16):
        dump_cm_json(np.diag([5e5 * f, 5e-7, 5e5, 5e-7]), path)
        code, _, err = run_cli(capsys, command, "--cm", str(path))
        assert code == cli.EXIT_PARSE and err.startswith("error: ill-conditioned"), (f, err)


def test_strongly_squeezed_cm_checked_as_bures_reads_it(capsys, tmp_path):
    # draw 10 of test_strongly_squeezed_pure_states_decided: r = 4.297, entries ~2.6e3;
    # check once refused it as "not purely imaginary" while bures accepted it
    from conftest import squeezed_pure_cms

    *_, (state, v) = squeezed_pure_cms(np.random.default_rng(45), 11, 4.0, 5.0)
    path = tmp_path / "cm.json"
    dump_cm_json(v, path)
    code, out, err = run_cli(capsys, "bures", "--cm", str(path))
    assert code == 0, err
    assert json.loads(out)["input"]["b"] == pytest.approx(state.b, rel=1e-9)
    code, out, err = run_cli(capsys, "check", "--cm", str(path))
    assert code == cli.EXIT_ENTANGLED, err
    assert "physical:           True" in out


@pytest.mark.parametrize("r", ["7.5", "9.5", "20", "400"])
@pytest.mark.parametrize("command", ["check", "bures", "relent"])
def test_ill_conditioned_state_refused(capsys, command, r):
    # from r = 7.5 kappa_tilde_- cannot be told from 1/2; from about 9.4 b - c
    # rounds to 0, and from about 355 cosh 2r overflows
    code, out, err = run_cli(capsys, command, "--r", r)
    assert code == 1
    assert err.startswith("error: ill-conditioned")
    assert "matrix" not in err  # the state was given by parameters
    assert err.count("\n") == 1
    assert out == ""


def test_sweep_beyond_symmetric_sts_refused(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "sweep", "--measure", "both", "--parameter", "r",
        "--start", "0", "--stop", "20", "--steps", "2",
        "--output", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "ill-conditioned" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_zero_det_c_after_local_symplectic(capsys, tmp_path, rng):
    # det C = 0 comes back as d = +-1e-17; either sign is the separable state with d = 0
    from conftest import random_local_symplectic

    v = StandardFormI(1.0, 1.0, 0.4, 0.0).to_cm()
    path = tmp_path / "cm.json"
    for _ in range(20):
        t = random_local_symplectic(rng)
        dump_cm_json(t @ v @ t.T, path)
        code, out, _ = run_cli(capsys, "bures", "--cm", str(path))
        assert code == 0
        assert json.loads(out)["e_b"] == 0.0


def test_asymmetric_cm_rejected(capsys, tmp_path):
    # b1 != b2 beyond rounding; then b1 < c < b2, entangled (kt- = 0.005), with |b1 - b2| within
    # the rounding at entries of 1e6: no SymmetricState holds b = b1 <= c
    path = tmp_path / "asym.json"
    for form in (StandardFormI(1.0, 1.3, 0.5, -0.3), StandardFormI(1e6, 1e6 + 0.02, 1e6 + 0.005, -(1e6 + 0.005))):
        dump_cm_json(make_scaled_cm(ScaledState(form, 1.0, 1.0)), path)
        assert run_cli(capsys, "check", "--cm", str(path))[0] in (cli.EXIT_SEPARABLE, cli.EXIT_ENTANGLED)
        for command in ("bures", "relent"):
            code, out, err = run_cli(capsys, command, "--cm", str(path))
            assert (code, out) == (cli.EXIT_NOT_SYMMETRIC, ""), (form, command, err)
            assert err.startswith("error: state is not symmetric (b1 = ") and err.count("\n") == 1, err


def test_cm_file_roundtrip(capsys, tmp_path):
    v = StandardFormI(1.0, 1.0, 0.8, -0.6).to_cm()
    path = tmp_path / "cm.json"
    dump_cm_json(v, path)
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


def test_sweep_prints_d_zero_as_zero(capsys, tmp_path):
    # r = 0 has d = -|d| = 0, written 0 as in gent bures, not -0
    path = tmp_path / "r0.csv"
    code, _, err = run_cli(capsys, "sweep", "--measure", "both", "--parameter", "r",
                           "--start", "0", "--stop", "1", "--steps", "2", "--output", str(path))
    assert code == 0, err
    assert path.read_text().splitlines()[1].split(",")[:4] == ["0", "0.5", "0", "0"]


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


@pytest.mark.parametrize(
    "parameter, start, stop, steps, nbar, message",
    [
        ("kappa_tilde", "0.2", "0.9", "5", None, "--parameter kappa_tilde needs a range within (0, 1/2]"),
        ("r", "0.5", "0.5", "3", None, "--start must be below --stop"),
        ("r", "0.6", "0.5", "3", None, "--start must be below --stop"),
        ("r", "0.1", "0.5", "1", None, "--steps must be at least 2"),
        ("r", "-1", "1", "3", None, "--parameter r needs a nonnegative range"),
        ("r", "-1e-300", "1", "3", "0.5", "--parameter r needs a nonnegative range"),
        ("r", "0", "1", "3", "-0.5", "--nbar: must be nonnegative"),
        ("kappa_tilde", "0.1", "0.5", "3", "0.5", "--nbar goes with --parameter r"),
        ("kappa_tilde", "0.1", "0.5", "3", "0", "--nbar goes with --parameter r"),
    ],
)
def test_sweep_validation(capsys, tmp_path, parameter, start, stop, steps, nbar, message):
    # every refusal comes before any state is built: one error line, exit 1, no output file
    path = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys,
        "sweep", "--measure", "bures", "--parameter", parameter,
        "--start", start, "--stop", stop, "--steps", steps,
        *(() if nbar is None else ("--nbar", nbar)),
        "--output", str(path),
    )
    assert code == 1
    assert err == f"error: {message}\n"
    assert not path.exists()


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


@pytest.mark.parametrize(
    "flags",
    [
        ("--r", "0.5", "--b", "1", "--c", "0.8", "--d", "-0.6"),
        ("--cm", "state.json", "--r", "0.5"),
        ("--cm", "state.json", "--b", "1", "--c", "0.8", "--d", "-0.6"),
        ("--b", "1", "--c", "0.8", "--d", "-0.6", "--nbar", "5"),
        ("--r", "0.5", "--c", "0.8"),
        ("--r", "0.5", "--nbar", "0.1", "--d", "-0.6"),
        ("--cm", "state.json", "--nbar", "1"),
        ("--cm", "state.json", "--c", "0.8", "--d", "-0.6"),
        ("--nbar", "1"),
        ("--c", "0.8", "--d", "-0.6"),
        (),
    ],
    ids=lambda flags: " ".join(flags) or "no-flags",
)
@pytest.mark.parametrize("command", ["check", "bures", "relent"])
def test_mixed_state_inputs_exit_parse(capsys, tmp_path, monkeypatch, command, flags):
    # one state form per call: a flag of another form is refused, never dropped
    monkeypatch.chdir(tmp_path)
    dump_cm_json(symmetric_sts(0.3).to_cm(), tmp_path / "state.json")
    code, out, err = run_cli(capsys, command, *flags)
    assert code == cli.EXIT_PARSE, err
    assert out == ""
    assert err.strip().splitlines()[-1].startswith(("error:", f"gent {command}: error:"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bures", "--r", "-1"), "--r: must be nonnegative"),
        (("relent", "--r", "0.5", "--nbar", "-1"), "--nbar: must be nonnegative"),
        (("check", "--r", "-1"), "--r: must be nonnegative"),
    ],
)
def test_negative_squeezing_parameters_exit_parse(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err == f"error: {message}\n"


def test_parameters_outside_symmetric_form_are_unphysical(capsys):
    # b = c is no SymmetricState: the reader's refusal exits 2 with one line
    code, out, err = run_cli(capsys, "bures", "--b", "1", "--c", "1", "--d", "-0.5")
    assert code == cli.EXIT_UNPHYSICAL
    assert out == ""
    assert err.startswith("error: unphysical state: covariance matrix is not positive definite")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "bures", "relent"])
@pytest.mark.parametrize("c, d", [("2", "0"), ("1", "-1"), ("0", "-3"), ("1", "1.0000000000000002")])
def test_parameters_without_a_positive_definite_cm_are_refused_alike(capsys, command, c, d):
    # b <= max(|c|, |d|): one refusal for every command, the one symplectic_spectrum gives --cm
    code, out, err = run_cli(capsys, command, "--b", "1", "--c", c, "--d", d)
    assert (code, out) == (cli.EXIT_UNPHYSICAL, "")
    assert err == "error: unphysical state: covariance matrix is not positive definite\n"


def test_sweep_json_output(capsys, tmp_path):
    path = tmp_path / "sweep.json"
    code, _, err = run_cli(
        capsys,
        "sweep", "--measure", "bures", "--parameter", "r",
        "--start", "0.1", "--stop", "0.5", "--steps", "3",
        "--output", str(path), "--format", "json",
    )
    assert code == 0, err
    payload = json.loads(path.read_text())
    assert set(payload) == {"version", "rows"}
    assert payload["version"] == gent.__version__
    assert [row["param"] for row in payload["rows"]] == pytest.approx([0.1, 0.3, 0.5], abs=1e-15)
    for row in payload["rows"]:
        assert set(row) == set(cli.SWEEP_COLUMNS)
        assert row["e_b"] == bures_entanglement(symmetric_sts(row["param"])).e_b
        # a bures-only sweep writes the relent measures as null
        assert row["e_s"] is None and row["x1_star"] is None and row["x2_star"] is None


def test_sweep_unwritable_output_exits_parse(capsys, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    code, _, err = run_cli(
        capsys,
        "sweep", "--measure", "bures", "--parameter", "r",
        "--start", "0.1", "--stop", "0.5", "--steps", "3",
        "--output", str(path),
    )
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: cannot write output:")
    assert err.count("\n") == 1


def test_oracle_entropy_of_two_mode_cm(capsys, tmp_path):
    # the closed form of a two-mode CM is the entropy sum over its symplectic spectrum
    path = tmp_path / "sts.json"
    dump_cm_json(symmetric_sts(0.2, 0.3).to_cm(), path)
    code, out, err = run_cli(capsys, "oracle", "entropy", "--cm1", str(path), "--dim", "30")
    assert code == 0, err
    payload = json.loads(out)
    nu = 0.8  # both symplectic eigenvalues are nbar + 1/2
    expected = 2 * ((nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5))
    assert payload["closed_form"] == pytest.approx(expected, rel=1e-12)
    assert payload["value"] == pytest.approx(payload["closed_form"], abs=1e-8)
    assert payload["discrepancy"] < 1e-8
    # pure states under local squeezes: the Fock build and the closed form read each
    # kappa alike, within its band of 1/2 as exactly 1/2, so both print 0
    rng = np.random.default_rng(1)
    for r in (3.0, 4.0, 3.0, 4.0):
        u, w = np.exp(rng.uniform(-1.0, 1.0, 2))
        t = np.diag([u, 1 / u, w, 1 / w])
        dump_cm_json(t @ symmetric_sts(r).to_cm() @ t, path)
        code, out, err = run_cli(capsys, "oracle", "entropy", "--cm1", str(path))
        assert code == 0, err
        payload = json.loads(out)
        assert payload["value"] == payload["closed_form"] == 0, (r, u, w)


def test_oracle_refuses_a_band_edge_cm_where_check_does(capsys, tmp_path):
    # files at the edge of the rounding band, draws 991-1000 and 1781-1790 of band_edge_cms,
    # symmetrized as load_cm_json reads them: the Fock build reads check's spectrum and rule,
    # where the kappas of an eigensolve of V put draw 997, which check accepts, below the
    # vacuum and draw 1786, which check refuses, above it
    path = tmp_path / "edge.json"
    codes = []
    for i, v in enumerate(band_edge_cms(1791)):
        if 991 <= i <= 1000 or i >= 1781:
            dump_cm_json(v, path)
            code, _, _ = run_cli(capsys, "check", "--cm", str(path))
            code_oracle, _, err = run_cli(capsys, "oracle", "entropy", "--cm1", str(path), "--dim", "4")
            assert (code == cli.EXIT_UNPHYSICAL) == (code_oracle == cli.EXIT_UNPHYSICAL), (i, err)
            codes.append(code_oracle)
    assert 0 < codes.count(cli.EXIT_UNPHYSICAL) < len(codes)


def _python(*argv):
    """Run the interpreter on argv in a new process that imports gent from this tree."""
    src = os.path.dirname(os.path.dirname(gent.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_cli_import_leaves_out_oracle_and_scipy():
    code = "import sys, gent.cli; print([m for m in sys.modules if m == 'gent.fock' or m.split('.')[0] == 'scipy'])"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# each entry point in one fresh interpreter, in this order: (label, argv or None for
# `import gent`, exit code, whether numpy may be loaded once it has run)
ENTRY_POINTS = [
    ("import gent", None, None, False),
    ("bures --b --verify", ["bures", "--b", "1", "--c", "0.8", "--d", "-0.6", "--verify"], 0, False),
    ("relent --r", ["relent", "--r", "0.5", "--nbar", "0.1"], 0, False),
    ("--help", ["--help"], 0, False),
    ("check --b", ["check", "--b", "1", "--c", "0.8", "--d", "-0.6"], 3, False),
    ("bures --cm", ["bures", "--cm", "{cm}"], 0, True),
    ("check --cm", ["check", "--cm", "{cm}"], 3, True),
    ("relent --verify", ["relent", "--r", "0.5", "--verify"], 0, True),
    ("sweep", ["sweep", "--measure", "both", "--parameter", "r", "--start", "0", "--stop", "1",
               "--steps", "3", "--output", "{csv}"], 0, True),
    ("oracle", ["oracle", "fidelity", "--state1", "1,1", "--state2", "0.5,0.5", "--dim", "8"], 0, True),
]

_ENTRY_POINT_SCRIPT = """
import contextlib, io, json, sys
report = []
for label, argv, _, _ in json.loads(sys.argv[1]):
    code = None
    with contextlib.redirect_stdout(io.StringIO()):
        if argv is None:
            import gent
        else:
            from gent import cli
            try:
                cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    report.append([label, code, "numpy" in sys.modules, "logging" in sys.modules])
print(json.dumps(report))
"""


def test_parameter_path_loads_no_numpy(tmp_path):
    path = tmp_path / "cm.json"
    dump_cm_json(StandardFormI(1.0, 1.0, 0.8, -0.6).to_cm(), path)
    fill = {"{cm}": str(path), "{csv}": str(tmp_path / "sweep.csv")}
    entries = [(label, argv and [fill.get(a, a) for a in argv], code, numpy)
               for label, argv, code, numpy in ENTRY_POINTS]
    proc = _python("-c", _ENTRY_POINT_SCRIPT, json.dumps(entries))
    assert proc.returncode == 0, proc.stderr
    # no entry point loads logging
    assert json.loads(proc.stdout) == [[label, code, numpy, False] for label, _, code, numpy in entries]
    # `import gent` loads its own modules, and of the rest only what dataclasses and math load
    script = ("import sys, dataclasses, math; known = set(sys.modules); import gent; "
              "print(sorted(m for m in set(sys.modules) - known if m.split('.')[0] not in ('gent', '__future__')))")
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _library_payloads(state):
    """The `--b` JSON fields of gent bures and gent relent, from the library itself."""
    inp = {"b": state.b, "c": state.c, "d": -state.d_abs}
    lib_b, lib_s = bures_entanglement(state), rel_ent_entanglement(state)
    return ({"input": inp, **dataclasses.asdict(lib_b)},
            {"input": inp, **dataclasses.asdict(lib_s), "kappa_tilde_minus": state.kappa_tilde_minus})


def _parameter_cases():
    """(state, c and d flags) on seeded physical states and on states with b above 1/2 within
    rounding, which is read as given: as given, with c and |d| swapped, and with either sign
    of det C < 0; then vacuum-local b below 1/2 read as 1/2 and det C > 0 within rounding."""
    rng = np.random.default_rng(1717)
    states = []
    while len(states) < 150:
        b = rng.uniform(0.5, 4.0)
        c = rng.uniform(0.0, b)
        d_abs = rng.uniform(0.0, c)
        state = SymmetricState(b, c, d_abs)
        if state.is_physical():
            states.append(state)
    states += [SymmetricState(0.5 + db, c, c * (1 - 1e-7)) for db in (5e-13, 1e-12) for c in (1e-7, 3e-7, 1e-6)]
    cases = []
    for state in states:
        b, c, d_abs = state.b, state.c, state.d_abs
        for cd in ((c, -d_abs), (-c, d_abs), (d_abs, -c), (-d_abs, c)):
            cases.append((state, ("--b", repr(b), "--c", repr(cd[0]), "--d", repr(cd[1]))))
    for db in (0.0, 1e-16, 5e-13, 1e-12):
        for cd in ((0.0, 0.0), (0.0, -1e-13), (1e-13, 1e-13), (-3e-13, -2e-13)):
            d_abs, c = sorted(abs(x) for x in cd)
            flags = ("--b", repr(0.5 - db), "--c", repr(cd[0]), "--d", repr(cd[1]))
            cases.append((SymmetricState(0.5, c, d_abs), flags))
    return cases


def test_parameter_json_is_the_library_bit_for_bit(capsys):
    for state, flags in _parameter_cases():
        want_b, want_s = _library_payloads(state)
        for command, want in (("bures", want_b), ("relent", want_s)):
            code, out, err = run_cli(capsys, command, *flags)
            assert code == 0, (flags, err)
            got = json.loads(out)
            assert {k: got[k] for k in want} == want, (command, flags)


def test_parameter_path_refuses_as_the_matrix_path(capsys, tmp_path):
    # det C > 0 beyond rounding exits 4 with the message of --cm, below the vacuum (kappa_- = 0.3)
    # 2 first; b <= 0 is a V that is not positive definite, with the line of its --cm file
    cases = (("1", "0.3", "0.2", cli.EXIT_NOT_SYMMETRIC), ("1", "-0.2", "-0.3", cli.EXIT_NOT_SYMMETRIC),
             ("0.4", "0.1", "0.1", cli.EXIT_UNPHYSICAL), ("0", "0.3", "0.2", cli.EXIT_UNPHYSICAL),
             ("-1", "0.3", "0.2", cli.EXIT_UNPHYSICAL))
    for b, c, d, want in cases:
        for command in ("bures", "relent"):
            code_b, _, err_b = run_cli(capsys, command, "--b", b, "--c", c, "--d", d)
            path = tmp_path / "cm.json"
            dump_cm_json(StandardFormI(float(b), float(b), float(c), float(d)).to_cm(), path)
            code, _, err_cm = run_cli(capsys, command, "--cm", str(path))
            assert code == code_b == want
            assert err_b == err_cm
            if float(b) <= 0:
                assert err_b == "error: unphysical state: covariance matrix is not positive definite\n"


# inputs below the vacuum, as parameters (where they have them) and as CM files: a state
# whose det C > 0 (kappa_- = 0.1 and 0.3), one whose b1 != b2 (kappa_- = 0.3), 0.45 I
UNPHYSICAL_INPUTS = [
    (("1", "0.9", "0.9"), StandardFormI(1.0, 1.0, 0.9, 0.9).to_cm()),
    (("0.4", "0.1", "0.1"), StandardFormI(0.4, 0.4, 0.1, 0.1).to_cm()),
    (None, np.diag([1.0, 1.0, 0.3, 0.3])),
    (("0.45", "0", "0"), 0.45 * np.eye(4)),
]


@pytest.mark.parametrize("bcd, v", UNPHYSICAL_INPUTS)
def test_unphysical_input_is_refused_before_any_symmetric_form_check(capsys, tmp_path, bcd, v):
    # bures and relent decide physicality first, on the spectrum and rule check reads: one
    # refusal for both commands and both forms of a state, never exit 4
    path = tmp_path / "cm.json"
    dump_cm_json(v, path)
    forms = [("--cm", str(path))] + ([] if bcd is None else [("--b", bcd[0], "--c", bcd[1], "--d", bcd[2])])
    errs = set()
    for flags in forms:
        code, out, _ = run_cli(capsys, "check", *flags)
        assert code == cli.EXIT_UNPHYSICAL and "physical:           False" in out, flags
        for command in ("bures", "relent"):
            code, out, err = run_cli(capsys, command, *flags)
            assert (code, out) == (cli.EXIT_UNPHYSICAL, ""), (command, flags, err)
            errs.add(err)
    (err,) = errs
    assert re.fullmatch(r"error: unphysical state: kappa_- = 1/2 - \S+, beyond the rounding allowance "
                        r"1e-12 at scale \S+\n", err), err


def _seeded_parameters():
    """200 seeded (b, c, d) with |d| <= c < b and d of either sign: kappa_- = sqrt((b - d)(b - c))
    drawn in (0.1, 0.9) for half of them, within four rounding bands of 1/2 for the rest."""
    rng = np.random.default_rng(2626)
    cases = []
    for i in range(200):
        km = rng.uniform(0.1, 0.9) if i % 2 else 0.5
        b = km * rng.uniform(1.01, 4.0)
        km += 0.0 if i % 2 else cm_core.rounding_tol(b) * rng.uniform(-4.0, 4.0)
        e = rng.uniform(b - math.sqrt(b * b - km * km), km)  # b - c, so that |d| <= c
        cases.append((b, b - e, b - km * km / e))
    return cases


def test_check_refuses_exactly_where_the_measures_refuse(capsys):
    # the measures read the spectrum and rule of check: unphysical for one, unphysical for all
    refused = signs = 0
    for b, c, d in _seeded_parameters():
        flags = ("--b", repr(b), "--c", repr(c), "--d", repr(d))
        codes = [run_cli(capsys, command, *flags)[0] for command in ("check", "bures", "relent")]
        refusals = {code == cli.EXIT_UNPHYSICAL for code in codes}
        assert len(refusals) == 1, (flags, codes)
        refused += refusals.pop()
        signs |= 1 << (d > 0)
    assert 60 <= refused <= 140 and signs == 3, (refused, signs)


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
        dump_cm_json(0.5 * t @ t.T, path)
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


@pytest.mark.parametrize("r", ["0.05", "0.5", "2", "5"])
def test_bures_verify_on_pure_states(capsys, r):
    # the one-mode maxima of a pure state lie on the edges a = 0 (its kappa_+- are read
    # as exactly 1/2 on either side of rounding), where b' = 1/2 must not round below 1/2
    code, out, err = run_cli(capsys, "bures", "--r", r, "--nbar", "0", "--verify")
    assert code == 0, err
    payload = json.loads(out)
    arg = payload["verify"]["argmax"]
    assert abs(payload["verify"]["f_star"] - payload["f_max"]) <= 1e-9
    assert abs(math.sqrt((arg["b"] + arg["d"]) * (arg["b"] - arg["c"])) - 0.5) <= 1e-12
    assert arg["b"] >= 0.5


@pytest.mark.parametrize("command", ["check", "bures", "relent"])
def test_non_positive_definite_cm_is_unphysical(capsys, tmp_path, command):
    # a block that is not positive definite, then V1 = V2 = I with a V that is not: every
    # command gives symplectic_spectrum's refusal
    path = tmp_path / "npd.json"
    for v in (np.diag([1.0, 1.0, 1.0, -0.1]), StandardFormI(1.0, 1.0, 2.0, -2.0).to_cm()):
        dump_cm_json(v, path)
        code, out, err = run_cli(capsys, command, "--cm", str(path))
        assert (code, out) == (cli.EXIT_UNPHYSICAL, ""), err
        assert err == "error: unphysical state: covariance matrix is not positive definite\n"


def test_check_reads_no_form_of_an_unphysical_cm(capsys, tmp_path):
    # the block [[1, 2], [2, 4]] is singular, so the CM has no standard form I: the spectrum,
    # read from that form, refuses it; a spectrum that found the CM positive definite by a
    # rounding would make check report it unphysical, as it reports every CM below the vacuum
    v = np.array([[1.0, 2.0, 1e-9, 0.0], [2.0, 4.0, 0.0, 1e-9], [1e-9, 0.0, 1.0, 0.0], [0.0, 1e-9, 0.0, 1.0]])
    path = tmp_path / "cm.json"
    dump_cm_json(v, path)
    code, out, err = run_cli(capsys, "check", "--cm", str(path))
    assert code == cli.EXIT_UNPHYSICAL
    try:
        cm_core.symplectic_spectrum(v)
    except NonPositiveDefinite:
        assert err == "error: unphysical state: covariance matrix is not positive definite\n"
    else:
        assert err == "" and out.startswith("physical:           False")


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
@pytest.mark.parametrize(
    "argv", [("check", "--cm"), ("bures", "--cm"), ("relent", "--cm"), ("oracle", "entropy", "--cm1")]
)
def test_non_finite_cm_entry_exits_parse(capsys, tmp_path, argv, entry):
    path = tmp_path / "v.json"
    path.write_text('{"v": [[%s,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]}' % entry)
    code, _, err = run_cli(capsys, *argv, str(path))
    assert code == cli.EXIT_PARSE, err
    assert "NaN or infinite" in err


@pytest.mark.parametrize(
    "payload", ["[1, 2]", "5", '"v"', '{"v": {"a": 1}}', '{"v": [[{"a": 1}]]}', '{"w": 1}', "{}"]
)
@pytest.mark.parametrize(
    "argv", [("check", "--cm"), ("bures", "--cm"), ("relent", "--cm"), ("oracle", "entropy", "--cm1")]
)
def test_cm_file_not_an_object_of_numbers_exits_parse(capsys, tmp_path, argv, payload):
    # a top level other than an object, an object where a number belongs, or no field v is
    # a parse error like a ragged matrix, not a TypeError or a KeyError, and names the field
    path = tmp_path / "v.json"
    path.write_text(payload)
    code, _, err = run_cli(capsys, *argv, str(path))
    assert code == cli.EXIT_PARSE, err
    assert err.startswith(f"error: {argv[-1]}: ") and "field 'v'" in err, err


@pytest.mark.parametrize("value", ["nan", "inf", "NaN", "1e999"])
@pytest.mark.parametrize(
    "argv",
    [
        ("bures", "--b", "{}", "--c", "0.5", "--d", "-0.1"),
        ("check", "--b", "1", "--c", "{}", "--d", "-0.1"),
        ("relent", "--b", "1", "--c", "0.5", "--d", "{}"),
        ("bures", "--r", "{}"),
        ("relent", "--r", "1", "--nbar", "{}"),
        ("sweep", "--measure", "both", "--parameter", "r", "--start", "{}", "--stop", "1",
         "--steps", "3", "--output", "x.csv"),
        ("sweep", "--measure", "both", "--parameter", "r", "--start", "0", "--stop", "{}",
         "--steps", "3", "--output", "x.csv"),
        ("sweep", "--measure", "both", "--parameter", "r", "--start", "0", "--stop", "1",
         "--steps", "3", "--nbar", "{}", "--output", "x.csv"),
    ],
)
def test_non_finite_float_flag_exits_parse(capsys, tmp_path, monkeypatch, argv, value):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *(a.format(value) for a in argv))
    assert code == cli.EXIT_PARSE, err
    assert "finite number" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("pair", ["nan,1", "1,inf", "inf,inf"])
def test_non_finite_one_mode_state_exits_parse(capsys, pair):
    code, _, err = run_cli(capsys, "oracle", "fidelity", "--state1", pair, "--state2", "0.5,0.5")
    assert code == cli.EXIT_PARSE, err
    assert "finite number" in err


@pytest.mark.parametrize("flag", ["--state1 {}", "--state1={}"])
@pytest.mark.parametrize("pair", ["-1,0.5", "0,0.5", "1,-2"])
def test_non_positive_one_mode_state_is_unphysical(capsys, flag, pair):
    # a variance that is not positive is a CM that is not positive definite, as a --cm file's
    code, out, err = run_cli(capsys, "oracle", "entropy", *flag.format(pair).split(" "))
    assert code == cli.EXIT_UNPHYSICAL, err
    assert err == "error: unphysical state: covariance matrix is not positive definite\n"
    assert out == ""


def test_non_positive_definite_cm_is_unphysical_in_oracle(capsys, tmp_path):
    path = tmp_path / "npd.json"
    dump_cm_json(np.array([[1.0, 0, 2, 0], [0, 1, 0, 0], [2, 0, 1, 0], [0, 0, 0, 1]]), path)
    code, _, err = run_cli(capsys, "oracle", "entropy", "--cm1", str(path))
    assert code == cli.EXIT_UNPHYSICAL, err
    assert "unphysical" in err


def test_oracle_builds_a_strongly_squeezed_cm(tmp_path):
    # entries of about e^12: check --cm calls the file physical and entangled, and the Fock
    # build, whose factors are closed forms with no check of their own, builds it
    path = tmp_path / "sts6.json"
    dump_cm_json(symmetric_sts(6).to_cm(), path)
    assert _python("-m", "gent.cli", "check", "--cm", str(path)).returncode == cli.EXIT_ENTANGLED
    proc = _python("-m", "gent.cli", "oracle", "entropy", "--cm1", str(path), "--dim", "6")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["value"] == payload["closed_form"] == 0


@pytest.mark.parametrize("functional, k", [("entropy", 1), ("fidelity", 2)])
def test_oracle_state_and_cm_of_one_state_exit_parse(tmp_path, functional, k):
    # --stateK and --cmK name the same state: the pair is refused, never one of them dropped
    path = tmp_path / "vacuum.json"
    dump_cm_json(0.5 * np.eye(4), path)
    flags = ["--state1", "0.7,0.6", "--state2", "1,0.8"][: 2 * k] + [f"--cm{k}", str(path)]
    proc = _python("-m", "gent.cli", "oracle", functional, *flags, "--dim", "10")
    assert proc.returncode == cli.EXIT_PARSE, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: gent oracle")
    assert proc.stderr.splitlines()[-1] == f"gent oracle: error: argument --cm{k}: not allowed with argument --state{k}"


@pytest.mark.parametrize("functional, first, second", [("fidelity", "state", "cm"), ("relent", "cm", "state")])
def test_oracle_mixed_mode_counts_exit_parse(tmp_path, functional, first, second):
    # a one-mode --stateK against a two-mode --cmK is refused before any state is built
    path = tmp_path / "sts.json"
    dump_cm_json(symmetric_sts(0.3).to_cm(), path)
    value = {"state": "0.6,0.6", "cm": str(path)}
    flags = [f"--{first}1", value[first], f"--{second}2", value[second]]
    proc = _python("-m", "gent.cli", "oracle", functional, *flags, "--dim", "6")
    assert proc.returncode == cli.EXIT_PARSE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: oracle {functional}: one state has one mode")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""
