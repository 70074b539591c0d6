import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pulsesmith
from pulsesmith import cli
from pulsesmith.cli import main, parse_angle, parse_axis_spec, parse_bloch_vector
from pulsesmith.sequences import FAMILIES, FAMILY_SPECS, sequence_to_dict, synthesize, total_time

PI = math.pi
README = Path(__file__).resolve().parents[1] / "README.md"
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _main_quietly(argv):
    # cli.main in this process: (exit code, stdout, stderr, warning messages)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _assert_documented_exit(argv):
    # exit 0, 2 or 3 without a warning; a usage error is one "error:" line
    code, out, err, caught = _main_quietly(argv)
    assert caught == [], (argv, caught)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)


# ---------------------------------------------------------------- parsing


def test_angle_expr_frozen_values():
    assert parse_angle("pi/2") == 1.5707963267948966
    assert parse_angle("pi") == PI
    assert parse_angle("2pi") == 2 * PI
    assert parse_angle("1.0") == 1.0
    assert parse_angle("3pi/4") == 3 * PI / 4
    assert parse_angle("0.5pi") == 0.5 * PI
    assert parse_angle("-0.25") == -0.25


def test_angle_expr_round_trip_is_exact():
    rng = np.random.default_rng(3)
    for x in list(rng.uniform(-10, 10, size=100)) + [PI, 2 * PI, 0.1]:
        x = float(x)
        assert parse_angle(repr(x)) == x


@pytest.mark.parametrize("bad", ["", "pie", "2pipi", "pi/0", "1..2", "pi/-2"])
def test_angle_expr_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_angle(bad)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400", "-1e400", "9" * 400 + "pi"])
def test_angle_expr_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="must be finite"):
        parse_angle(bad)


def test_axis_spec_parsing():
    spec = parse_axis_spec("-0.25:0.25:101")
    assert (spec.start, spec.stop, spec.count) == (-0.25, 0.25, 101)
    spec = parse_axis_spec("pi/2:pi:2")
    assert spec.start == PI / 2 and spec.stop == PI
    for bad in ("1:2", "0:1:x", "0:1:1"):
        with pytest.raises(ValueError):
            parse_axis_spec(bad)


def test_bloch_vector_parsing():
    v = parse_bloch_vector("0,0,1")
    assert (v.x, v.y, v.z) == (0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        parse_bloch_vector("1,2")


# ---------------------------------------------------------------- synth


def test_synth_scorbutus_pi(tmp_path):
    out = tmp_path / "seq.json"
    assert main(["synth", "--family", "scorbutus", "--theta", "pi", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["family"] == "scorbutus"
    assert len(data["pulses"]) == 5
    assert data["total_time"] == pytest.approx(5 * PI, abs=1e-12)


def test_synth_elementary_half_pi(capsys):
    assert main(["synth", "--family", "elementary", "--theta", "pi/2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pulses"] == [{"theta": 1.5707963267948966, "phi": 0.0}]


def test_synth_out_of_domain_exit_code(capsys):
    code = main(["synth", "--family", "scrofulous", "--theta", "3.9"])
    assert code == 2
    assert "arcsinc argument out of branch range" in capsys.readouterr().err


def test_synth_subnormal_angle_is_a_usage_error(capsys):
    assert main(["synth", "--family", "scrofulous", "--theta", "5e-324"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: scrofulous:")


def test_synth_dump_matrix(capsys):
    assert main(["synth", "--family", "elementary", "--theta", "pi", "--dump-matrix"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert np.max(np.abs(np.array(data["matrix"]["re"]))) < 1e-12
    assert data["matrix"]["im"][0][1] == pytest.approx(-1.0, abs=1e-12)


def test_synth_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["synth", "--family", "skinsc", "--theta", "2.0", "--phi", "1.0"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- verify


def test_verify_scorbutus_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--family", "scorbutus", "--theta", "pi", "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "PASS" in text
    report = json.loads(out.read_text())
    assert report["pass"] is True
    for ray in ("eps", "f", "mixed"):
        assert abs(report["rays"][ray]["fitted_slope"] - 4.0) <= 0.3
    assert abs(report["ore_residual"]["residual"]) <= 1e-10


def test_verify_elementary_baseline(capsys):
    assert main(["verify", "--family", "elementary", "--theta", "pi"]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text


def test_verify_scrofulous_slopes(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--family", "scrofulous", "--theta", "pi", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["rays"]["eps"]["fitted_slope"] - 4.0) <= 0.3
    assert abs(report["rays"]["f"]["fitted_slope"] - 2.0) <= 0.3
    assert report["ore_residual"]["residual"] == pytest.approx(2.0, abs=1e-10)


def test_verify_single_ray(capsys):
    assert main(["verify", "--family", "scorbutus", "--theta", "pi", "--ray", "eps"]) == 0
    text = capsys.readouterr().out
    assert "ray eps" in text and "ray f" not in text


def test_verify_fail_exit_code(tmp_path, capsys):
    # a sequence labeled scorbutus but holding a bare pulse cannot meet the
    # fourth-order expectations
    bogus = {
        "family": "scorbutus",
        "target": {"theta": PI, "phi": 0.0},
        "pulses": [{"theta": PI, "phi": 0.0}],
        "total_time": PI,
    }
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(bogus))
    code = main(["verify", "--sequence-file", str(path)])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


def test_verify_round_trip_through_sequence_file(tmp_path, capsys):
    seq_path = tmp_path / "seq.json"
    direct = tmp_path / "direct.json"
    loaded = tmp_path / "loaded.json"
    assert main(["synth", "--family", "scorbutus", "--theta", "pi", "--out", str(seq_path)]) == 0
    assert main(["verify", "--family", "scorbutus", "--theta", "pi", "--out", str(direct)]) == 0
    assert main(["verify", "--sequence-file", str(seq_path), "--out", str(loaded)]) == 0
    capsys.readouterr()
    assert direct.read_bytes() == loaded.read_bytes()


def test_verify_flag_conflicts_are_aggregated(capsys, tmp_path):
    path = tmp_path / "seq.json"
    main(["synth", "--family", "elementary", "--theta", "pi", "--out", str(path)])
    capsys.readouterr()
    code = main([
        "verify", "--sequence-file", str(path), "--family", "elementary", "--theta", "pi",
    ])
    assert code == 2
    assert "--sequence-file excludes" in capsys.readouterr().err
    code = main(["verify"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--family is required" in err and "--theta is required" in err


@pytest.mark.parametrize("command", ["verify", "grid", "trajectory"])
@pytest.mark.parametrize("option", [["--phi", "1.3"], ["--phi", "0"], ["--theta", "0"]])
def test_sequence_file_rejects_target_options(command, option, tmp_path, capsys):
    # a parsed 0.0 is falsy, so a zero angle must be rejected too
    path = tmp_path / "seq.json"
    main(["synth", "--family", "elementary", "--theta", "pi", "--out", str(path)])
    capsys.readouterr()
    code = main([command, "--sequence-file", str(path)] + option)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and option[0] in lines[0]


def test_verify_rejects_a_family_it_cannot_certify(tmp_path, capsys):
    # a bare pi pulse for a theta=1 target, labelled with a family that has
    # no expectations: verify must not pass it, grid and trajectory still run
    custom = {
        "family": "custom",
        "target": {"theta": 1.0, "phi": 0.0},
        "pulses": [{"theta": PI, "phi": 0.0}],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(custom))
    code = main(["verify", "--sequence-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "'custom'" in captured.err
    for command in ("grid", "trajectory"):
        assert main([command, "--sequence-file", str(path)]) == 0
        assert capsys.readouterr().out


def test_every_family_has_one_slope_per_verify_ray():
    for name, spec in FAMILY_SPECS.items():
        assert set(spec.slopes) == set(cli.RAY_DIRECTIONS), name


_GOOD_PULSE = '{"theta": 1.0, "phi": 0.0}'
_GOOD_HEAD = '"family": "scorbutus", "target": {"theta": 1.0, "phi": 0.0}'


@pytest.mark.parametrize("command", ["verify", "grid", "trajectory"])
@pytest.mark.parametrize("text, where", [
    ("[]", "sequence must be an object"),
    ('{"pulses": []}', "family is missing"),
    ('{"family": "scorbutus", "pulses": [%s]}' % _GOOD_PULSE, "target is missing"),
    ('{"family": "scorbutus", "target": {"theta": 1.0, "phi": 0.0}}', "pulses is missing"),
    ('{%s, "pulses": []}' % _GOOD_HEAD, "pulses must be a non-empty list"),
    ('{%s, "pulses": [{"theta": 1.0}]}' % _GOOD_HEAD, "pulses[0].phi is missing"),
    ('{%s, "pulses": [%s, {"phi": 0.0}]}' % (_GOOD_HEAD, _GOOD_PULSE), "pulses[1].theta is missing"),
    ('{%s, "pulses": [%s, 3]}' % (_GOOD_HEAD, _GOOD_PULSE), "pulses[1] must be an object"),
    ('{%s, "pulses": [{"theta": "nan", "phi": 0.0}]}' % _GOOD_HEAD, "pulses[0].theta"),
    ('{%s, "pulses": [%s, %s, {"theta": true, "phi": 0.0}]}' % ((_GOOD_HEAD,) + (_GOOD_PULSE,) * 2),
     "pulses[2].theta"),
    ('{%s, "pulses": [{"theta": NaN, "phi": 0.0}]}' % _GOOD_HEAD, "pulses[0].theta"),
    ('{%s, "pulses": [{"theta": 1.0, "phi": -Infinity}]}' % _GOOD_HEAD, "pulses[0].phi"),
    ('{"family": "scorbutus", "target": {"theta": 1e400, "phi": 0.0}, "pulses": [%s]}'
     % _GOOD_PULSE, "target.theta"),
    ('{%s, "pulses": [{"theta": 1%s, "phi": 0.0}]}' % (_GOOD_HEAD, "0" * 400), "pulses[0].theta"),
    ('{"family": 5, "target": {"theta": 1.0, "phi": 0.0}, "pulses": [%s]}' % _GOOD_PULSE,
     "family must be a string"),
    ("[" * 100_000, "nested too deeply"),
], ids=[
    "list", "no-family", "no-target", "no-pulses", "empty-pulses", "no-phi", "no-theta",
    "pulse-not-object", "string-nan", "boolean", "json-nan", "json-infinity",
    "exponent-overflow", "huge-integer", "family-not-string", "deep-nesting",
])
def test_malformed_sequence_file_exit_code(command, text, where, tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(text)
    code = main([command, "--sequence-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and where in captured.err


_ANGLES = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))
_JUNK = st.one_of(
    st.floats(),  # JSON NaN and Infinity included
    st.integers(-(10**310), 10**310),
    st.booleans(), st.none(), st.text(max_size=3), st.just([]), st.just({}),
)
_ERRORS = st.one_of(st.floats(-0.5, 0.5), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _sequence_files(draw):
    # a synthesized sequence, random pulses under a family name, one of
    # those with a member removed or replaced by junk, or any text at all
    kind = draw(st.integers(0, 4))
    if kind == 4:
        return draw(st.text(max_size=12))
    pulse = st.fixed_dictionaries({"theta": _ANGLES, "phi": _ANGLES})
    data = {
        "family": draw(st.sampled_from(FAMILIES)),
        "target": draw(pulse),
        "pulses": draw(st.lists(pulse, min_size=1, max_size=6)),
    }
    if kind == 0:
        with contextlib.suppress(ValueError):
            theta = draw(st.floats(0.0, 2 * PI, exclude_min=True, exclude_max=True))
            data = sequence_to_dict(synthesize(data["family"], theta, draw(_ANGLES)))
    if kind == 3:
        members = [(data, key) for key in data]
        members += [(p, key) for p in (data["target"], *data["pulses"]) for key in ("theta", "phi")]
        where, key = draw(st.sampled_from(members))
        if draw(st.booleans()):
            del where[key]
        else:
            where[key] = draw(_JUNK)
    return json.dumps(data)


@PROPERTY_SETTINGS
@given(text=_sequence_files(), eps=_ERRORS, f=_ERRORS, counts=st.tuples(st.integers(2, 5), st.integers(2, 5)))
def test_fuzzed_sequence_files_exit_as_documented(text, eps, f, counts):
    # every command that reads a sequence file, on whatever the file holds
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seq.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        source = ["--sequence-file", path]
        _assert_documented_exit(["verify", *source])
        _assert_documented_exit([
            "grid", *source, f"--eps={-abs(eps)!r}:{eps!r}:{counts[0]}", f"--f=0:{f!r}:{counts[1]}",
        ])
        _assert_documented_exit(["trajectory", *source, f"--eps={eps!r}", f"--f={f!r}", "--samples", "3"])


# bounds as typed, overflowing pairs such as -1e308:1e308 included
_BOUNDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]).map(repr),
    st.sampled_from(["0", "pi", "2pi", "pi/2", "3pi/4", "0.5", "-0.25"]),
)
_AXES = st.builds("{}:{}:{}".format, _BOUNDS, _BOUNDS, st.integers(-1, 5))


@PROPERTY_SETTINGS
@given(eps=_AXES, f=_AXES, thetas=_AXES)
@example(eps="-1e+308:1e+308:3", f="0:0:2", thetas="-1e+308:1e+308:3")
def test_fuzzed_axis_specs_exit_as_documented(eps, f, thetas):
    _assert_documented_exit(["grid", "--family", "scorbutus", "--theta", "pi", "--eps", eps, "--f", f])
    _assert_documented_exit(["timecompare", "--thetas", thetas])


@pytest.mark.parametrize("argv", [
    ["grid", "--family", "scorbutus", "--theta", "pi", "--eps", "-1e308:1e308:3", "--f", "0:0:2"],
    ["timecompare", "--thetas", "-1e308:1e308:3"],
])
def test_overflowing_axis_span_is_one_error_line(argv):
    # linspace over such a span used to warn twice, then give NaN and inf
    # points: an error naming NaN for grid, and exit 0 with NaN rows for
    # timecompare
    assert _main_quietly(argv) == (2, "", "error: axis span -1e+308:1e+308 overflows\n", [])


# 10**17 float64s (711 PiB) exceed any address space, so their allocation
# fails at once whatever the kernel's overcommit policy
_TOO_LARGE = str(10**17)


@pytest.mark.parametrize("argv", [
    # numpy's MemoryError ended the run with a traceback and exit 1
    ["grid", "--eps", f"0:1:{_TOO_LARGE}", "--f", "0:1:3"],
    # the sample fractions are one numpy allocation, not a Python list grown
    # until the machine runs out of memory
    ["trajectory", "--samples", _TOO_LARGE],
], ids=["grid", "trajectory"])
def test_a_request_too_large_to_allocate_is_a_usage_error(argv):
    code, out, err, caught = _main_quietly(argv[:1] + ["--family", "elementary", "--theta", "1"] + argv[1:])
    assert (code, out, caught) == (2, "", [])
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err


# ---------------------------------------------------------------- grid


def test_grid_small_csv(capsys):
    code = main([
        "grid", "--family", "elementary", "--theta", "pi",
        "--eps", "-0.2:0.2:5", "--f", "-0.2:0.2:5",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "epsilon,f,fidelity"
    assert len(lines) == 1 + 25
    center = lines[1 + 2 * 5 + 2].split(",")
    assert (float(center[0]), float(center[1])) == (0.0, 0.0)
    assert float(center[2]) == pytest.approx(1.0, abs=1e-12)


def _run_cli(argv, cwd, **env_extra):
    # the real process, as a shell runs it, with the package from src/
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    env.pop("PULSESMITH_THREADS", None)
    return subprocess.run(
        [sys.executable, "-m", "pulsesmith.cli", *argv],
        capture_output=True, env=dict(env, **env_extra), cwd=cwd, timeout=60,
    )


def test_grid_deterministic_across_threads(tmp_path):
    argv = [
        "grid", "--family", "scorbutus", "--theta", "pi/2",
        "--eps", "-0.25:0.25:11", "--f", "-0.25:0.25:11",
    ]
    outs = []
    # separate processes with different hash seeds; the variable is not
    # read, so no setting may change the bytes
    for seed, threads in (("0", None), ("1", "1"), ("2", "4"), ("3", "lots")):
        extra = {"PYTHONHASHSEED": seed}
        if threads is not None:
            extra["PULSESMITH_THREADS"] = threads
        path = tmp_path / f"{seed}.csv"
        run = _run_cli(argv + ["--out", str(path)], tmp_path, **extra)
        assert run.returncode == 0 and run.stdout == b"" and run.stderr == b"", run.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2] == outs[3]


def test_grid_bad_threads_env(tmp_path):
    # a value that once exited 2 is now ignored like any other
    argv = [
        "grid", "--family", "elementary", "--theta", "pi",
        "--eps", "-0.1:0.1:3", "--f", "-0.1:0.1:3",
    ]
    plain = _run_cli(argv, tmp_path)
    assert plain.returncode == 0 and plain.stderr == b"", plain.stderr
    lots = _run_cli(argv, tmp_path, PULSESMITH_THREADS="lots")
    assert lots.returncode == 0
    assert lots.stdout == plain.stdout
    assert lots.stderr == b""


def test_grid_json_format(capsys):
    code = main([
        "grid", "--family", "elementary", "--theta", "pi",
        "--eps", "-0.1:0.1:3", "--f", "-0.1:0.1:3", "--format", "json",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["eps_axis"] == {"start": -0.1, "stop": 0.1, "count": 3}
    assert len(data["values"]) == 3 and len(data["values"][0]) == 3


@pytest.mark.parametrize("argv", [
    ["grid", "--eps", "0:nan:3"],
    ["grid", "--eps", "0:inf:3"],
    ["grid", "--f=-inf:0:3"],
    ["trajectory", "--eps", "nan"],
    ["trajectory", "--f", "inf"],
])
def test_non_finite_errors_exit_code(argv, capsys):
    code = main(argv[:1] + ["--family", "elementary", "--theta", "pi"] + argv[1:])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["--theta", "1e308", "--eps", "1"],  # theta (1 + eps) overflows
    ["--theta", "pi", "--f", "1e200"],   # f^2 overflows
])
def test_trajectory_non_unitary_rotation_exit_code(argv, capsys):
    # finite inputs whose partial rotations overflow to NaN
    code = main(["trajectory", "--family", "elementary"] + argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "non-unitary" in captured.err


def test_grid_overflowing_angle_reports_one_error_line(tmp_path):
    # the real process, whose default filters would print a RuntimeWarning
    # for every overflow and invalid sin or cos before the error
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    argv = ["grid", "--family", "elementary", "--theta", "1e308", "--eps", "1:1:2", "--f", "0:0:2"]
    run = subprocess.run(
        [sys.executable, "-m", "pulsesmith.cli", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == "error: non-unitary operand\n"


@pytest.mark.parametrize("command", ["synth", "grid", "verify", "trajectory"])
@pytest.mark.parametrize("flag", ["--theta", "--phi"])
@pytest.mark.parametrize("bad", ["nan", "inf", "1e400", "pi/0"])
def test_non_finite_angles_exit_code(command, flag, bad, capsys):
    angles = {"--theta": "pi", "--phi": "0", flag: bad}
    argv = [command, "--family", "scorbutus"]
    for name, value in angles.items():
        argv += [name, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the parser's reason, not only argparse's "invalid ... value"
    reason = "divides by zero" if bad == "pi/0" else "must be finite"
    assert f"argument {flag}: angle {bad!r} {reason}" in captured.err


# ---------------------------------------------------------------- timecompare


def test_timecompare_help_names_no_family():
    # the columns follow the bi-robust rows of FAMILY_SPECS, so the help
    # line says that instead of naming two families
    text = " ".join(cli.build_parser().format_help().split())
    assert "timecompare total operation time of each bi-robust family per angle" in text
    assert "SCORBUTUS" not in text


def test_timecompare_takes_no_phase():
    # no bi-robust family's total time depends on the target phase, so
    # timecompare has no --phi to ignore
    code, out, err, caught = _main_quietly(["timecompare", "--phi", "1"])
    assert (code, out, caught) == (2, "", [])
    assert "unrecognized arguments: --phi 1" in err


def test_timecompare_frozen_rows(capsys):
    assert main(["timecompare", "--thetas", "pi/2:pi:2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "theta,L_scorbutus,L_skinsc,note"
    half = lines[1].split(",")
    full = lines[2].split(",")
    assert float(half[1]) == pytest.approx(13.67320991643539, abs=1e-10)
    assert float(half[2]) == pytest.approx(18.974883752706823, abs=1e-10)
    assert float(full[1]) == pytest.approx(5 * PI, abs=1e-12)
    assert float(full[2]) == pytest.approx(19 * PI / 3, abs=1e-12)


def test_timecompare_default_csv_is_rebuilt_from_total_times(capsys):
    # the default angles are 256 points over (0, pi], each inside both domains
    lines = ["theta,L_scorbutus,L_skinsc,note"]
    for theta in np.linspace(0.0, PI, 257)[1:].tolist():
        times = [total_time(synthesize(family, theta, 0.0)) for family in ("scorbutus", "skinsc")]
        lines.append(",".join(map(repr, [theta, *times])) + ",")
    assert main(["timecompare"]) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_timecompare_default_grid_is_ordered(capsys):
    assert main(["timecompare"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(lines) == 256
    for line in lines:
        parts = line.split(",")
        assert float(parts[1]) < float(parts[2])


# ---------------------------------------------------------------- trajectory


def test_trajectory_scorbutus_csv(capsys):
    code = main([
        "trajectory", "--family", "scorbutus", "--theta", "pi",
        "--eps", "0.1", "--f", "0.1", "--samples", "64",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 5 * 64 + 1
    assert lines[1] == "0,0.0,0.0,0.0,1.0"


def test_trajectory_elementary_reaches_south_pole(capsys):
    code = main([
        "trajectory", "--family", "elementary", "--theta", "pi", "--samples", "4",
    ])
    assert code == 0
    last = capsys.readouterr().out.strip().split("\n")[-1].split(",")
    assert float(last[4]) == pytest.approx(-1.0, abs=1e-10)


def test_trajectory_json_metadata(capsys):
    code = main([
        "trajectory", "--family", "skinsc", "--theta", "pi/2",
        "--eps", "0.05", "--f", "-0.02", "--samples", "2", "--format", "json",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["family"] == "skinsc"
    assert data["err"] == {"epsilon": 0.05, "f": -0.02}
    assert len(data["points"]) == 6 * 2 + 1


def test_trajectory_bad_initial(capsys):
    code = main([
        "trajectory", "--family", "elementary", "--theta", "pi", "--initial", "0,0",
    ])
    assert code == 2


# ---------------------------------------------------------------- plumbing


def test_io_error_exit_code(tmp_path, capsys):
    missing_dir = tmp_path / "no_such_dir" / "out.json"
    code = main(["synth", "--family", "elementary", "--theta", "pi", "--out", str(missing_dir)])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["synth"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"pulsesmith {pulsesmith.__version__}\n"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        assert pulsesmith.__version__ == tomllib.load(handle)["project"]["version"]


def test_cli_process_exit_codes(tmp_path):
    # the real process, as a shell runs it: exit status, not main's return
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({
        "family": "scorbutus",
        "target": {"theta": PI, "phi": 0.0},
        "pulses": [{"theta": PI, "phi": 0.0}],
    }))
    for argv, code, stream, text in [
        (["--version"], 0, "stdout", f"pulsesmith {pulsesmith.__version__}\n"),
        (["synth", "--family", "scorbutus", "--theta", "nan"], 2, "stderr", "must be finite"),
        (["verify", "--sequence-file", str(bogus)], 3, "stdout", "FAIL family=scorbutus"),
    ]:
        run = _run_cli(argv, tmp_path)
        assert run.returncode == code, (argv, run.stderr)
        assert text in getattr(run, stream).decode()


def test_readme_command_lines_are_the_same_in_and_out_of_process(tmp_path, monkeypatch):
    # README's command lines in order (verify reads the seq.json that synth
    # writes), once as separate processes with a fixed hash seed and an
    # ignored PULSESMITH_THREADS, once through cli.main in this process
    lines = [shlex.split(line)[1:] for line in README.read_text(encoding="utf-8").splitlines()
             if line.startswith("pulsesmith ")]
    assert len(lines) == 7
    runs = {}
    for where in ("process", "main"):
        cwd = tmp_path / where
        cwd.mkdir()
        if where == "process":
            runs[where] = [
                (run.returncode, run.stdout.decode(), run.stderr.decode())
                for run in (_run_cli(argv, cwd, PYTHONHASHSEED="1", PULSESMITH_THREADS="lots")
                            for argv in lines)
            ]
        else:
            monkeypatch.chdir(cwd)
            runs[where] = [_main_quietly(argv)[:3] for argv in lines]
        runs[where].append({p.name: p.read_bytes() for p in sorted(cwd.iterdir())})
    assert runs["process"] == runs["main"]
    assert [code for code, _, _ in runs["main"][:-1]] == [0] * 7
    assert sorted(runs["main"][-1]) == ["grid.csv", "path.csv", "report.json", "seq.json", "times.csv"]
