import json
import math

import numpy as np
import pytest

import oracles
from pulsesmith.bloch import (
    NORTH_POLE,
    BlochVector,
    _turn,
    apply_to_state,
    trajectory,
    trajectory_to_csv,
    trajectory_to_dict,
)
from pulsesmith.sequences import (
    FAMILIES,
    compose_with_errors,
    elementary,
    scorbutus,
    sequence_from_dict,
    synthesize,
)
from pulsesmith.su2 import (
    ErrorPair,
    Pulse,
    _axis_pair,
    _pair_product,
    gate_fidelity,
    rotation,
)

PI = math.pi
NORM_TOL = 1e-10
SOUTH_POLE = BlochVector(0.0, 0.0, -1.0)


def test_apply_identity_keeps_state():
    r = BlochVector(0.6, 0.0, 0.8)
    out = apply_to_state(oracles.ID, r)
    assert (out.x, out.y, out.z) == pytest.approx((0.6, 0.0, 0.8), abs=1e-14)


def test_pi_pulse_sends_north_to_south():
    out = apply_to_state(rotation(Pulse(PI, 0.0)), NORTH_POLE)
    assert (out.x, out.y, out.z) == pytest.approx((0.0, 0.0, -1.0), abs=1e-12)


def test_quarter_pulse_sends_north_to_minus_y():
    out = apply_to_state(rotation(Pulse(PI / 2, 0.0)), NORTH_POLE)
    assert (out.x, out.y, out.z) == pytest.approx((0.0, -1.0, 0.0), abs=1e-12)


def test_apply_rejects_off_sphere_state():
    with pytest.raises(ValueError, match="norm"):
        apply_to_state(oracles.ID, BlochVector(0.0, 0.0, 0.5))


@pytest.mark.parametrize(
    "fields, name",
    [
        ((True, False, False), "x"),
        ((1j, 0.0, 1.0), "x"),
        (("0", "0", "1"), "x"),
        ((0.0, math.inf, 1.0), "y"),
        ((0.0, 0.0, np.float64("nan")), "z"),
        ((np.zeros(2), 0.0, np.ones(2)), "x"),
        ((np.zeros(2), np.zeros(2), np.array([1.0, np.nan])), "z"),
        ((np.zeros(2), np.zeros(2), np.ones(2, dtype=int)), "x"),
    ],
    ids=["bool", "complex", "str", "inf", "nan", "array-and-float", "nan-entry", "int-array"],
)
def test_bloch_vector_rejects_a_field_that_is_not_a_finite_number(fields, name):
    # the package's finiteness rule, or three float arrays of finite entries;
    # a bool state was once taken as a number, and a complex or str field
    # failed later, inside apply_to_state or trajectory, with a TypeError
    with pytest.raises(ValueError, match=f"Bloch vector {name} must be finite, got"):
        BlochVector(*fields)


def test_bloch_vector_takes_numbers_and_float_arrays():
    for fields in ((0, 0, 1), (np.float64(0.6), np.int64(0), 0.8), (np.zeros(2), np.zeros(2), np.ones(2))):
        assert BlochVector(*fields).x is fields[0]
    # the states of a stack, as apply_to_state returns them
    out = apply_to_state(np.stack([oracles.ID, oracles.SX]), NORTH_POLE)
    assert np.array_equal(out.z, [1.0, -1.0])


@pytest.mark.parametrize("family", FAMILIES)
def test_apply_to_stack_matches_single_calls_and_quaternion_oracle(family):
    rng = np.random.default_rng(7)
    seq = synthesize(family, 2.0, 0.5)
    eps, f = np.meshgrid(np.linspace(-0.2, 0.2, 5), np.linspace(-0.15, 0.25, 4))
    stack = compose_with_errors(seq, ErrorPair(eps, f))
    assert stack.shape == (4, 5, 2, 2)
    pulses = [(p.theta, p.phi) for p in seq.pulses]
    for _ in range(3):
        v = rng.normal(size=3)
        r = BlochVector(*(float(c) for c in v / np.linalg.norm(v)))
        out = apply_to_state(stack, r)
        for field in (out.x, out.y, out.z):
            assert isinstance(field, np.ndarray) and field.shape == (4, 5)
        for i, j in np.ndindex(4, 5):
            single = apply_to_state(stack[i, j], r)
            assert type(single.x) is float
            assert (out.x[i, j], out.y[i, j], out.z[i, j]) == (single.x, single.y, single.z)
            want = oracles.quat_rotate(
                oracles.quat_compose(pulses, float(eps[i, j]), float(f[i, j])), (r.x, r.y, r.z)
            )
            got = (single.x, single.y, single.z)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12


def test_norm_on_a_stack_matches_single_matrices():
    seq = scorbutus(2.0, 0.5)
    stack = compose_with_errors(seq, ErrorPair(np.array([-0.1, 0.0, 0.2]), 0.05))
    norms = apply_to_state(stack, NORTH_POLE).norm()
    assert norms.shape == (3,)
    for k in range(3):
        single = apply_to_state(stack[k], NORTH_POLE)
        assert type(single.norm()) is float
        assert norms[k] == single.norm()


def test_apply_rejects_non_unitary_matrices():
    # the guard of gate_fidelity, over the whole stack: one bad matrix fails it
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])  # maps (1, 0, 0) to itself
    projector = np.array([[1.0, 0.0], [0.0, 0.0]])  # determinant zero
    nan = np.full((2, 2), np.nan + 0j)
    inf = np.array([[np.inf, 0.0], [0.0, 1.0]])
    for bad in (shear, projector, nan, inf, 1.5 * oracles.ID):
        for U in (bad, np.stack([rotation(Pulse(PI / 3, 0.2)), bad, oracles.ID])):
            with pytest.raises(ValueError, match="non-unitary operand"):
                apply_to_state(U, BlochVector(1.0, 0.0, 0.0))
            with pytest.raises(ValueError, match="non-unitary operand"):
                gate_fidelity(U, U)


def test_apply_takes_a_real_matrix():
    # the Pauli X matrix as floats: det -1 has no real square root
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = apply_to_state(pauli_x, BlochVector(0.6, 0.0, 0.8))
    assert type(out.x) is float
    assert (out.x, out.y, out.z) == pytest.approx((0.6, 0.0, -0.8), abs=1e-15)
    stack = apply_to_state(np.stack([pauli_x, np.eye(2)]), NORTH_POLE)
    assert stack.z.tolist() == pytest.approx([-1.0, 1.0], abs=1e-15)


def test_apply_ignores_the_global_phase():
    seq = scorbutus(2.0, 0.5)
    err = ErrorPair(0.1, -0.05)
    U = compose_with_errors(seq, err)
    r = BlochVector(0.6, 0.0, 0.8)
    want = oracles.quat_rotate(
        oracles.quat_compose([(p.theta, p.phi) for p in seq.pulses], err.epsilon, err.f),
        (r.x, r.y, r.z),
    )
    gammas = np.array([0.0, 0.3, PI / 2, PI, -2.0, 3.0])
    phased = np.exp(1j * gammas)[:, np.newaxis, np.newaxis] * U
    out = apply_to_state(phased, r)
    for k in range(len(gammas)):
        single = apply_to_state(phased[k], r)
        assert (out.x[k], out.y[k], out.z[k]) == (single.x, single.y, single.z)
        assert max(abs(g - w) for g, w in zip((single.x, single.y, single.z), want)) <= 1e-14


def test_trajectory_near_identity_pulse():
    seq = elementary(1e-12, 0.0)
    traj = trajectory(seq, ErrorPair(0.0, 0.0), NORTH_POLE, 4)
    assert oracles.bloch_distance(traj.points[-1].state, NORTH_POLE) < 1e-10


def test_trajectory_point_count_and_first_point():
    seq = scorbutus(PI, 0.0)
    traj = trajectory(seq, ErrorPair(0.1, 0.1), NORTH_POLE, 64)
    assert len(traj.points) == 5 * 64 + 1
    first = traj.points[0]
    assert first.pulse_index == 0 and first.fraction == 0.0
    assert first.state == NORTH_POLE


def test_trajectory_columns_and_points_view():
    seq = scorbutus(PI, 0.0)
    traj = trajectory(seq, ErrorPair(0.1, 0.1), NORTH_POLE, 4)
    assert traj.initial is NORTH_POLE
    for column in (traj.x, traj.y, traj.z):
        assert column.shape == (5 * 4,) and column.dtype == float
        assert not column.flags.writeable
    assert traj.points is traj.points  # built once
    for p, x, y, z in zip(traj.points[1:], traj.x, traj.y, traj.z):
        assert (p.state.x, p.state.y, p.state.z) == (x, y, z)
    assert [(p.pulse_index, p.fraction) for p in traj.points[1:5]] == [
        (1, 0.25), (1, 0.5), (1, 0.75), (1, 1.0)
    ]


def test_trajectory_elementary_endpoint():
    traj = trajectory(elementary(PI, 0.0), ErrorPair(0.0, 0.0), NORTH_POLE, 8)
    assert oracles.bloch_distance(traj.points[-1].state, SOUTH_POLE) < 1e-10


def test_trajectory_norm_conservation():
    traj = trajectory(scorbutus(PI, 0.0), ErrorPair(0.1, 0.1), NORTH_POLE, 64)
    for point in traj.points:
        assert abs(point.state.norm() - 1.0) <= NORM_TOL


@pytest.mark.parametrize("family", FAMILIES)
def test_trajectory_endpoint_matches_composition(family):
    rng = np.random.default_rng(41)
    seq = synthesize(family, 2.0, 0.5)
    for _ in range(20):
        err = ErrorPair(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        traj = trajectory(seq, err, NORTH_POLE, 3)
        direct = apply_to_state(compose_with_errors(seq, err), NORTH_POLE)
        assert oracles.bloch_distance(traj.points[-1].state, direct) < 1e-10


def test_trajectory_points_stay_on_pulse_circles():
    # within one pulse the component along the tilted rotation axis is fixed
    err = ErrorPair(0.1, 0.1)
    seq = scorbutus(PI, 0.0)
    traj = trajectory(seq, err, NORTH_POLE, 16)
    nrm = math.sqrt(1.0 + err.f**2)
    by_pulse = {}
    for point in traj.points:
        by_pulse.setdefault(point.pulse_index, []).append(point)
    for index, pulse in enumerate(seq.pulses, start=1):
        axis = (
            math.cos(pulse.phi) / nrm,
            math.sin(pulse.phi) / nrm,
            err.f / nrm,
        )
        entry = by_pulse[index - 1][-1].state  # the point the pulse starts from
        reference = entry.x * axis[0] + entry.y * axis[1] + entry.z * axis[2]
        for point in by_pulse[index]:
            s = point.state
            component = s.x * axis[0] + s.y * axis[1] + s.z * axis[2]
            assert abs(component - reference) < 1e-9


def test_trajectory_sampling_refinement_keeps_shared_points():
    seq = scorbutus(PI, 0.0)
    err = ErrorPair(0.05, -0.08)
    coarse = trajectory(seq, err, NORTH_POLE, 8)
    fine = trajectory(seq, err, NORTH_POLE, 16)
    shared = {
        (p.pulse_index, p.fraction): p.state
        for p in fine.points
    }
    for p in coarse.points:
        match = shared[(p.pulse_index, p.fraction)]
        assert oracles.bloch_distance(p.state, match) < 1e-12


def test_scorbutus_trajectory_beats_elementary():
    err = ErrorPair(0.1, 0.1)
    end_sc = trajectory(scorbutus(PI, 0.0), err, NORTH_POLE, 64).points[-1].state
    end_el = trajectory(elementary(PI, 0.0), err, NORTH_POLE, 64).points[-1].state
    d_sc, d_el = (oracles.bloch_distance(end, SOUTH_POLE) for end in (end_sc, end_el))
    assert d_sc < d_el


def test_switchback_reverses_vertical_motion_at_inner_boundaries():
    # the z motion flips sign entering and leaving the long central pulse
    err = ErrorPair(0.1, 0.1)
    traj = trajectory(scorbutus(PI, 0.0), err, NORTH_POLE, 64)
    z = [p.state.z for p in traj.points]
    dz = [b - a for a, b in zip(z, z[1:])]
    for boundary_pulse in (2, 3):
        i = boundary_pulse * 64  # index of that pulse's last step in dz
        assert dz[i - 1] * dz[i] < 0.0
    for boundary_pulse in (1, 4):
        i = boundary_pulse * 64
        assert dz[i - 1] * dz[i] > 0.0


def test_trajectory_input_validation():
    seq = elementary(PI, 0.0)
    with pytest.raises(ValueError, match="samples_per_pulse"):
        trajectory(seq, ErrorPair(0.0, 0.0), NORTH_POLE, 0)
    with pytest.raises(ValueError, match="norm"):
        trajectory(seq, ErrorPair(0.0, 0.0), BlochVector(0.0, 0.0, 2.0), 4)
    with pytest.raises(ValueError, match="Bloch vector x must be finite"):
        trajectory(seq, ErrorPair(0.0, 0.0), BlochVector(math.nan, 0.0, 1.0), 4)


@pytest.mark.parametrize(
    "samples",
    [2.5, 4.0, np.float64(4.0), True, np.True_, "4", None],
    ids=["float", "whole-float", "numpy-float", "bool", "numpy-bool", "str", "none"],
)
def test_trajectory_rejects_a_sample_count_that_is_not_an_int(samples):
    # 2.5 raised TypeError from range, and True ran as 1
    with pytest.raises(ValueError, match=r"samples_per_pulse must be an int, got"):
        trajectory(elementary(PI, 0.0), ErrorPair(0.0, 0.0), NORTH_POLE, samples)


def test_trajectory_takes_numpy_integer_sample_counts():
    seq, err = scorbutus(PI, 0.3), ErrorPair(0.1, -0.1)
    traj = trajectory(seq, err, NORTH_POLE, np.int64(4))
    want = trajectory(seq, err, NORTH_POLE, 4)
    assert type(traj.samples_per_pulse) is int
    assert trajectory_to_csv(traj) == trajectory_to_csv(want)
    assert trajectory_to_dict(traj) == trajectory_to_dict(want)


def test_trajectory_csv_and_dict():
    traj = trajectory(elementary(PI, 0.0), ErrorPair(0.1, 0.1), NORTH_POLE, 2)
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "pulse_index,fraction,x,y,z"
    assert len(lines) == 1 + 3
    assert lines[1] == "0,0.0,0.0,0.0,1.0"
    data = trajectory_to_dict(traj)
    assert data["family"] == "elementary"
    assert data["err"] == {"epsilon": 0.1, "f": 0.1}
    assert len(data["points"]) == 3


def test_trajectory_csv_writes_numpy_scalar_initial_fields_as_python_scalars():
    seq, err = elementary(1.0, 0.0), ErrorPair(0.0, 0.0)
    traj = trajectory(seq, err, BlochVector(*np.array([0.6, 0.0, 0.8])), 1)
    text = trajectory_to_csv(traj)
    assert text.splitlines()[1] == "0,0.0,0.6,0.0,0.8"
    assert text == trajectory_to_csv(trajectory(seq, err, BlochVector(0.6, 0.0, 0.8), 1))
    integers = trajectory(seq, err, BlochVector(*np.array([0, 0, 1])), 1)
    assert trajectory_to_csv(integers).splitlines()[1] == "0,0.0,0,0,1"


@pytest.mark.parametrize("field, length", [("epsilon", 2), ("f", 3)])
def test_trajectory_rejects_array_errors(field, length):
    # length 2 equals samples_per_pulse, which once paired error j with
    # fraction j; any other length failed to broadcast
    values = {"epsilon": 0.0, "f": 0.0, field: np.linspace(0.1, 0.2, length)}
    with pytest.raises(ValueError, match=rf"err\.{field}.*\({length},\)"):
        trajectory(scorbutus(PI, 0.0), ErrorPair(**values), NORTH_POLE, 2)


# ------------------------------------------- trajectory against the old loop


def _fold(seq, err, initial, m):
    """Points (pulse_index, fraction, x, y, z) of the per-pulse loop that the
    stacked trajectory replaced: one rotation call and one product per pulse."""
    fractions = np.arange(1, m + 1) / m
    rows = [(0, 0.0, initial.x, initial.y, initial.z)]
    prefix = None
    for index, pulse in enumerate(seq.pulses, start=1):
        # a Pulse holds one angle: the fractions of this one go to the kernel
        partials = _axis_pair(
            pulse.theta * fractions, math.cos(pulse.phi), math.sin(pulse.phi), err.epsilon, err.f
        )
        if prefix is not None:
            partials = _pair_product(partials, prefix)
        x, y, z = _turn(partials, initial)
        rows.extend(zip([index] * m, fractions.tolist(), x.tolist(), y.tolist(), z.tolist()))
        prefix = (partials[0][-1], partials[1][-1])
    return rows


def _reference_csv(rows):
    # the per-point spelling of trajectory_to_csv before the column writer
    lines = ["pulse_index,fraction,x,y,z"]
    for i, t, x, y, z in rows:
        lines.append(f"{i},{t!r},{x!r},{y!r},{z!r}")
    return "\n".join(lines) + "\n"


def _reference_json(seq, err, m, rows):
    # the per-point spelling of trajectory_to_dict, as the CLI prints it
    data = {
        "family": seq.family,
        "target": {"theta": seq.target.theta, "phi": seq.target.phi},
        "err": {"epsilon": err.epsilon, "f": err.f},
        "samples_per_pulse": m,
        "points": [
            {"pulse_index": i, "fraction": t, "x": x, "y": y, "z": z}
            for i, t, x, y, z in rows
        ],
    }
    return json.dumps(data, indent=2)


def _oracle_state(seq, err, initial, pulse_index, fraction):
    done = [(p.theta, p.phi) for p in seq.pulses[: pulse_index - 1]]
    current = seq.pulses[pulse_index - 1]
    q = oracles.quat_compose(
        done + [(current.theta * fraction, current.phi)], err.epsilon, err.f
    )
    return oracles.quat_rotate(q, (initial.x, initial.y, initial.z))


def _assert_matches_old_writers(seq, err, initial, m):
    traj = trajectory(seq, err, initial, m)
    rows = _fold(seq, err, initial, m)
    got = [(p.pulse_index, p.fraction, p.state.x, p.state.y, p.state.z) for p in traj.points]
    # repr tells -0.0 from 0.0 and an int from a float: bit for bit
    assert repr(got) == repr(rows)
    assert trajectory_to_csv(traj) == _reference_csv(rows)
    assert json.dumps(trajectory_to_dict(traj), indent=2) == _reference_json(seq, err, m, rows)
    for i, t, x, y, z in rows[1:]:
        want = _oracle_state(seq, err, initial, i, t)
        assert max(abs(g - w) for g, w in zip((x, y, z), want)) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 16, 64])
@pytest.mark.parametrize("family", FAMILIES)
def test_trajectory_matches_the_per_pulse_loop_and_old_writers(family, m):
    rng = np.random.default_rng([17, m, FAMILIES.index(family)])
    for _ in range(3):
        seq = synthesize(family, float(rng.uniform(0.1, 3.0)), float(rng.uniform(-1.0, 7.0)))
        err = ErrorPair(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.3, 0.3)))
        v = rng.normal(size=3)
        initial = BlochVector(*(float(c) for c in v / np.linalg.norm(v)))
        _assert_matches_old_writers(seq, err, initial, m)


def test_trajectory_keeps_integer_initial_fields():
    seq = scorbutus(PI, 0.0)
    initial = BlochVector(0, 0, 1)
    _assert_matches_old_writers(seq, ErrorPair(0.1, 0.1), initial, 4)
    text = trajectory_to_csv(trajectory(seq, ErrorPair(0.1, 0.1), initial, 4))
    assert text.splitlines()[1] == "0,0.0,0,0,1"


@pytest.mark.parametrize(
    "pulses",
    [
        # signed zeros and integer angles as a sequence file spells them
        '[{"theta": 3, "phi": -0.0}, {"theta": -0.0, "phi": 1},'
        ' {"theta": 0.0, "phi": 0}, {"theta": 2, "phi": 2.5}]',
        '[{"theta": 2, "phi": -1}]',
    ],
    ids=["signed-zeros-and-integers", "one-pulse"],
)
@pytest.mark.parametrize("m", [1, 3, 16])
def test_trajectory_of_a_sequence_file_matches_the_old_writers(pulses, m):
    text = '{"family": "custom", "target": {"theta": 1.0, "phi": 0.0}, "pulses": %s}' % pulses
    seq = sequence_from_dict(json.loads(text))
    for initial in (NORTH_POLE, BlochVector(0.6, 0.0, -0.8), BlochVector(0, 1, 0)):
        _assert_matches_old_writers(seq, ErrorPair(0.1, -0.05), initial, m)
