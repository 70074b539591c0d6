import math

import numpy as np
import pytest

from pulsesmith.bloch import (
    NORTH_POLE,
    SOUTH_POLE,
    BlochVector,
    apply_to_state,
    trajectory,
    trajectory_to_csv,
    trajectory_to_dict,
)
from pulsesmith.sequences import (
    FAMILIES,
    GENERATORS,
    compose_with_errors,
    elementary,
    scorbutus,
)
from pulsesmith.su2 import SIGMA_0, ErrorPair, Pulse, rotation

PI = math.pi
NORM_TOL = 1e-10


def test_apply_identity_keeps_state():
    r = BlochVector(0.6, 0.0, 0.8)
    out = apply_to_state(SIGMA_0, r)
    assert (out.x, out.y, out.z) == pytest.approx((0.6, 0.0, 0.8), abs=1e-14)


def test_pi_pulse_sends_north_to_south():
    out = apply_to_state(rotation(Pulse(PI, 0.0)), NORTH_POLE)
    assert (out.x, out.y, out.z) == pytest.approx((0.0, 0.0, -1.0), abs=1e-12)


def test_quarter_pulse_sends_north_to_minus_y():
    out = apply_to_state(rotation(Pulse(PI / 2, 0.0)), NORTH_POLE)
    assert (out.x, out.y, out.z) == pytest.approx((0.0, -1.0, 0.0), abs=1e-12)


def test_apply_rejects_off_sphere_state():
    with pytest.raises(ValueError, match="norm"):
        apply_to_state(SIGMA_0, BlochVector(0.0, 0.0, 0.5))


def test_trajectory_near_identity_pulse():
    seq = elementary(1e-12, 0.0)
    traj = trajectory(seq, ErrorPair(0.0, 0.0), NORTH_POLE, 4)
    assert traj.points[-1].state.distance(NORTH_POLE) < 1e-10


def test_trajectory_point_count_and_first_point():
    seq = scorbutus(PI, 0.0)
    traj = trajectory(seq, ErrorPair(0.1, 0.1), NORTH_POLE, 64)
    assert len(traj.points) == 5 * 64 + 1
    first = traj.points[0]
    assert first.pulse_index == 0 and first.fraction == 0.0
    assert first.state == NORTH_POLE


def test_trajectory_elementary_endpoint():
    traj = trajectory(elementary(PI, 0.0), ErrorPair(0.0, 0.0), NORTH_POLE, 8)
    assert traj.points[-1].state.distance(SOUTH_POLE) < 1e-10


def test_trajectory_norm_conservation():
    traj = trajectory(scorbutus(PI, 0.0), ErrorPair(0.1, 0.1), NORTH_POLE, 64)
    for point in traj.points:
        assert abs(point.state.norm() - 1.0) <= NORM_TOL


@pytest.mark.parametrize("family", FAMILIES)
def test_trajectory_endpoint_matches_composition(family):
    rng = np.random.default_rng(41)
    seq = GENERATORS[family](2.0, 0.5)
    for _ in range(20):
        err = ErrorPair(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        traj = trajectory(seq, err, NORTH_POLE, 3)
        direct = apply_to_state(compose_with_errors(seq, err), NORTH_POLE)
        assert traj.points[-1].state.distance(direct) < 1e-10


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
        assert p.state.distance(match) < 1e-12


def test_scorbutus_trajectory_beats_elementary():
    err = ErrorPair(0.1, 0.1)
    end_sc = trajectory(scorbutus(PI, 0.0), err, NORTH_POLE, 64).points[-1].state
    end_el = trajectory(elementary(PI, 0.0), err, NORTH_POLE, 64).points[-1].state
    assert end_sc.distance(SOUTH_POLE) < end_el.distance(SOUTH_POLE)


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
    with pytest.raises(ValueError, match="norm"):
        trajectory(seq, ErrorPair(0.0, 0.0), BlochVector(math.nan, 0.0, 1.0), 4)


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
