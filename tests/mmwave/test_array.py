"""Phased-array model tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mmwave import PhasedArray, WAVELENGTH_M

angles = st.floats(min_value=-1.0, max_value=1.0)


def test_element_count_and_positions():
    arr = PhasedArray(ny=8, nz=4)
    assert arr.num_elements == 32
    assert arr.positions.shape == (32, 3)
    # Elements lie in the YZ plane, centered.
    assert np.allclose(arr.positions[:, 0], 0.0)
    assert np.allclose(arr.positions.mean(axis=0), 0.0, atol=1e-12)


def test_half_wavelength_default_spacing():
    arr = PhasedArray()
    assert arr.spacing_m == pytest.approx(WAVELENGTH_M / 2)


def test_rejects_bad_dims():
    with pytest.raises(ValueError):
        PhasedArray(ny=0)
    with pytest.raises(ValueError):
        PhasedArray(spacing_m=0.0)


def test_steering_vector_magnitudes():
    arr = PhasedArray()
    a = arr.steering_vector(0.3, -0.1)
    assert a.shape == (32,)
    assert np.allclose(np.abs(a), 1.0)


def test_boresight_steering_vector_is_uniform():
    arr = PhasedArray()
    a = arr.steering_vector(0.0, 0.0)
    # Toward boresight (+X) all elements share the phase (positions have
    # x=0), so the steering vector is constant.
    assert np.allclose(a, a[0])


def test_peak_gain_at_steering_direction():
    arr = PhasedArray(ny=8, nz=4)
    w = arr.weights_toward(0.4, 0.1)
    g = arr.gain_dbi(w, 0.4, 0.1)
    expected = 10 * np.log10(32) + arr.element_gain_dbi
    assert g == pytest.approx(expected, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(angles, angles)
def test_gain_never_exceeds_theoretical_peak(az, el):
    arr = PhasedArray()
    w = arr.weights_toward(0.0, 0.0)
    peak = 10 * np.log10(arr.num_elements) + arr.element_gain_dbi
    assert arr.gain_dbi(w, az, el) <= peak + 1e-6


def test_off_axis_gain_drops():
    arr = PhasedArray()
    w = arr.weights_toward(0.0, 0.0)
    on_axis = arr.gain_dbi(w, 0.0, 0.0)
    off = arr.gain_dbi(w, 0.5, 0.0)
    assert off < on_axis - 10.0


def test_gain_many_matches_scalar():
    arr = PhasedArray()
    w = arr.weights_toward(0.2, 0.0)
    azs = np.linspace(-1, 1, 7)
    els = np.zeros(7)
    many = arr.gain_dbi_many(w, azs, els)
    for az, g in zip(azs, many):
        assert g == pytest.approx(arr.gain_dbi(w, float(az), 0.0), abs=1e-9)


def test_gain_rejects_wrong_weight_shape():
    arr = PhasedArray()
    with pytest.raises(ValueError):
        arr.gain_dbi(np.ones(5, dtype=complex), 0.0, 0.0)


def test_weights_have_unit_power():
    arr = PhasedArray()
    w = arr.weights_toward(0.7, -0.2)
    assert np.vdot(w, w).real == pytest.approx(1.0)


def test_quantize_phases_unit_power_and_grid():
    arr = PhasedArray()
    w = arr.weights_toward(0.3, 0.1)
    q = arr.quantize_phases(w, 2)
    assert np.vdot(q, q).real == pytest.approx(1.0)
    phases = np.angle(q)
    steps = phases / (np.pi / 2)
    assert np.allclose(steps, np.round(steps), atol=1e-9)


def test_quantize_phases_rejects_zero_bits():
    arr = PhasedArray()
    with pytest.raises(ValueError):
        arr.quantize_phases(arr.weights_toward(0, 0), 0)


def test_quantization_loses_little_peak_gain():
    arr = PhasedArray()
    w = arr.weights_toward(0.3, 0.0)
    q = arr.quantize_phases(w, 2)
    loss = arr.gain_dbi(w, 0.3, 0.0) - arr.gain_dbi(q, 0.3, 0.0)
    assert 0.0 <= loss < 4.0  # 2-bit quantization loss is ~1-3 dB


def test_quantization_raises_sidelobes():
    arr = PhasedArray()
    w = arr.weights_toward(0.5, 0.0)
    q = arr.quantize_phases(w, 2)
    azs = np.linspace(-1.0, 0.0, 60)
    ideal_side = arr.gain_dbi_many(w, azs, np.zeros_like(azs)).max()
    quant_side = arr.gain_dbi_many(q, azs, np.zeros_like(azs)).max()
    assert quant_side > ideal_side
