"""Impedance resampling onto the uniform log-frequency grid."""
import numpy as np
import pytest

from batteryauth.eis import EisConfig, process_spectrum, resample_logfreq
from batteryauth.errors import DegenerateFrequencyRange
from batteryauth.records import make_spectrum
from batteryauth.synth import demo_specs, gen_eis


class TestResample:
    def test_identity_on_exact_log_grid(self):
        f = np.logspace(-2, 4, 64)
        re = np.linspace(0.5, 0.1, 64)
        nim = np.linspace(0.05, 0.001, 64)
        out = resample_logfreq(make_spectrum(f, re, -nim), m=64)
        assert np.allclose(out.re_z, re)
        assert np.allclose(out.neg_im_z, nim)
        assert np.allclose(out.log_freq_grid, np.log10(f))

    def test_interpolates_on_log_axis(self):
        # two decades, value linear in log10(f): interpolation is exact
        f = np.array([1.0, 10.0, 100.0])
        re = np.array([0.0, 1.0, 2.0])
        out = resample_logfreq(make_spectrum(f, re, -re), m=5)
        assert np.allclose(out.re_z, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_grid_length_and_uniformity(self):
        f = np.logspace(-1, 3, 48)
        out = resample_logfreq(make_spectrum(f, np.ones(48), -np.ones(48)), m=128)
        assert len(out.log_freq_grid) == 128
        steps = np.diff(out.log_freq_grid)
        assert np.allclose(steps, steps[0])

    def test_degenerate_range(self):
        # two distinct frequencies closer than float spacing cannot happen
        # after make_spectrum sorting, so drive the guard via a direct call
        f = np.array([5.0, 5.0 * (1 + 1e-16)])
        with pytest.raises(DegenerateFrequencyRange):
            resample_logfreq(make_spectrum(f, [1.0, 2.0], [-1.0, -2.0]), m=8)

    def test_process_spectrum_default_m(self):
        spec = gen_eis(demo_specs(0.0)[0], n_freq=96, seed=1)
        out = process_spectrum(spec, EisConfig())
        assert len(out.re_z) == 128

    def test_randles_sweep_is_capacitive_everywhere(self):
        # the Randles circuit with Warburg tail never crosses into the
        # inductive half-plane, so -Im Z stays non-negative
        for spec in demo_specs(0.0):
            out = process_spectrum(gen_eis(spec, n_freq=64, seed=0))
            assert out.neg_im_z.min() >= -1e-9
