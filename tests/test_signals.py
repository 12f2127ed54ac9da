"""Bit generation, OOK modulation, and link-budget arithmetic."""

import math

import numpy as np
import pytest

from adcradio.signals import BitSequence, dbm_to_mw, fspl_db, generate_bits, modulate_ook
from adcradio.simulator import RfChannel


class TestGenerateBits:
    def test_zero_length(self):
        assert len(generate_bits(0, seed=1)) == 0

    def test_reference_payload_size(self):
        bits = generate_bits(12565, seed=42)
        assert len(bits) == 12565
        assert set(np.unique(bits.bits)) <= {0, 1}

    def test_reproducible_from_seed(self):
        assert generate_bits(1000, seed=7) == generate_bits(1000, seed=7)
        assert generate_bits(1000, seed=7) != generate_bits(1000, seed=8)

    def test_mean_near_half(self):
        # Law of large numbers, verified by direct count.
        bits = generate_bits(10**6, seed=123)
        assert 0.498 <= bits.bits.mean() <= 0.502

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            generate_bits(-1, seed=0)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitSequence(bits=np.array([0, 2, 1]))


class TestModulateOok:
    def test_rectangular_pulses(self):
        env = modulate_ook(BitSequence(bits=np.array([1, 0, 1])), 4, 1.0)
        expected = [1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1]
        np.testing.assert_array_equal(env.values, expected)

    def test_empty_input(self):
        env = modulate_ook(BitSequence(bits=np.array([], dtype=np.uint8)), 4, 1.0)
        assert len(env) == 0

    def test_payload_duration(self):
        # 12,565 bits at 1 kbps last 12.565 s.
        bits = generate_bits(12565, seed=1)
        env = modulate_ook(bits, 16, 1.0, symbol_rate_hz=1000.0)
        assert len(env) / env.sample_rate == pytest.approx(12.565)

    def test_amplitude_scaling(self):
        env = modulate_ook(np.array([1]), 2, 2.5)
        np.testing.assert_array_equal(env.values, [2.5, 2.5])

    def test_bad_args(self):
        with pytest.raises(ValueError):
            modulate_ook(np.array([1]), 0, 1.0)
        with pytest.raises(ValueError):
            modulate_ook(np.array([1]), 4, 0.0)


class TestFspl:
    def test_hand_value_1m_868mhz(self):
        # 20*log10(4*pi*1*868e6/c) evaluated by hand.
        assert fspl_db(1.0, 868e6) == pytest.approx(31.2, abs=0.1)

    def test_hand_value_20m_868mhz(self):
        assert fspl_db(20.0, 868e6) == pytest.approx(57.2, abs=0.1)

    def test_distance_doubling_adds_6db(self):
        delta = fspl_db(2.0, 915e6) - fspl_db(1.0, 915e6)
        assert delta == pytest.approx(20 * math.log10(2), abs=1e-9)

    def test_distance_law_exact(self):
        for k in (0.5, 3.0, 10.0, 250.0):
            delta = fspl_db(k * 1.7, 433e6) - fspl_db(1.7, 433e6)
            assert delta == pytest.approx(20 * math.log10(k), abs=1e-9)

    def test_monotonic_in_distance_and_frequency(self):
        d = np.linspace(0.5, 50, 40)
        assert np.all(np.diff([fspl_db(x, 868e6) for x in d]) > 0)
        f = np.linspace(200e6, 1000e6, 40)
        assert np.all(np.diff([fspl_db(1.0, x) for x in f]) > 0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="^distance_m must be positive$"):
            fspl_db(bad, 868e6)
        with pytest.raises(ValueError, match="^freq_hz must be positive$"):
            fspl_db(1.0, bad)


class TestIncidentPower:
    def test_reference_1m_setup(self):
        channel = RfChannel(g_tx_dbi=6.5, distance_m=1.0)
        assert channel.incident_dbm(43.0, 868e6) == pytest.approx(18.3, abs=0.1)

    def test_reference_20m_setup(self):
        channel = RfChannel(g_tx_dbi=6.5, distance_m=20.0)
        assert channel.incident_dbm(43.0, 868e6) == pytest.approx(-7.7, abs=0.1)

    def test_cancellation(self):
        loss = fspl_db(5.0, 700e6)
        channel = RfChannel(g_tx_dbi=0.0, distance_m=5.0)
        assert channel.incident_dbm(loss, 700e6) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("distance", [0.0, math.nan])
    def test_invalid_budget(self, distance):
        with pytest.raises(ValueError, match="^distance_m must be positive$"):
            RfChannel(g_tx_dbi=6.5, distance_m=distance)


class TestDbmMw:
    def test_definitions(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)
        assert dbm_to_mw(10.0) == pytest.approx(10.0)
        # 43 dBm, the full transmit power of the reference chain, is about 20 W.
        assert dbm_to_mw(43.0) == pytest.approx(20_000, rel=0.003)

    def test_round_trip_bijection(self):
        rng = np.random.default_rng(5)
        for mw in rng.uniform(1e-9, 1e6, 200):
            dbm = 10 * math.log10(mw)
            assert 10 * math.log10(dbm_to_mw(dbm)) == pytest.approx(dbm, rel=1e-9)
