#!/usr/bin/env python3
# How ADC oversampling buys SNR, and where quantization stops the party.
#
# With Gaussian noise dominating, every doubling of the oversampling ratio
# adds ~3 dB of estimated SNR. Once the averaged noise drops below the LSB,
# the per-sample rounding floor takes over and the curve flattens (around a
# ratio of 32 for a 12-bit converter with sub-LSB noise).

import math

from adcradio import (
    AdcConfig,
    CouplingModel,
    ReceptionPathId,
    Resonance,
    RfChannel,
    RfStimulus,
    SimulatedDut,
    SimulatedRfSource,
    SimulatorBackend,
    block_mean,
    enumerate_configs,
    estimate_snr,
)

CFG = enumerate_configs()[57]


def snr_at_ratio(noise_sigma, dc, gain, ratio, blocks=2000, seed=4040):
    adc = AdcConfig(sample_rate_hz=10_000.0, oversampling_ratio=ratio, samples_per_block=32)
    model = CouplingModel(
        resonances=(Resonance(860e6, 80e6, gain),),
        baseband_bandwidth_hz=100e3,
        noise_sigma=noise_sigma,
        dc_operating_point=dc,
    )
    dut = SimulatedDut(
        n_paths=1, adc=adc, channel=RfChannel(g_tx_dbi=6.5, distance_m=1.0),
        coupling={(0, None): model}, seed=seed,
    )
    source = SimulatedRfSource()
    backend = SimulatorBackend(dut, source)
    backend.configure(ReceptionPathId(0), CFG, adc)
    source.rf_set(RfStimulus(freq_hz=868e6, power_dbm=43.0, enabled=False))
    off = block_mean(backend.capture(blocks + 1), 32)[1:]
    source.rf_set(RfStimulus(freq_hz=868e6, power_dbm=43.0, enabled=True))
    on = block_mean(backend.capture(blocks + 1), 32)[1:]
    return estimate_snr(on, off)


print("noise-dominated regime (sigma = 8 codes):")
base = snr_at_ratio(8.0, 2048.0, 0.24, 1)
for n in (1, 2, 4, 8, 16):
    snr = base if n == 1 else snr_at_ratio(8.0, 2048.0, 0.24, n)
    ideal = 10 * math.log10(n)
    print(f"  ratio {n:3d}: SNR {snr:6.2f} dB  (gain {snr - base:+5.2f}, ideal {ideal:+5.2f})")

print("\nquantization-floor regime (sigma = 0.45 codes, mid-LSB operating point):")
prev = None
for n in (16, 32, 64, 128):
    snr = snr_at_ratio(0.45, 2048.5, 0.045, n)
    step = "" if prev is None else f"  (step {snr - prev:+5.2f} dB)"
    print(f"  ratio {n:3d}: SNR {snr:6.2f} dB{step}")
    prev = snr
