"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from adcradio.backend import (
    GpioMode,
    GpioPull,
    OutputType,
    OutputValue,
    PathConfig,
    ReceptionPathId,
    RfStimulus,
)
from adcradio.fileio import record_to_dict, write_records
from adcradio.protocol import (
    CaptureCommand,
    ConfigureCommand,
    DutProtocolServer,
    IdentifyCommand,
    LoopbackTransport,
    ProtocolError,
    ResetCommand,
    SerialBackend,
    decode_command,
    encode_command,
)
from adcradio.receiver import (
    BerReport,
    DemodParams,
    ber,
    demodulate,
    eye_opening,
    ideal_sync_ber_experiment,
)
from adcradio.scenario import build_rig, bundled_scenario_path, load_scenario, transmit
from adcradio.signals import (
    BitSequence,
    fspl_db,
    generate_bits,
    modulate_ook,
)
from adcradio.simulator import AdcConfig, CouplingModel, Resonance, RfChannel, SimulatedDut
from adcradio.backend import SimulatedRfSource, SimulatorBackend
from adcradio.sweep import (
    SweepPlan,
    block_mean,
    classify_sensitive,
    enumerate_configs,
    estimate_snr,
    recommended_configs,
    run_sweep,
    spectra_from_records,
)


def q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2))


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- 1: configuration space -------------------------------------------------------


def test_criterion_01_configuration_space():
    t0 = time.perf_counter()
    configs = enumerate_configs()
    rec = recommended_configs()
    expected_rows = [
        (GpioPull.PULL_DOWN, OutputValue.HIGH, GpioMode.INPUT),
        (GpioPull.PULL_DOWN, OutputValue.HIGH, GpioMode.OUTPUT),
        (GpioPull.PULL_DOWN, OutputValue.HIGH, GpioMode.ALTERNATE_FUNCTION),
        (GpioPull.PULL_DOWN, OutputValue.HIGH, GpioMode.ANALOG),
        (GpioPull.PULL_UP, OutputValue.LOW, GpioMode.INPUT),
        (GpioPull.PULL_UP, OutputValue.LOW, GpioMode.OUTPUT),
        (GpioPull.PULL_UP, OutputValue.LOW, GpioMode.ALTERNATE_FUNCTION),
        (GpioPull.PULL_UP, OutputValue.LOW, GpioMode.ANALOG),
    ]
    expected = [
        PathConfig(mode=m, pupd=p, output_value=v, output_type=OutputType.OPEN_DRAIN)
        for p, v, m in expected_rows
    ]
    elapsed = time.perf_counter() - t0
    ok = len(configs) == 64 and len(set(configs)) == 64 and rec == expected and elapsed < 1.0
    report(1, ok, f"64 unique configs, 8 recommended rows exact, {elapsed:.3f} s")


# -- 2: SNR estimator oracle ------------------------------------------------------


def test_criterion_02_snr_estimator_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260101)
    d, sigma, k = 12.0, 3.0, 64
    truth = 10 * math.log10(d * d / (sigma * sigma))
    estimates = []
    for _ in range(1000):
        on = rng.normal(2048.0 + d, sigma, k)
        off = rng.normal(2048.0, sigma, k)
        estimates.append(estimate_snr(on, off))
    mean_error = abs(np.mean(estimates) - truth)

    # affine invariance: analytically exact; asserted to 1e-9 dB, the float
    # round-off left by non-associative means/variances
    on = rng.normal(2060.0, 4.0, 256)
    off = rng.normal(2048.0, 4.0, 256)
    base = estimate_snr(on, off)
    max_dev = 0.0
    for _ in range(100):
        a = rng.uniform(0.05, 20.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(-1000.0, 1000.0)
        max_dev = max(max_dev, abs(estimate_snr(a * on + b, a * off + b) - base))
    elapsed = time.perf_counter() - t0
    ok = mean_error < 0.5 and max_dev <= 1e-9 and elapsed < 5.0
    report(
        2,
        ok,
        f"mean estimator error {mean_error:.3f} dB (<0.5), affine dev {max_dev:.2e} dB, "
        f"{elapsed:.2f} s",
    )


# -- 3: oversampling law and quantization plateau ----------------------------------


def _oversampling_rig(noise_sigma, dc, gain, ratio, seed):
    adc = AdcConfig(
        sample_rate_hz=10_000.0, oversampling_ratio=ratio, samples_per_block=32
    )
    model = CouplingModel(
        resonances=(Resonance(860e6, 80e6, gain),),
        baseband_bandwidth_hz=100e3,
        noise_sigma=noise_sigma,
        dc_operating_point=dc,
    )
    dut = SimulatedDut(
        n_paths=1,
        adc=adc,
        channel=RfChannel(g_tx_dbi=6.5, distance_m=1.0),
        coupling={(0, None): model},
        seed=seed,
    )
    source = SimulatedRfSource()
    return SimulatorBackend(dut, source), source, adc


def _sweep_snr_at(backend, source, adc, blocks=3000):
    # measured end to end through the sweep pipeline itself
    plan = SweepPlan(
        paths=(ReceptionPathId(0),),
        configs=(enumerate_configs()[57],),
        freqs_hz=(868e6,),
        samples_per_block=32,
        blocks_per_state=blocks,
        adc=adc,
    )
    (record,) = run_sweep(plan, backend, source)
    return record.snr


def test_criterion_03_oversampling_law_and_plateau():
    t0 = time.perf_counter()
    # law regime: Gaussian noise dominates quantization
    base = _sweep_snr_at(*_oversampling_rig(8.0, 2048.0, 0.24, 1, seed=301))
    gains = {}
    for n in (2, 4, 8, 16):
        snr = _sweep_snr_at(*_oversampling_rig(8.0, 2048.0, 0.24, n, seed=301))
        gains[n] = snr - base
    law_ok = all(abs(gains[n] - 10 * math.log10(n)) <= 0.5 for n in gains)

    # plateau regime: noise under half a code, operating point on a rounding
    # boundary; the final per-sample rounding caps any further averaging gain
    snr32 = _sweep_snr_at(*_oversampling_rig(0.45, 2048.5, 0.045, 32, seed=302))
    snr64 = _sweep_snr_at(*_oversampling_rig(0.45, 2048.5, 0.045, 64, seed=302))
    plateau_gain = snr64 - snr32
    elapsed = time.perf_counter() - t0
    ok = law_ok and abs(plateau_gain) < 1.0 and elapsed < 30.0
    detail = ", ".join(f"N={n}: {gains[n]:+.2f} dB" for n in gains)
    report(
        3,
        ok,
        f"law {detail} (each within 0.5 of 10log10 N); "
        f"32->64 gain {plateau_gain:+.2f} dB (<1); {elapsed:.1f} s",
    )


# -- 4: planted-sensitivity discovery ----------------------------------------------


def test_criterion_04_planted_sensitivity_discovery():
    t0 = time.perf_counter()
    configs = recommended_configs()[:3]
    freqs = tuple(np.linspace(200e6, 1000e6, 21))
    tp = fp = fn = 0
    for trial in range(20):
        rng = np.random.default_rng(40_000 + trial)
        n_paths = 6
        sigma_m = 4.0 / math.sqrt(32)
        k = int(rng.integers(1, 4))
        cells = set()
        while len(cells) < k:
            cells.add((int(rng.integers(0, n_paths)), int(rng.integers(0, len(configs)))))
        coupling = {}
        for path, cfg_i in cells:
            center = float(rng.uniform(260e6, 940e6))
            bw = float(rng.uniform(30e6, 60e6))
            snr_target = float(rng.uniform(20.0, 35.0))
            d = sigma_m * 10 ** (snr_target / 20)
            inc_dbm = 43.0 + 6.5 - fspl_db(1.0, center)
            gain = d / (10 ** (inc_dbm / 10))
            coupling[(path, configs[cfg_i])] = CouplingModel(
                resonances=(Resonance(center, bw, gain),), noise_sigma=4.0
            )
        dut = SimulatedDut(
            n_paths=n_paths,
            adc=AdcConfig(samples_per_block=32),
            channel=RfChannel(g_tx_dbi=6.5, distance_m=1.0),
            coupling=coupling,
            default_model=CouplingModel(noise_sigma=4.0),
            seed=int(rng.integers(0, 2**63)),
        )
        source = SimulatedRfSource()
        backend = SimulatorBackend(dut, source)
        plan = SweepPlan(
            paths=tuple(ReceptionPathId(i) for i in range(n_paths)),
            configs=tuple(configs),
            freqs_hz=freqs,
            blocks_per_state=8,
            pool_off_variance=True,
            adc=dut.adc,
        )
        records = run_sweep(plan, backend, source)
        flagged = {
            (s.path.index, configs.index(s.config))
            for s in spectra_from_records(records)
            if classify_sensitive(s, 10.0)
        }
        tp += len(flagged & cells)
        fp += len(flagged - cells)
        fn += len(cells - flagged)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    elapsed = time.perf_counter() - t0
    ok = precision == 1.0 and recall == 1.0 and elapsed < 60.0
    report(
        4,
        ok,
        f"20 scenarios: precision {precision:.3f}, recall {recall:.3f} "
        f"({tp} planted cells), {elapsed:.1f} s",
    )


# -- 5: ideal-synchronization BER vs Q oracle ---------------------------------------


def test_criterion_05_ideal_sync_ber():
    t0 = time.perf_counter()
    scenario = load_scenario(bundled_scenario_path("ideal_sync"))
    tx = scenario.transmission
    cfg = enumerate_configs()[tx.config_index]
    path = ReceptionPathId(tx.path)
    gen_offset = fspl_db(1.0, tx.freq_hz) - scenario.channel.g_tx_dbi

    rows = []
    zero_dbm_ber = None
    for i, incident in enumerate((-6.0, -4.0, -2.0, 0.0, 2.0)):
        power = incident + gen_offset
        cal_backend, cal_source = build_rig(scenario, seed=900 + i)
        cal_backend.configure(path, cfg, scenario.adc)
        cal_source.rf_set(RfStimulus(freq_hz=tx.freq_hz, power_dbm=power, enabled=False))
        off = block_mean(cal_backend.capture(3000), 127)[2:]
        cal_source.rf_set(RfStimulus(freq_hz=tx.freq_hz, power_dbm=power, enabled=True))
        on = block_mean(cal_backend.capture(3000), 127)[2:]
        d = on.mean() - off.mean()
        sigma_block = off.std(ddof=1)
        oracle = q_function(d / (2 * sigma_block))

        backend, source = build_rig(scenario, seed=950 + i)
        rep = ideal_sync_ber_experiment(
            backend, source, path, cfg, scenario.adc,
            freq_hz=tx.freq_hz, power_dbm=power,
            n_bits=10_000, samples_per_bit=127, seed=950 + i,
        )
        rows.append((incident, oracle, rep.ber))
        if incident == 0.0:
            zero_dbm_ber = rep.ber

    checked = [(o, m) for _, o, m in rows if o >= 1e-3]
    ratios = [m / o for o, m in checked]
    ratio_ok = all(1 / 3 < r < 3 for r in ratios)
    elapsed = time.perf_counter() - t0
    ok = ratio_ok and zero_dbm_ber is not None and zero_dbm_ber < 0.02 and elapsed < 60.0
    detail = "; ".join(
        f"{inc:+.0f} dBm oracle {o:.2e} measured {m:.2e}" for inc, o, m in rows
    )
    report(
        5,
        ok,
        f"{detail}; ratios within 3x at BER>=1e-3: {['%.2f' % r for r in ratios]}, "
        f"0 dBm BER {zero_dbm_ber:.4f} (<0.02), {elapsed:.1f} s",
    )


# -- 6: end-to-end link reproduction ------------------------------------------------


def _decode_link(scenario_name: str) -> BerReport:
    scenario = load_scenario(bundled_scenario_path(scenario_name))
    bits = generate_bits(12565, scenario.seed)
    trace, params = transmit(scenario, bits)
    decoded = demodulate(trace, params)
    return ber(BitSequence(bits=decoded.bits[: len(bits)]), bits)


def test_criterion_06_link_reproduction():
    t0 = time.perf_counter()
    near = _decode_link("link_3m")
    far = _decode_link("link_20m")
    burst_errors = far.errors_in_runs_of_at_least(2)
    burst_fraction = burst_errors / far.error_count if far.error_count else 0.0
    elapsed = time.perf_counter() - t0
    ok = (
        near.error_count == 0
        and 0.03 <= far.ber <= 0.10
        and burst_fraction >= 0.5
        and elapsed < 120.0
    )
    report(
        6,
        ok,
        f"3 m: {near.error_count} errors / {near.total_bits} bits; "
        f"20 m: BER {far.ber:.4f} in [0.03, 0.10], "
        f"{burst_fraction:.0%} of errors in runs >= 2; {elapsed:.1f} s",
    )


# -- 7: timing robustness ------------------------------------------------------------


def test_criterion_07_timing_robustness():
    t0 = time.perf_counter()
    sps = 20
    bits = generate_bits(400, seed=7001)
    env = modulate_ook(bits, sps, 1.0).values
    params = DemodParams(samples_per_symbol=sps, dc_window_symbols=41)
    offsets = [round(-0.45 + 0.05 * i, 2) for i in range(19)]
    worst = 0.0
    for gain in (0.1, 1.0, 10.0):
        for offset in offsets:
            shift = int(round(offset * sps))
            if shift >= 0:
                x = np.concatenate([np.zeros(shift), env])
            else:
                x = env[-shift:]
            decoded = demodulate(gain * x, params).bits
            # a frameless receiver may slip one symbol when the signal is
            # advanced; either exact alignment must be error-free
            candidates = [bits.bits, bits.bits[1:]] if shift < 0 else [bits.bits]
            best = min(
                float(np.mean(decoded[: len(c)] != c)) if len(decoded) >= len(c) else 1.0
                for c in candidates
            )
            worst = max(worst, best)
    elapsed = time.perf_counter() - t0
    ok = worst == 0.0 and elapsed < 10.0
    report(
        7,
        ok,
        f"19 offsets x 3 gains, worst noiseless BER {worst}, {elapsed:.1f} s",
    )


# -- 8: bandwidth / eye behavior ------------------------------------------------------


def test_criterion_08_bandwidth_eye():
    t0 = time.perf_counter()
    scenario = load_scenario(bundled_scenario_path("bandwidth_eval"))
    rates = [500, 1000, 10_000, 50_000, 100_000]
    n_bits = {500: 600, 1000: 1200, 10_000: 4000, 50_000: 8000, 100_000: 8000}
    eyes = []
    ber_100k = None
    for rate in rates:
        n = n_bits[rate]
        bits = BitSequence(bits=np.tile([1, 0], n // 2).astype(np.uint8))
        tx = replace(scenario.transmission, bit_rate_hz=rate)
        trace, params = transmit(scenario, bits, tx=tx)
        eyes.append(eye_opening(trace, params.samples_per_symbol, 0.0))
        if rate == 100_000:
            decoded = demodulate(trace, params)
            ber_100k = ber(BitSequence(bits=decoded.bits[:n]), bits).ber
    strictly_decreasing = all(a > b for a, b in zip(eyes, eyes[1:]))
    elapsed = time.perf_counter() - t0
    ok = strictly_decreasing and ber_100k is not None and ber_100k < 0.05 and elapsed < 30.0
    report(
        8,
        ok,
        f"eyes {['%.3f' % e for e in eyes]} strictly decreasing, "
        f"BER@100kbps {ber_100k:.4f} (<0.05), {elapsed:.1f} s",
    )


# -- 9: link budget -------------------------------------------------------------------


def test_criterion_09_link_budget():
    t0 = time.perf_counter()
    loss = fspl_db(1.0, 868e6)
    incident = RfChannel(g_tx_dbi=6.5, distance_m=20.0).incident_dbm(43.0, 868e6)
    elapsed = time.perf_counter() - t0
    ok = abs(loss - 31.2) <= 0.1 and abs(incident - (-7.7)) <= 0.1 and elapsed < 1.0
    report(
        9,
        ok,
        f"FSPL(1 m, 868 MHz) {loss:.2f} dB (31.2 +/- 0.1), "
        f"20 m incident {incident:.2f} dBm (-7.7 +/- 0.1), {elapsed:.3f} s",
    )


# -- 10: protocol and determinism ------------------------------------------------------


def _random_command(rng) -> object:
    kind = rng.integers(0, 4)
    if kind == 0:
        return ConfigureCommand(
            path=int(rng.integers(0, 10_000)),
            config=enumerate_configs()[int(rng.integers(0, 64))],
        )
    if kind == 1:
        return CaptureCommand(
            n_blocks=int(rng.integers(0, 10**6)),
            sample_rate_hz=int(rng.integers(1, 10**9)),
            oversampling_ratio=int(2 ** rng.integers(0, 9)),
        )
    return IdentifyCommand() if kind == 2 else ResetCommand()


def _loopback_sweep_bytes(scenario, seed, via_codec: bool) -> bytes:
    backend, source = build_rig(scenario, seed=seed)
    if via_codec:
        backend = SerialBackend(LoopbackTransport(DutProtocolServer(backend)))
    plan = SweepPlan(
        paths=tuple(ReceptionPathId(i) for i in range(scenario.n_paths)),
        configs=tuple(recommended_configs()[:2]),
        freqs_hz=tuple(np.linspace(200e6, 1000e6, 9)),
        samples_per_block=scenario.adc.samples_per_block,
        adc=scenario.adc,
    )
    records = run_sweep(plan, backend, source)
    return "\n".join(json.dumps(record_to_dict(r)) for r in records).encode()


def test_criterion_10_protocol_and_determinism():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20261010)
    for _ in range(100_000):
        cmd = _random_command(rng)
        assert decode_command(encode_command(cmd)) == cmd

    crashes = 0
    for _ in range(100_000):
        n = int(rng.integers(0, 48))
        blob = bytes(rng.integers(0, 256, size=n))
        try:
            decode_command(blob)
        except ProtocolError:
            pass
        except Exception:  # anything else is a crash
            crashes += 1

    scenario = load_scenario(bundled_scenario_path("link_3m"))
    direct = _loopback_sweep_bytes(scenario, seed=123, via_codec=False)
    looped = _loopback_sweep_bytes(scenario, seed=123, via_codec=True)
    repeat = _loopback_sweep_bytes(scenario, seed=123, via_codec=False)
    elapsed = time.perf_counter() - t0
    ok = crashes == 0 and direct == looped and direct == repeat and elapsed < 60.0
    report(
        10,
        ok,
        f"1e5 valid round-trips, 1e5 malformed with {crashes} crashes, "
        f"codec loopback byte-identical: {direct == looped}, "
        f"seed-repeat byte-identical: {direct == repeat}, {elapsed:.1f} s",
    )


# -- 11: full desk-scale sweep ----------------------------------------------------------


def test_criterion_11_desk_scale_sweep(tmp_path):
    scenario = load_scenario(bundled_scenario_path("demo_board"))
    plan = SweepPlan(
        paths=tuple(ReceptionPathId(i, f"P{i}") for i in range(87)),
        configs=tuple(recommended_configs()),
        freqs_hz=tuple(np.linspace(200e6, 1000e6, 81)),
        samples_per_block=32,
        adc=scenario.adc,
    )
    backend, source = build_rig(scenario)
    t0 = time.perf_counter()
    records = run_sweep(plan, backend, source)
    write_records(tmp_path / "results.jsonl", records, header_extra={"seed": scenario.seed})
    elapsed = time.perf_counter() - t0
    ok = len(records) == 56_376 and elapsed < 60.0
    report(
        11,
        ok,
        f"87 x 8 x 81 sweep: {len(records)} records in {elapsed:.1f} s (<60)",
    )
