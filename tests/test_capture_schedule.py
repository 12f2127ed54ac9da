"""Batched capture: a schedule of rows equals one capture per row."""

import math
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adcradio import simulator
from adcradio.backend import (
    NotConfiguredError,
    ReceptionPathId,
    RfSourceError,
    RfStimulus,
    SimulatedRfSource,
    SimulatorBackend,
    StimulusSchedule,
    capture_groups,
    enumerate_configs,
)
from adcradio.protocol import DutProtocolServer, LoopbackTransport, SerialBackend
from adcradio.signals import BasebandEnvelope
from adcradio.simulator import (
    AdcConfig,
    BurstSpec,
    CouplingModel,
    DriftSpec,
    Resonance,
    RfChannel,
    SimulatedDut,
)

CFG = "cfg"
PATH_CONFIG = enumerate_configs()[0]
FREQS = (300e6, 480e6, 500e6, 900e6)


@st.composite
def models(draw):
    """Noise plus any combination of walk, sine and bursts. A burst may last
    up to 20 ms, longer than a whole state (at most 384 raw samples), so a
    carried burst can span several states of a pass."""
    drift, burst = {}, BurstSpec()
    if draw(st.booleans()):
        drift["walk_step"] = draw(st.floats(0.01, 0.5))
    if draw(st.booleans()):
        drift["sine_amplitude"] = draw(st.floats(0.5, 20.0))
        drift["sine_period_s"] = draw(st.floats(1e-3, 0.1))
    if draw(st.booleans()):
        burst = BurstSpec(
            rate_per_s=draw(st.floats(50.0, 2000.0)),
            amplitude=draw(st.floats(-40.0, 40.0)),
            duration_s=draw(st.floats(1e-4, 2e-2)),
        )
    # A 1e-160 Hz wide resonance couples 500 MHz only: at every other
    # carrier ((f - f0) / bw)**2 overflows and the gain is 0.
    resonance = Resonance(
        500e6, draw(st.sampled_from([80e6, 1e-160])), draw(st.sampled_from([0.0, 40.0, 900.0]))
    )
    return CouplingModel(
        resonances=(resonance,),
        nonlinearity_exponent=draw(st.sampled_from([1.0, 0.5, 1.7])),
        # 1 GHz puts the low-pass pole at alpha >= 1 (no filtering).
        baseband_bandwidth_hz=draw(st.sampled_from([2e3, 50e3, 1e9])),
        noise_sigma=draw(st.sampled_from([0.0, 0.7, 3.0])),
        drift=DriftSpec(**drift),
        burst=burst,
    )


# The impairments of demo_board path 42 (link_* path 1), with 20 times its
# burst rate and bursts that last 10 of the example's 24-sample states.
NOISE_WALK_SINE_BURST = CouplingModel(
    resonances=(Resonance(500e6, 80e6, 40.0),),
    baseband_bandwidth_hz=3000.0,
    noise_sigma=6.0,
    drift=DriftSpec(walk_step=0.01, sine_amplitude=2.0, sine_period_s=8.0),
    burst=BurstSpec(rate_per_s=50.0, amplitude=60.0, duration_s=0.024),
)


envelopes = st.builds(
    BasebandEnvelope,
    values=st.lists(st.floats(0.0, 1.0), max_size=40).map(np.array),
    sample_rate=st.sampled_from([1e3, 7e3, 1e4]),
)
stimuli = st.one_of(
    st.none(),
    st.builds(
        RfStimulus,
        freq_hz=st.sampled_from(FREQS),
        power_dbm=st.sampled_from([-10.0, 10.0, 30.0]),
        enabled=st.booleans(),
        envelope=st.one_of(st.none(), st.none(), envelopes),
    ),
)


@st.composite
def schedules(draw, stimulus=stimuli, max_rows=12):
    """A schedule over one to four drawn stimuli, whose rows repeat them in
    any order."""
    pool = draw(st.lists(stimulus, min_size=1, max_size=4))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), max_size=max_rows))
    return StimulusSchedule(pool, np.array(rows, dtype=np.intp))


def row_stimuli(schedule):
    return [schedule.stimuli[r] for r in schedule.rows]


def state_of(dut):
    return astuple(dut._state), dut._rng.bit_generator.state


@example(
    model=NOISE_WALK_SINE_BURST,
    ratio=1,
    samples_per_block=8,
    n_blocks=3,
    prefix_blocks=2,
    prefix=None,
    schedule=StimulusSchedule(
        (None, RfStimulus(freq_hz=500e6, power_dbm=10.0, enabled=True)), [0, 1] * 6
    ),
    pass_cap=simulator._PASS_RAW_SAMPLES,
    seed=1,  # bursts start in states 3 and 7 and carry through the next ones
)
@example(  # one envelope stimulus in three rows of a pass, each holding its own samples
    model=CouplingModel(resonances=(Resonance(500e6, 80e6, 900.0),), noise_sigma=0.7),
    ratio=1,
    samples_per_block=4,
    n_blocks=2,
    prefix_blocks=1,
    prefix=None,
    schedule=StimulusSchedule(
        (
            None,
            RfStimulus(
                freq_hz=500e6, power_dbm=10.0, enabled=True,
                envelope=BasebandEnvelope(values=np.linspace(0.0, 1.0, 40), sample_rate=1e4),
            ),
        ),
        [1, 0, 1, 1],
    ),
    pass_cap=simulator._PASS_RAW_SAMPLES,
    seed=3,
)
@given(
    model=models(),
    ratio=st.sampled_from([1, 4, 16]),
    samples_per_block=st.integers(1, 8),
    n_blocks=st.integers(0, 3),
    prefix_blocks=st.integers(0, 2),
    prefix=stimuli,
    schedule=schedules(),
    pass_cap=st.sampled_from([16, 100, simulator._PASS_RAW_SAMPLES]),
    seed=st.integers(0, 2**32 - 1),
)
def test_schedule_equals_per_state_captures(
    model, ratio, samples_per_block, n_blocks, prefix_blocks, prefix, schedule, pass_cap, seed
):
    adc = AdcConfig(
        sample_rate_hz=10_000.0, oversampling_ratio=ratio, samples_per_block=samples_per_block
    )
    duts = []
    for _ in range(2):
        dut = SimulatedDut(
            n_paths=2, adc=adc, channel=RfChannel(), coupling={(1, None): model}, seed=seed
        )
        dut.configure(1, CFG, adc)
        dut.capture(prefix_blocks, prefix)  # start from a carried, nonzero state
        duts.append(dut)
    batched, reference = duts

    with mock.patch.object(simulator, "_PASS_RAW_SAMPLES", pass_cap):
        codes = batched.capture_schedule(schedule, n_blocks)
    expected = [reference.capture(n_blocks, s).samples for s in row_stimuli(schedule)]

    assert codes.dtype == np.int32
    assert codes.shape == (len(schedule), n_blocks * samples_per_block)
    for row, want in zip(codes, expected):
        np.testing.assert_array_equal(row, want)
    assert state_of(batched) == state_of(reference)
    assert batched._rng.random() == reference._rng.random()


@given(
    model=models(),
    samples_per_block=st.integers(1, 8),
    n_blocks=st.integers(1, 2),
    schedule=schedules(max_rows=16),
    cuts=st.lists(st.integers(0, 16), max_size=3),
    pass_cap=st.sampled_from([16, 100, simulator._PASS_RAW_SAMPLES]),
    seed=st.integers(0, 2**32 - 1),
)
def test_slices_capture_the_rows_of_the_whole_schedule(
    model, samples_per_block, n_blocks, schedule, cuts, pass_cap, seed
):
    """Capturing schedules of consecutive slices of the rows in turn gives
    the codes, device state and next draw of one capture of the whole
    schedule from the same state, and each part holds the schedule's
    stimuli and columns."""
    adc = AdcConfig(sample_rate_hz=10_000.0, samples_per_block=samples_per_block)
    duts = []
    for _ in range(2):
        dut = SimulatedDut(
            n_paths=2, adc=adc, channel=RfChannel(), coupling={(1, None): model}, seed=seed
        )
        dut.configure(1, CFG, adc)
        duts.append(dut)
    sliced, whole = duts
    bounds = [0, *sorted(min(c, len(schedule)) for c in cuts), len(schedule)]
    parts = [
        StimulusSchedule(schedule.stimuli, schedule.rows[a:b]) for a, b in zip(bounds, bounds[1:])
    ]

    with mock.patch.object(simulator, "_PASS_RAW_SAMPLES", pass_cap):
        codes = [sliced.capture_schedule(part, n_blocks) for part in parts]
        want = whole.capture_schedule(schedule, n_blocks)

    np.testing.assert_array_equal(np.concatenate(codes), want)
    assert state_of(sliced) == state_of(whole)
    assert sliced._rng.random() == whole._rng.random()
    for part, a, b in zip(parts, bounds, bounds[1:]):
        assert part.stimuli is schedule.stimuli
        np.testing.assert_array_equal(part.freq_hz, schedule.freq_hz)
        np.testing.assert_array_equal(part.power_dbm, schedule.power_dbm)
        np.testing.assert_array_equal(part.rows, schedule.rows[a:b])


@given(
    model=models(),
    ratio=st.sampled_from([1, 4]),
    samples_per_block=st.integers(1, 8),
    n_blocks=st.integers(1, 3),
    state=st.builds(
        simulator._DeviceState,
        sample_index=st.integers(0, 10**6),
        filter_value=st.sampled_from([0.0, -0.0, 3.5]),
        walk_value=st.sampled_from([0.0, -2.25, 7.0]),
        burst_left=st.integers(0, 300),
    ),
    schedule=schedules(),
    pass_cap=st.sampled_from([16, 100, simulator._PASS_RAW_SAMPLES]),
    seed=st.integers(0, 2**32 - 1),
)
def test_uncoupled_pass_equals_the_full_path(
    model, ratio, samples_per_block, n_blocks, state, schedule, pass_cap, seed
):
    """A model without resonances skips coupling and the low-pass at a zero
    filter state. The oracle runs the full path on the same model with one
    resonance of gain 0, which couples nothing: codes, device state and the
    next RNG draw must be equal."""
    adc = AdcConfig(
        sample_rate_hz=10_000.0, oversampling_ratio=ratio, samples_per_block=samples_per_block
    )
    uncoupled = replace(model, resonances=())
    oracle = replace(model, resonances=(Resonance(500e6, 80e6, 0.0),))
    duts = []
    for m in (uncoupled, oracle):
        dut = SimulatedDut(
            n_paths=2, adc=adc, channel=RfChannel(), coupling={(1, None): m}, seed=seed
        )
        dut.configure(1, CFG, adc)
        dut._state = replace(state)
        duts.append(dut)
    skipped, full = duts

    with mock.patch.object(simulator, "_PASS_RAW_SAMPLES", pass_cap):
        codes = skipped.capture_schedule(schedule, n_blocks)
        want = full.capture_schedule(schedule, n_blocks)

    np.testing.assert_array_equal(codes, want)
    assert skipped._state == full._state
    assert skipped._rng.random() == full._rng.random()


# Stimuli that the rig's source (1 MHz-6 GHz, -40-30 dBm) refuses: a
# frequency or power out of range, or a NaN power (RfStimulus itself
# refuses a NaN frequency).
_BAD_LIMITS = [(0.5e6, 20.0), (7e9, 20.0), (500e6, 35.0), (500e6, -41.0), (500e6, math.nan)]
limit_stimuli = st.builds(
    RfStimulus,
    freq_hz=st.sampled_from([1e6, 500e6, 6e9]),
    power_dbm=st.sampled_from([-40.0, 20.0, 30.0]),
    enabled=st.booleans(),
)
bad_stimuli = st.builds(
    lambda limits, enabled: RfStimulus(*limits, enabled=enabled),
    st.sampled_from(_BAD_LIMITS),
    st.booleans(),
)


@st.composite
def refused_schedules(draw):
    """Rows of stimuli in and out of range, with at least one refused row
    at any position."""
    schedule = draw(schedules(limit_stimuli | bad_stimuli, max_rows=7))
    bad = len(schedule.stimuli)
    rows = schedule.rows.tolist()
    rows.insert(draw(st.integers(0, len(rows))), bad)
    return StimulusSchedule((*schedule.stimuli, draw(bad_stimuli)), np.array(rows))


class RecordingTransport(LoopbackTransport):
    """A loopback link that keeps every request line sent over it."""

    def __init__(self, server):
        super().__init__(server)
        self.sent = []

    def send_line(self, line):
        self.sent.append(line)
        super().send_line(line)


class TestBackendSchedule:
    """capture_groups on the batched path: one SimulatorBackend.capture_schedule
    call. TestSerialBackendSchedule runs the same tests on the per-row path."""

    def rig(self, seed=4):
        model = CouplingModel(resonances=(Resonance(500e6, 80e6, 900.0),), noise_sigma=1.5)
        adc = AdcConfig(samples_per_block=8)
        dut = SimulatedDut(
            n_paths=2, adc=adc, channel=RfChannel(), coupling={(1, None): model}, seed=seed
        )
        source = SimulatedRfSource(max_power_dbm=30.0)
        return SimulatorBackend(dut, source), source, adc

    def snapshot(self, backend):
        """The device state and RNG state behind ``backend``."""
        return state_of(backend.dut)

    def capture(self, backend, source, schedule, n_blocks):
        codes, errors = capture_groups(backend, source, schedule, 1, n_blocks)
        assert errors == [None] * len(schedule)
        return codes[:, 0]

    def test_matches_rf_set_then_capture(self):
        stimuli = [
            RfStimulus(freq_hz=f, power_dbm=20.0, enabled=on) for f in FREQS for on in (False, True)
        ]
        schedule = StimulusSchedule(stimuli, [*range(8), 1, 0, 7])
        batched, batched_source, adc = self.rig()
        reference, source, _ = self.rig()
        batched.configure(ReceptionPathId(1), PATH_CONFIG, adc)
        reference.configure(ReceptionPathId(1), PATH_CONFIG, adc)
        codes = self.capture(batched, batched_source, schedule, 2)
        for row, stim in zip(codes, row_stimuli(schedule)):
            source.rf_set(stim)
            np.testing.assert_array_equal(row, reference.capture(2).samples)
        assert batched_source.stimulus is stimuli[7]

    def test_out_of_range_stimulus_rejected_before_capture(self):
        backend, source, adc = self.rig()
        backend.configure(ReceptionPathId(1), PATH_CONFIG, adc)
        before = self.snapshot(backend)
        schedule = StimulusSchedule([
            RfStimulus(freq_hz=500e6, power_dbm=20.0, enabled=True),
            RfStimulus(freq_hz=500e6, power_dbm=35.0, enabled=True),
        ])
        with pytest.raises(RfSourceError):
            self.capture(backend, source, schedule, 1)
        assert self.snapshot(backend) == before

    def test_a_stimulus_out_of_range_in_no_row_is_not_refused(self):
        """Limits are checked per stimulus but refused per row: a schedule
        without rows of the refused stimulus captures."""
        good = RfStimulus(freq_hz=500e6, power_dbm=20.0, enabled=True)
        bad = RfStimulus(freq_hz=500e6, power_dbm=35.0, enabled=True)
        schedule = StimulusSchedule((good, bad), [0, 0, 1])
        backend, source, adc = self.rig()
        backend.configure(ReceptionPathId(1), PATH_CONFIG, adc)
        part = StimulusSchedule(schedule.stimuli, schedule.rows[:2])
        assert self.capture(backend, source, part, 1).shape == (2, 8)
        assert source.stimulus is good
        with pytest.raises(RfSourceError):
            self.capture(backend, source, schedule, 1)
        assert source.stimulus is good

    @given(schedule=refused_schedules(), start=st.none() | limit_stimuli)
    def test_a_refused_row_changes_nothing(self, schedule, start):
        self.assert_a_refused_row_changes_nothing(schedule, start)

    def assert_a_refused_row_changes_nothing(self, schedule, start):
        """The RfSourceError is that of rf_set on the stimulus of the first
        row out of range or NaN, at any position, and it comes before
        anything is set, sent or captured: the source keeps the stimulus it
        held, and the device and its RNG are unchanged."""
        backend, source, adc = self.rig()
        backend.configure(ReceptionPathId(1), PATH_CONFIG, adc)
        if start is not None:
            source.rf_set(start)
        reference = SimulatedRfSource(max_power_dbm=30.0)
        with pytest.raises(RfSourceError) as want:
            for stimulus in row_stimuli(schedule):
                reference.rf_set(stimulus)
        before = self.snapshot(backend)
        with pytest.raises(RfSourceError) as got:
            self.capture(backend, source, schedule, 1)
        assert str(got.value) == str(want.value)
        assert source.stimulus is start
        assert self.snapshot(backend) == before

    def test_a_none_row_is_refused(self):
        """A None row (RF off) is refused as rf_set(None) is, before
        anything is set, sent or captured."""
        backend, source, adc = self.rig()
        backend.configure(ReceptionPathId(1), PATH_CONFIG, adc)
        with pytest.raises(RfSourceError, match="^no RF stimulus$"):
            source.rf_set(None)
        before = self.snapshot(backend)
        on = RfStimulus(freq_hz=500e6, power_dbm=20.0, enabled=True)
        with pytest.raises(RfSourceError, match="^no RF stimulus$"):
            self.capture(backend, source, StimulusSchedule((on, None), [0, 1, 0]), 1)
        assert source.stimulus is None
        assert self.snapshot(backend) == before

    def test_capture_before_configure(self):
        backend, source, _ = self.rig()
        with pytest.raises(NotConfiguredError):
            self.capture(backend, source, StimulusSchedule([RfStimulus(500e6, 20.0)]), 1)


class TestSerialBackendSchedule(TestBackendSchedule):
    """capture_groups on the per-row path: SerialBackend through the line
    codec and a loopback link to a DutProtocolServer."""

    def rig(self, seed=4):
        direct, source, adc = super().rig(seed)
        return SerialBackend(RecordingTransport(DutProtocolServer(direct))), source, adc

    def snapshot(self, backend):
        """The device state and RNG state, and the request lines sent."""
        transport = backend.transport
        return state_of(transport.server.backend.dut), list(transport.sent)

    # Hypothesis keys a @given test by its function, so each class needs its own.
    @given(schedule=refused_schedules(), start=st.none() | limit_stimuli)
    def test_a_refused_row_changes_nothing(self, schedule, start):
        self.assert_a_refused_row_changes_nothing(schedule, start)


def test_capture_groups_sets_the_source_it_is_given():
    """On the batched path, capture_groups checks and sets its rf_source
    argument; the backend's own source is left alone."""
    backend, own, adc = TestBackendSchedule().rig()
    given = SimulatedRfSource(max_power_dbm=20.0)
    backend.configure(ReceptionPathId(1), PATH_CONFIG, adc)
    on = RfStimulus(freq_hz=500e6, power_dbm=20.0, enabled=True)
    off = RfStimulus(freq_hz=500e6, power_dbm=20.0)
    codes, _ = capture_groups(backend, given, StimulusSchedule((off, on), [1, 0]), 1, 1)
    assert codes.shape == (2, 1, 8)
    assert given.stimulus is off
    assert own.stimulus is None
    with pytest.raises(RfSourceError, match="power 25.0 dBm outside"):
        capture_groups(backend, given, StimulusSchedule([replace(on, power_dbm=25.0)]), 1, 1)
    assert given.stimulus is off and own.stimulus is None


class TestStimulusSchedule:
    ON = RfStimulus(freq_hz=500e6, power_dbm=10.0, enabled=True)
    OFF = RfStimulus(freq_hz=480e6, power_dbm=-5.0)

    def test_columns_and_default_rows(self):
        schedule = StimulusSchedule([self.OFF, None, self.ON])
        assert schedule.stimuli == (self.OFF, None, self.ON)
        assert schedule.rows.dtype == np.intp
        np.testing.assert_array_equal(schedule.rows, [0, 1, 2])
        np.testing.assert_array_equal(schedule.freq_hz, [480e6, math.nan, 500e6])
        np.testing.assert_array_equal(schedule.power_dbm, [-5.0, math.nan, 10.0])
        assert len(schedule) == 3

    @pytest.mark.parametrize("freq", [0.0, -1.0, math.nan])
    def test_a_stimulus_frequency_must_be_positive(self, freq):
        with pytest.raises(ValueError, match="^freq_hz must be positive$"):
            RfStimulus(freq_hz=freq, power_dbm=0.0)

    def test_rows_are_a_read_only_copy(self):
        bits = np.array([1, 0, 1], np.uint8)
        schedule = StimulusSchedule((self.OFF, self.ON), bits)
        bits[0] = 0
        np.testing.assert_array_equal(schedule.rows, [1, 0, 1])
        for column in (schedule.rows, schedule.freq_hz, schedule.power_dbm):
            with pytest.raises(ValueError):
                column[0] = 0
        with pytest.raises(AttributeError):
            schedule.rows = np.zeros(3, np.intp)

    @pytest.mark.parametrize(
        "rows", [[0, 2], [-1], [[0, 1]], np.array([0.0, 1.0]), np.array([True])]
    )
    def test_rows_must_index_the_stimuli(self, rows):
        with pytest.raises(ValueError, match="rows must"):
            StimulusSchedule((self.OFF, self.ON), rows)

    def test_indexing_a_schedule_is_a_type_error(self):
        schedule = StimulusSchedule((self.OFF, self.ON), [0, 1, 1])
        for key in (0, slice(1, None)):
            with pytest.raises(TypeError):
                schedule[key]
