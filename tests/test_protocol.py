"""Wire codec, protocol server, and the serial loopback backend."""

import numpy as np
import pytest

from adcradio.backend import (
    BackendError,
    NotConfiguredError,
    ReceptionPathId,
    RfStimulus,
    SimulatedRfSource,
    SimulatorBackend,
)
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
from adcradio.simulator import AdcConfig, CouplingModel, Resonance, RfChannel, SimulatedDut
from adcradio.sweep import enumerate_configs

ALL_CONFIGS = enumerate_configs()


def make_stack(seed=0, n_paths=4, samples_per_block=8):
    adc = AdcConfig(samples_per_block=samples_per_block)
    dut = SimulatedDut(
        n_paths=n_paths,
        adc=adc,
        channel=RfChannel(),
        coupling={(1, None): CouplingModel(resonances=(Resonance(500e6, 50e6, 100.0),))},
        default_model=CouplingModel(noise_sigma=2.0),
        seed=seed,
    )
    source = SimulatedRfSource()
    backend = SimulatorBackend(dut, source)
    return backend, source


class TestCodec:
    def test_cfg_round_trip(self):
        cmd = ConfigureCommand(path=3, config=ALL_CONFIGS[37])
        assert decode_command(encode_command(cmd)) == cmd

    def test_documented_smp_example(self):
        cmd = decode_command("SMP 32 10000 16")
        assert cmd == CaptureCommand(n_blocks=32, sample_rate_hz=10000, oversampling_ratio=16)

    def test_id_and_rst(self):
        assert decode_command("ID?") == IdentifyCommand()
        assert decode_command("RST") == ResetCommand()

    def test_round_trip_all_commands(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            kind = rng.integers(0, 4)
            if kind == 0:
                cmd = ConfigureCommand(
                    path=int(rng.integers(0, 1000)),
                    config=ALL_CONFIGS[int(rng.integers(0, 64))],
                )
            elif kind == 1:
                cmd = CaptureCommand(
                    n_blocks=int(rng.integers(0, 10_000)),
                    sample_rate_hz=int(rng.integers(1, 10**7)),
                    oversampling_ratio=int(2 ** rng.integers(0, 9)),
                )
            elif kind == 2:
                cmd = IdentifyCommand()
            else:
                cmd = ResetCommand()
            assert decode_command(encode_command(cmd)) == cmd

    def test_arity_error_with_position(self):
        with pytest.raises(ProtocolError, match="expected 6 fields"):
            decode_command("CFG 3 ANALOG")

    def test_unknown_verb(self):
        with pytest.raises(ProtocolError, match="unknown verb"):
            decode_command("PING")

    def test_unknown_token_positions(self):
        with pytest.raises(ProtocolError, match="field 2"):
            decode_command("CFG 0 WEIRD PD HI OD")
        with pytest.raises(ProtocolError, match="field 3"):
            decode_command("CFG 0 INPUT XX HI OD")

    def test_bad_integer(self):
        with pytest.raises(ProtocolError, match="invalid unsigned integer"):
            decode_command("SMP -1 1000 1")

    def test_non_ascii_bytes(self):
        with pytest.raises(ProtocolError, match="ASCII"):
            decode_command(b"CFG \xff\xfe")

    def test_fuzz_malformed_never_crashes(self):
        rng = np.random.default_rng(99)
        rejected = 0
        for _ in range(20_000):
            blob = bytes(rng.integers(0, 256, size=rng.integers(0, 40)))
            try:
                decode_command(blob)
            except ProtocolError:
                rejected += 1
        assert rejected > 19_000  # essentially everything random is malformed


class TestServer:
    def test_cfg_happy_path(self):
        backend, _ = make_stack()
        server = DutProtocolServer(backend)
        line = encode_command(ConfigureCommand(0, ALL_CONFIGS[0]))
        assert server.handle_line(line) == ["OK"]

    def test_unknown_path_is_err(self):
        backend, _ = make_stack(n_paths=2)
        server = DutProtocolServer(backend)
        out = server.handle_line("CFG 2 ANALOG PU LO OD")
        assert out[0].startswith("ERR") and "unknown path" in out[0]

    def test_capture_before_configure_is_err(self):
        backend, _ = make_stack()
        server = DutProtocolServer(backend)
        out = server.handle_line("SMP 1 10000 1")
        assert out[0].startswith("ERR")

    def test_unsupported_oversampling_is_err(self):
        backend, _ = make_stack()
        server = DutProtocolServer(backend)
        server.handle_line("CFG 0 INPUT NONE HI PP")
        out = server.handle_line("SMP 1 10000 3")
        assert out[0].startswith("ERR") and "unsupported" in out[0]

    def test_rate_errors_on_the_wire(self):
        backend, _ = make_stack()
        server = DutProtocolServer(backend)
        server.handle_line("CFG 0 INPUT NONE HI PP")
        assert server.handle_line("SMP 1 10000 3") == ["ERR unsupported oversampling ratio 3"]
        assert server.handle_line("SMP 1 0 1") == ["ERR unsupported sample rate 0"]

    def test_uses_only_the_backend_interface(self):
        # The server drives any backend with configure/capture/describe/
        # reset, adc and set_adc_rate; it never reaches the device behind it.
        class Facade:
            def __init__(self, backend):
                self._backend = backend

            @property
            def adc(self):
                return self._backend.adc

            def __getattr__(self, name):
                if name not in ("configure", "capture", "describe", "reset", "set_adc_rate"):
                    raise AttributeError(name)
                return getattr(self._backend, name)

        direct, _ = make_stack(samples_per_block=4)
        wrapped, _ = make_stack(samples_per_block=4)
        lines = ["ID?", "CFG 0 INPUT NONE HI PP", "SMP 2 20000 4", "SMP 1 10000 1", "RST"]
        want = [DutProtocolServer(direct).handle_line(line) for line in lines]
        got = [DutProtocolServer(Facade(wrapped)).handle_line(line) for line in lines]
        assert got == want
        assert wrapped.adc.sample_rate_hz == 10000.0

    def test_data_framing(self):
        backend, _ = make_stack(samples_per_block=4)
        server = DutProtocolServer(backend)
        server.handle_line("CFG 0 INPUT NONE HI PP")
        out = server.handle_line("SMP 3 10000 1")
        assert out[0] == "DATA 12"
        assert out[-1] == "END"
        assert len(out) == 14
        assert all(line.isdigit() for line in out[1:-1])

    def test_id_reports_version(self):
        backend, _ = make_stack(n_paths=7)
        server = DutProtocolServer(backend)
        (line,) = server.handle_line("ID?")
        fields = line.split(" ")
        assert fields[0] == "ID"
        assert fields[1] == "7"
        assert fields[2] == "12"
        assert fields[4] == "1"

    def test_malformed_yields_err_not_crash(self):
        backend, _ = make_stack()
        server = DutProtocolServer(backend)
        rng = np.random.default_rng(5)
        for _ in range(2000):
            blob = bytes(rng.integers(0, 256, size=rng.integers(0, 30)))
            out = server.handle_line(blob)
            assert isinstance(out, list) and out


class TestSerialBackend:
    def make_client(self, seed=0, samples_per_block=8):
        backend, source = make_stack(seed=seed, samples_per_block=samples_per_block)
        server = DutProtocolServer(backend)
        client = SerialBackend(LoopbackTransport(server))
        return client, source

    def test_describe(self):
        client, _ = self.make_client()
        desc = client.describe()
        assert desc.n_paths == 4
        assert desc.resolution_bits == 12

    def test_configure_then_capture(self):
        client, _ = self.make_client(samples_per_block=8)
        client.configure(ReceptionPathId(0), ALL_CONFIGS[0], AdcConfig(samples_per_block=8))
        trace = client.capture(3)
        assert len(trace) == 24

    def test_capture_before_configure_raises(self):
        client, _ = self.make_client()
        with pytest.raises(NotConfiguredError):
            client.capture(1)

    def test_zero_blocks_empty_trace(self):
        client, _ = self.make_client()
        client.configure(ReceptionPathId(0), ALL_CONFIGS[0], AdcConfig(samples_per_block=8))
        assert len(client.capture(0)) == 0

    def test_backend_error_surfaces(self):
        client, _ = self.make_client()
        with pytest.raises(BackendError, match="unknown path"):
            client.configure(ReceptionPathId(9), ALL_CONFIGS[0], AdcConfig())

    def test_loopback_matches_direct_capture_bytes(self):
        direct_backend, direct_source = make_stack(seed=42, samples_per_block=8)
        loop_backend, loop_source = make_stack(seed=42, samples_per_block=8)
        client = SerialBackend(LoopbackTransport(DutProtocolServer(loop_backend)))

        adc = AdcConfig(samples_per_block=8)
        path, config = ReceptionPathId(1), ALL_CONFIGS[5]
        stim = RfStimulus(freq_hz=500e6, power_dbm=10.0, enabled=True)

        direct_backend.configure(path, config, adc)
        direct_source.rf_set(stim)
        direct = [direct_backend.capture(2).samples for _ in range(3)]

        client.configure(path, config, adc)
        loop_source.rf_set(stim)
        looped = [client.capture(2).samples for _ in range(3)]

        for a, b in zip(direct, looped):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1234567890123", "sample line 2: code longer than 12 digits"),
            ("99999999999", "sample line 2: code 99999999999 outside [0, 4095]"),
            ("4096", "sample line 2: code 4096 outside [0, 4095]"),
            ("-1", "sample line 2: invalid code '-1'"),
            ("", "sample line 2: invalid code ''"),
            ("\u0663", "sample line 2: invalid code '\u0663'"),
            ("12\n34", "sample line 2: invalid code '12\\n34'"),
        ],
    )
    def test_bad_sample_line_rejected_after_the_frame(self, line, message):
        class CorruptingServer(DutProtocolServer):
            corrupted = False

            def handle_line(self, request):
                lines = super().handle_line(request)
                if request.startswith("SMP") and not self.corrupted:
                    self.corrupted = True
                    lines[3] = line
                return lines

        backend, _ = make_stack(samples_per_block=8)
        client = SerialBackend(LoopbackTransport(CorruptingServer(backend)))
        client.configure(ReceptionPathId(0), ALL_CONFIGS[0], AdcConfig(samples_per_block=8))
        with pytest.raises(ProtocolError) as excinfo:
            client.capture(1)
        assert str(excinfo.value) == message
        # The whole frame was consumed, so the next capture is in step.
        assert len(client.capture(1)) == 8

    def test_reset_clears_configuration(self):
        client, _ = self.make_client()
        client.configure(ReceptionPathId(0), ALL_CONFIGS[0], AdcConfig(samples_per_block=8))
        client.reset()
        with pytest.raises(NotConfiguredError):
            client.capture(1)

    def test_timeout_then_hard_error(self):
        class DeadTransport:
            def send_line(self, line):
                pass

            def recv_line(self, timeout_s):
                return None

        client = SerialBackend(DeadTransport(), timeout_s=0.01, retries=3)
        with pytest.raises(ProtocolError, match="timed out"):
            client.describe()


class TestRfSource:
    def test_out_of_range_power_rejected(self):
        source = SimulatedRfSource(min_power_dbm=-40.0)
        from adcradio.backend import RfSourceError

        with pytest.raises(RfSourceError, match="power"):
            source.rf_set(RfStimulus(freq_hz=500e6, power_dbm=-50.0, enabled=True))

    def test_disable_reverts_to_baseline(self):
        backend, source = make_stack(seed=3, samples_per_block=64)
        adc = AdcConfig(samples_per_block=64)
        backend.configure(ReceptionPathId(1), ALL_CONFIGS[0], adc)
        source.rf_set(RfStimulus(freq_hz=500e6, power_dbm=30.0, enabled=True))
        on = backend.capture(8).samples
        source.rf_set(RfStimulus(freq_hz=500e6, power_dbm=30.0, enabled=False))
        backend.capture(2)  # settle
        off = backend.capture(8).samples
        assert on[256:].mean() - off[256:].mean() > 10
