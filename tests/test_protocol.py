"""Wire codec, protocol server, and the serial loopback backend."""

import re
import zlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adcradio.backend import (
    BackendError,
    NotConfiguredError,
    ReceptionPathId,
    RfStimulus,
    SimulatedRfSource,
    SimulatorBackend,
)
from adcradio.protocol import (
    CODES_PER_LINE,
    MAX_LINE_CHARS,
    PROTOCOL_VERSION,
    CaptureCommand,
    ConfigureCommand,
    DutProtocolServer,
    IdentifyCommand,
    LoopbackTransport,
    ProtocolError,
    ResetCommand,
    SerialBackend,
    _data_frame,
    _data_header,
    _frame_codes,
    _text_line,
    decode_command,
    encode_command,
)
from adcradio.simulator import AdcConfig, CouplingModel, Resonance, RfChannel, SimulatedDut
from adcradio.sweep import enumerate_configs

ALL_CONFIGS = enumerate_configs()


# Corruptions of a tagged 192-code DATA frame: header, sample lines 0-2 of
# 248 hex digits, sample line 3 of 24, END.


def _flip_a_digit(lines):
    line = lines[2]
    lines[2] = line[:9] + ("1" if line[9] == "0" else "0") + line[10:]


def _lowercase_line(lines):
    lines[2] = lines[2][:5] + "a" * 248


def _truncate_line(lines):
    lines[3] = lines[3][:-4]


def _drop_line(lines):
    del lines[3]


def _repeat_line(lines):
    lines.insert(4, lines[3])


def _codes(lines):
    packed = bytes.fromhex("".join(line[5:] for line in lines[1:-1]))
    return np.frombuffer(packed, ">u2").astype(np.int32)


def _reframe(lines, codes):
    tag = lines[0][:5]
    lines[:] = [tag + line for line in _data_frame(codes)]


def _code_above_full_scale(lines):
    codes = _codes(lines)
    codes[130] = 4096
    _reframe(lines, codes)


def _short_count(lines):
    _reframe(lines, _codes(lines)[:-1])


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

    @example(line="SMP \u00b2 1 1")
    @example(line=b"CFG 1 AF PU HI OD\n")
    @given(
        line=st.text(max_size=40)
        | st.binary(max_size=40)
        | st.builds(
            "{} {}".format,
            st.sampled_from(["SMP", "CFG", "CFG 1", "CFG 1 AF PU", "ID?", "RST"]),
            st.text(max_size=30),
        )
    )
    def test_any_line_decodes_or_is_a_protocol_error(self, line):
        try:
            cmd = decode_command(line)
        except ProtocolError:
            return
        assert decode_command(encode_command(cmd)) == cmd


def _edited_frame(codes, edit):
    """The header and sample lines of a frame of ``codes`` after ``edit``."""
    header, *lines, _ = _data_frame(np.asarray(codes))
    return header, edit(lines), 4095


@st.composite
def data_frames(draw):
    """(header, sample lines, full scale): a DATA frame of random codes, some
    above full scale, as made by _data_frame or with its header or sample
    lines changed, or any text; each line as text or as bytes."""
    full_scale = (1 << draw(st.integers(6, 16))) - 1
    codes = draw(arrays(np.int64, st.integers(0, 150), elements=st.integers(0, 0xFFFF)))
    header, *lines, _ = _data_frame(codes)
    _, count, crc = header.split(" ")
    header = draw(
        st.just(header)
        | st.builds(
            "DATA {} {}".format,
            st.sampled_from([count, "0" + count, str(len(codes) + 1), "\u00b2", "\u0663", "-1",
                             "1" * 13, ""]),
            st.just(crc),
        )
        | st.sampled_from([f"DATA {count} {crc.lower()}", f"DATA {count} {crc[1:]}",
                           f"DATA {count} {crc} 0", f"DATA  {count} {crc}"])
        | st.text(max_size=30)
    )
    if lines and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        char = draw(st.sampled_from("0123456789ABCDEFabcdef \t\n\u00b2\u0663-"))
        edit = draw(
            st.sampled_from(
                ["replace", "insert", "delete", "drop", "repeat", "shift", "split", "lower"]
            )
        )
        line = lines[i]
        # shift, split and lower keep the frame's bytes and so its CRC.
        if edit == "shift" and i + 1 < len(lines):
            lines[i : i + 2] = [line + lines[i + 1][0], lines[i + 1][1:]]
        elif edit == "split":
            lines[i : i + 1] = [line[:j], line[j:]]
        elif edit == "lower":
            lines[i] = line.lower()
        elif edit == "replace":
            lines[i] = line[:j] + char + line[j + 1 :]
        elif edit == "insert":
            lines[i] = line[:j] + char + line[j:]
        elif edit == "delete":
            lines[i] = line[:j] + line[j + 1 :]
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, line)
    elif draw(st.booleans()):
        lines = draw(st.lists(st.text(max_size=300), max_size=4))
    as_bytes = draw(st.booleans())
    if as_bytes:
        header = header.encode("utf-8")
        lines = [line.encode("utf-8") for line in lines]
    return header, lines, full_scale


class TestDataFrameParsing:
    """DATA frame parsing as SerialBackend.capture runs it: the header, then
    the sample lines as one frame. A line that arrives as bytes is read with
    the codec's _text_line first."""

    @given(
        case=st.integers(6, 16).flatmap(
            lambda bits: st.tuples(
                st.just((1 << bits) - 1),
                arrays(np.int64, st.integers(0, 400), elements=st.integers(0, (1 << bits) - 1)),
            )
        )
    )
    def test_a_frame_decodes_to_its_codes(self, case):
        full_scale, codes = case
        header, *lines, end = _data_frame(codes)
        assert end == "END"
        assert all(len(line) <= MAX_LINE_CHARS - 5 for line in (header, *lines))
        count, crc = _data_header(header)
        decoded = _frame_codes(lines, count, crc, full_scale)
        assert decoded.dtype == np.int32
        assert decoded.tolist() == codes.tolist()

    @example(case=("DATA \u00b2 0000000A", [], 4095))
    # Eight characters for two codes, whose CRC is that of the three bytes
    # bytes.fromhex reads when it skips the spaces.
    @example(case=("DATA 2 E9A01E5A", ["00 1F 2A"], 4095))
    @example(case=_edited_frame([0xAB], lambda lines: [lines[0].lower()]))
    @example(case=_edited_frame([1, 2], lambda lines: [lines[0][:4], lines[0][4:]]))
    @example(case=_edited_frame(range(63), lambda lines: [lines[0] + "0", lines[1][1:]]))
    @given(case=data_frames())
    def test_any_header_and_lines_decode_or_are_a_protocol_error(self, case):
        header, lines, full_scale = case
        try:
            count, crc = _data_header(_text_line(header))
            codes = _frame_codes([_text_line(line) for line in lines], count, crc, full_scale)
        except ProtocolError:
            return
        # Only a canonical frame decodes: the codes re-encode to its lines.
        header, *sample_lines, _ = _data_frame(codes)
        assert _data_header(header) == (count, crc)
        assert sample_lines == [_text_line(line) for line in lines]
        assert codes.size == 0 or codes.max() <= full_scale


def ask(server, command, tag=1):
    """One tagged request; its response lines, checked for the tag and
    returned without it."""
    prefix = f"{tag:04X} "
    lines = server.handle_line(prefix + command)
    assert lines and all(line.startswith(prefix) for line in lines)
    return [line[len(prefix) :] for line in lines]


class TestServer:
    def test_cfg_happy_path(self):
        backend, _ = make_stack()
        server = DutProtocolServer(backend)
        line = encode_command(ConfigureCommand(0, ALL_CONFIGS[0]))
        assert ask(server, line) == ["OK"]

    def test_unknown_path_is_err(self):
        backend, _ = make_stack(n_paths=2)
        server = DutProtocolServer(backend)
        out = ask(server, "CFG 2 ANALOG PU LO OD")
        assert out[0].startswith("ERR") and "unknown path" in out[0]

    def test_capture_before_configure_is_err(self):
        backend, _ = make_stack()
        server = DutProtocolServer(backend)
        out = ask(server, "SMP 1 10000 1")
        assert out[0].startswith("ERR")

    def test_unsupported_oversampling_is_err(self):
        backend, _ = make_stack()
        server = DutProtocolServer(backend)
        ask(server, "CFG 0 INPUT NONE HI PP", tag=1)
        out = ask(server, "SMP 1 10000 3", tag=2)
        assert out[0].startswith("ERR") and "unsupported" in out[0]

    def test_rate_errors_on_the_wire(self):
        backend, _ = make_stack()
        server = DutProtocolServer(backend)
        ask(server, "CFG 0 INPUT NONE HI PP", tag=1)
        assert ask(server, "SMP 1 10000 3", tag=2) == ["ERR unsupported oversampling ratio 3"]
        assert ask(server, "SMP 1 0 1", tag=3) == ["ERR unsupported sample rate 0"]

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
        commands = ["ID?", "CFG 0 INPUT NONE HI PP", "SMP 2 20000 4", "SMP 1 10000 1", "RST"]
        lines = [f"{tag:04X} {command}" for tag, command in enumerate(commands, 1)]
        want = [DutProtocolServer(direct).handle_line(line) for line in lines]
        got = [DutProtocolServer(Facade(wrapped)).handle_line(line) for line in lines]
        assert got == want
        assert [len(response) for response in got] == [1, 1, 3, 3, 1]
        assert wrapped.adc.sample_rate_hz == 10000.0

    def test_data_framing(self):
        backend, _ = make_stack(samples_per_block=4)
        server = DutProtocolServer(backend)
        ask(server, "CFG 0 INPUT NONE HI PP", tag=1)
        out = server.handle_line("0002 SMP 3 10000 1")
        header = out[0].split(" ")
        assert header[:3] == ["0002", "DATA", "12"]
        assert re.fullmatch("[0-9A-F]{8}", header[3])
        assert out[-1] == "0002 END"
        assert len(out) == 3
        assert re.fullmatch("0002 [0-9A-F]{48}", out[1])
        packed = bytes.fromhex(out[1][5:])
        assert zlib.crc32(packed) == int(header[3], 16)
        assert np.frombuffer(packed, ">u2").max() <= 4095

    def test_sample_lines_are_full_but_within_the_line_limit(self):
        backend, _ = make_stack(samples_per_block=64)
        server = DutProtocolServer(backend)
        ask(server, "CFG 0 INPUT NONE HI PP", tag=1)
        out = ask(server, "SMP 2 10000 1", tag=2)
        assert out[0].startswith("DATA 128 ") and out[-1] == "END"
        assert [len(line) for line in out[1:-1]] == [4 * CODES_PER_LINE] * 2 + [4 * 4]
        assert 5 + 4 * CODES_PER_LINE <= MAX_LINE_CHARS < 5 + 4 * (CODES_PER_LINE + 1)
        long_err = server.handle_line("0003 CFG " + "9" * 240 + " INPUT NONE HI PP")
        assert all(len(line) <= MAX_LINE_CHARS for line in long_err)

    def test_id_reports_version(self):
        backend, _ = make_stack(n_paths=7)
        server = DutProtocolServer(backend)
        (line,) = ask(server, "ID?")
        fields = line.split(" ")
        assert fields[0] == "ID"
        assert fields[1] == "7"
        assert fields[2] == "12"
        assert fields[4] == "2" == str(PROTOCOL_VERSION)

    def test_untagged_request_is_err(self):
        backend, _ = make_stack()
        server = DutProtocolServer(backend)
        for line in ("CFG 0 INPUT NONE HI PP", "00a1 ID?", "001 ID?", "0001ID?", b"0001\xff ID?"):
            (out,) = server.handle_line(line)
            assert out.startswith("ERR ")
        assert not backend.dut.configured

    def test_repeated_request_is_replayed_not_run_again(self):
        direct, _ = make_stack(seed=5)
        backend, _ = make_stack(seed=5)
        server = DutProtocolServer(backend)
        ask(server, "CFG 0 INPUT NONE HI PP", tag=1)
        first = ask(server, "SMP 2 10000 1", tag=2)
        assert ask(server, "SMP 2 10000 1", tag=2) == first
        second = ask(server, "SMP 2 10000 1", tag=3)
        reference = DutProtocolServer(direct)
        ask(reference, "CFG 0 INPUT NONE HI PP", tag=1)
        assert ask(reference, "SMP 2 10000 1", tag=2) == first
        assert ask(reference, "SMP 2 10000 1", tag=3) == second != first

    def test_a_new_command_under_the_last_tag_runs(self):
        backend, _ = make_stack()
        server = DutProtocolServer(backend)
        assert ask(server, "CFG 0 INPUT NONE HI PP", tag=7) == ["OK"]
        assert ask(server, "RST", tag=7) == ["OK"]
        assert not backend.dut.configured

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

    def test_capture_after_reconfigure_sends_the_new_rate(self):
        backend, _ = make_stack(samples_per_block=8)
        client = SerialBackend(LoopbackTransport(DutProtocolServer(backend)))
        for rate, ratio in ((10_000.0, 1), (20_000.0, 4), (10_000.0, 2)):
            adc = AdcConfig(sample_rate_hz=rate, oversampling_ratio=ratio, samples_per_block=8)
            client.configure(ReceptionPathId(0), ALL_CONFIGS[0], adc)
            client.capture(1)
            assert (backend.adc.sample_rate_hz, backend.adc.oversampling_ratio) == (rate, ratio)

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
            ("1234567890123", "sample line 2: 13 hex digits, expected 248"),
            ("99999999999", "sample line 2: 11 hex digits, expected 248"),
            ("4096", "sample line 2: 4 hex digits, expected 248"),
            ("-1", "sample line 2: non-hex character '-' at column 0"),
            ("", "sample line 2: 0 hex digits, expected 248"),
            ("\u0663", "sample line 2: non-hex character '\u0663' at column 0"),
            ("12\n34", "sample line 2: non-hex character '\\n' at column 2"),
        ],
    )
    def test_bad_sample_line_rejected_after_the_frame(self, line, message):
        # Sample line 2 of a 192-code frame (three full lines of 62 codes
        # and one of 6) is replaced by the given text after its tag.
        class CorruptingServer(DutProtocolServer):
            corrupted = False

            def handle_line(self, request):
                lines = super().handle_line(request)
                if request[5:].startswith("SMP") and not self.corrupted:
                    self.corrupted = True
                    lines[3] = lines[3][:5] + line
                return lines

        backend, _ = make_stack(samples_per_block=8)
        client = SerialBackend(LoopbackTransport(CorruptingServer(backend)))
        client.configure(ReceptionPathId(0), ALL_CONFIGS[0], AdcConfig(samples_per_block=8))
        with pytest.raises(ProtocolError) as excinfo:
            client.capture(24)
        assert str(excinfo.value) == message
        # The whole frame was consumed, so the next capture is in step.
        assert len(client.capture(1)) == 8
        assert client.stale_lines_dropped == 0

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_flip_a_digit, "DATA header: CRC-32 {crc}, sample lines have "),
            (_lowercase_line, "sample line 1: non-hex character 'a' at column 0"),
            (_truncate_line, "sample line 2: 244 hex digits, expected 248"),
            (_drop_line, "sample line 2: 24 hex digits, expected 248"),
            (_repeat_line, "DATA frame: expected END after 4 sample lines, got "),
            (_code_above_full_scale, "sample 130: code 4096 above full scale 4095"),
            (_short_count, "device sent 191 samples, expected 192; "),
        ],
        ids=["crc", "lowercase", "truncated", "dropped", "repeated", "full-scale", "count"],
    )
    def test_corrupted_frame_fails_only_that_capture(self, corrupt, message):
        # A 192-code frame has a header, sample lines 0-2 of 62 codes, line 3
        # of 6 codes, and END. A changed, cut, dropped or repeated line, a
        # code above full scale under a matching CRC, or a short count fails
        # the capture with a message naming the line, sample or header, and
        # the next capture stays in step.
        class CorruptingServer(DutProtocolServer):
            crc = None

            def handle_line(self, request):
                lines = super().handle_line(request)
                if request[5:].startswith("SMP") and self.crc is None:
                    self.crc = lines[0].split(" ")[3]
                    corrupt(lines)
                return lines

        backend, _ = make_stack(samples_per_block=8)
        server = CorruptingServer(backend)
        client = SerialBackend(LoopbackTransport(server))
        client.configure(ReceptionPathId(0), ALL_CONFIGS[0], AdcConfig(samples_per_block=8))
        with pytest.raises(ProtocolError) as excinfo:
            client.capture(24)
        assert str(excinfo.value).startswith(message.format(crc=server.crc))
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
