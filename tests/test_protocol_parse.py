"""The protocol's parsers against a field-by-field reference copy kept
here.

decode_command, the server's handling of a request and _data_header must
each give what the reference gives for any line: the same command,
response lines and backend calls, or a ProtocolError with the same text.
The lines drawn are mostly near misses of an SMP request and a DATA
header: non-ASCII digits, 12- and 13-digit fields, leading zeros,
lowercase and short CRCs, doubled and trailing spaces, control characters
and missing fields.

The server is also checked against a reference server kept here, which
parses every request line anew, one field at a time, and captures through
``backend.capture(n).samples``: for any sequence of requests (repeated SMP
text under fresh tags, exact repeats, CFG and ID? in between, RST, which
both refuse as an unknown verb, and malformed and untagged lines) both give
the same response lines and leave the device's random stream in the same
state.
"""

import re
from unittest import mock

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from adcradio import protocol
from adcradio.backend import (
    BackendError,
    DutDescriptor,
    PathConfig,
    ReceptionPathId,
    RfStimulus,
    SimulatedRfSource,
    SimulatorBackend,
    enumerate_configs,
)
from adcradio.protocol import (
    MAX_CAPTURE_CODES,
    PROTOCOL_VERSION,
    CaptureCommand,
    ConfigureCommand,
    DutProtocolServer,
    IdentifyCommand,
    ProtocolError,
    _data_frame,
    _data_header,
    _err_line,
    _text_line,
    decode_command,
    encode_command,
)
from adcradio.simulator import (
    AdcConfig,
    AdcTrace,
    CouplingModel,
    Resonance,
    RfChannel,
    SimulatedDut,
)

# -- the field-by-field reference -------------------------------------------


def _split_fields(line):
    fields = line.split(" ")
    if "" in fields:
        raise ProtocolError(f"field {fields.index('')}: empty (check spacing)")
    return fields


def _parse_uint(field, pos, name):
    if not (field.isascii() and field.isdigit()):
        raise ProtocolError(f"field {pos} ({name}): invalid unsigned integer {field!r}")
    if len(field) > 12:
        raise ProtocolError(f"field {pos} ({name}): integer too long")
    return int(field)


def _parse_token(table, field, pos, name):
    try:
        return table[field]
    except KeyError:
        raise ProtocolError(f"field {pos} ({name}): unknown token {field!r}") from None


def reference_parse_command(line):
    """A checked text line as a command, one field at a time."""
    if "\r" in line or "\n" in line or "\x00" in line:
        raise ProtocolError("line contains control characters")
    if line == "":
        raise ProtocolError("empty line")
    fields = _split_fields(line)
    verb = fields[0]
    if verb == "CFG":
        if len(fields) != 6:
            raise ProtocolError(f"CFG: expected 6 fields, got {len(fields)}")
        path = _parse_uint(fields[1], 1, "path")
        config = PathConfig(
            mode=_parse_token(protocol._MODE_FROM_TOKEN, fields[2], 2, "mode"),
            pupd=_parse_token(protocol._PUPD_FROM_TOKEN, fields[3], 3, "pupd"),
            output_value=_parse_token(protocol._VALUE_FROM_TOKEN, fields[4], 4, "value"),
            output_type=_parse_token(protocol._OTYPE_FROM_TOKEN, fields[5], 5, "output type"),
        )
        return ConfigureCommand(path=path, config=config)
    if verb == "SMP":
        if len(fields) != 4:
            raise ProtocolError(f"SMP: expected 4 fields, got {len(fields)}")
        return CaptureCommand(
            n_blocks=_parse_uint(fields[1], 1, "n_blocks"),
            sample_rate_hz=_parse_uint(fields[2], 2, "rate_hz"),
            oversampling_ratio=_parse_uint(fields[3], 3, "ovs"),
        )
    if verb == "ID?":
        if len(fields) != 1:
            raise ProtocolError(f"ID?: expected no arguments, got {len(fields) - 1}")
        return IdentifyCommand()
    raise ProtocolError(f"field 0: unknown verb {verb!r}")


def reference_data_header(line):
    """The code count and CRC-32 of a DATA header, one field at a time."""
    fields = line.split(" ")
    if len(fields) != 3 or fields[0] != "DATA":
        raise ProtocolError(f"expected DATA header, got {line!r}")
    count = _parse_uint(fields[1], 1, "count")
    if not re.fullmatch("[0-9A-F]{8}", fields[2]):
        raise ProtocolError(f"field 2 (crc32): expected 8 hex digits, got {fields[2]!r}")
    return count, int(fields[2], 16)


# -- near misses ---------------------------------------------------------------

NEAR_DIGITS = "²٣１-+aA_\t"
NUMBERS = st.one_of(
    st.integers(0, 10**13).map(str),
    st.tuples(st.integers(0, 4), st.integers(0, 10**12)).map(lambda z: "0" * z[0] + str(z[1])),
    st.text(alphabet="0123456789", min_size=11, max_size=13),
    st.text(alphabet="0123456789" + NEAR_DIGITS, max_size=14),
)
CRCS = st.one_of(
    st.text(alphabet="0123456789ABCDEF", min_size=7, max_size=9),
    st.text(alphabet="0123456789ABCDEFabcdef", min_size=8, max_size=8),
    NUMBERS,
)
SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\r", "\x00", ""])
ENDS = st.sampled_from(["", "", "", " ", "\r", "\n", "\x00", "  ", "\r\n"])


@st.composite
def near_lines(draw, verb, field):
    """A verb, up to five fields, each after a drawn separator, and a
    drawn end."""
    line = draw(verb)
    for value in draw(st.lists(field, max_size=5)):
        line += draw(SEPARATORS) + value
    return line + draw(ENDS)


SMP_LINES = near_lines(st.sampled_from(["SMP", "SMP", "smp", "SM", "SMP\r", " SMP"]), NUMBERS)
HEADER_LINES = st.one_of(
    st.builds("DATA {} {}".format, NUMBERS, CRCS),
    near_lines(st.sampled_from(["DATA", "DATA", "data", "DAT"]), NUMBERS | CRCS),
)
ANY_LINES = st.one_of(SMP_LINES, HEADER_LINES, st.text(max_size=40))


def outcome(fn, *args):
    """What fn returns, or the type and text of the ProtocolError it raises."""
    try:
        return "returned", fn(*args)
    except ProtocolError as exc:
        return "raised", type(exc), str(exc)


# -- the properties --------------------------------------------------------------


@example(line="SMP 1 10000 1")
@example(line="SMP ² 1 1")
@example(line="SMP 0001 000000000010 1\n")
@example(line="SMP 1 1 1234567890123")
@example(line="SMP 1  1 1")
@example(line="SMP 1 1 1 ")
@example(line="SMP 1 1")
@example(line="SMP 1 1 1\r")
@given(line=ANY_LINES | SMP_LINES.map(str.encode))
def test_decode_command_equals_the_field_by_field_parse(line):
    def reference(line):
        return reference_parse_command(_text_line(line))

    assert outcome(decode_command, line) == outcome(reference, line)


@example(line="DATA 64 0A1B2C3D")
@example(line="DATA 64 0a1b2c3d")
@example(line="DATA 64 0A1B2C3")
@example(line="DATA 0064 0A1B2C3D")
@example(line="DATA 1234567890123 0A1B2C3D")
@example(line="DATA ٣ 0A1B2C3D")
@example(line="DATA  64 0A1B2C3D")
@example(line="DATA 64 0A1B2C3D ")
@example(line="DATA 64")
@example(line="DATA 64 0A1B2C3D\n")
@given(line=ANY_LINES)
def test_data_header_equals_the_field_by_field_parse(line):
    assert outcome(_data_header, line) == outcome(reference_data_header, line)


class RecordingBackend:
    """A backend that records each call and captures two fixed codes."""

    def __init__(self):
        self.adc = AdcConfig(samples_per_block=2)
        self.calls = []

    def configure(self, path, config, adc):
        self.calls.append(("configure", path, config))

    def set_adc_rate(self, sample_rate_hz, oversampling_ratio):
        self.calls.append(("set_adc_rate", sample_rate_hz, oversampling_ratio))

    def capture(self, n_blocks):
        self.calls.append(("capture", n_blocks))
        return AdcTrace(np.array([n_blocks % 4096, 7], np.int32), self.adc)

    def capture_codes(self, n_blocks):
        self.calls.append(("capture_codes", n_blocks))
        return np.array([n_blocks % 4096, 7], np.int32)

    def describe(self):
        self.calls.append(("describe",))
        return DutDescriptor(n_paths=4)


@example(line="SMP 2 10000 4")
@example(line="SMP 2 10000 4\n")
@example(line="SMP 000000000002 10000 4")
@example(line="SMP 2 10000 ４")
@given(line=ANY_LINES | SMP_LINES.map(str.encode))
def test_the_server_answers_as_with_the_field_by_field_parse(line):
    def serve(parse):
        backend = RecordingBackend()
        server = DutProtocolServer(backend)
        with mock.patch.object(protocol, "_parse_command", parse):
            request = b"0001 " + line if isinstance(line, bytes) else "0001 " + line
            response = server.handle_line(request)
        return response, backend.calls

    assert serve(protocol._parse_command) == serve(reference_parse_command)


# -- the reference server ---------------------------------------------------------


class ReferenceServer:
    """The device side with no memo but the replay of the last request:
    every line is parsed anew by reference_parse_command, a capture of more
    than MAX_CAPTURE_CODES codes is refused before anything runs, and a
    capture's codes are ``backend.capture(n).samples``."""

    def __init__(self, backend):
        self.backend = backend
        self.last_request, self.last_response = None, ()

    def handle_line(self, line):
        try:
            line = _text_line(line)
            if not re.match("[0-9A-F]{4} ", line):
                raise ProtocolError(
                    "untagged request: expected 4 uppercase hex digits and a space"
                )
        except ProtocolError as exc:
            return [_err_line(str(exc))]
        if line == self.last_request:
            return list(self.last_response)
        try:
            lines = self.dispatch(reference_parse_command(line[5:]))
        except (BackendError, ValueError, RuntimeError) as exc:
            lines = [_err_line(str(exc))]
        response = [line[:5] + payload for payload in lines]
        self.last_request, self.last_response = line, tuple(response)
        return response

    def dispatch(self, cmd):
        backend = self.backend
        if isinstance(cmd, CaptureCommand):
            n_codes = cmd.n_blocks * backend.adc.samples_per_block
            if n_codes > MAX_CAPTURE_CODES:
                raise ProtocolError(
                    f"SMP: {n_codes} codes exceed the capture limit of {MAX_CAPTURE_CODES}"
                )
            backend.set_adc_rate(cmd.sample_rate_hz, cmd.oversampling_ratio)
            return _data_frame(backend.capture(cmd.n_blocks).samples)
        if isinstance(cmd, ConfigureCommand):
            backend.configure(ReceptionPathId(index=cmd.path), cmd.config, backend.adc)
            return ["OK"]
        d = backend.describe()  # an IdentifyCommand
        rate = int(d.max_sample_rate_hz)
        return [f"ID {d.n_paths} {d.resolution_bits} {rate} {PROTOCOL_VERSION}"]


def server_stack(seed):
    """A 3-path device whose path 1 couples the source's 500 MHz carrier,
    behind a simulator backend; every capture draws noise."""
    coupled = CouplingModel(resonances=(Resonance(500e6, 50e6, 100.0),), noise_sigma=2.0)
    dut = SimulatedDut(
        n_paths=3,
        adc=AdcConfig(samples_per_block=4),
        channel=RfChannel(),
        coupling={(1, None): coupled},
        default_model=CouplingModel(noise_sigma=2.0),
        seed=seed,
    )
    source = SimulatedRfSource()
    source.rf_set(RfStimulus(freq_hz=500e6, power_dbm=10.0, enabled=True))
    return SimulatorBackend(dut, source)


# A few SMP texts, so that a sequence repeats them under fresh tags; three
# are refused by the device (one asks for more than MAX_CAPTURE_CODES codes)
# and one asks for no samples.
SMP_TEXTS = st.sampled_from(
    ["SMP 2 10000 1", "SMP 1 20000 4", "SMP 2 10000 1", "SMP 0 10000 1", "SMP 1 10000 3",
     "SMP 1 0 1", "SMP 300000 10000 1"]
)
CFG_TEXTS = st.builds(
    lambda path, config: encode_command(ConfigureCommand(path, config)),
    st.integers(0, 3),
    st.sampled_from(enumerate_configs()[:4]),
)
COMMAND_TEXTS = st.one_of(
    SMP_TEXTS, SMP_TEXTS, CFG_TEXTS, st.sampled_from(["RST", "ID?"]), SMP_LINES,
    st.text(max_size=20),
)
# One request: a command under the next tag or the previous one, an exact
# repeat of the last line, or a line without a valid tag.
REQUESTS = st.one_of(
    st.tuples(st.just("next tag"), COMMAND_TEXTS),
    st.tuples(st.just("same tag"), COMMAND_TEXTS),
    st.tuples(st.just("repeat"), st.just("")),
    st.tuples(
        st.just("untagged"), st.sampled_from(["SMP 2 10000 1", "01a2 SMP 2 10000 1", "", "0003"])
    ),
)


@example(
    seed=0,
    requests=[
        ("next tag", "CFG 1 INPUT NONE HI PP"),
        ("next tag", "SMP 2 10000 1"),
        ("next tag", "SMP 2 10000 1"),
        ("repeat", ""),
        ("next tag", "SMP 1 1O000 1"),
        ("next tag", "SMP 2 10000 1"),
        ("next tag", "SMP 1 10000 3"),
        ("next tag", "SMP 2 10000 1"),
        ("same tag", "SMP 1 20000 4"),
        ("untagged", "SMP 2 10000 1"),
        ("next tag", "CFG 0 INPUT NONE HI PP"),
        ("next tag", "SMP 2 10000 1"),
        ("repeat", ""),
    ],
)
@given(seed=st.integers(0, 3), requests=st.lists(REQUESTS, max_size=14))
def test_the_server_answers_as_the_reference_server(seed, requests):
    backend, reference_backend = server_stack(seed), server_stack(seed)
    server, reference = DutProtocolServer(backend), ReferenceServer(reference_backend)
    tag, line = 1, None
    for kind, text in requests:
        if kind == "repeat":
            if line is None:
                continue
        elif kind == "untagged":
            line = text
        else:
            tag = (tag + (kind == "next tag")) & 0xFFFF
            line = f"{tag:04X} {text}"
        assert server.handle_line(line) == reference.handle_line(line)
        states = [b.dut._rng.bit_generator.state for b in (backend, reference_backend)]
        assert states[0] == states[1]
