"""Line-oriented wire protocol between a host and a DUT, version 2.

The protocol is 7-bit-safe text, one LF-terminated line of at most
MAX_LINE_CHARS characters per message, chosen for debuggability over
UART-class links. Every request line is ``<tag> <command>`` and every line
of its response echoes the tag; the tag is a 16-bit sequence number in four
uppercase hex digits:

    CFG <path> <mode> <pupd> <val> <otype>   ->  OK | ERR <msg>
    SMP <n_blocks> <rate_hz> <ovs>           ->  DATA <count> <crc32>, sample
                                                 lines, END   | ERR <msg>
    ID?                                      ->  ID <n_paths> <bits> <max_rate> <version>

Enumerations use fixed uppercase tokens: INPUT, OUTPUT, AF, ANALOG; NONE,
PU, PD, RSV; HI, LO; PP, OD. Fields are single-space separated.
encode_command and decode_command work on the untagged command.

A DATA frame packs its codes as 4-digit uppercase big-endian hex,
CODES_PER_LINE codes per sample line and the rest on the last one. The
header carries the code count and the zlib CRC-32 of the packed bytes in
8 uppercase hex digits.

Requests run at most once. The server keeps the last request line and its
response, and answers a repeat of that line by replaying the response
without running the command again. The host resends a timed-out request
under the same tag and drops every line that is not the awaited response:
a stale or duplicated line carries another tag, or none.

CFG selects and resets a reception path; SMP applies the acquisition rate
and oversampling ratio (without resetting the path) and runs one capture of
at most MAX_CAPTURE_CODES codes; a larger one is refused before anything
runs.
The block length (samples per block) and ADC resolution are device-side
settings the host takes from its scenario's AdcConfig, not per command. The
trailing ID? field is the protocol version; no host flow sends ID? yet.
"""

from __future__ import annotations

import numbers
import re
import zlib
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .backend import (
    BackendError,
    DutDescriptor,
    GpioMode,
    GpioPull,
    NotConfiguredError,
    OutputType,
    OutputValue,
    PathConfig,
    ReceptionPathId,
    SimulatorBackend,
    UnsupportedSettingError,
)
from .simulator import AdcConfig, AdcTrace

PROTOCOL_VERSION = 2
MAX_LINE_CHARS = 256
_MAX_INT_DIGITS = 12
# The most codes one SMP may ask for (n_blocks times the device's block
# length): above a 12,565-bit link payload's 201,040. At one sample per code
# a capture this large peaks at about 16 MiB on the device side, DATA frame
# included (demo_board, tracemalloc).
MAX_CAPTURE_CODES = 1 << 20
# A tag is four hex digits and a space ahead of every line.
_TAG_CHARS = 5
# Codes per DATA sample line: four hex digits each, within the line limit.
CODES_PER_LINE = (MAX_LINE_CHARS - _TAG_CHARS) // 4
_LINE_DIGITS = 4 * CODES_PER_LINE
# A code on the wire: big-endian unsigned 16 bits.
_WIRE_CODE = np.dtype(">u2")


class ProtocolError(BackendError):
    """Malformed line, framing problem, or protocol-level failure: a
    BackendError, so a sweep marks the cells it hits failed."""


class ProtocolTimeoutError(ProtocolError):
    pass


@dataclass(frozen=True)
class ConfigureCommand:
    path: int
    config: PathConfig


class CaptureCommand(NamedTuple):
    """An SMP request. A named tuple, not a frozen dataclass: the host
    builds one per capture, and a frozen dataclass's three
    object.__setattr__ calls cost more than the tuple."""

    n_blocks: int
    sample_rate_hz: int
    oversampling_ratio: int


@dataclass(frozen=True)
class IdentifyCommand:
    pass


Command = ConfigureCommand | CaptureCommand | IdentifyCommand

_MODE_TOKENS = {
    GpioMode.INPUT: "INPUT",
    GpioMode.OUTPUT: "OUTPUT",
    GpioMode.ALTERNATE_FUNCTION: "AF",
    GpioMode.ANALOG: "ANALOG",
}
_PUPD_TOKENS = {
    GpioPull.NONE: "NONE",
    GpioPull.PULL_UP: "PU",
    GpioPull.PULL_DOWN: "PD",
    GpioPull.RESERVED: "RSV",
}
_VALUE_TOKENS = {OutputValue.HIGH: "HI", OutputValue.LOW: "LO"}
_OTYPE_TOKENS = {OutputType.PUSH_PULL: "PP", OutputType.OPEN_DRAIN: "OD"}

_MODE_FROM_TOKEN = {v: k for k, v in _MODE_TOKENS.items()}
_PUPD_FROM_TOKEN = {v: k for k, v in _PUPD_TOKENS.items()}
_VALUE_FROM_TOKEN = {v: k for k, v in _VALUE_TOKENS.items()}
_OTYPE_FROM_TOKEN = {v: k for k, v in _OTYPE_TOKENS.items()}


def encode_config_tokens(config: PathConfig) -> str:
    return " ".join(
        (
            _MODE_TOKENS[config.mode],
            _PUPD_TOKENS[config.pupd],
            _VALUE_TOKENS[config.output_value],
            _OTYPE_TOKENS[config.output_type],
        )
    )


def encode_command(cmd: Command) -> str:
    """Render a structured command as one protocol line (no newline)."""
    if isinstance(cmd, CaptureCommand):
        return f"SMP {cmd.n_blocks} {cmd.sample_rate_hz} {cmd.oversampling_ratio}"
    if isinstance(cmd, ConfigureCommand):
        return f"CFG {cmd.path} {encode_config_tokens(cmd.config)}"
    if isinstance(cmd, IdentifyCommand):
        return "ID?"
    raise TypeError(f"not a protocol command: {cmd!r}")


def _split_fields(line: str) -> list[str]:
    fields = line.split(" ")
    if "" in fields:
        raise ProtocolError(f"field {fields.index('')}: empty (check spacing)")
    return fields


def _parse_uint(field: str, pos: int, name: str) -> int:
    # str.isdigit also accepts digits that int() refuses, such as "\u00b2".
    if not (field.isascii() and field.isdigit()):
        raise ProtocolError(f"field {pos} ({name}): invalid unsigned integer {field!r}")
    if len(field) > _MAX_INT_DIGITS:
        raise ProtocolError(f"field {pos} ({name}): integer too long")
    return int(field)


def _parse_token(table: dict, field: str, pos: int, name: str):
    try:
        return table[field]
    except KeyError:
        raise ProtocolError(f"field {pos} ({name}): unknown token {field!r}") from None


def _text_line(line: str | bytes) -> str:
    """A line as text without its trailing LF; ProtocolError for bytes that
    are not 7-bit ASCII, a non-text line, or more than MAX_LINE_CHARS."""
    if not isinstance(line, str):
        if not isinstance(line, (bytes, bytearray)):
            raise ProtocolError(f"expected text line, got {type(line).__name__}")
        try:
            line = bytes(line).decode("ascii")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"line is not 7-bit ASCII at byte {exc.start}") from None
    line = line.rstrip("\n")
    if len(line) > MAX_LINE_CHARS:
        raise ProtocolError(f"line too long ({len(line)} > {MAX_LINE_CHARS} chars)")
    return line


def decode_command(line: str | bytes) -> Command:
    """Parse one protocol line into a structured command.

    Rejects anything malformed with a ProtocolError carrying position info;
    never raises anything else, regardless of input bytes.
    """
    return _parse_command(_text_line(line))


def _parse_command(line: str) -> Command:
    """decode_command of a line that _text_line has already checked: the
    verb, then each field in turn, the first bad one named in the error."""
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
            mode=_parse_token(_MODE_FROM_TOKEN, fields[2], 2, "mode"),
            pupd=_parse_token(_PUPD_FROM_TOKEN, fields[3], 3, "pupd"),
            output_value=_parse_token(_VALUE_FROM_TOKEN, fields[4], 4, "value"),
            output_type=_parse_token(_OTYPE_FROM_TOKEN, fields[5], 5, "output type"),
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


def _err_line(message: str) -> str:
    clean = " ".join(str(message).split()) or "error"
    return ("ERR " + clean)[: MAX_LINE_CHARS - _TAG_CHARS]


_TAG = re.compile("[0-9A-F]{4} ")
_NOT_HEX = re.compile("[^0-9A-F]")


def _data_frame(codes: np.ndarray) -> list[str]:
    """The untagged lines of a DATA frame: header, sample lines, END."""
    packed = codes.astype(_WIRE_CODE).tobytes()
    text = packed.hex().upper()
    return [
        f"DATA {len(codes)} {zlib.crc32(packed):08X}",
        *[text[i : i + _LINE_DIGITS] for i in range(0, len(text), _LINE_DIGITS)],
        "END",
    ]


def _data_header(line: str) -> tuple[int, int]:
    """The code count and CRC-32 of a ``DATA <count> <crc32>`` line;
    ProtocolError naming the first field that fails."""
    fields = line.split(" ")
    if len(fields) != 3 or fields[0] != "DATA":
        raise ProtocolError(f"expected DATA header, got {line!r}")
    count = _parse_uint(fields[1], 1, "count")
    crc = fields[2]
    if len(crc) != 8 or _NOT_HEX.search(crc):
        raise ProtocolError(f"field 2 (crc32): expected 8 hex digits, got {crc!r}")
    return count, int(crc, 16)


def _frame_codes(lines: list[str], count: int, crc: int, full_scale: int) -> np.ndarray:
    """The codes of a DATA frame's sample lines as int32.

    The frame must hold ``count`` codes in full sample lines of
    CODES_PER_LINE codes and one shorter last line, as uppercase hex whose
    bytes have the header's CRC-32, and every code must lie in [0,
    full_scale]. The frame is checked as a whole; a failure is a
    ProtocolError naming the first bad sample line, the header's CRC, or
    the first code above full scale.
    """
    full = count // CODES_PER_LINE
    text = "".join(lines)
    try:
        packed = bytes.fromhex(text)
    except ValueError:
        packed = b""
    # With the right line count, full lines and total length, every line
    # has its width. bytes.fromhex skips ASCII whitespace and takes
    # lowercase digits; the lengths and upper() refuse both, so only
    # uppercase hex passes.
    if (
        len(lines) != -(-count // CODES_PER_LINE)
        or len(text) != 4 * count
        or len(packed) != 2 * count
        or not all(len(line) == _LINE_DIGITS for line in lines[:full])
        or text.upper() != text
    ):
        raise _bad_sample_line(lines, count)
    actual = zlib.crc32(packed)
    if actual != crc:
        raise ProtocolError(f"DATA header: CRC-32 {crc:08X}, sample lines have {actual:08X}")
    codes = np.frombuffer(packed, _WIRE_CODE).astype(np.int32)
    if count and np.maximum.reduce(codes) > full_scale:
        i = int(np.argmax(codes > full_scale))
        raise ProtocolError(f"sample {i}: code {codes[i]} above full scale {full_scale}")
    return codes


def _bad_sample_line(lines: list[str], count: int) -> ProtocolError:
    """The error for the first sample line that is not hex or not its width."""
    full, rest = divmod(count, CODES_PER_LINE)
    widths = [_LINE_DIGITS] * full + [4 * rest] * (rest > 0)
    for i, line in enumerate(lines):
        bad = _NOT_HEX.search(line)
        if bad:
            return ProtocolError(
                f"sample line {i}: non-hex character {bad.group()!r} at column {bad.start()}"
            )
        if i < len(widths) and len(line) != widths[i]:
            return ProtocolError(f"sample line {i}: {len(line)} hex digits, expected {widths[i]}")
    return ProtocolError(f"DATA frame: {len(lines)} sample lines, expected {len(widths)}")


class DutProtocolServer:
    """Device-side half of the protocol, wrapping a simulator backend.

    handle_line() consumes one request line and returns the full list of
    response lines, each carrying the request's tag; it reports every
    failure as an ERR line (untagged for an untagged request) and never
    raises. A repeat of the last request line is answered by replaying its
    response; the command does not run again. A request whose untagged text
    equals that of the last request that parsed (a host sends the same SMP
    text under a new tag for each capture) runs the command parsed then.
    """

    def __init__(self, backend: SimulatorBackend):
        self.backend = backend
        self._last_request: str | None = None
        self._last_response: tuple[str, ...] = ()
        self._parsed_text: str | None = None
        self._parsed_command: Command | None = None

    def handle_line(self, line: str | bytes) -> list[str]:
        try:
            line = _text_line(line)
            if not _TAG.match(line):
                raise ProtocolError("untagged request: expected 4 uppercase hex digits and a space")
        except ProtocolError as exc:
            return [_err_line(str(exc))]
        if line == self._last_request:
            return list(self._last_response)
        text = line[_TAG_CHARS:]
        try:
            if text != self._parsed_text:
                self._parsed_command = _parse_command(text)
                self._parsed_text = text
            lines = self._dispatch(self._parsed_command)
        except (BackendError, ValueError, RuntimeError, MemoryError) as exc:
            lines = [_err_line(str(exc))]
        tag = line[:_TAG_CHARS]
        response = [tag + payload for payload in lines]
        self._last_request, self._last_response = line, tuple(response)
        return response

    def _dispatch(self, cmd: Command) -> list[str]:
        if isinstance(cmd, CaptureCommand):  # first: nearly every request is one
            n_codes = cmd.n_blocks * self.backend.adc.samples_per_block
            if n_codes > MAX_CAPTURE_CODES:
                raise ProtocolError(
                    f"SMP: {n_codes} codes exceed the capture limit of {MAX_CAPTURE_CODES}"
                )
            self.backend.set_adc_rate(cmd.sample_rate_hz, cmd.oversampling_ratio)
            return _data_frame(self.backend.capture_codes(cmd.n_blocks))
        if isinstance(cmd, ConfigureCommand):
            self.backend.configure(ReceptionPathId(index=cmd.path), cmd.config, self.backend.adc)
            return ["OK"]
        if isinstance(cmd, IdentifyCommand):
            d = self.backend.describe()
            return [
                f"ID {d.n_paths} {d.resolution_bits} "
                f"{int(d.max_sample_rate_hz)} {PROTOCOL_VERSION}"
            ]
        raise ProtocolError(f"unhandled command {cmd!r}")


class LoopbackTransport:
    """Zero-copy in-process link between a protocol client and a server."""

    def __init__(self, server: DutProtocolServer):
        self.server = server
        self._pending: deque[str] = deque()

    def send_line(self, line: str) -> None:
        self._pending.extend(self.server.handle_line(line))

    def recv_line(self, timeout_s: float) -> str | None:
        if not self._pending:
            return None
        return self._pending.popleft()


class SerialBackend:
    """Host-side backend that drives a DUT through the line protocol.

    Each request goes out under the next tag. Response lines are awaited
    with a per-line timeout; a request whose response has not started is
    resent under the same tag, ``retries`` sends in all, before a hard
    ProtocolTimeoutError. Lines of another tag or none, and lines of the
    awaited tag that cannot start a response, are dropped. The counters
    ``retries``, ``timeouts`` and ``stale_lines_dropped`` say how often.
    ``retries`` must be an integer >= 1.
    """

    def __init__(self, transport, timeout_s: float = 2.0, retries: int = 3):
        if not isinstance(retries, numbers.Integral) or retries < 1:
            raise ValueError(f"retries must be an integer >= 1, got {retries!r}")
        self.transport = transport
        self.timeout_s = timeout_s
        self.max_sends = int(retries)
        self.retries = 0
        self.timeouts = 0
        self.stale_lines_dropped = 0
        self._tag = 0
        self._prefix = ""
        self._adc: AdcConfig | None = None
        self._path: ReceptionPathId | None = None
        self._config: PathConfig | None = None

    # -- protocol plumbing ---------------------------------------------------

    def _read(self) -> str:
        """The next line carrying the awaited tag, without the tag; lines of
        another tag or none are dropped. Raises ProtocolTimeoutError when no
        line comes within the timeout."""
        recv_line, prefix = self.transport.recv_line, self._prefix
        while True:
            line = recv_line(self.timeout_s)
            if line is None:
                self.timeouts += 1
                raise ProtocolTimeoutError(f"timed out waiting for response {prefix[:4]}")
            if line.startswith(prefix):
                return line[_TAG_CHARS:]
            self.stale_lines_dropped += 1

    def _transact(self, command: str) -> str:
        """Send a command under a new tag. Returns the first line of its
        response; _read returns the response's further lines."""
        self._tag = (self._tag + 1) & 0xFFFF
        self._prefix = f"{self._tag:04X} "
        request = self._prefix + command
        for attempt in range(self.max_sends):
            if attempt:
                self.retries += 1
            self.transport.send_line(request)
            try:
                while True:
                    line = self._read()
                    if line == "OK" or line.startswith(("ERR ", "ID ", "DATA ")):
                        return line
                    self.stale_lines_dropped += 1
            except ProtocolTimeoutError as exc:
                last = exc
        raise last

    @staticmethod
    def _check_ok(line: str) -> None:
        if line == "OK":
            return
        if line.startswith("ERR "):
            raise BackendError(line[4:])
        raise ProtocolError(f"expected OK, got {line!r}")

    # -- backend interface ----------------------------------------------------

    def describe(self):
        line = self._transact(encode_command(IdentifyCommand()))
        fields = line.split(" ")
        if len(fields) != 5 or fields[0] != "ID":
            raise ProtocolError(f"bad ID? response {line!r}")
        n_paths, bits, max_rate, version = (
            _parse_uint(fields[i], i, "ID field") for i in range(1, 5)
        )
        if version != PROTOCOL_VERSION:
            raise ProtocolError(f"protocol version mismatch: {version} != {PROTOCOL_VERSION}")
        return DutDescriptor(
            n_paths=n_paths, resolution_bits=bits, max_sample_rate_hz=float(max_rate)
        )

    def configure(self, path: ReceptionPathId, config: PathConfig, adc: AdcConfig) -> None:
        rate = adc.sample_rate_hz
        if rate != int(rate):
            raise UnsupportedSettingError(
                f"wire protocol carries integer sample rates, got {rate}"
            )
        line = self._transact(encode_command(ConfigureCommand(path.index, config)))
        self._check_ok(line)
        self._adc = adc
        self._path = path
        self._config = config

    def capture(self, n_blocks: int) -> AdcTrace:
        codes = self.capture_codes(n_blocks)
        meta = {
            "path": self._path.index if self._path else None,
            "config": self._config,
            "transport": "serial",
        }
        return AdcTrace(codes, self._adc, meta)

    def capture_codes(self, n_blocks: int) -> np.ndarray:
        """The int32 codes of one SMP request for n_blocks blocks at the
        configured rate and oversampling ratio."""
        adc = self._adc
        if adc is None:
            raise NotConfiguredError("capture before configure")
        n_blocks = int(n_blocks)
        cmd = CaptureCommand(n_blocks, int(adc.sample_rate_hz), adc.oversampling_ratio)
        first = self._transact(encode_command(cmd))
        if first.startswith("ERR "):
            raise BackendError(first[4:])
        count, crc = _data_header(first)
        # Consume the complete frame before validating anything: the sample
        # lines up to END, at most one line more than the count needs.
        n_lines = -(-count // CODES_PER_LINE)
        lines = []
        while (line := self._read()) != "END":
            if len(lines) == n_lines:
                raise ProtocolError(
                    f"DATA frame: expected END after {n_lines} sample lines, got {line!r}"
                )
            lines.append(line)
        expected = n_blocks * adc.samples_per_block
        if count != expected:
            raise ProtocolError(
                f"device sent {count} samples, expected {expected}; "
                "samples_per_block mismatch between host and device"
            )
        return _frame_codes(lines, count, crc, adc.full_scale)
