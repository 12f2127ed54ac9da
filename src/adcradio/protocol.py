"""Line-oriented wire protocol between a host and a DUT.

The protocol is 7-bit-safe text, one LF-terminated line per message, chosen
for debuggability over UART-class links:

    CFG <path> <mode> <pupd> <val> <otype>   ->  OK | ERR <msg>
    SMP <n_blocks> <rate_hz> <ovs>           ->  DATA <count>, <count> sample
                                                 lines (one decimal code each),
                                                 END        | ERR <msg>
    ID?                                      ->  ID <n_paths> <bits> <max_rate> <version>
    RST                                      ->  OK

Enumerations use fixed uppercase tokens: INPUT, OUTPUT, AF, ANALOG; NONE,
PU, PD, RSV; HI, LO; PP, OD. Fields are single-space separated.

CFG selects and resets a reception path; SMP applies the acquisition rate
and oversampling ratio (without resetting the path) and runs one capture.
The block length (samples per block) and ADC resolution are device-side
settings reported via ID?-level capabilities and the scenario, not carried
per command. The trailing ID? field is the protocol version.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

import numpy as np

from .backend import (
    BackendError,
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

PROTOCOL_VERSION = 1
MAX_LINE_CHARS = 256
_MAX_INT_DIGITS = 12


class ProtocolError(Exception):
    """Malformed line, framing problem, or protocol-level failure."""


class ProtocolTimeoutError(ProtocolError):
    pass


@dataclass(frozen=True)
class ConfigureCommand:
    path: int
    config: PathConfig


@dataclass(frozen=True)
class CaptureCommand:
    n_blocks: int
    sample_rate_hz: int
    oversampling_ratio: int


@dataclass(frozen=True)
class IdentifyCommand:
    pass


@dataclass(frozen=True)
class ResetCommand:
    pass


Command = ConfigureCommand | CaptureCommand | IdentifyCommand | ResetCommand

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
    if isinstance(cmd, ConfigureCommand):
        return f"CFG {cmd.path} {encode_config_tokens(cmd.config)}"
    if isinstance(cmd, CaptureCommand):
        return f"SMP {cmd.n_blocks} {cmd.sample_rate_hz} {cmd.oversampling_ratio}"
    if isinstance(cmd, IdentifyCommand):
        return "ID?"
    if isinstance(cmd, ResetCommand):
        return "RST"
    raise TypeError(f"not a protocol command: {cmd!r}")


def _split_fields(line: str) -> list[str]:
    fields = line.split(" ")
    for pos, f in enumerate(fields):
        if f == "":
            raise ProtocolError(f"field {pos}: empty (check spacing)")
    return fields


def _parse_uint(field: str, pos: int, name: str) -> int:
    if not field.isdigit():
        raise ProtocolError(f"field {pos} ({name}): invalid unsigned integer {field!r}")
    if len(field) > _MAX_INT_DIGITS:
        raise ProtocolError(f"field {pos} ({name}): integer too long")
    return int(field)


def _parse_token(table: dict, field: str, pos: int, name: str):
    try:
        return table[field]
    except KeyError:
        raise ProtocolError(f"field {pos} ({name}): unknown token {field!r}") from None


def decode_command(line: str | bytes) -> Command:
    """Parse one protocol line into a structured command.

    Rejects anything malformed with a ProtocolError carrying position info;
    never raises anything else, regardless of input bytes.
    """
    if isinstance(line, (bytes, bytearray)):
        try:
            line = bytes(line).decode("ascii")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"line is not 7-bit ASCII at byte {exc.start}") from None
    if not isinstance(line, str):
        raise ProtocolError(f"expected text line, got {type(line).__name__}")
    line = line.rstrip("\n")
    if len(line) > MAX_LINE_CHARS:
        raise ProtocolError(f"line too long ({len(line)} > {MAX_LINE_CHARS} chars)")
    if any(c in line for c in "\r\n\x00"):
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
    if verb == "RST":
        if len(fields) != 1:
            raise ProtocolError(f"RST: expected no arguments, got {len(fields) - 1}")
        return ResetCommand()
    raise ProtocolError(f"field 0: unknown verb {verb!r}")


def _err_line(message: str) -> str:
    clean = " ".join(str(message).split()) or "error"
    return ("ERR " + clean)[:MAX_LINE_CHARS]


# A DATA frame's sample lines joined by LF: codes of 1 to _MAX_INT_DIGITS
# ASCII digits.
_SAMPLE_FRAME = re.compile(rf"[0-9]{{1,{_MAX_INT_DIGITS}}}(?:\n[0-9]{{1,{_MAX_INT_DIGITS}}})*")


def _sample_codes(lines: list[str], full_scale: int) -> np.ndarray:
    """The codes of a DATA frame's sample lines as int32.

    Every line must be 1 to _MAX_INT_DIGITS ASCII digits and its code lie in
    [0, full_scale]. The frame is checked and parsed as a whole; only a frame
    that fails is searched line by line, and its first bad line is a
    ProtocolError naming the sample index.
    """
    if not lines:
        return np.empty(0, dtype=np.int32)
    frame = "\n".join(lines)
    if _SAMPLE_FRAME.fullmatch(frame):
        codes = np.fromstring(frame, dtype=np.int64, sep="\n")
        if codes.size == len(lines) and codes.max() <= full_scale:
            return codes.astype(np.int32)
    for i, line in enumerate(lines):
        if not (line.isascii() and line.isdigit()):
            raise ProtocolError(f"sample line {i}: invalid code {line!r}")
        if len(line) > _MAX_INT_DIGITS:
            raise ProtocolError(f"sample line {i}: code longer than {_MAX_INT_DIGITS} digits")
        if int(line) > full_scale:
            raise ProtocolError(f"sample line {i}: code {line} outside [0, {full_scale}]")
    raise AssertionError("a rejected frame has a bad sample line")


class DutProtocolServer:
    """Device-side half of the protocol, wrapping a simulator backend.

    handle_line() consumes one command line and returns the full list of
    response lines; it reports every failure as an ERR line and never raises.
    """

    def __init__(self, backend: SimulatorBackend):
        self.backend = backend

    def handle_line(self, line: str | bytes) -> list[str]:
        try:
            cmd = decode_command(line)
        except ProtocolError as exc:
            return [_err_line(str(exc))]
        try:
            return self._dispatch(cmd)
        except (BackendError, ValueError, RuntimeError) as exc:
            return [_err_line(str(exc))]

    def _dispatch(self, cmd: Command) -> list[str]:
        if isinstance(cmd, ConfigureCommand):
            self.backend.configure(ReceptionPathId(index=cmd.path), cmd.config, self.backend.adc)
            return ["OK"]
        if isinstance(cmd, CaptureCommand):
            self.backend.set_adc_rate(cmd.sample_rate_hz, cmd.oversampling_ratio)
            trace = self.backend.capture(cmd.n_blocks)
            lines = [f"DATA {len(trace)}"]
            lines.extend(str(int(c)) for c in trace.samples)
            lines.append("END")
            return lines
        if isinstance(cmd, IdentifyCommand):
            d = self.backend.describe()
            return [
                f"ID {d.n_paths} {d.resolution_bits} "
                f"{int(d.max_sample_rate_hz)} {PROTOCOL_VERSION}"
            ]
        if isinstance(cmd, ResetCommand):
            self.backend.reset()
            return ["OK"]
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

    Response lines are awaited with a per-line timeout; a timed-out command
    is resent up to the retry limit before a hard ProtocolTimeoutError.
    """

    def __init__(self, transport, timeout_s: float = 2.0, retries: int = 3):
        self.transport = transport
        self.timeout_s = timeout_s
        self.retries = retries
        self._adc: AdcConfig | None = None
        self._path: ReceptionPathId | None = None
        self._config: PathConfig | None = None

    # -- protocol plumbing ---------------------------------------------------

    def _recv(self) -> str:
        line = self.transport.recv_line(self.timeout_s)
        if line is None:
            raise ProtocolTimeoutError("timed out waiting for response line")
        return line

    def _transact(self, request: str) -> str:
        last: ProtocolTimeoutError | None = None
        for _ in range(self.retries):
            self.transport.send_line(request)
            try:
                return self._recv()
            except ProtocolTimeoutError as exc:
                last = exc
        raise last or ProtocolTimeoutError("no response")

    @staticmethod
    def _check_ok(line: str) -> None:
        if line == "OK":
            return
        if line.startswith("ERR "):
            raise BackendError(line[4:])
        raise ProtocolError(f"expected OK, got {line!r}")

    # -- backend interface ----------------------------------------------------

    def describe(self):
        from .backend import DutDescriptor

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
        if self._adc is None:
            raise NotConfiguredError("capture before configure")
        cmd = CaptureCommand(
            n_blocks=int(n_blocks),
            sample_rate_hz=int(self._adc.sample_rate_hz),
            oversampling_ratio=self._adc.oversampling_ratio,
        )
        first = self._transact(encode_command(cmd))
        if first.startswith("ERR "):
            raise BackendError(first[4:])
        fields = first.split(" ")
        if len(fields) != 2 or fields[0] != "DATA":
            raise ProtocolError(f"expected DATA header, got {first!r}")
        count = _parse_uint(fields[1], 1, "count")
        # Consume the complete frame before validating anything, so a bad
        # frame never leaves stale sample lines in the transport.
        lines = [self._recv() for _ in range(count)]
        end = self._recv()
        if end != "END":
            raise ProtocolError(f"expected END, got {end!r}")
        expected = int(n_blocks) * self._adc.samples_per_block
        if count != expected:
            raise ProtocolError(
                f"device sent {count} samples, expected {expected}; "
                "samples_per_block mismatch between host and device"
            )
        samples = _sample_codes(lines, self._adc.full_scale)
        meta = {
            "path": self._path.index if self._path else None,
            "config": self._config,
            "transport": "serial",
        }
        return AdcTrace(samples=samples, config=self._adc, meta=meta)

    def reset(self) -> None:
        self._check_ok(self._transact(encode_command(ResetCommand())))
        self._adc = None
        self._path = None
        self._config = None
