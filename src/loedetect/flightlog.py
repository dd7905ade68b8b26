"""Flight log container and its CSV schema.

A log file is a sequence of ``# key=value`` header lines, one column header
row, then one data row per sample:

    # sample_rate_hz=500.0
    # rpm_units=rad_s
    # vehicle=default
    # fault_actuator=3
    # fault_time_s=1.56
    t,p,q,r,az,w1,w2,w3,w4
    0.002,-0.0003,...

The header gives only these five keys, each at most once; any other key
is an error, so a misspelled annotation cannot read as a no-fault log.
``fault_actuator``/``fault_time_s`` are present only for annotated failure
logs, and always together: ``fault_actuator`` is 1..4 and ``fault_time_s``
lies within the log's time span.
``rpm_units`` is ``rad_s`` or ``rpm``; rotor speed columns written in RPM
are converted to rad/s on load. Rotor speeds above
``MAX_ROTOR_SPEED_RAD_S`` are rejected as data errors, and so is any
timestamp step outside (1 -/+ ``STEP_TOLERANCE``) x ``1 / sample_rate_hz``: a
dropped or inserted sample. Floats are written with ``repr`` and ``vehicle``
holds no line break or surrounding whitespace, so a write/read cycle is
lossless.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from numbers import Integral
from typing import Iterator

import numpy as np

from .filters import MAX_ROTOR_SPEED_RAD_S, STEP_TOLERANCE, RawSample

COLUMNS = ("t", "p", "q", "r", "az", "w1", "w2", "w3", "w4")
# The header keys a log may give, each at most once.
HEADER_KEYS = ("sample_rate_hz", "rpm_units", "vehicle", "fault_actuator", "fault_time_s")

RPM_TO_RAD_S = 2.0 * math.pi / 60.0

# Largest relative mismatch between ``1 / sample_rate_hz`` and the log's
# median timestamp step, or a detector's ``sensor_interval``.
RATE_TOLERANCE = 0.01

# Rows ``FlightLog.rows`` and ``FlightLog.samples`` convert to Python floats
# at a time, so the lists they hold stay the same size however long the log
# is: about 0.35 MB of row lists. A sweep's conditioning lanes filter this
# many rows of every log at a time, for the same reason.
SAMPLE_BLOCK_ROWS = 1024


class LogFormatError(ValueError):
    """Raised when a log violates the schema; ``sample`` is the bad sample's index, else ``None``."""

    def __init__(self, message: str, sample: int | None = None):
        super().__init__(message)
        self.sample = sample


@dataclass(frozen=True)
class FlightLog:
    """Time series of raw samples plus the optional ground-truth annotation: a read-only value.

    A log is validated when it is built, and its fields and four arrays are
    read-only from then on; ``dataclasses.replace`` builds, so validates, a
    new log. An array that owns its memory is made read-only in place, so
    the caller's handle to it is read-only too (a view of it taken before
    still writes); a view, or any other array-like, is copied first, since
    whatever holds its base could still write to it. A refused log freezes
    nothing.
    """

    sample_rate_hz: float
    t: np.ndarray  # (n,)
    gyro: np.ndarray  # (n, 3) p, q, r
    accel_z: np.ndarray  # (n,)
    rotor_speeds: np.ndarray  # (n, 4) rad/s
    fault_actuator: int | None = None
    fault_time_s: float | None = None
    vehicle: str = "default"

    def __post_init__(self) -> None:
        names = ("t", "gyro", "accel_z", "rotor_speeds")
        for name in names:
            values = getattr(self, name)
            if not isinstance(values, np.ndarray) or values.base is not None:
                object.__setattr__(self, name, np.array(values))
        self.validate()  # before the freeze, so a refused log leaves the caller's arrays writable
        for name in names:
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.t)

    def rows(self) -> Iterator[list[float]]:
        """One ``[t, p, q, r, az, w1, w2, w3, w4]`` list of Python floats per row, in ``COLUMNS`` order.

        ``save_log`` writes them; each block of ``SAMPLE_BLOCK_ROWS`` rows
        is converted by one ``tolist()``, and ``chain`` walks the blocks
        with no Python frame per row.
        """
        columns = (self.t, self.gyro, self.accel_z, self.rotor_speeds)
        return chain.from_iterable(
            np.column_stack([column[start : start + SAMPLE_BLOCK_ROWS] for column in columns]).tolist()
            for start in range(0, len(self.t), SAMPLE_BLOCK_ROWS)
        )

    def samples(self) -> Iterator[RawSample]:
        """One ``RawSample`` per row, for ``Detector.process_sample``; the rate and speed fields are row views."""
        rates, speeds = iter(self.gyro), iter(self.rotor_speeds)
        for start in range(0, len(self.t), SAMPLE_BLOCK_ROWS):
            block = slice(start, start + SAMPLE_BLOCK_ROWS)
            # The block's list comes first, so zip stops without taking a row past it.
            for t, rate, accel_z, speed in zip(
                self.t[block].tolist(), rates, self.accel_z[block].tolist(), speeds
            ):
                yield RawSample(t, rate, accel_z, speed)

    def ground_truth(self) -> tuple[int, float] | None:
        if self.fault_actuator is None or self.fault_time_s is None:
            return None
        return self.fault_actuator, self.fault_time_s

    def validate(self) -> None:
        # Every rate comparison below is false on NaN, so the header is checked first.
        if not 0.0 < self.sample_rate_hz < math.inf:
            raise LogFormatError(f"header sample_rate_hz={self.sample_rate_hz} is not finite and positive")
        vehicle = self.vehicle
        # The header line must read back as the same string.
        if not isinstance(vehicle, str) or vehicle != vehicle.strip() or "\n" in vehicle or "\r" in vehicle:
            raise LogFormatError(
                f"vehicle must be a string with no line break or surrounding whitespace, got {vehicle!r}"
            )
        actuator, fault_time = self.fault_actuator, self.fault_time_s
        if actuator is not None and (not isinstance(actuator, Integral) or isinstance(actuator, bool)):
            raise LogFormatError(f"fault_actuator must be an integer, got {actuator!r}")
        if actuator is not None and not 1 <= actuator <= 4:
            raise LogFormatError(f"fault_actuator out of range: {actuator}")
        if actuator is not None and fault_time is None:
            raise LogFormatError("fault_actuator given without fault_time_s")
        if fault_time is not None and actuator is None:
            raise LogFormatError("fault_time_s given without fault_actuator")
        if fault_time is not None and not math.isfinite(fault_time):
            raise LogFormatError(f"header fault_time_s={fault_time} is not finite")
        n = len(self.t)
        if n == 0:
            raise LogFormatError("log contains no samples")
        if self.gyro.shape != (n, 3) or self.rotor_speeds.shape != (n, 4) or self.accel_z.shape != (n,):
            raise LogFormatError("log arrays have inconsistent shapes")
        for name, arr in (
            ("t", self.t),
            ("gyro", self.gyro),
            ("az", self.accel_z),
            ("rotor speeds", self.rotor_speeds),
        ):
            finite = np.isfinite(arr)
            if not finite.all():
                bad = int(np.argmin(finite.reshape(n, -1).all(axis=1)))
                raise LogFormatError(f"NaN or Inf in {name} at sample {bad} (t={self.t[bad]})", bad)
        too_fast = (self.rotor_speeds > MAX_ROTOR_SPEED_RAD_S).any(axis=1)
        if too_fast.any():
            bad = int(np.argmax(too_fast))
            raise LogFormatError(
                f"rotor speed above {MAX_ROTOR_SPEED_RAD_S:g} rad/s at sample {bad} (t={self.t[bad]})", bad
            )
        negative = (self.rotor_speeds < 0.0).any(axis=1)
        if negative.any():
            bad = int(np.argmax(negative))
            raise LogFormatError(f"negative rotor speed at sample {bad} (t={self.t[bad]})", bad)
        dt = np.diff(self.t)
        if n > 1 and not np.all(dt > 0):
            bad = int(np.argmax(dt <= 0)) + 1
            raise LogFormatError(
                f"non-monotone timestamps at sample {bad} (t={self.t[bad - 1]} -> {self.t[bad]})", bad
            )
        if n > 1:
            median_dt = float(np.median(dt))
            if abs(median_dt * self.sample_rate_hz - 1.0) > RATE_TOLERANCE:
                raise LogFormatError(
                    f"header sample_rate_hz={self.sample_rate_hz} does not match the "
                    f"median timestamp delta {median_dt:.6g} s within {RATE_TOLERANCE:.0%}"
                )
            off = np.abs(dt * self.sample_rate_hz - 1.0) >= STEP_TOLERANCE
            if off.any():
                bad = int(np.argmax(off)) + 1
                raise LogFormatError(
                    f"timestamp step {dt[bad - 1]:.6g} s at sample {bad} (t={self.t[bad]}) is outside "
                    f"({1.0 - STEP_TOLERANCE:g}, {1.0 + STEP_TOLERANCE:g}) x the sample period "
                    f"{1.0 / self.sample_rate_hz:.6g} s",
                    bad,
                )
        t0, t_end = float(self.t[0]), float(self.t[-1])
        if self.fault_time_s is not None and not t0 <= self.fault_time_s <= t_end:
            raise LogFormatError(
                f"header fault_time_s={self.fault_time_s} is outside the log span [{t0}, {t_end}]"
            )


def save_log(log: FlightLog, path) -> None:
    """Write ``log`` as CSV: the header, then one write per block of ``SAMPLE_BLOCK_ROWS`` rows."""
    lines = [
        f"# sample_rate_hz={float(log.sample_rate_hz)!r}",
        "# rpm_units=rad_s",
        f"# vehicle={log.vehicle}",
    ]
    if log.ground_truth() is not None:
        lines.append(f"# fault_actuator={log.fault_actuator}")
        lines.append(f"# fault_time_s={float(log.fault_time_s)!r}")
    lines.append(",".join(COLUMNS))
    rows = log.rows()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        for _ in range(0, len(log), SAMPLE_BLOCK_ROWS):
            fh.write("\n".join([",".join(map(repr, row)) for row in islice(rows, SAMPLE_BLOCK_ROWS)]) + "\n")


def _read_head(fh) -> tuple[list[tuple[int, str]], tuple[int, str] | None]:
    """Read the ``#`` header lines and the column line, skipping blank lines.

    Returns them with their line numbers; the column line is ``None`` when
    the file ends first. ``fh`` is left at the first line after it.
    """
    header_lines: list[tuple[int, str]] = []
    for lineno, line in enumerate(iter(fh.readline, ""), start=1):
        if not line.strip():
            continue
        line = line.rstrip("\n")
        if not line.startswith("#"):
            return header_lines, (lineno, line)
        header_lines.append((lineno, line))
    return header_lines, None


def _log_fields(
    path, header_lines: list[tuple[int, str]], column_line: tuple[int, str] | None, has_rows: bool
) -> tuple[dict, bool]:
    """Check everything but the data rows, in the order the errors are reported.

    Returns the ``FlightLog`` keyword arguments the header gives, and
    whether the rotor speed columns are in RPM.
    """
    if column_line is None:
        raise LogFormatError(f"{path}: empty log file (no column header)")
    if tuple(c.strip() for c in column_line[1].split(",")) != COLUMNS:
        raise LogFormatError(
            f"line {column_line[0]}: expected columns {','.join(COLUMNS)}, got {column_line[1]!r}"
        )
    if not has_rows:
        raise LogFormatError(f"{path}: log contains no data rows")

    header: dict[str, str] = {}
    for lineno, line in header_lines:
        body = line[1:].strip()
        if "=" not in body:
            raise LogFormatError(f"line {lineno}: malformed header line {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        if key not in HEADER_KEYS:
            expected = ", ".join(HEADER_KEYS)
            raise LogFormatError(f"line {lineno}: unknown header key {key!r} (expected one of {expected})")
        if key in header:
            raise LogFormatError(f"line {lineno}: duplicate header key {key!r}")
        header[key] = value.strip()
    if "sample_rate_hz" not in header:
        raise LogFormatError("missing required header sample_rate_hz")
    try:
        sample_rate = float(header["sample_rate_hz"])
    except ValueError as exc:
        raise LogFormatError(f"bad sample_rate_hz: {header['sample_rate_hz']!r}") from exc
    rpm_units = header.get("rpm_units", "rad_s")
    if rpm_units not in ("rad_s", "rpm"):
        raise LogFormatError(f"unknown rpm_units {rpm_units!r} (expected rad_s or rpm)")

    # ``FlightLog.validate`` checks the annotation's range and that it comes in pairs.
    fault_actuator = None
    fault_time = None
    if "fault_actuator" in header:
        try:
            fault_actuator = int(header["fault_actuator"])
        except ValueError as exc:
            raise LogFormatError(f"bad fault_actuator: {header['fault_actuator']!r}") from exc
    if "fault_time_s" in header:
        try:
            fault_time = float(header["fault_time_s"])
        except ValueError as exc:
            raise LogFormatError(f"bad fault_time_s: {header['fault_time_s']!r}") from exc
    fields = {
        "sample_rate_hz": sample_rate,
        "fault_actuator": fault_actuator,
        "fault_time_s": fault_time,
        "vehicle": header.get("vehicle", "default"),
    }
    return fields, rpm_units == "rpm"


def _build_log(values: np.ndarray, fields: dict, rpm: bool) -> FlightLog:
    """The ``FlightLog`` of parsed ``(n, 9)`` rows in ``COLUMNS`` order."""
    speeds = values[:, 5:9]
    if rpm:
        speeds = speeds * RPM_TO_RAD_S
    return FlightLog(
        t=values[:, 0].copy(),
        gyro=values[:, 1:4].copy(),
        accel_z=values[:, 4].copy(),
        rotor_speeds=np.ascontiguousarray(speeds),
        **fields,
    )


def _reject_non_finite(flat: array, n_rows: int, linenos: array) -> None:
    """Raise naming the first of the ``n_rows`` parsed rows in ``flat`` with a NaN or Inf field."""
    rows = np.frombuffer(flat, count=n_rows * len(COLUMNS)).reshape(n_rows, len(COLUMNS))
    if not np.isfinite(rows).all():  # the per-row pass only runs to name the line
        finite = np.isfinite(rows).all(axis=1)
        raise LogFormatError(f"line {linenos[int(np.argmin(finite))]}: NaN or Inf field")


def load_log(path) -> FlightLog:
    """Parse a log file into a ``FlightLog``; schema violations name the first bad line.

    The data block is parsed in bulk. A file the bulk parse cannot turn into
    a valid log is read again line by line, and that parse decides: it
    accepts what ``float`` accepts and names the first bad line. So errors,
    and fields only ``float`` reads (``1_0``, full-width digits), cost a
    second read; which parse runs depends on the input alone, and both give
    the same log.
    """
    try:
        return _load_bulk(path)
    except ValueError:
        return _load_by_line(path)


# ``np.loadtxt`` strips these from a field as white space; ``float`` does not.
_LOADTXT_ONLY_SPACE = ("\x1c", "\x1d", "\x1e", "\x1f")

# Characters ``_data_lines`` reads at a time.
_READ_CHARS = 1 << 16


def _data_lines(fh) -> Iterator[str]:
    """The rest of ``fh`` as lines for ``np.loadtxt``, read in blocks.

    Raises ``ValueError`` where ``np.loadtxt`` would accept what ``float``
    rejects (see ``_LOADTXT_ONLY_SPACE``), and on a data block with nothing
    but white space, which ``np.loadtxt`` only warns about.
    """
    rest = ""
    blank = True
    for block in iter(partial(fh.read, _READ_CHARS), ""):
        if any(c in block for c in _LOADTXT_ONLY_SPACE):
            raise ValueError("a separator character in the data block")
        blank = blank and block.isspace()
        lines = (rest + block).split("\n")
        rest = lines.pop()
        yield from lines
    if blank:
        raise ValueError("no data rows")
    yield rest


def _load_bulk(path) -> FlightLog:
    """``load_log`` with one ``np.loadtxt`` over the data block; ``ValueError`` on any fault."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        header_lines, column_line = _read_head(fh)
        # ``comments=None``: a ``#`` in the data block is an error, not a truncated row.
        values = np.loadtxt(_data_lines(fh), delimiter=",", comments=None, ndmin=2)
    if values.shape[1] != len(COLUMNS) or not np.isfinite(values).all():
        raise ValueError("malformed data block")
    return _build_log(values, *_log_fields(path, header_lines, column_line, has_rows=True))


def _load_by_line(path) -> FlightLog:
    """``load_log`` one line at a time, naming the first bad line.

    One pass over the file: data rows are parsed as they are read, so only
    the parsed values and each row's line number are kept. The first bad
    data row is held back and reported after the column and header checks,
    which take precedence over it. The rules on the parsed values are
    ``FlightLog.validate``'s; an error it raises about one sample is
    re-raised naming that sample's line.
    """
    n_columns = len(COLUMNS)
    flat = array("d")  # row-major, 8 bytes a field, no float objects kept
    linenos = array("l")  # file line number of each parsed data row
    bad_row: str | None = None  # message for the first data row that does not parse
    with open(path, "r", encoding="utf-8-sig") as fh:
        header_lines, column_line = _read_head(fh)
        first = column_line[0] + 1 if column_line is not None else 1
        for lineno, line in enumerate(fh, start=first):
            if not line.strip():
                continue
            if line.startswith("#"):
                raise LogFormatError(f"line {lineno}: header line after data began")
            if bad_row is None:
                # Rows after a bad one are not parsed, so ``flat`` and
                # ``linenos`` end at the last good row before it.
                parts = line.split(",")
                if len(parts) != n_columns:
                    bad_row = f"line {lineno}: expected {n_columns} columns, got {len(parts)}"
                    continue
                try:
                    flat.extend(map(float, parts))
                except ValueError:
                    text = line.rstrip("\n")
                    bad_row = f"line {lineno}: unparseable number in {text!r}"
                    continue
                linenos.append(lineno)

    has_rows = bad_row is not None or len(linenos) > 0
    fields, rpm = _log_fields(path, header_lines, column_line, has_rows)
    n = len(linenos)
    _reject_non_finite(flat, n, linenos)  # before a bad row: an earlier bad line is named first
    if bad_row is not None:
        raise LogFormatError(bad_row)
    try:
        return _build_log(np.frombuffer(flat).reshape(n, n_columns), fields, rpm)
    except LogFormatError as exc:
        if exc.sample is None:
            raise
        raise LogFormatError(f"line {linenos[exc.sample]}: {exc}", exc.sample) from None
