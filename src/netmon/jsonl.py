"""Line-delimited JSON shared by the pipeline and simulation outputs.

Writers fill fixed line templates that keep ``json.dumps``'s key order
and ``", "``/``": "`` separators: integers print as ``json.dumps`` prints
them, strings go through :func:`quote`, json's ASCII-escaping encoder
(quotes included), ``None`` is ``null``.  Rows held as Python objects
fill the template with an f-string per line, which costs about half what
``str.format`` does.  Rows held as numpy columns go through
:func:`render_lines`: a line is the concatenation of one text per field,
each picked from that field's table by an index column, so the per-line
work is numpy gathers and copies, and one boolean compress drops the
NUL pads.  Readers decode each line with :func:`decode_line`, unless,
as ``simulator.life_stats_from_jsonl`` does, they parse their writer's
template in blocks first; a reader that builds many rows does so under
:func:`collector_paused`.
"""

from __future__ import annotations

import gc
import json
from json.encoder import encode_basestring_ascii as quote
from json.scanner import make_scanner
from typing import Iterator, Sequence

import numpy as np

__all__ = ["quote", "decode_line", "BLOCK_LINES", "int_texts", "render_lines",
           "collector_paused"]

# Decodes one JSON value at a given index of a string, in C.
_scan_once = make_scanner(json.JSONDecoder())

# Lines rendered at once by render_lines: bounds the memory a render holds,
# whatever the number of lines.
BLOCK_LINES = 4096


class collector_paused:
    """Pauses the cyclic garbage collector for the body of a ``with``.

    On exit, however the body ends, the collector is turned back on only
    if it was on when the body began, so it ends as it was found, even
    when several threads pause it at once.  For bodies whose objects are
    acyclic: a pass would walk them all and free nothing.  A class rather
    than a generator, so leaving the body allocates nothing once the
    collector is back on, and sets off no pass of its own.
    """

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self.enabled:
            gc.enable()


def decode_line(s: str):
    """The JSON value of ``s``, exactly as ``json.loads(s)`` has it.

    One call of json's C scanner decodes a well-formed line.  A line the
    scan does not consume whole (surrounding whitespace, trailing data, a
    syntax error) goes to ``json.loads``, so it decodes, or raises, as
    ``json.loads`` does.
    """
    try:
        obj, end = _scan_once(s, 0)
    except (StopIteration, ValueError, RecursionError):
        return json.loads(s)
    if end != len(s):
        return json.loads(s)
    return obj


def int_texts(values: np.ndarray, suffix: bytes, extra: Sequence[bytes] = (),
              prefix: bytes = b"") -> tuple[np.ndarray, np.ndarray]:
    """The ``render_lines`` field ``(table, index)`` of ``values``, integers of -1 or more.

    ``table[index[k]]`` is ``prefix + b"%d" % values[k] + suffix``, or for
    -1 the last of the texts ``extra``, which end the table.  The table
    holds every integer up to max(values), and the index is ``values``,
    unless that is over twice their count: then only the distinct values,
    so the table never outgrows the column.  Below that bound the dense
    table is the faster one, as it skips the sort that finds the distinct
    values; the two take about equal time near a maximum of twice the
    count.  The texts are written digit by digit into one byte matrix:
    numpy's int-to-bytes cast formats each number in Python, at about
    0.3 us apiece.
    """
    n = int(values.max(initial=-1)) + 1
    if n <= 2 * len(values) + 64:
        numbers, index = np.arange(n), values
    else:
        numbers = np.unique(values[values >= 0])
        index = np.where(values < 0, -1, np.searchsorted(numbers, values))
    width = len(str(int(numbers.max(initial=0))))
    chars = np.zeros((len(numbers), len(prefix) + width + len(suffix)), dtype=np.uint8)
    chars[:, :len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    for d in range(1, width + 1):
        lo = np.searchsorted(numbers, 10 ** (d - 1)) if d > 1 else 0
        hi = np.searchsorted(numbers, 10 ** d) if d < width else len(numbers)
        row = chars[lo:hi, len(prefix):]
        for j in range(d):
            row[:, j] = numbers[lo:hi] // 10 ** (d - 1 - j) % 10 + ord("0")
        row[:, d:d + len(suffix)] = np.frombuffer(suffix, dtype=np.uint8)
    return (np.concatenate((chars.view(f"S{chars.shape[1]}").ravel(),
                            np.array(extra, dtype="S"))), index)


def render_lines(fields: Sequence[tuple[np.ndarray, np.ndarray]]) -> Iterator[bytes]:
    """The lines whose k-th joins ``table[index[k]]`` over the ``(table, index)`` fields.

    Each table is an ``S`` array of ASCII texts, NUL-padded to the longest,
    and each text ends in the constant part of the template up to the next
    field; negative indices count from a table's end.  Yields the lines
    ``BLOCK_LINES`` at a time, one bytes object per block: every field of
    a block is gathered into one structured array, whose bytes, NUL pads
    dropped by one boolean compress, are the block's lines.  ``quote``
    escapes every control character, so no text holds a NUL of its own.
    """
    n = len(fields[0][1])
    record = np.dtype([("", table.dtype) for table, _ in fields])
    for lo in range(0, n, BLOCK_LINES):
        block = np.empty(min(BLOCK_LINES, n - lo), record)
        for name, (table, index) in zip(record.names, fields):
            block[name] = table[index[lo:lo + BLOCK_LINES]]
        chars = block.view(np.uint8)
        yield chars[chars != 0].tobytes()
