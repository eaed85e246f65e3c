"""Line-delimited JSON shared by the pipeline and simulation outputs.

Writers fill fixed line templates, written as f-strings, that keep
``json.dumps``'s key order and ``", "``/``": "`` separators: integers
print as ``json.dumps`` prints them, strings go through :func:`quote`,
json's ASCII-escaping encoder (quotes included), ``None`` is ``null``.
An f-string costs about half what ``str.format`` does per line.
Readers decode each line with :func:`decode_line`.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as quote
from json.scanner import make_scanner

__all__ = ["quote", "decode_line"]

# Decodes one JSON value at a given index of a string, in C.
_scan_once = make_scanner(json.JSONDecoder())


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
