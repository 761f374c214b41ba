"""Counted work for shape gates: the lines of the friezes package a call runs.

A line count is deterministic where wall clock is not, so a gate can take
the ratio of two counts at sizes a doubling apart.  It uses sys.settrace,
not sys.monitoring, which exists only from Python 3.12.
"""

from __future__ import annotations

import os
import sys

import friezes

PACKAGE = os.path.dirname(friezes.__file__) + os.sep


def lines_run(call) -> int:
    """Lines of any module of the friezes package run during call()."""
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count

    def enter(frame, event, arg):
        return count if frame.f_code.co_filename.startswith(PACKAGE) else None

    before = sys.gettrace()
    sys.settrace(enter)
    try:
        call()
    finally:
        sys.settrace(before)
    return lines
