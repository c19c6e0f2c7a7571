"""Shared exception hierarchy, and ``reading``, the one guard on opening an
input file and on wording a failure to read it.

Three base classes partition failures by who has to fix them: bad input
data, bad configuration, or an optimization with no feasible answer.
The CLI maps these onto distinct exit codes.
"""

import csv
import json
from contextlib import contextmanager
from pathlib import Path


class LeadAllocError(Exception):
    """Base class for all package errors."""


class DataError(LeadAllocError):
    """The input data violates a contract (parse failures, bad cells)."""


class ConfigError(LeadAllocError):
    """The requested configuration cannot be applied to the given data."""


class InfeasibleError(LeadAllocError):
    """No candidate satisfies the stated constraints."""


class InputFileError(DataError, ValueError):
    """An input file that cannot be read, or that does not hold what it should.
    Also a ValueError, which perfbench's output check catches from read_plan."""


@contextmanager
def reading(path: str | Path, what="file", error: type[LeadAllocError] = InputFileError, table=False):
    """Open the panel, the config file or an artifact as UTF-8 text with an
    optional byte-order mark. Yield the file, or with ``table`` a
    csv.DictReader over it whose short rows read their missing fields as "".

    A failure to read the file, or to convert what is read from it, is an
    ``error`` naming ``what`` and ``path``. Package errors pass through.
    """
    name, rows = f"{what} {path}", None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            if table:
                rows = csv.DictReader(fh, restval="")
            yield fh if rows is None else rows
    except LeadAllocError:
        raise
    except OSError as exc:  # a missing file, or a directory in its place
        raise error(f"cannot read {name}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{name} is not UTF-8 text (byte {exc.object[exc.start]:#04x}); save it as UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{name} is not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise error(f"{name} has no {'column' if table else 'key'} {exc}") from exc
    except (csv.Error, ValueError, TypeError, OverflowError) as exc:
        line = "" if rows is None else f", line {rows.reader.line_num}"
        raise error(f"cannot read {name}{line}: {exc}") from exc


def integer(value, name: str) -> int:
    """``value`` if it is a JSON integer, else a TypeError: int() would take
    2020.5 as 2020, true as 1 and "7" as 7."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value
