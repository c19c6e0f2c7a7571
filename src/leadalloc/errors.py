"""Shared exception hierarchy, the one way in and the three ways out.

``reading`` is the one guard on opening an input file and on wording a
failure to read it. ``write_json``, ``write_rows`` and ``write_text`` write
every artifact: UTF-8 with no byte-order mark and "\n" line ends on every
platform, so a run's bytes depend only on its input and settings.
``write_text`` takes an iterable of ``str`` chunks and writes them in turn,
so a long file such as trace.csv is never held as one string; a whole text
is one chunk, ``[text]``.

Three base classes partition failures by who has to fix them: bad input
data, bad configuration, or an optimization with no feasible answer.
Each carries the exit code the CLI returns for it.
"""

import csv
import json
from contextlib import contextmanager
from pathlib import Path


class LeadAllocError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    # the stage the CLI names; an error raised outside every stage is one in the settings
    stage = "config"


class DataError(LeadAllocError):
    """The input data violates a contract (parse failures, bad cells)."""


class ConfigError(LeadAllocError):
    """The requested configuration cannot be applied to the given data."""

    exit_code = 2


class InfeasibleError(LeadAllocError):
    """No candidate satisfies the stated constraints."""

    exit_code = 3


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


def write_json(path: str | Path, doc) -> None:
    """``doc`` as JSON with two-space indents, sorted keys and a final newline."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_rows(path: str | Path, header, rows) -> None:
    """A csv file of ``header`` and then each of ``rows``, read once, in order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_text(path: str | Path, chunks) -> None:
    """The ``str`` chunks of an iterable, read once, one after another."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.writelines(chunks)


def integer(value, name: str) -> int:
    """``value`` if it is a JSON integer, else a TypeError: int() would take
    2020.5 as 2020, true as 1 and "7" as 7."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number, else a TypeError: float()
    would take true as 1.0 and "105.18" as 105.18."""
    if type(value) not in (int, float):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)
