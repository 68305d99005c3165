"""Preset lookup and serialization of tables, series, and check reports.

Output is deterministic: terms are emitted in sorted order, JSON keys are
sorted, and every emitted payload carries a schema tag so parse() can
reconstruct the value.  The plain format is presentation-only.
"""

from __future__ import annotations

import os

from .betti import AlgebraPreset, BettiTable, _Record
from .series import BiSeries, poly_str
from .wreath import PRESETS, gamma_preset

_SERIES_SCHEMA = "wreath-hochschild/series-v1"
_TABLE_SCHEMA = "wreath-hochschild/table-v1"
_REPORT_SCHEMA = "wreath-hochschild/report-v1"


class CheckReport(_Record):
    """Outcome of one verification suite: a pass flag plus detail lines."""

    __slots__ = ("name", "passed", "lines")

    def __init__(self, name: str, passed: bool, lines: tuple[str, ...] = ()):
        # type(), not isinstance: a truthy string or int is no pass flag
        if type(name) is not str or type(passed) is not bool:
            raise ValueError(f"a report needs a str name and a bool pass flag, "
                             f"got {name!r} and {passed!r}")
        super().__init__(name, passed, tuple(str(x) for x in lines))

    @classmethod
    def from_checks(cls, name: str, checks) -> "CheckReport":
        """One "[pass] " or "[FAIL] " line per (flag, text); passes iff all flags do."""
        checks = list(checks)
        lines = [("[pass] " if flag else "[FAIL] ") + text for flag, text in checks]
        return cls(name, all(flag for flag, _ in checks), tuple(lines))


def load_preset(name: str) -> AlgebraPreset:
    """Resolve a preset by catalog name, gamma:<nu>, or a JSON file/string.

    JSON schema: {"name": str, "d": even int, "betti": [b0, b1, ...]}
    with list index equal to degree.  The nu of gamma:<nu> is a plain
    decimal int, by parse's rule str(int(s)) == s ("gamma:03" is refused).
    """
    if name in PRESETS:
        return PRESETS[name]
    if name.startswith("gamma:"):
        try:
            nu = _int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad gamma preset {name!r}: expected gamma:<int>") from None
        return gamma_preset(nu)
    import json  # the catalog and gamma presets above never load it

    if name.lstrip().startswith("{"):
        data = json.loads(name)
    elif os.path.exists(name):
        try:
            with open(name, "rb") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read preset file {name!r}: {exc.strerror}") from None
    else:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r} (known: {known}, gamma:<nu>, or JSON)")
    if not isinstance(data, dict) or not {"name", "d", "betti"} <= set(data):
        raise ValueError("preset JSON needs keys name, d, betti")
    betti = data["betti"]
    if not isinstance(betti, list):
        raise ValueError("betti must be a list of dimensions")
    # BettiTable refuses each dimension that is not a count; AlgebraPreset,
    # through check_duality, a d that is not an even positive int and
    # support outside [0, d]
    return AlgebraPreset(str(data["name"]), data["d"], BettiTable(dict(enumerate(betti))))


def emit(obj, format: str = "json") -> bytes:
    """Serialize a BiSeries, BettiTable, or CheckReport.

    Formats: json (round-trips via parse), csv (rows (n, i, dim) for a
    series, (degree, dim) for a table; a series' truncation bounds are not
    written, so parse recovers its terms but not its bounds), plain
    (human-readable).  A CheckReport has no csv form (its name and lines
    are free text that parse could not read back): csv for a report is
    refused with ValueError.
    """
    if format not in ("json", "csv", "plain"):
        raise ValueError(f"unknown format {format!r}")
    if isinstance(obj, BiSeries):
        return _emit_series(obj, format)
    if isinstance(obj, BettiTable):
        return _emit_table(obj, format)
    if isinstance(obj, CheckReport):
        if format == "csv":
            raise ValueError("a CheckReport has no csv format: emit it as json or plain")
        return _emit_report(obj, format)
    raise TypeError(f"cannot emit {type(obj).__name__}")


def _emit_series(s: BiSeries, format: str) -> bytes:
    if format == "json":
        doc = {
            "schema": _SERIES_SCHEMA,
            "q_bound": s.q_bound,
            "t_bound": s.t_bound,
            "terms": [list(t) for t in s.terms()],
        }
        return _json_bytes(doc)
    if format == "csv":
        lines = ["n,i,dim"]
        lines += [f"{n},{i},{c}" for n, i, c in s.terms()]
        return ("\n".join(lines) + "\n").encode()
    lines = [f"series truncated at q^{s.q_bound}, t^{s.t_bound}"]
    for n in range(s.q_bound + 1):
        lines.append(f"q^{n}: {poly_str(enumerate(s.coeff[n]), 't')}")
    return ("\n".join(lines) + "\n").encode()


def _emit_table(t: BettiTable, format: str) -> bytes:
    dims = t.dims()
    if format == "json":
        doc = {
            "schema": _TABLE_SCHEMA,
            "dims": {str(k): dims[k] for k in sorted(dims)},
        }
        return _json_bytes(doc)
    if format == "csv":
        lines = ["degree,dim"]
        lines += [f"{k},{dims[k]}" for k in sorted(dims)]
        return ("\n".join(lines) + "\n").encode()
    return (poly_str(sorted(dims.items()), "t") + "\n").encode()


def _emit_report(r: CheckReport, format: str) -> bytes:
    if format == "json":
        doc = {
            "schema": _REPORT_SCHEMA,
            "name": r.name,
            "passed": r.passed,
            "lines": list(r.lines),
        }
        return _json_bytes(doc)
    status = "PASS" if r.passed else "FAIL"
    lines = [f"{status} {r.name}"] + ["  " + ln for ln in r.lines]
    return ("\n".join(lines) + "\n").encode()


def _json_bytes(doc: dict) -> bytes:
    import json

    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def parse(data: bytes):
    """Inverse of emit for the json format; for csv, inverse up to bounds.

    A csv table comes back equal.  A csv series comes back with the same
    terms, but its q_bound and t_bound are the largest n and i among the
    rows present (0 when there are none), not the bounds it was emitted with.
    Every malformed payload raises ValueError: a missing key, a value of
    the wrong JSON type, a degree, dimension or coefficient that is not an
    int (bools included), a report name that is not a string, a pass flag
    that is not a bool, and report lines that are not a list of strings.
    A JSON table degree and every csv cell must be an integer written as
    emit writes it, str(int(s)) == s: "+2", " 1", "01" and "1_0" are refused.
    emit never writes a repeat, so a payload that names one JSON key,
    degree or (n, i) term twice is refused too.
    """
    text = data.decode()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        import json

        doc = json.loads(text, object_pairs_hook=_once)
        schema = doc.get("schema")
        try:
            if schema == _SERIES_SCHEMA:
                terms = [tuple(t) for t in doc["terms"]]
                _once(((n, i), c) for n, i, c in terms)
                return BiSeries.from_terms(doc["q_bound"], doc["t_bound"], terms)
            if schema == _TABLE_SCHEMA:
                # canonical keys name each degree once; the hook refused repeated keys
                return BettiTable({_int(k): v for k, v in doc["dims"].items()})
            if schema == _REPORT_SCHEMA:
                lines = doc["lines"]
                if not isinstance(lines, list) or not all(type(x) is str for x in lines):
                    raise ValueError("report lines must be a list of strings")
                return CheckReport(doc["name"], doc["passed"], tuple(lines))
        except KeyError as exc:
            raise ValueError(f"{schema} payload lacks the key {exc}") from None
        except (TypeError, AttributeError) as exc:
            # a value of the wrong JSON type, such as a number where a list belongs
            raise ValueError(f"{schema} payload is malformed: {exc}") from None
        raise ValueError(f"unknown schema {schema!r}")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError("empty payload")
    header = lines[0]
    if header == "n,i,dim":
        terms = [tuple(_int(x) for x in ln.split(",")) for ln in lines[1:]]
        _once(((n, i), c) for n, i, c in terms)
        qb = max((n for n, _, _ in terms), default=0)
        tb = max((i for _, i, _ in terms), default=0)
        return BiSeries.from_terms(qb, tb, terms)
    if header == "degree,dim":
        rows = [tuple(_int(x) for x in ln.split(",")) for ln in lines[1:]]
        return BettiTable(_once(rows))
    raise ValueError("unrecognized payload")


def _int(text: str) -> int:
    """int(text), refusing every spelling but the one emit writes."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise ValueError(f"{text!r} is not an integer as emit writes one")
    return value


def _once(pairs) -> dict:
    """dict(pairs), refusing a key that appears twice."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"payload names {key!r} twice")
        out[key] = value
    return out
