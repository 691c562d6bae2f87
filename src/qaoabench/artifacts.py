"""The one on-disk convention for every file the pipeline writes or reads.

A JSON artifact is one object carrying a "schema" key, written with
indent=1, sorted keys and a trailing newline.  A CSV artifact starts with
a `# <schema>` line, then a header row and the data rows.  No artifact
embeds a timestamp, so the same inputs give the same bytes.  Readers check
the schema id before anything else and turn a malformed or wrong-kind file
into a ConfigError naming it.  Each output directory also gets a
`manifest.json` with the resolved configuration, the random-stream
version and content hashes.
"""

import csv
import hashlib
import json
from pathlib import Path

from . import __version__
from .errors import ConfigError
from .seeding import STREAM_VERSION

MANIFEST_SCHEMA = "qaoabench-manifest-v1"
SUITE_SCHEMA = "qaoabench-suite-v1"
LANDSCAPE_SCHEMA = "qaoabench-landscape-v1"
SSTAR_SCHEMA = "qaoabench-sstar-v1"
KDE_SCHEMA = "qaoabench-kde-v1"
POLICY_SCHEMA = "qaoabench-policy-v1"
CURVE_SCHEMA = "qaoabench-curve-v1"
RECORDS_SCHEMA = "qaoabench-records-v1"
TAU_SCHEMA = "qaoabench-tau-v1"
METRICS_SCHEMA = "qaoabench-metrics-v1"


def write_json(path, schema: str, body: dict) -> Path:
    """Write `body` plus the schema id as one JSON object; returns `path`."""
    with open(path, "w") as fh:
        json.dump({"schema": schema, **body}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def write_csv(path, schema: str, header, rows) -> Path:
    """Write the `# <schema>` line, `header` and `rows`; returns `path`."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {schema}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def _check_schema(path, schema: str, found) -> None:
    if found != schema:
        raise ConfigError(f"{path}: unexpected schema {found!r}, "
                          f"expected {schema!r}")


def _read(path, what: str, parse):
    # fields a builder cannot use (missing keys, wrong types, out-of-domain
    # values) surface as these three; a ConfigError passes through
    with open(path, newline="") as fh:
        try:
            return parse(fh)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: not a valid {what} file "
                              f"({type(exc).__name__}: {exc})") from None


def read_json(path, schema: str, what: str, build):
    """`build(body)` on the JSON object in `path` if it carries `schema`."""

    def parse(fh):
        body = json.load(fh)
        if not isinstance(body, dict):
            raise TypeError("the top level is not an object")
        _check_schema(path, schema, body.get("schema"))
        return build(body)

    return _read(path, what, parse)


def read_csv(path, schema: str, what: str, build_row) -> list:
    """`build_row(row)` for each data row of the CSV file `path` that starts
    with `# <schema>`; a row is a dict keyed by the header."""

    def parse(fh):
        _check_schema(path, schema, fh.readline().rstrip("\r\n")
                      .removeprefix("# "))
        return [build_row(row) for row in csv.DictReader(fh)]

    return _read(path, what, parse)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command: str, config: dict, inputs,
                   outputs) -> Path:
    """`manifest.json` in `out_dir`: the command, its resolved configuration,
    the random-stream derivation version, and the sha256 of every input (by
    path) and output (by file name)."""
    return write_json(Path(out_dir) / "manifest.json", MANIFEST_SCHEMA, {
        "version": __version__,
        "stream_version": STREAM_VERSION,
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {Path(p).name: _sha256(p) for p in outputs},
    })
