"""Publisher and country metadata backing the five barriers.

Two CSV files feed this module: ``countries.csv`` (one row per country with
economic indicators, cultural dimensions, coordinates, and UTC offset) and
``publishers.csv`` (publisher URI, display name, country, optional political
alignment). Each loads into a plain dict: ``{country_code: {column: value}}`` and
``{normalized publisher uri: PublisherRecord}``. ``barrier_profile`` reads one
publisher's block of a barrier from them, or ``None`` where the metadata has none.
``BARRIERS`` is the one list of barriers, keyed by the plain name that
``--barriers``, ``dataset_<name>.csv`` and ``truth.csv`` use.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, MalformedRow
from .tables import format_float, parse_float, read_table, write_table


ECONOMIC_FEATURES = (
    "Rank",
    "Safety-Security",
    "Personal-Freedom",
    "Governance",
    "Social-Capital",
    "Investment-Environment",
    "Enterprise-Conditions",
    "Market-Infrastructure",
    "Economic-Quality",
    "Living-Conditions",
    "Health",
    "Education",
    "Natural-Environment",
)

CULTURAL_FEATURES = (
    "Power-Distance",
    "Uncertainty-Avoidance-By-Individuals",
    "Individualistic-Cultures",
    "Masculinity-Femininity",
    "Long-Term-Orientation",
    "Indulgence-Restraint",
)

POLITICAL_FEATURE = "Political-Alignment"

COUNTRY_COLUMNS = ("country_code", "latitude", "longitude", "utc_offset") + CULTURAL_FEATURES + ECONOMIC_FEATURES
PUBLISHER_COLUMNS = ("publisher_uri", "publisher_name", "country_code", "political_alignment")

# Physical ranges: degrees for the coordinates, minutes for the UTC offsets
# observed on Earth (UTC-12:00 .. UTC+14:00).
COLUMN_RANGES = {"latitude": (-90.0, 90.0), "longitude": (-180.0, 180.0), "utc_offset": (-720, 840)}

# Dataset header names of the countries.csv columns that are spelled differently there.
HEADER_NAMES = {"latitude": "Latitude", "longitude": "Longitude", "utc_offset": "UTC-offset"}


@dataclass(frozen=True)
class Barrier:
    """What one barrier reads from the metadata and how it labels a pair.

    ``columns`` are the countries.csv columns of its profile block, in block
    order; with none, the block is the publisher's political alignment,
    one-hot encoded. ``cosine`` picks the label rule of
    ``annotate.barrier_present``: cosine similarity against the threshold, or
    else "some value differs by more than ``annotate.COORDINATE_EPSILON``".
    """

    title: str
    columns: tuple
    cosine: bool


BARRIERS = {
    "economic": Barrier("Economic", ECONOMIC_FEATURES, cosine=True),
    "cultural": Barrier("Cultural", CULTURAL_FEATURES, cosine=True),
    "geographical": Barrier("Geographical", ("latitude", "longitude"), cosine=False),
    "timezone": Barrier("Time Zone", ("utc_offset",), cosine=False),
    "political": Barrier("Political", (), cosine=False),
}


def normalize_uri(uri: str) -> str:
    return uri.strip().lower()


def normalize_alignment(alignment: str) -> Optional[str]:
    """Canonical form for alignment strings: trimmed, lowercased, spaces to hyphens.

    Blank input means the alignment is unknown and maps to None.
    """
    cleaned = "-".join(alignment.strip().lower().split())
    return cleaned or None


@dataclass(frozen=True)
class PublisherRecord:
    publisher_uri: str
    publisher_name: str
    country_code: str
    political_alignment: Optional[str] = None


def minmax_scaled(profiles: dict) -> dict:
    """Profiles with the cosine barriers' columns min-max scaled per column.

    Constant columns map to 0.5 so no vector collapses to all zeros.
    Intended for sensitivity studies; the default pipeline uses raw values.
    """
    if not profiles:
        return profiles
    columns = [c for barrier in BARRIERS.values() if barrier.cosine for c in barrier.columns]
    block = np.array([[values[c] for c in columns] for values in profiles.values()], dtype=float)
    lo, hi = block.min(axis=0), block.max(axis=0)
    span = hi - lo
    scaled = np.full_like(block, 0.5)
    nonconst = span > 0
    scaled[:, nonconst] = (block[:, nonconst] - lo[nonconst]) / span[nonconst]
    return {
        code: {**values, **dict(zip(columns, row.tolist()))} for (code, values), row in zip(profiles.items(), scaled)
    }


def alignment_vocabulary(publishers: dict) -> tuple:
    """Closed vocabulary of the political one-hot block, alphabetical so the encoding
    does not depend on file row order. Unknown stays out of it."""
    return tuple(sorted({r.political_alignment for r in publishers.values() if r.political_alignment is not None}))


def _require_columns(header: tuple, columns: Sequence[str]) -> None:
    """A metadata CSV's header must carry every name in ``columns``, in any order."""
    for column in columns:
        if column not in header:
            raise DataError(f"missing column: {column}")


def load_country_profiles(path) -> dict:
    """Load countries.csv as ``{country_code: {column: value}}``, one float per numeric
    COUNTRY_COLUMNS name with utc_offset in whole minutes; a code seen twice is a DataError.

    Values must be finite and within COLUMN_RANGES. A cosine barrier's block may not be all zero,
    and its squared norm, ``np.dot`` of the block with itself as in ``cosine_similarity``, must be
    finite; one that underflows to 0 loads, and its pairs are dropped as ``zero_vector``.
    """
    profiles = {}
    with read_table(path) as (header, rows):
        _require_columns(header, COUNTRY_COLUMNS)
        for rownum, cells in rows:
            row = dict(zip(header, cells))
            code = row["country_code"].upper()
            if not code:
                raise MalformedRow(rownum, "empty country_code")
            values = {c: parse_float(row[c], rownum, c) for c in COUNTRY_COLUMNS[1:]}
            for column, (lo, hi) in COLUMN_RANGES.items():
                if not lo <= values[column] <= hi:
                    raise DataError(f"value {values[column]!r} in row {rownum}, column {column!r} outside [{lo}, {hi}]")
            values["utc_offset"] = float(int(values["utc_offset"]))
            for name in (name for name, barrier in BARRIERS.items() if barrier.cosine):
                block = np.array([values[c] for c in BARRIERS[name].columns])
                if not block.any():
                    raise DataError(f"row {rownum}: {name} vector for {code} is all zero")
                with np.errstate(over="ignore"):  # a squared norm that overflows is inf
                    if not np.isfinite(np.dot(block, block)):
                        raise DataError(f"row {rownum}: {name} vector for {code} is too large to square")
            if code in profiles:
                raise DataError(f"duplicate country_code: {code}")
            profiles[code] = values
    return profiles


def save_country_profiles(profiles: dict, path) -> None:
    """Serialize ``{country_code: {column: value}}`` back to countries.csv, round-trip exact."""
    rows = ([code] + [format_float(values[c]) for c in COUNTRY_COLUMNS[1:]] for code, values in profiles.items())
    write_table(path, COUNTRY_COLUMNS, rows)


def load_publishers(path) -> dict:
    """Load publishers.csv as ``{normalized uri: PublisherRecord}``; a uri seen twice is a
    DataError. A record whose country has no profile is kept; ``barrier_profile`` gives it
    no block."""
    records = {}
    with read_table(path) as (header, rows):
        _require_columns(header, PUBLISHER_COLUMNS)
        for rownum, cells in rows:
            row = dict(zip(header, cells))
            uri = normalize_uri(row["publisher_uri"])
            if not uri:
                raise MalformedRow(rownum, "empty publisher_uri")
            if uri in records:
                raise DataError(f"duplicate publisher_uri: {uri}")
            alignment = normalize_alignment(row["political_alignment"])
            records[uri] = PublisherRecord(uri, row["publisher_name"], row["country_code"].upper(), alignment)
    return records


def profile_feature_names(columns: Sequence[str], alignment_vocabulary: Sequence[str] = ()) -> tuple:
    """Dataset header names of the profile block over ``columns`` (none: the political block)."""
    if not columns:
        return tuple(f"{POLITICAL_FEATURE}={a}" for a in alignment_vocabulary)
    return tuple(HEADER_NAMES.get(c, c) for c in columns)


def barrier_profile(
    publisher: PublisherRecord,
    profiles: dict,
    columns: Sequence[str],
    alignment_vocabulary: Sequence[str] = (),
) -> Optional[np.ndarray]:
    """Numeric feature block describing one publisher over a barrier's countries.csv ``columns``.

    With columns, the publisher's country is looked up in ``profiles``;
    without, the block is the publisher's alignment, one-hot encoded over
    ``alignment_vocabulary``. ``None`` where the country has no profile or the
    alignment is unknown or outside the vocabulary.
    """
    if not columns:
        alignment = publisher.political_alignment
        if alignment not in alignment_vocabulary:
            return None
        return np.array([a == alignment for a in alignment_vocabulary], dtype=float)
    values = profiles.get(publisher.country_code)
    if values is None:
        return None
    return np.fromiter(map(values.__getitem__, columns), dtype=float, count=len(columns))
