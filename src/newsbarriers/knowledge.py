"""Publisher and country metadata backing the five barriers.

Two CSV files feed this module: ``countries.csv`` (one row per country with
economic indicators, cultural dimensions, coordinates, and UTC offset) and
``publishers.csv`` (publisher URI, display name, country, optional political
alignment). Both stores are immutable after load and safe to read from
multiple threads.
"""

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DuplicateCountry,
    DuplicatePublisher,
    IncompleteMetadata,
    MalformedRow,
    MissingColumn,
    NonFiniteValue,
    RangeViolation,
    UnknownAlignment,
    ZeroVector,
)


class BarrierKind(Enum):
    ECONOMIC = "economic"
    CULTURAL = "cultural"
    GEOGRAPHICAL = "geographical"
    TIME_ZONE = "timezone"
    POLITICAL = "political"


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
    BarrierKind.ECONOMIC: Barrier("Economic", ECONOMIC_FEATURES, cosine=True),
    BarrierKind.CULTURAL: Barrier("Cultural", CULTURAL_FEATURES, cosine=True),
    BarrierKind.GEOGRAPHICAL: Barrier("Geographical", ("latitude", "longitude"), cosine=False),
    BarrierKind.TIME_ZONE: Barrier("Time Zone", ("utc_offset",), cosine=False),
    BarrierKind.POLITICAL: Barrier("Political", (), cosine=False),
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
class CountryProfile:
    country_code: str
    values: dict  # each numeric COUNTRY_COLUMNS name -> float; utc_offset in whole minutes


@dataclass(frozen=True)
class PublisherRecord:
    publisher_uri: str
    publisher_name: str
    country_code: str
    political_alignment: Optional[str] = None


class ProfileStore:
    """Immutable country_code -> CountryProfile mapping."""

    def __init__(self, profiles: Sequence[CountryProfile]):
        self._profiles: dict[str, CountryProfile] = {}
        for p in profiles:
            if p.country_code in self._profiles:
                raise DuplicateCountry(p.country_code)
            self._profiles[p.country_code] = p

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, country_code: str) -> bool:
        return country_code in self._profiles

    def __iter__(self) -> Iterator[CountryProfile]:
        return iter(self._profiles.values())

    def get(self, country_code: str) -> Optional[CountryProfile]:
        return self._profiles.get(country_code)

    def minmax_scaled(self) -> "ProfileStore":
        """Store with the cosine barriers' columns min-max scaled per column.

        Constant columns map to 0.5 so no vector collapses to all zeros.
        Intended for sensitivity studies; the default pipeline uses raw values.
        """
        if not self._profiles:
            return self
        columns = [c for barrier in BARRIERS.values() if barrier.cosine for c in barrier.columns]
        block = np.array([[p.values[c] for c in columns] for p in self], dtype=float)
        lo, hi = block.min(axis=0), block.max(axis=0)
        span = hi - lo
        scaled = np.full_like(block, 0.5)
        nonconst = span > 0
        scaled[:, nonconst] = (block[:, nonconst] - lo[nonconst]) / span[nonconst]
        return ProfileStore(
            [replace(p, values={**p.values, **dict(zip(columns, row.tolist()))}) for p, row in zip(self, scaled)]
        )


class PublisherStore:
    """Immutable normalized-URI -> PublisherRecord mapping."""

    def __init__(self, records: Sequence[PublisherRecord]):
        self._records: dict[str, PublisherRecord] = {}
        for r in records:
            if r.publisher_uri in self._records:
                raise DuplicatePublisher(r.publisher_uri)
            self._records[r.publisher_uri] = r
        # Closed vocabulary for the political one-hot block, alphabetical so the
        # encoding does not depend on file row order. Unknown stays out of it.
        self._alignment_vocabulary = tuple(
            sorted({r.political_alignment for r in records if r.political_alignment is not None})
        )

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, uri: str) -> bool:
        return normalize_uri(uri) in self._records

    def __iter__(self) -> Iterator[PublisherRecord]:
        return iter(self._records.values())

    def get(self, uri: str) -> Optional[PublisherRecord]:
        return self._records.get(normalize_uri(uri))

    @property
    def alignment_vocabulary(self) -> tuple:
        return self._alignment_vocabulary


def parse_float(raw, row: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise NonFiniteValue(row, column, raw) from None
    if not math.isfinite(value):
        raise NonFiniteValue(row, column, raw)
    return value


def _read_rows(path, columns: Sequence[str]) -> Iterator:
    """(row number, {header name: cell}) for each non-blank row of a metadata CSV.

    The header must carry every name in ``columns`` (any order) and each row
    as many fields as the header.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for column in columns:
            if column not in header:
                raise MissingColumn(column)
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedRow(rownum, f"expected {len(header)} fields, got {len(row)}")
            yield rownum, dict(zip(header, row))


def load_country_profiles(path) -> ProfileStore:
    """Load countries.csv into a ProfileStore keyed by country code.

    Values must be finite and within COLUMN_RANGES, and no cosine barrier's
    columns may be all zero.
    """
    profiles = []
    for rownum, row in _read_rows(path, COUNTRY_COLUMNS):
        code = row["country_code"].strip().upper()
        if not code:
            raise MalformedRow(rownum, "empty country_code")
        values = {c: parse_float(row[c], rownum, c) for c in COUNTRY_COLUMNS[1:]}
        for column, (lo, hi) in COLUMN_RANGES.items():
            if not lo <= values[column] <= hi:
                raise RangeViolation(rownum, column, values[column], lo, hi)
        values["utc_offset"] = float(int(values["utc_offset"]))
        for kind, barrier in BARRIERS.items():
            if barrier.cosine and not any(values[c] for c in barrier.columns):
                raise ZeroVector(f"row {rownum}: {kind.value} vector for {code} is all zero")
        profiles.append(CountryProfile(code, values))
    return ProfileStore(profiles)


def format_float(value) -> str:
    """Text that reads back as the same float: integral values below 1e16 without ``.0``, else ``repr``."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def save_country_profiles(store: ProfileStore, path) -> None:
    """Serialize a ProfileStore back to countries.csv, round-trip exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNTRY_COLUMNS)
        for p in store:
            writer.writerow([p.country_code] + [format_float(p.values[c]) for c in COUNTRY_COLUMNS[1:]])


def load_publishers(path) -> PublisherStore:
    """Load publishers.csv. A record whose country is absent from the profile
    store is kept; ``barrier_profile`` finds it incomplete."""
    records = []
    for rownum, row in _read_rows(path, PUBLISHER_COLUMNS):
        uri = normalize_uri(row["publisher_uri"])
        if not uri:
            raise MalformedRow(rownum, "empty publisher_uri")
        records.append(
            PublisherRecord(
                publisher_uri=uri,
                publisher_name=row["publisher_name"].strip(),
                country_code=row["country_code"].strip().upper(),
                political_alignment=normalize_alignment(row["political_alignment"]),
            )
        )
    return PublisherStore(records)


def profile_feature_names(columns: Sequence[str], alignment_vocabulary: Sequence[str] = ()) -> tuple:
    """Dataset header names of the profile block over ``columns`` (none: the political block)."""
    if not columns:
        return tuple(f"{POLITICAL_FEATURE}={a}" for a in alignment_vocabulary)
    return tuple(HEADER_NAMES.get(c, c) for c in columns)


def barrier_profile(
    publisher: PublisherRecord,
    store: ProfileStore,
    columns: Sequence[str],
    alignment_vocabulary: Sequence[str] = (),
) -> np.ndarray:
    """Numeric feature block describing one publisher over a barrier's countries.csv ``columns``.

    With columns, the publisher's country is resolved in the profile store;
    without, the block is the publisher's alignment, one-hot encoded over
    ``alignment_vocabulary``.
    """
    if not columns:
        if publisher.political_alignment is None:
            raise UnknownAlignment(f"publisher {publisher.publisher_uri} has no political alignment")
        onehot = np.zeros(len(alignment_vocabulary), dtype=float)
        try:
            onehot[list(alignment_vocabulary).index(publisher.political_alignment)] = 1.0
        except ValueError:
            raise UnknownAlignment(
                f"alignment {publisher.political_alignment!r} not in the store vocabulary"
            ) from None
        return onehot

    profile = store.get(publisher.country_code)
    if profile is None:
        raise IncompleteMetadata(
            f"publisher {publisher.publisher_uri}: country {publisher.country_code!r} not in profile store"
        )
    return np.fromiter(map(profile.values.__getitem__, columns), dtype=float, count=len(columns))
