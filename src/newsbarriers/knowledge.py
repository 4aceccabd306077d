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
from typing import Callable, Iterator, Optional, Sequence

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

GEOGRAPHICAL_FEATURES = ("Latitude", "Longitude")
TIME_ZONE_FEATURES = ("UTC-offset",)
POLITICAL_FEATURE = "Political-Alignment"

# UTC offsets observed on Earth, in minutes (UTC-12:00 .. UTC+14:00).
UTC_OFFSET_RANGE = (-720, 840)

COUNTRY_COLUMNS = ("country_code", "latitude", "longitude", "utc_offset") + CULTURAL_FEATURES + ECONOMIC_FEATURES
PUBLISHER_COLUMNS = ("publisher_uri", "publisher_name", "country_code", "political_alignment")


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
    economic: tuple  # values ordered as ECONOMIC_FEATURES
    cultural: tuple  # values ordered as CULTURAL_FEATURES
    latitude: float
    longitude: float
    utc_offset: int  # signed minutes from UTC


@dataclass(frozen=True)
class PublisherRecord:
    publisher_uri: str
    publisher_name: str
    country_code: str
    political_alignment: Optional[str] = None
    incomplete: bool = False  # country_code not present in the profile store


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
        """Store with economic and cultural values min-max scaled per feature.

        Constant features map to 0.5 so no vector collapses to all zeros.
        Intended for sensitivity studies; the default pipeline uses raw values.
        """
        econ = np.array([p.economic for p in self], dtype=float)
        cult = np.array([p.cultural for p in self], dtype=float)

        def scale(block: np.ndarray) -> np.ndarray:
            lo, hi = block.min(axis=0), block.max(axis=0)
            span = hi - lo
            out = np.full_like(block, 0.5)
            nonconst = span > 0
            out[:, nonconst] = (block[:, nonconst] - lo[nonconst]) / span[nonconst]
            return out

        econ_s, cult_s = scale(econ), scale(cult)
        scaled = [
            replace(p, economic=tuple(float(v) for v in econ_s[i]), cultural=tuple(float(v) for v in cult_s[i]))
            for i, p in enumerate(self)
        ]
        return ProfileStore(scaled)


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
    except (TypeError, ValueError):
        raise NonFiniteValue(row, column, "" if raw is None else raw) from None
    if not math.isfinite(value):
        raise NonFiniteValue(row, column, raw)
    return value


def _parse_ranged(raw: str, row: int, column: str, lo: float, hi: float) -> float:
    value = parse_float(raw, row, column)
    if not lo <= value <= hi:
        raise RangeViolation(row, column, value, lo, hi)
    return value


def load_country_profiles(path) -> ProfileStore:
    """Load countries.csv into a ProfileStore keyed by country code.

    The header must carry every canonical column name (any order). Values must
    be finite, coordinates and UTC offsets within their physical ranges, and
    neither the economic nor the cultural vector may be all zero.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for column in COUNTRY_COLUMNS:
            if column not in header:
                raise MissingColumn(column)
        profiles = []
        for rownum, row in enumerate(reader, start=2):
            code = (row["country_code"] or "").strip().upper()
            if not code:
                raise MalformedRow(rownum, "empty country_code")
            lat = _parse_ranged(row["latitude"], rownum, "latitude", -90.0, 90.0)
            lon = _parse_ranged(row["longitude"], rownum, "longitude", -180.0, 180.0)
            utc = _parse_ranged(row["utc_offset"], rownum, "utc_offset", *UTC_OFFSET_RANGE)
            economic = tuple(parse_float(row[c], rownum, c) for c in ECONOMIC_FEATURES)
            cultural = tuple(parse_float(row[c], rownum, c) for c in CULTURAL_FEATURES)
            if not any(economic):
                raise ZeroVector(f"row {rownum}: economic vector for {code} is all zero")
            if not any(cultural):
                raise ZeroVector(f"row {rownum}: cultural vector for {code} is all zero")
            profiles.append(
                CountryProfile(
                    country_code=code,
                    economic=economic,
                    cultural=cultural,
                    latitude=lat,
                    longitude=lon,
                    utc_offset=int(utc),
                )
            )
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
            row = [p.country_code, format_float(p.latitude), format_float(p.longitude), str(p.utc_offset)]
            row.extend(format_float(v) for v in p.cultural)
            row.extend(format_float(v) for v in p.economic)
            writer.writerow(row)


def load_publishers(path, store: ProfileStore) -> PublisherStore:
    """Load publishers.csv; records whose country is absent from the profile
    store are kept but flagged incomplete."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for column in PUBLISHER_COLUMNS:
            if column not in header:
                raise MissingColumn(column)
        records = []
        for rownum, row in enumerate(reader, start=2):
            if any(row.get(c) is None for c in PUBLISHER_COLUMNS):
                raise MalformedRow(rownum, "wrong field count")
            uri = normalize_uri(row["publisher_uri"])
            if not uri:
                raise MalformedRow(rownum, "empty publisher_uri")
            code = (row["country_code"] or "").strip().upper()
            records.append(
                PublisherRecord(
                    publisher_uri=uri,
                    publisher_name=(row["publisher_name"] or "").strip(),
                    country_code=code,
                    political_alignment=normalize_alignment(row["political_alignment"] or ""),
                    incomplete=code not in store,
                )
            )
    return PublisherStore(records)


@dataclass(frozen=True)
class Barrier:
    """What one barrier reads from the metadata and how it labels a pair.

    ``read`` gives a country's values in ``columns`` order; None means the
    block is the publisher's political alignment, one-hot encoded. ``cosine``
    picks the label rule of ``annotate.barrier_present``: cosine similarity
    against the threshold, or else "some value differs by more than
    ``annotate.COORDINATE_EPSILON``".
    """

    title: str
    columns: tuple
    read: Optional[Callable[[CountryProfile], tuple]]
    cosine: bool


BARRIERS = {
    BarrierKind.ECONOMIC: Barrier("Economic", ECONOMIC_FEATURES, lambda c: c.economic, cosine=True),
    BarrierKind.CULTURAL: Barrier("Cultural", CULTURAL_FEATURES, lambda c: c.cultural, cosine=True),
    BarrierKind.GEOGRAPHICAL: Barrier(
        "Geographical", GEOGRAPHICAL_FEATURES, lambda c: (c.latitude, c.longitude), cosine=False
    ),
    BarrierKind.TIME_ZONE: Barrier("Time Zone", TIME_ZONE_FEATURES, lambda c: (c.utc_offset,), cosine=False),
    BarrierKind.POLITICAL: Barrier("Political", (), None, cosine=False),
}


def _economic_subset(kind: BarrierKind, economic_features: Optional[Sequence[str]]) -> Optional[list]:
    """Positions of the named economic indicators, or None for the barrier's full block."""
    if kind is not BarrierKind.ECONOMIC or economic_features is None:
        return None
    for name in economic_features:
        if name not in ECONOMIC_FEATURES:
            raise MissingColumn(name)
    return [ECONOMIC_FEATURES.index(name) for name in economic_features]


def profile_feature_names(
    kind: BarrierKind,
    alignment_vocabulary: Sequence[str] = (),
    economic_features: Optional[Sequence[str]] = None,
) -> tuple:
    """Column names of the profile block for one barrier kind."""
    if BARRIERS[kind].read is None:
        return tuple(f"{POLITICAL_FEATURE}={a}" for a in alignment_vocabulary)
    subset = _economic_subset(kind, economic_features)
    columns = BARRIERS[kind].columns
    return columns if subset is None else tuple(columns[i] for i in subset)


def barrier_profile(
    publisher: PublisherRecord,
    store: ProfileStore,
    kind: BarrierKind,
    alignment_vocabulary: Sequence[str] = (),
    economic_features: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """Numeric feature block describing one publisher for one barrier.

    Every kind except POLITICAL resolves the publisher's country in the
    profile store; POLITICAL needs only the alignment field, one-hot encoded
    over ``alignment_vocabulary``.
    """
    read = BARRIERS[kind].read
    if read is None:
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
    values = read(profile)
    subset = _economic_subset(kind, economic_features)
    if subset is not None:
        values = [values[i] for i in subset]
    return np.array(values, dtype=float)
