"""Synthetic corpus generator with planted per-barrier ground truth.

The generator fabricates the four input files the pipeline ingests plus a
``truth.csv`` with the label every barrier should assign to every propagated
pair. Labels are recomputed here from the sampled metadata with plain Python
arithmetic, independent of the annotation code, so the pipeline can be checked
against them end to end.

Per-barrier regimes shape the metadata:
  same   all publishers share the barrier's metadata, every label FALSE
  diff   metadata differs across the sampled pairs, every label TRUE
  mixed  collisions happen by chance, labels follow the sampled values
"""

import itertools
import math
import string
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .annotate import COORDINATE_EPSILON, SIMILARITY_THRESHOLD
from .classifiers import check_seed
from .errors import ConfigError
from .ingest import ArticlePair, PropagationClass, serialize_pairs
from .knowledge import (
    CULTURAL_FEATURES,
    ECONOMIC_FEATURES,
    PUBLISHER_COLUMNS,
    BarrierKind,
    save_country_profiles,
)
from .tables import read_table, write_json, write_table

REGIMES = ("same", "diff", "mixed")

BARRIER_NAMES = tuple(kind.value for kind in BarrierKind)

_MIXED_ALIGNMENTS = ("left-wing", "right-wing", "social-liberalism", "centrism")
_MIXED_OFFSETS = (-300, 0, 60, 60, 330)

# a diff regime draws each country's coordinates and UTC offset from these grids, without replacement
_DIFF_LATITUDES = np.arange(-60, 61, 2)
_DIFF_LONGITUDES = np.arange(-150, 151, 2)
_DIFF_OFFSETS = np.arange(-720, 841, 30)

# the most countries a diff regime can keep apart, per country-level barrier
_DIFF_CAPACITY = {
    BarrierKind.ECONOMIC: len(ECONOMIC_FEATURES),
    BarrierKind.CULTURAL: len(CULTURAL_FEATURES),
    BarrierKind.GEOGRAPHICAL: len(_DIFF_LATITUDES),
    BarrierKind.TIME_ZONE: len(_DIFF_OFFSETS),
}

# Keep every sampled cosine well away from the annotation threshold so that
# label recomputation is immune to summation-order noise.
_THRESHOLD_MARGIN = 1e-6


@dataclass
class SyntheticSpec:
    n_countries: int = 5
    n_publishers: int = 12
    n_articles: int = 100
    concept_pool_size: int = 40
    seed: int = 0
    regimes: dict = field(default_factory=dict)  # barrier name -> regime
    unknown_alignment_rate: float = 0.0
    extra_unclassified_pairs: int = 10

    def regime(self, kind: BarrierKind) -> str:
        return self.regimes.get(kind.value, "mixed")

    def validate(self) -> None:
        if self.n_countries < 1 or self.n_publishers < 1 or self.n_articles < 1:
            raise ConfigError("counts must be positive")
        if self.concept_pool_size < 1:
            raise ConfigError("concept pool must not be empty")
        if self.extra_unclassified_pairs < 0:
            raise ConfigError(f"extra unclassified pairs must be >= 0, got {self.extra_unclassified_pairs!r}")
        check_seed(self.seed)
        if not 0.0 <= self.unknown_alignment_rate <= 1.0:
            raise ConfigError(f"unknown alignment rate must be in [0, 1], got {self.unknown_alignment_rate!r}")
        for name, regime in self.regimes.items():
            if name not in BARRIER_NAMES:
                raise ConfigError(f"unknown barrier in regimes: {name!r}")
            if regime not in REGIMES:
                raise ConfigError(f"unknown regime {regime!r} for barrier {name!r}")
        for kind, capacity in _DIFF_CAPACITY.items():
            if self.regime(kind) == "diff" and self.n_countries > capacity:
                raise ConfigError(f"diff {kind.value} regime supports at most {capacity} countries")
        if any(self.regime(kind) == "diff" for kind in _DIFF_CAPACITY) and self.n_countries < 2:
            raise ConfigError("diff country-level regimes need at least 2 countries")
        if self.regime(BarrierKind.POLITICAL) == "diff" and self.n_publishers < 2:
            raise ConfigError("diff political regime needs at least 2 publishers")


def _country_codes(n: int) -> list:
    codes = ["".join(pair) for pair in itertools.product(string.ascii_uppercase, repeat=2)]
    if n > len(codes):
        raise ConfigError("too many countries")
    return codes[:n]


def _vector_block(rng, n: int, dims: int, regime: str) -> list:
    base = rng.uniform(1.0, 10.0, size=dims)

    def scaled_base():
        return tuple(float(v) for v in base * rng.uniform(0.5, 2.0))

    def one_hot():
        v = np.zeros(dims)
        v[int(rng.integers(0, dims))] = rng.uniform(1.0, 10.0)
        return tuple(float(x) for x in v)

    if regime == "same":
        return [tuple(float(v) for v in base)] * n
    if regime == "diff":
        vectors = []
        for i in range(n):
            v = np.zeros(dims)
            v[i % dims] = rng.uniform(1.0, 10.0)
            vectors.append(tuple(float(x) for x in v))
        return vectors
    # mixed: the first two countries anchor the two directions so both label
    # classes exist by construction, the rest fall either way
    vectors = []
    for i in range(n):
        if i == 0:
            vectors.append(scaled_base())
        elif i == 1 and n > 1:
            vectors.append(one_hot())
        else:
            vectors.append(scaled_base() if rng.random() < 0.5 else one_hot())
    return vectors


def _mixed_picks(rng, n: int, pool: list) -> list:
    # anchor the first two entries to distinct pool values so a mixed regime
    # cannot collapse into a single class by draw luck
    picks = [pool[i % len(pool)] for i in range(min(n, 2))]
    picks += [pool[int(rng.integers(0, len(pool)))] for _ in range(n - len(picks))]
    return picks


def _coordinates(rng, n: int, regime: str) -> list:
    if regime == "same":
        point = (float(rng.uniform(-60, 60)), float(rng.uniform(-150, 150)))
        return [point] * n
    if regime == "diff":
        lats = rng.choice(_DIFF_LATITUDES, size=n, replace=False)
        lons = rng.choice(_DIFF_LONGITUDES, size=n, replace=False)
        return [(float(a), float(b)) for a, b in zip(lats, lons)]
    pool_size = max(2, n // 2)
    pool = [(float(rng.uniform(-60, 60)), float(rng.uniform(-150, 150))) for _ in range(pool_size)]
    return _mixed_picks(rng, n, pool)


def _offsets(rng, n: int, regime: str) -> list:
    if regime == "same":
        return [int(rng.choice(_MIXED_OFFSETS))] * n
    if regime == "diff":
        return [int(v) for v in rng.choice(_DIFF_OFFSETS, size=n, replace=False)]
    return _mixed_picks(rng, n, [int(v) for v in dict.fromkeys(_MIXED_OFFSETS)])


def _alignments(rng, n: int, regime: str, unknown_rate: float) -> list:
    if regime == "same":
        values = ["centrism"] * n
    elif regime == "diff":
        values = [f"alignment-{i:03d}" for i in range(n)]
    else:
        values = [str(rng.choice(_MIXED_ALIGNMENTS)) for _ in range(n)]
    return [None if rng.random() < unknown_rate else v for v in values]


def _cosine(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def _vector_label(u, v) -> bool:
    score = _cosine(u, v)
    if not abs(score - SIMILARITY_THRESHOLD) > _THRESHOLD_MARGIN:
        raise ConfigError(
            f"this seed samples a cosine within {_THRESHOLD_MARGIN:g} of the similarity threshold "
            f"{SIMILARITY_THRESHOLD}, too close to plant its label; choose another seed"
        )
    return not score > SIMILARITY_THRESHOLD


# truth.csv's label for a pair: None where an unknown alignment drops it
_TRUTH_LABELS = {True: "TRUE", False: "FALSE", None: "DROPPED"}


def generate_corpus(spec: SyntheticSpec, out_dir) -> dict:
    """Write the synthetic corpus files and return their paths."""
    spec.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    codes = _country_codes(spec.n_countries)
    economic = _vector_block(rng, spec.n_countries, len(ECONOMIC_FEATURES), spec.regime(BarrierKind.ECONOMIC))
    cultural = _vector_block(rng, spec.n_countries, len(CULTURAL_FEATURES), spec.regime(BarrierKind.CULTURAL))
    coords = _coordinates(rng, spec.n_countries, spec.regime(BarrierKind.GEOGRAPHICAL))
    offsets = _offsets(rng, spec.n_countries, spec.regime(BarrierKind.TIME_ZONE))

    profiles = {
        codes[i]: {
            "latitude": coords[i][0],
            "longitude": coords[i][1],
            "utc_offset": float(offsets[i]),
            **dict(zip(CULTURAL_FEATURES, cultural[i])),
            **dict(zip(ECONOMIC_FEATURES, economic[i])),
        }
        for i in range(spec.n_countries)
    }
    save_country_profiles(profiles, out / "countries.csv")

    # round-robin start covers every country when publishers allow it
    country_of = [i % spec.n_countries for i in range(min(spec.n_publishers, spec.n_countries))]
    country_of += [int(rng.integers(0, spec.n_countries)) for _ in range(spec.n_publishers - len(country_of))]
    alignments = _alignments(rng, spec.n_publishers, spec.regime(BarrierKind.POLITICAL), spec.unknown_alignment_rate)
    publisher_rows = (
        (f"pub{i:03d}.example.com", f"Publisher {i}", codes[country_of[i]], alignments[i] or "")
        for i in range(spec.n_publishers)
    )
    write_table(out / "publishers.csv", PUBLISHER_COLUMNS, publisher_rows)

    country_diff = any(spec.regime(kind) == "diff" for kind in _DIFF_CAPACITY)
    political_diff = spec.regime(BarrierKind.POLITICAL) == "diff"

    def sample_pair_publishers():
        for _ in range(1000):
            s = int(rng.integers(0, spec.n_publishers))
            t = int(rng.integers(0, spec.n_publishers))
            if country_diff and country_of[s] == country_of[t]:
                continue
            if political_diff and s == t:
                continue
            return s, t
        raise ConfigError("could not sample a publisher pair satisfying the diff regimes")

    def sample_concepts() -> list:
        # draw pool indices: choice over a list would first copy the whole pool into
        # an array, and it draws the same indices from the population size alone
        size = int(rng.integers(1, min(6, spec.concept_pool_size) + 1))
        picks = rng.choice(spec.concept_pool_size, size=size, replace=False).tolist()
        return sorted(f"Topic_{j:03d}" for j in picks)  # as strings: Topic_1000 sorts before Topic_200

    pairs = []
    concept_lines = []
    truth_rows = []

    def add_pair(from_id, to_id, s, t, weight_range, propagation_class):
        """Concepts for the source article and, in a propagated pair, the target; then the weight."""
        concept_lines.append({"article": from_id, "concepts": sample_concepts()})
        if propagation_class is PropagationClass.INFORMATION_PROPAGATED:
            concept_lines.append({"article": to_id, "concepts": sample_concepts()})
        weight = round(float(rng.uniform(*weight_range)), 3)
        pairs.append(ArticlePair(from_id, to_id, weight, propagation_class, f"Publisher {s}", f"Publisher {t}",
                                 f"pub{s:03d}.example.com", f"pub{t:03d}.example.com"))

    for i in range(spec.n_articles):
        s, t = sample_pair_publishers()
        from_id = f"a{i:04d}"
        add_pair(from_id, f"b{i:04d}", s, t, (0.71, 0.99), PropagationClass.INFORMATION_PROPAGATED)
        cs, ct = country_of[s], country_of[t]
        apart = max(abs(a - b) for a, b in zip(coords[cs], coords[ct]))
        ls, lt = alignments[s], alignments[t]
        labels = {
            BarrierKind.ECONOMIC.value: _vector_label(economic[cs], economic[ct]),
            BarrierKind.CULTURAL.value: _vector_label(cultural[cs], cultural[ct]),
            BarrierKind.GEOGRAPHICAL.value: apart > COORDINATE_EPSILON,
            BarrierKind.TIME_ZONE.value: offsets[cs] != offsets[ct],
            BarrierKind.POLITICAL.value: None if ls is None or lt is None else ls != lt,
        }
        truth_rows.extend((i, from_id, name, _TRUTH_LABELS[labels[name]]) for name in BARRIER_NAMES)

    for i in range(spec.extra_unclassified_pairs):
        s = int(rng.integers(0, spec.n_publishers))
        t = int(rng.integers(0, spec.n_publishers))
        unsure = i % 2 == 0
        add_pair(f"x{i:04d}", f"y{i:04d}", s, t, (0.41, 0.69) if unsure else (0.01, 0.39),
                 PropagationClass.UNSURE if unsure else PropagationClass.INFORMATION_NOT_PROPAGATED)

    serialize_pairs(pairs, out / "pairs.csv")
    write_json(out / "concepts.jsonl", concept_lines, lines=True)
    write_table(out / "truth.csv", ("pair_index", "article_id", "barrier", "label"), truth_rows)
    write_json(out / "synth_spec.json", asdict(spec))

    return {
        "pairs": out / "pairs.csv",
        "concepts": out / "concepts.jsonl",
        "countries": out / "countries.csv",
        "publishers": out / "publishers.csv",
        "truth": out / "truth.csv",
        "spec": out / "synth_spec.json",
    }


def load_truth(path) -> dict:
    """truth.csv -> {barrier name: [(article_id, label string), ...] in pair order}."""
    by_barrier: dict = {name: [] for name in BARRIER_NAMES}
    with read_table(path) as (_, rows):
        for _, (_, article_id, barrier, label) in rows:
            by_barrier[barrier].append((article_id, label))
    return by_barrier
