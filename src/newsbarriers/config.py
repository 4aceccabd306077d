"""Pipeline configuration and its plain key-value replay format.

Every run directory receives a ``config.txt`` capturing all knobs; feeding it
back through ``--config`` reproduces the run byte for byte. ``set_option`` is
the one parser of option values, for config files and command-line flags alike.
"""

from dataclasses import dataclass, field, fields
from pathlib import Path

from .classifiers import FAMILIES, ModelFamily, family_from_name
from .errors import ConfigError, DataError
from .knowledge import ECONOMIC_FEATURES, BarrierKind
from .tables import read_file

ALL_BARRIERS = tuple(k.value for k in BarrierKind)
ALL_MODELS = tuple(f.value for f in ModelFamily)


@dataclass
class PipelineConfig:
    pairs: str = ""
    concepts: str = ""
    countries: str = ""
    publishers: str = ""
    out: str = "runs/latest"
    event: str = ""
    barriers: tuple = ALL_BARRIERS
    vocab_size: int = 300
    threshold: float = 0.9
    k_folds: int = 10
    seed: int = 0
    models: tuple = ALL_MODELS
    grids: dict = field(default_factory=dict)  # family name -> list of sweep values
    global_vocab: bool = False
    nested: bool = False
    fold_mean: bool = False
    profile_side: str = "source"
    scale_profiles: bool = False
    economic_features: tuple = ()  # empty means all indicators

    def validate(self) -> None:
        for key in ("pairs", "concepts", "countries", "publishers"):
            path = getattr(self, key)
            if not path:
                raise ConfigError(f"{key}: not set")
            if not Path(path).is_file():
                raise ConfigError(f"{key}: not found")
        for key in ("barriers", "models"):
            if not getattr(self, key):
                raise ConfigError(f"{key}: must name at least one")
        for barrier in self.barriers:
            if barrier not in ALL_BARRIERS:
                raise ConfigError(f"barriers: unknown barrier {barrier!r}")
        for model in self.models:
            parse_family(model, "models")
        if self.profile_side not in ("source", "target"):
            raise ConfigError("profile_side: must be 'source' or 'target'")
        if self.vocab_size < 1:
            raise ConfigError("vocab_size: must be positive")
        if self.k_folds < 2:
            raise ConfigError("k_folds: must be at least 2")
        if self.seed < 0:
            raise ConfigError("seed: must not be negative")
        if not -1.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold: must be a finite number in [-1, 1], got {self.threshold!r}")
        self.model_grids()
        for i, name in enumerate(self.economic_features):
            if name not in ECONOMIC_FEATURES:
                raise ConfigError(f"economic_features: unknown indicator {name!r}")
            if name in self.economic_features[:i]:
                raise ConfigError(f"economic_features: repeated indicator {name!r}")

    def model_grids(self) -> dict:
        """The configured sweep values of each family, checked; a family left out sweeps its defaults."""
        grids = {}
        for name, values in self.grids.items():
            family = parse_family(name, "grids")
            f = FAMILIES[family]
            if f.sweep_param is None:
                raise ConfigError(f"grids: family {name!r} has no sweep parameter")
            if not values:
                raise ConfigError(f"grid.{family.value}: no values")
            for value in values:
                try:
                    f.check({f.sweep_param: value})
                except ConfigError as exc:
                    raise ConfigError(f"grid.{family.value}: {exc}") from None
            grids[family] = tuple(values)
        return grids


def parse_family(name: str, key: str) -> ModelFamily:
    try:
        return family_from_name(name)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def parse_value(text: str, key: str):
    """One hyperparameter value: ``none``, an int or a float."""
    text = text.strip()
    if text.lower() == "none":
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    raise ConfigError(f"{key}: cannot parse value {text!r}")


_PARSERS = {
    bool: lambda text: {"true": True, "false": False}[text.lower()],
    tuple: lambda text: tuple(v.strip() for v in text.split(",") if v.strip()),
    int: int,
    float: float,
    str: str,
}
_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def set_option(config: PipelineConfig, key: str, text: str) -> None:
    """Parse ``text`` as the value of ``key`` into ``config``; ``grid.<family>.<param>``
    keys take comma-separated values. Raises ConfigError naming the key."""
    text = text.strip()
    if key.startswith("grid."):
        parts = key.split(".")
        if len(parts) != 3:
            raise ConfigError(f"{key}: grid keys look like grid.<family>.<param>")
        family = parse_family(parts[1], key)
        if FAMILIES[family].sweep_param != parts[2]:
            raise ConfigError(f"{key}: unknown grid parameter {parts[2]!r}")
        values = [parse_value(v, key) for v in text.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"{key}: no values")
        config.grids[family.value] = values
        return
    kind = _FIELD_TYPES.get(key)
    if kind not in _PARSERS:
        raise ConfigError(f"unknown key {key!r}")
    try:
        setattr(config, key, _PARSERS[kind](text))
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {text!r}") from None


def format_option(value) -> str:
    """The text of a scalar option or grid value, as ``set_option`` parses it back."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)


def config_to_text(config: PipelineConfig) -> str:
    lines = []
    for f in fields(PipelineConfig):
        value = getattr(config, f.name)
        if f.name == "grids":
            for name in sorted(value):
                param = FAMILIES[family_from_name(name)].sweep_param
                joined = ",".join(format_option(v) for v in value[name])
                lines.append(f"grid.{name}.{param} = {joined}")
            continue
        lines.append(f"{f.name} = {format_option(value)}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> PipelineConfig:
    config = PipelineConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        try:
            if not sep:
                raise ConfigError("expected 'key = value'")
            set_option(config, key.strip(), value)
        except ConfigError as exc:
            raise ConfigError(f"config: line {lineno}: {exc}") from None
    return config


def load_config(path) -> PipelineConfig:
    """Read a config file; every fault of the file, bytes that are not UTF-8 included, is a ConfigError."""
    try:
        text = read_file(path)
    except (ConfigError, DataError) as exc:
        raise ConfigError(f"config: {exc}") from None
    if "\0" in text:
        raise ConfigError("config: holds a NUL byte")  # options name paths, which cannot hold one
    return config_from_text(text)
