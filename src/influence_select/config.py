"""Run configuration: one documented key-value file plus flag overrides.

The file format is ``section.key = value`` lines; ``#`` starts a comment.
Overrides passed as ``--set section.key=value`` win over the file. Every
command output carries a fingerprint of the fully resolved configuration so
reruns can be checked for byte-identity.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from .bandit import BanditConfig
from .errors import UsageError
from .model import ModelConfig, tracked_layers
from .trainer import TrainConfig


@dataclass
class PathsConfig:
    embeddings: str = "embeddings.bin"
    tokens: str = "tokens.tsv"
    reference: str = "reference.tsv"
    output_dir: str = "out"


@dataclass
class ClusteringConfig:
    k: int = 64
    seed: int = 0
    max_iters: int = 100

    def __post_init__(self):
        if self.k < 1:
            raise UsageError(f"clustering.k must be >= 1, got {self.k}")
        if self.max_iters < 1:
            raise UsageError(f"clustering.max_iters must be >= 1, got {self.max_iters}")


@dataclass
class InfluenceConfig:
    damping: float = 1e-3
    sketch_dim: int = 256
    sketch_seed: int = 0
    use_sketch: bool = False

    def __post_init__(self):
        if not self.damping >= 0.0:
            raise UsageError(f"influence.damping must be >= 0, got {self.damping!r}")
        if self.sketch_dim < 1:
            raise UsageError(f"influence.sketch_dim must be >= 1, got {self.sketch_dim}")


@dataclass
class SelectionConfig:
    budget: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.budget < 0:
            raise UsageError(f"selection.budget must be >= 0, got {self.budget}")


@dataclass(frozen=True)
class ModelSection(ModelConfig):
    """The ``model`` section: the model's shape, checked by ``ModelConfig``,
    plus the seed of its initial weights."""

    init_seed: int = 0


@dataclass
class SimConfig:
    arms: int = 20
    steps: int = 1000
    trials: int = 20
    seed: int = 0

    def __post_init__(self):
        for key in ("arms", "steps", "trials"):
            if getattr(self, key) < 1:
                raise UsageError(f"sim.{key} must be >= 1, got {getattr(self, key)}")


@dataclass
class OracleConfig:
    candidates: int = 40
    seed: int = 0

    def __post_init__(self):
        if self.candidates < 30:
            raise UsageError(f"oracle.candidates must be >= 30, got {self.candidates}")


@dataclass
class ReportConfig:
    baseline_seed: int = 0


@dataclass
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    bandit: BanditConfig = field(default_factory=BanditConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    influence: InfluenceConfig = field(default_factory=InfluenceConfig)
    model: ModelSection = field(default_factory=ModelSection)
    trainer: TrainConfig = field(default_factory=TrainConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    report: ReportConfig = field(default_factory=ReportConfig)

    def __post_init__(self):
        # a sketch wider than a tracked layer's vector buys nothing
        if self.influence.use_sketch:
            bound = min(tl.flat_dim for tl in tracked_layers(self.model))
            if self.influence.sketch_dim > bound:
                raise UsageError(f"influence.sketch_dim must be <= {bound}, the smallest "
                                 f"tracked layer's size, got {self.influence.sketch_dim}")


_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}


def _parse_value(key: str, text: str, typ):
    text = text.strip()
    if typ is bool:
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"{key}: cannot parse boolean from {text!r}")
    if typ is int:
        try:
            return int(text)
        except ValueError as exc:
            raise UsageError(f"{key}: cannot parse integer from {text!r}") from exc
    if typ is float:
        try:
            return float(text)
        except ValueError as exc:
            raise UsageError(f"{key}: cannot parse float from {text!r}") from exc
    return text


def _parse_assignment(key: str, value: str) -> tuple[str, str, object]:
    """``(section, field, value)`` from the text form of ``section.field = value``."""
    key = key.strip()
    if "." not in key:
        raise UsageError(f"config key {key!r} must look like section.field")
    section, name = key.split(".", 1)
    if section not in _SECTIONS:
        raise UsageError(f"unknown config section {section!r}")
    if (section, name) not in _FIELD_TYPES:
        raise UsageError(f"unknown config key {section}.{name}")
    parsed = _parse_value(key, value, _FIELD_TYPES[(section, name)])
    if isinstance(parsed, float) and not math.isfinite(parsed):
        raise UsageError(f"{section}.{name} must be finite, got {parsed!r}")
    if name.endswith("seed") and parsed < 0:
        raise UsageError(f"{section}.{name} must be >= 0, got {parsed}")
    return section, name, parsed


def _field_types():
    out = {}
    for sec, cls in _SECTIONS.items():
        probe = cls()
        for f in fields(cls):
            out[(sec, f.name)] = type(getattr(probe, f.name))
    return out


_FIELD_TYPES = _field_types()


def load_config(path: str | None, overrides: list[str] = ()) -> RunConfig:
    """Build a RunConfig from an optional file plus key=value overrides.

    Every section is constructed once, from its defaults and the assignments,
    so each section's checks see the final values.
    """
    assignments: list[tuple[str, str]] = []
    if path is not None:
        try:  # a config file that cannot be read is a usage error
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise UsageError(f"config file {path!r}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise UsageError(f"config file {path!r}: not UTF-8 text at byte {exc.start}") from None
        for lineno, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'section.key = value'")
            key, value = line.split("=", 1)
            assignments.append((key, value))
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"override {item!r} must look like section.key=value")
        key, value = item.split("=", 1)
        assignments.append((key, value))
    values: dict[str, dict] = {sec: {} for sec in _SECTIONS}
    for key, value in assignments:
        section, name, parsed = _parse_assignment(key, value)
        values[section][name] = parsed
    return RunConfig(**{sec: cls(**values[sec]) for sec, cls in _SECTIONS.items()})


def canonical_text(cfg: RunConfig) -> str:
    """Sorted section.key = value serialization used for fingerprinting."""
    lines = []
    for sec in sorted(_SECTIONS):
        target = getattr(cfg, sec)
        for f in sorted(fields(target), key=lambda f: f.name):
            v = getattr(target, f.name)
            if isinstance(v, float):
                lines.append(f"{sec}.{f.name} = {v:.17g}")
            else:
                lines.append(f"{sec}.{f.name} = {v}")
    return "\n".join(sorted(lines)) + "\n"


def fingerprint(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()[:16]
