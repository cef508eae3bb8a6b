"""CORESET geometry and the CCE index space."""

from dataclasses import dataclass
from numbers import Integral, Real

AGGREGATION_LEVELS = (1, 2, 4, 8, 16)

RBS_PER_CCE = 6  # one CCE = 6 REGs, one REG = one RB in one OFDM symbol


class InvalidGeometryError(ValueError):
    """CORESET dimensions violate the NR constraints."""


def as_integer(name: str, value, minimum: int = None) -> int:
    """``value`` as an int, at least ``minimum`` when one is given. A bool or
    a non-integral number raises ValueError; numpy integers are accepted."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def per_al(name: str, values, kind) -> tuple:
    """One ``kind`` (int or float) per aggregation level, ordered as
    AGGREGATION_LEVELS, from a sequence of 5 or a mapping {AL: value} in which
    an absent AL is 0. Any other input, a bool, a non-integer (int) or
    non-real (float) value, or an integer past float range raises ValueError."""
    allowed, plural = (Integral, "integers") if kind is int else (Real, "numbers")
    if isinstance(values, dict):
        unknown = set(values) - set(AGGREGATION_LEVELS)
        if unknown:
            raise ValueError(f"unknown aggregation levels: {sorted(unknown)}")
        values = [values.get(al, 0) for al in AGGREGATION_LEVELS]
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be {plural} per AL, as a sequence or a "
                         f"mapping, got {values!r}") from None
    if len(values) != len(AGGREGATION_LEVELS):
        raise ValueError(f"{name} needs {len(AGGREGATION_LEVELS)} entries "
                         f"(ALs {AGGREGATION_LEVELS}), got {len(values)}")
    if any(isinstance(v, bool) or not isinstance(v, allowed) for v in values):
        raise ValueError(f"{name} must be {plural}, got {values}")
    try:
        return tuple(kind(v) for v in values)
    except OverflowError:
        raise ValueError(f"{name} has an integer too large for a float") from None


@dataclass(frozen=True)
class CoresetConfig:
    """A CORESET spanning ``rb_count`` RBs over ``symbol_duration`` OFDM symbols.

    The frequency span must be a whole number of 6-RB chunks and the duration
    1 to 3 symbols, so the CCE count rb_count * symbol_duration / 6 is always
    a positive integer.
    """

    rb_count: int
    symbol_duration: int

    def __post_init__(self):
        for name in ("rb_count", "symbol_duration"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.rb_count <= 0 or self.rb_count % RBS_PER_CCE != 0:
            raise InvalidGeometryError(
                f"rb_count must be a positive multiple of {RBS_PER_CCE}, got {self.rb_count}")
        if self.symbol_duration not in (1, 2, 3):
            raise InvalidGeometryError(
                f"symbol_duration must be 1, 2 or 3, got {self.symbol_duration}")

    @property
    def cce_count(self) -> int:
        return self.rb_count * self.symbol_duration // RBS_PER_CCE

    @classmethod
    def from_cce_count(cls, cce_count: int) -> "CoresetConfig":
        """Synthesize a one-symbol CORESET with exactly ``cce_count`` CCEs."""
        cce_count = as_integer("cce_count", cce_count)
        if cce_count < 1:
            raise InvalidGeometryError(f"cce_count must be >= 1, got {cce_count}")
        return cls(rb_count=RBS_PER_CCE * cce_count, symbol_duration=1)
