"""The CORESET as its CCE count, and the value checks of the config fields:
an integer with a minimum, and one value per aggregation level."""

from dataclasses import dataclass
from numbers import Integral, Real

AGGREGATION_LEVELS = (1, 2, 4, 8, 16)


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
    """A CORESET of ``cce_count`` CCEs, indexed 0 .. cce_count - 1.

    Only the CCE count enters the model; a CORESET of 108 RBs over 3 OFDM
    symbols, for one, is 54 CCEs (one CCE is 6 REGs of one RB by one symbol).
    """

    cce_count: int

    def __post_init__(self):
        object.__setattr__(self, "cce_count", as_integer("cce_count", self.cce_count, 1))

    @classmethod
    def from_cce_count(cls, cce_count: int) -> "CoresetConfig":
        """A CORESET of ``cce_count`` CCEs; the one place the file parser and
        the ``coreset_size`` sweep axis build one."""
        return cls(cce_count)
