"""The refusal rules that every layer of perfdamp shares: a ValueError that
names a quantity outside (0, inf) or [0, inf), and the ModelDomainError (CLI
exit 3) of inputs a model cannot be evaluated on. A leaf: it imports nothing
from perfdamp, so every other module can import it."""

import math


class ModelDomainError(ValueError):
    """The model's formulas are invalid for the given geometry, or a frequency
    response has no peak, bandwidth or fit that Q can be extracted from. A
    refusal of M1-M6 starts with the model's label (`M3 cell resistance must
    be positive`), so a caller adds only the context it owns."""


def require_positive(*named: tuple[str, float]) -> None:
    """Refuse the first (name, value) pair whose value is not in (0, inf),
    NaN included, with a ValueError that names it. The message carries no
    value: callers such as `config` rename the field into a unit of their own."""
    for name, value in named:
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")


def require_non_negative(*named: tuple[str, float]) -> None:
    """The sibling of require_positive for quantities in [0, inf): refuse the
    first (name, value) pair outside it, NaN included, naming it."""
    for name, value in named:
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be non-negative and finite")


def range_kind(exc: Exception | None) -> str:
    """How arithmetic left the float range: 'division by zero' for a
    ZeroDivisionError, else 'overflow' (an OverflowError, or None for an inf or NaN)."""
    return "division by zero" if isinstance(exc, ZeroDivisionError) else "overflow"


def out_of_range(label: str, exc: Exception | None = None) -> ModelDomainError:
    """An overflow or division by zero in `label`'s arithmetic: the plate or
    gas lies outside the range its formulas can be evaluated in."""
    return ModelDomainError(f"{label} is out of floating-point range ({range_kind(exc)})")
