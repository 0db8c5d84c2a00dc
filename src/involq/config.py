"""Default size caps and their environment override.

INVOLQ_ORDER_CAP, when set to a positive integer, overrides both default
caps (near-field order and enumerated group order); any other value raises
``InputError``. It is the only way to change a cap: the scan bounds are
constants of the modules that use them (``geometry.DEFAULT_SUBGROUP_CAP``,
``census.DEFAULT_ALPHA_CAP``). Nothing in the package is randomized; caps
only bound the cost of exhaustive scans.
"""

import os

from .errors import InputError

DEFAULT_NEARFIELD_ORDER_CAP = 4096
DEFAULT_GROUP_ORDER_CAP = 10**6

_ENV_VAR = "INVOLQ_ORDER_CAP"


def _env_cap() -> int | None:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise InputError(f"{_ENV_VAR} must be positive, got {value}")
    return value


def max_nearfield_order() -> int:
    return _env_cap() or DEFAULT_NEARFIELD_ORDER_CAP


def max_group_order() -> int:
    return _env_cap() or DEFAULT_GROUP_ORDER_CAP
