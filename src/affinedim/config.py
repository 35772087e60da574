"""Global enumeration budget and seeded random stream.

Every word enumeration in the toolkit honours a hard cap: exceeding it
raises BudgetExceeded instead of silently truncating.  The cap is one
process-wide setting, the AFFINEDIM_WORD_CAP environment variable, read
at each guard when the enumeration is made.  Every seeded draw comes
from `seeded_rng`, the one place that names the bit generator.
"""

import os

import numpy as np

from .errors import InputError

DEFAULT_WORD_CAP = 5_000_000


def word_cap():
    """The word cap; InputError when the variable is set to anything but
    a nonnegative integer."""
    env = os.environ.get("AFFINEDIM_WORD_CAP")
    if not env:
        return DEFAULT_WORD_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = -1
    if cap < 0:
        raise InputError("AFFINEDIM_WORD_CAP must be a nonnegative integer, "
                         f"got {env!r}")
    return cap


def seeded_rng(seed):
    """The random stream of a seed: numpy's counter-based Philox generator
    keyed by it, so a seed draws the same numbers on every platform."""
    return np.random.Generator(np.random.Philox(key=seed))
