"""Global enumeration budget.

Every word enumeration in the toolkit honours a hard cap: exceeding it
raises BudgetExceeded instead of silently truncating.  The cap is one
process-wide setting, the AFFINEDIM_WORD_CAP environment variable, read
at each guard when the enumeration is made.
"""

import os

DEFAULT_WORD_CAP = 5_000_000


def word_cap():
    env = os.environ.get("AFFINEDIM_WORD_CAP")
    if env:
        return int(env)
    return DEFAULT_WORD_CAP
