"""Exact-arithmetic randomness tests and relabeling audits for binary sequences.

The library judges binary output sequences with two exact tests (run
count and head count), applies position-wise vocabulary relabelings as
an XOR group action, and audits or searches for relabelings that
reverse a test's verdict.  All probabilities are exact rationals.

Each module's ``__all__`` lists its public names; the package re-exports
all of them.
"""

from . import audit, exact, sequences, simulate, verdicts
from .audit import *
from .exact import *
from .sequences import *
from .simulate import *
from .verdicts import *

__version__ = "0.1.0"

__all__ = [*audit.__all__, *exact.__all__, *sequences.__all__, *simulate.__all__, *verdicts.__all__]
