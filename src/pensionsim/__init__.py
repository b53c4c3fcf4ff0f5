"""Defined-contribution pension accumulation simulator.

Generates or ingests economic scenarios, prices an inflation-indexed
annuity, tracks a salary/contribution career, runs rule-based and
dynamic-programming allocation strategies, and evaluates replacement-ratio
outcomes.  The package exports what each module lists in its ``__all__``.
"""

from .career import *
from .dp import *
from .engine import *
from .errors import *
from .lsmc import *
from .market import *
from .metrics import *
from .scenario import *
from .strategies import *

__version__ = "0.1.0"
