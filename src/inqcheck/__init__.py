"""Support checking for inquisitive formulas over finite information models,
plus a compiler that turns quantified Boolean formulas into support queries
on switching models. A brute-force QBF evaluator serves as the independent
oracle for cross-validation.

Each module's __all__ is its public part; the package re-exports them all.
"""

from __future__ import annotations

from . import checker, kernels, model, qbf, reduction, switching, syntax
from .checker import *
from .kernels import *
from .model import *
from .qbf import *
from .reduction import *
from .switching import *
from .syntax import *

__version__ = "0.1.0"

# one += per module is the form that static checkers read as a re-export
__all__ = ["__version__"]
__all__ += syntax.__all__
__all__ += model.__all__
__all__ += checker.__all__
__all__ += kernels.__all__
__all__ += switching.__all__
__all__ += qbf.__all__
__all__ += reduction.__all__
