"""Robustness certificates for classifiers smoothed over multiplicative factors."""

from .certify import *
from .distributions import *
from .multicert import *
from .realistic import *
from .rng import *
from .runtime import *
from .transforms import *

__version__ = "0.1.0"
