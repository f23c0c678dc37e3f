"""rouxforge: construction and certification of doubly transitive complex
line packings (equiangular tight frames) from finite-group data.

The layers, bottom to top: exact finite-field arithmetic (``field``),
enumerable finite groups with actions and characters (``group``), roux
matrices with their parameters and idempotent data (``roux``),
radicalization and Higman-pair machinery (``radical``), the numeric
line-packing layer (``lines``), the built-in group families and
refutation witnesses (``families``), and a CLI (``cli``).  The
brute-force reference checks that the tests compare against live in
``rouxforge.oracles``, which no other module imports.
"""

from .field import FieldSpec
from .group import FiniteGroup, GroupAction, LinearCharacter
from .roux import RouxMatrix, RouxParameters, verify_roux
from .radical import CoverData, Key, Radicalization, detect_higman, radicalize
from .lines import ETFCertificate, LineGram, Tolerances, TwoGraph, verify_etf
from .families import FamilyReport, sl2_family, su3_family

__version__ = "0.1.0"

__all__ = [
    "CoverData",
    "ETFCertificate",
    "FamilyReport",
    "FieldSpec",
    "FiniteGroup",
    "GroupAction",
    "Key",
    "LineGram",
    "LinearCharacter",
    "Radicalization",
    "RouxMatrix",
    "RouxParameters",
    "Tolerances",
    "TwoGraph",
    "detect_higman",
    "radicalize",
    "sl2_family",
    "su3_family",
    "verify_etf",
    "verify_roux",
]
