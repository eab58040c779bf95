"""Tools for shift actions of computable groups: Folner sequences,
connected-set codecs, quasi-tilings, subshift entropy, and decodable
complexity-rate estimators."""

__version__ = "0.1.0"

from .complexity import ESTIMATORS, rate_series
from .errors import BudgetExceededError
from .folner import builtin_families, defect_report, description_bits, temperedness_constant
from .groups import get_group
from .quasitiling import TilingPlan, cover, plan, verify_cover
from .setcodec import decode_connected, encode_connected
from .stochastic import BernoulliMeasure, MarkovMeasure, MeasureSource, parse_measure, sample
from .symbolic import (
    SFT,
    Alphabet,
    PartialConfiguration,
    binary_alphabet,
    golden_mean_sft,
    load_sft,
    topological_entropy_estimate,
)

__all__ = [
    "__version__",
    "ESTIMATORS",
    "Alphabet",
    "BernoulliMeasure",
    "BudgetExceededError",
    "MarkovMeasure",
    "MeasureSource",
    "PartialConfiguration",
    "SFT",
    "TilingPlan",
    "binary_alphabet",
    "builtin_families",
    "cover",
    "decode_connected",
    "defect_report",
    "description_bits",
    "encode_connected",
    "get_group",
    "golden_mean_sft",
    "load_sft",
    "parse_measure",
    "plan",
    "rate_series",
    "sample",
    "temperedness_constant",
    "topological_entropy_estimate",
    "verify_cover",
]
