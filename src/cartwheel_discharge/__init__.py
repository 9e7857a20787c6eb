"""Verification engine for discharging-style case analyses of hub
neighborhoods in plane triangulations: axle interval algebra, rule
compilation into positioned outlets, hubcap bound certification,
reducibility search against a configuration database, and the proof
script runtime tying them together.
"""

from .axles import (Axle, NULL_CONDITION, axle_wedge_condition,
                    condition_compatible, is_fan_free, negate_condition,
                    pos_add, symmetry_permutation, trivial_axle,
                    validate_axle)
from .configurations import (Configuration, GoodConfiguration,
                             build_good_configuration, load_database,
                             make_question, parse_configurations,
                             reflect_question)
from .errors import (CartwheelError, InputError, InternalInvariantError,
                     ReducibilityFailure, VerificationFailure)
from .hubcaps import check_bound, check_h2, check_hubcap, validate_hubcap
from .presentation import (RunReport, parse_presentation, run_presentation)
from .reducibility import (check_iso, reducible, semi_reducible, skeleton_of,
                           well_positioned)
from .rules import (Outlet, axle_wedge_outlet, derive_outlets, enforced,
                    outlet_from_axle, parse_rules, permitted, validate_outlet)

__version__ = "0.1.0"

__all__ = [
    "Axle", "NULL_CONDITION", "axle_wedge_condition",
    "condition_compatible", "is_fan_free", "negate_condition", "pos_add",
    "symmetry_permutation", "trivial_axle", "validate_axle",
    "Configuration", "GoodConfiguration", "build_good_configuration",
    "load_database", "make_question", "parse_configurations",
    "reflect_question", "CartwheelError",
    "InputError", "InternalInvariantError", "ReducibilityFailure",
    "VerificationFailure", "check_bound", "check_h2", "check_hubcap",
    "validate_hubcap", "RunReport", "parse_presentation", "run_presentation",
    "check_iso", "reducible", "semi_reducible", "skeleton_of",
    "well_positioned", "Outlet", "axle_wedge_outlet", "derive_outlets",
    "enforced", "outlet_from_axle", "parse_rules", "permitted",
    "validate_outlet", "__version__",
]
