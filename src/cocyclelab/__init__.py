"""Numerical laboratory for random products of quasi-periodic linear cocycles.

The package estimates Lyapunov spectra of random products of circle-driven
matrix maps, computes the linear holonomies of the fixed-point/homoclinic
pair in closed form, and certifies the genericity conditions (pinching and
twisting, in their two-dimensional and higher-dimensional forms) that
imply simple spectrum and continuity of the exponents.
"""

from ._version import __version__
from .circle import (GOLDEN_MEAN, as_word, base_orbit, circle_distance,
                     constant_word, forward_agreement_index,
                     homoclinic_base_holonomy, rotate, single_flip_word,
                     stable_holonomy_offset, wrap_unit)
from .cocycle import (DIAGONAL, GENERAL, GROUP_TAGS, SCHRODINGER, SL2,
                      RandomProduct, TrigMatrixMap, TrigPolynomial,
                      make_schrodinger, rescale_diagonal, right_rotate,
                      shift_potential, word_product)
from .errors import (CocycleLabError, ConfigError, GroupTagError,
                     InvalidWordError, NonInvertibleMapError,
                     NotHomoclinicError, RenormalizationError,
                     UnsupportedPipelineError)
from .fileio import CocycleFile, file_digest, load_cocycle, save_cocycle
from .lyapunov import (LyapunovEstimate, diagonal_spectrum, estimate_spectrum,
                       estimate_top_exponent, mean_log_abs_det)
from .holonomy import (OseledetsDirections, OseledetsField,
                       closed_form_holonomy, closed_form_holonomy_many,
                       composed_holonomy, linear_holonomy,
                       oseledets_directions, oseledets_field,
                       projective_distance)
from .certify import (Certificate, LogIntegralResult, MinorIndex,
                      all_minor_indices, log_integrability, minor,
                      pinching_d, twisting_d, weakly_pinching,
                      weakly_twisting)
from .tables import ResultTable
from .experiments import (ExperimentConfig, ExperimentOutput,
                          certification_pipeline, cmd_certify,
                          cmd_continuity_probe, cmd_lyapunov,
                          cmd_perturb_search, cmd_sweep_energy, fejer_bump,
                          load_experiment_config)

__all__ = [
    "__version__",
    "GOLDEN_MEAN", "as_word", "base_orbit", "circle_distance",
    "constant_word", "forward_agreement_index", "homoclinic_base_holonomy",
    "rotate", "single_flip_word", "stable_holonomy_offset", "wrap_unit",
    "DIAGONAL", "GENERAL", "GROUP_TAGS", "SCHRODINGER", "SL2",
    "RandomProduct", "TrigMatrixMap", "TrigPolynomial",
    "make_schrodinger", "rescale_diagonal", "right_rotate",
    "shift_potential", "word_product",
    "CocycleLabError", "ConfigError", "GroupTagError", "InvalidWordError",
    "NonInvertibleMapError", "NotHomoclinicError", "RenormalizationError",
    "UnsupportedPipelineError",
    "CocycleFile", "file_digest", "load_cocycle", "save_cocycle",
    "LyapunovEstimate", "diagonal_spectrum", "estimate_spectrum",
    "estimate_top_exponent", "mean_log_abs_det",
    "OseledetsDirections", "OseledetsField", "closed_form_holonomy",
    "closed_form_holonomy_many", "composed_holonomy", "linear_holonomy",
    "oseledets_directions", "oseledets_field", "projective_distance",
    "Certificate", "LogIntegralResult", "MinorIndex", "all_minor_indices",
    "log_integrability", "minor", "pinching_d", "twisting_d",
    "weakly_pinching", "weakly_twisting",
    "ResultTable",
    "ExperimentConfig", "ExperimentOutput", "certification_pipeline",
    "cmd_certify", "cmd_continuity_probe", "cmd_lyapunov",
    "cmd_perturb_search", "cmd_sweep_energy", "fejer_bump",
    "load_experiment_config",
]
