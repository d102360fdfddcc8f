"""Predictor feedback for diagonal boundary control systems with uncertain
input delay: gain synthesis, numeric stability certificates, closed-loop
simulation, and empirical verification of exponential ISS envelopes.
"""

from .controller import (
    ControlHistory,
    ControllerError,
    PredictorController,
    predictor_taps,
    transition,
)
from .errors import SpecpredError
from .iss_certifier import (
    CertifierError,
    Lemma2Problem,
    check_envelopes,
    fading_memory_sup,
    fit_constants,
    fit_decay_rate,
    lemma2_validate,
    windowed_fading_sup,
)
from .sim_engine import (
    DelaySignal,
    DisturbanceSignal,
    Scenario,
    ScenarioError,
    Trajectory,
    artstein_residual,
    artstein_transform,
    default_mode_count,
    load_scenario,
    make_delay,
    make_disturbance,
    oracle_simulate,
    save_scenario,
    simulate,
    state_norm,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .spectral_model import (
    SpectrumError,
    SystemDescriptor,
    TruncatedModel,
    build_reaction_diffusion,
    classify_modes,
    modal_input_coeffs,
    truncated_model,
)
from .synthesis import (
    Certificate,
    SynthesisError,
    decay_envelope,
    delta_margin,
    iss_constants,
    load_certificate,
    place_gain,
    save_certificate,
    sigma_rate,
    synthesize_certificate,
)

__version__ = "0.1.0"
