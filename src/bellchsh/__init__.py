"""Numerics for Bell-CHSH violations of singlets, squeezed states and
the accelerated vacuum.

The package builds CHSH operator quadruples from phase-flip
constructions on finite and truncated-Fock spaces, evaluates the
correlator both in closed form and through the explicit matrices, and
parametrizes the field-theory violation by the Unruh temperature.
"""

from .chsh import (
    AngleSet,
    ChshQuadruple,
    ClosedFormCorrelator,
    FactoredOperator,
    Ket,
    TSIRELSON_BOUND,
    ValidationReport,
    chsh_value,
    flip_quadruple,
    optimize_angles,
    phase_flip,
    validate_quadruple,
    wrap_angle,
)
from .errors import DomainError, PrecisionError, ShapeError
from .fock import (
    BogoliubovPair,
    FockSpace,
    MAX_CUTOFF,
    MAX_VIOLATION_ANGLES,
    SqueezedState,
    VIOLATION_WINDOW,
    bogoliubov_pair,
    chsh_closed,
    chsh_matrix,
    fock_quadruple,
    squeezed_closed_form,
    squeezed_hamiltonian,
    squeezed_state,
)
from .kleingordon import (
    GaussianPacket,
    MAX_MOMENTUM,
    MAX_RADIAL,
    NormEstimate,
    ShellQuadrature,
    normalize,
    shell_inner_product,
    sigma_chsh,
    test_norm,
)
from .rindler import (
    RindlerModeSet,
    ScanRow,
    rindler_chsh,
    tau,
    temperature_scan,
    unruh_temperature,
)
from .spin import (
    SPIN_HALF,
    SPIN_ONE,
    SPIN_ONE_VIOLATION_ANGLES,
    TSIRELSON_ANGLES,
    singlet,
    spin_closed_form,
    spin_quadruple,
)

__version__ = "0.1.0"
