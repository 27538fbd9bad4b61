"""Finite-scale momentum-map pairs: exact algebra, grid identities, peakons.

Layers, from the bottom up:

* :mod:`dualpairs.symplectic` — canonical linear algebra on R^(2n) and
  symplectic time stepping;
* :mod:`dualpairs.polyalg` — exact rational polynomial observables, their
  Poisson bracket, Hamiltonian fields, and the centrally extended bracket;
* :mod:`dualpairs.fields` — maps from a grid source into phase space with
  both momentum pairings, the fiber pairing, and the group actions;
* :mod:`dualpairs.peakons` — singular (point/filament) collective dynamics;
* :mod:`dualpairs.bridge` — the covector-field correspondence tying the
  previous two layers together;
* :mod:`dualpairs.verify` / :mod:`dualpairs.cli` — identity suites,
  convergence studies, and the command-line runner.
"""

from .bridge import (
    CovectorField,
    ResidualReport,
    VectorField,
    covector_pairing,
    field_bracket,
    momentum_bracket_residual,
    momentum_function,
    momentum_pairing_residual,
    symplectic_pairing_residual,
    transport_residual,
)
from .errors import SolverDivergenceError
from .fields import (
    CellTwoForm,
    ChainSource,
    GridSource,
    GridSymmetry,
    MapField,
    StreamFunction,
    TangentField,
    equivariance_residual,
    fiber_pairing,
    integrated_observable,
    integrated_omega,
    left_act,
    left_generator,
    nodewise_linear,
    orthogonality_residual,
    pullback_omega,
    right_act,
    right_act_stream,
    right_generator,
    right_momentum_pair,
)
from .peakons import (
    FilamentState,
    SingularState,
    Trajectory,
    collective_hamiltonian,
    filament_current,
    integrate,
    pair_with_field,
    reparametrize,
)
from .polyalg import (
    ExtendedElement,
    RationalPoly,
    central_cocycle,
    cocycle_identity_residual,
    extended_bracket,
    field_omega,
    hamiltonian_field,
    is_hamiltonian_field,
    jacobi_lie_bracket,
    normalize_at,
    opposite_bracket,
    p_var,
    poisson_bracket,
    q_var,
    random_poly,
    to_extension,
)
from .symplectic import (
    METHODS,
    FlowSpec,
    Observable,
    advance,
    canonical_omega,
    flow,
    hamiltonian_vector_field,
    phase_point,
    poisson_bracket_value,
)

__version__ = "0.1.0"
