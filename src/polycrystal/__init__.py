"""Polyhedral realizations of highest-weight crystals over symmetrizable
Kac-Moody root data: inequality-system generation, explicit crystal
operators on the infinite lattice, exact enumeration, and multiplicities,
with classical brute-force oracles for verification."""

from .cartan import (
    CartanData,
    InvalidCartanError,
    Weight,
    affine_a,
    build_cartan,
    custom,
    fundamental,
    rank2,
    type_a,
    weight,
    zero_weight,
)
from .crystal import (
    B_INFINITY,
    HIGHEST_WEIGHT,
    MINUS_INFINITY,
    ZERO,
    Elementary,
    LatticeElem,
    LatticePoint,
    RElem,
    TensorElem,
    WeightExpr,
    e_tilde,
    epsilon,
    f_tilde,
    lattice_graph_dot,
    phi,
    sigma,
    sigma0,
    sigma_max,
    tensor,
    weight as crystal_weight,
)
from .iota import IotaSequence, standard_iota
from .linforms import (
    HAT,
    PLAIN,
    AmpleReport,
    BudgetExceededError,
    FormSet,
    LinForm,
    PositivityReport,
    beta_minus,
    beta_plus,
    check_ample,
    check_positivity,
    generate_closure,
    hat_system,
    lambda_form,
    s_hat,
    s_plain,
    xi_form,
)
from .realization import (
    CartanNotInvertibleError,
    IncompleteEnumerationError,
    NotAmpleError,
    RealizationResult,
    StrictPositivityViolatedError,
    enumerate_blambda,
    epsilon_star,
    lr_coefficient,
    member,
    tensor_multiplicities,
    weight_multiplicity,
)
from .special import (
    AdmissibleMatrix,
    ChebCoeffs,
    affine_a_system,
    an_system,
    cheb_a,
    enumerate_admissible,
    rank2_system,
)
from .oracle import NotFiniteTypeError, char_product_lr, freudenthal, weyl_dim

__version__ = "0.1.0"
