"""Scalar BSDE solvers for concave Peano-type drivers, with the dual
control representation, pathwise lower-bound certificates, and the
power-transform reduction used for recursive-utility examples."""

__version__ = "0.1.0"

from .peano import (  # noqa: F401
    PeanoFunction,
    ConjugateValue,
    make_family,
    conjugate,
    inf_representation,
    tangent_control,
    integral_H,
    inverse_H,
    growth_bound_check,
    classify,
)

from .engine import (  # noqa: F401
    Deterministic,
    PathEnsemble,
    TerminalSpec,
    TimeGrid,
    conditional_expectation,
    girsanov_weights,
    sample_terminal,
    simulate_brownian,
)

from .solver import (  # noqa: F401
    GeneratorSpec,
    SolutionField,
    SolverError,
    SolverOptions,
    assumption_audit,
    maximal_solution,
    multiplicity_family,
    solve_backward_euler,
    solve_deterministic_ode,
    spec_from_family,
    spec_power,
    spec_sqrt,
    spec_sqrt_plus_time,
    spec_zero,
    with_lipschitz_part,
)

from .control import (  # noqa: F401
    CertificateReport,
    ControlProcess,
    DualityReport,
    admissibility_check,
    constant_control,
    duality_gap,
    f_star,
    feedback_control,
    lower_bound_certificate,
    solve_controlled,
)

from .transform import (  # noqa: F401
    EZParams,
    SpecialGenerator,
    SpecialSolveResult,
    change_of_variables,
    ez_closed_form,
    ez_to_special,
    invert_change_of_variables,
    solve_special,
    special_driver,
    theta_difference_check,
    transformed_generator,
)


def __getattr__(name):
    # cli is loaded on first use, so `python -m peanobsde.cli` does not find
    # it already imported by the package
    if name == "cli_main":
        from .cli import main
        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
