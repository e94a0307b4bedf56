"""Exception hierarchy shared across the package.

Every error that callers are expected to catch derives from LatticeSecError.
DomainError marks bad arguments (the CLI maps it to a usage failure),
the remaining classes mark violated invariants discovered at run time
(the CLI maps those to exit code 3). positive_int is the one check of
integer arguments.
"""

import operator


class LatticeSecError(Exception):
    """Base class for all package errors."""


class DomainError(LatticeSecError, ValueError):
    """An argument lies outside the documented domain of an operation."""


def positive_int(value, name: str) -> int:
    """value as a Python int if it is an integer of any type (anything
    with __index__, numpy's included) and at least 1; a bool, a float or
    a smaller integer raises DomainError."""
    try:
        index = operator.index(value)
    except TypeError:
        index = 0
    if isinstance(value, bool) or index < 1:
        raise DomainError("%s must be a positive integer" % name)
    return index


class InternalConsistencyError(LatticeSecError):
    """A computed quantity violates a mathematical identity it must satisfy.

    Raised e.g. when the z-variable evaluates above 1/4 by more than the
    truncation tolerance allows, which signals a theta-evaluation bug
    rather than a caller mistake.
    """


class EvaluationError(LatticeSecError):
    """A polynomial evaluation produced a value outside its valid range."""


class DiversityError(LatticeSecError):
    """A nonzero lattice vector has a (numerically) zero coordinate.

    Full-diversity constructions guarantee all coordinates of nonzero
    vectors are bounded away from zero; hitting this means the generator
    matrix is not fully diverse and inverse-norm sums are undefined.
    """

    def __init__(self, coeff_vector, coordinate_index, value):
        self.coeff_vector = tuple(int(c) for c in coeff_vector)
        self.coordinate_index = int(coordinate_index)
        self.value = float(value)
        super().__init__(
            "diversity failure: coefficient vector %s maps to coordinate %d "
            "with |value| = %.3e < 1e-12" % (
                list(self.coeff_vector), self.coordinate_index, abs(self.value))
        )


class ConstructionError(LatticeSecError):
    """A lattice construction failed one of its acceptance invariants."""
