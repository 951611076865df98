"""A system's vector field on state arrays, shared by the test modules."""

from fracsync.systems import componentwise


def field_on(system, state):
    """`system`'s field on a state array of shape (..., d), through the package's array adaptor."""
    return componentwise(lambda s: system.rhs(0.0, s), state)
