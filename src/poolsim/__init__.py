"""Utility-driven task dispatch across heterogeneous server pools.

The package simulates finite systems of infinite-capacity pools under several
dispatch policies, computes the static utility ceiling any policy must respect,
and integrates the matching large-system dynamics. Names are imported from
their modules (``poolsim.sim``, ``poolsim.fluid``, ...); the package itself
holds only ``__version__``.
"""

__version__ = "0.1.0"
