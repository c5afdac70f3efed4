"""Numerical verification of energies, densities and monotonicity
identities for capillary surfaces over the plane and in the unit ball.

The package re-exports nothing: callers import the submodule that
defines a name (``from capmono import halfspace``, ``capmono.cli``)."""
