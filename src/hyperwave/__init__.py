"""hyperwave: a numerical laboratory for radial wave equations in
hyperboloidal similarity coordinates and the stability of self-similar
blowup in the equivariant Yang-Mills equation in odd dimensions.

Layers:
    model       closed-form constants, coordinates, profile, potential
    coeffs      wave-system coefficient functions and their identities
    geometry    spacetime tensors of the similarity coordinates
    grids       spectral collocation, quadrature, radial Sobolev norms
    halfwave    1-d transport fields and the exact half-wave evolution
    descent     dimension-lowering operators and the free wave propagator
    linstab     linearized operator, spectrum, rank-one projection, mode ODE
    nonlinear   Cauchy data preparation and the blowup-stability experiment
    cli         command-line front end emitting CSV/JSON artifacts
"""

from .model import DimensionParams, make_params

__all__ = ["DimensionParams", "make_params"]
__version__ = "0.1.0"
