"""hyperwave: a numerical laboratory for radial wave equations in
hyperboloidal similarity coordinates and the stability of self-similar
blowup in the equivariant Yang-Mills equation in odd dimensions.

Layers:
    model       closed-form constants, height function, potential, nonlinearity
    coeffs      wave-system coefficient functions and their identities
    geometry    inverse metric and Christoffel symbols of the coordinates
    grids       spectral collocation, quadrature, radial Sobolev norms
    halfwave    half-wave (de)composition and the exact half-wave evolution
    descent     descent operators, the free wave propagator, the FD oracle
    linstab     linearized operator, spectrum, rank-one projection, mode scan
    nonlinear   Cauchy data preparation and the blowup-stability experiment
    stepping    the integrating-factor (Lawson) RK4 step
    jets        truncated Taylor arithmetic for the identity residuals
    cli         command-line front end emitting CSV/JSON artifacts
"""

from .model import DimensionParams, make_params

__all__ = ["DimensionParams", "make_params"]
__version__ = "0.1.0"
