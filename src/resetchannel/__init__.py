"""Numerical laboratory for reset-driven Floquet quantum channels: build the
channel from a spin-chain Hamiltonian plus periodic bath reset, analyze its
non-Hermitian spectrum (bulk laws, outliers, exceptional points, localization
discreteness, scar modes), and simulate information-decay observables under
repeated application.
"""

__version__ = "0.1.0"
