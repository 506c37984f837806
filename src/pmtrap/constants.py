"""Physical constants shared across modules (SI units, CODATA 2018)."""

BOLTZMANN = 1.380649e-23        # J/K (exact)
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
