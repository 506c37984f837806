"""Physical constants and defaults shared across modules (SI units)."""

# CODATA 2018
BOLTZMANN = 1.380649e-23        # J/K (exact)
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m

ROOM_TEMPERATURE = 296.0        # K
SINGLE_ROD_ESCAPE_POWER = 0.041  # W, calibration point for the field factor
MIRROR_REFLECTIVITY = 0.72      # mirror geometry and detection chain
