"""Astrophysics UDFs (Section 6.4 case study).

The paper evaluates three scalar UDFs taken from the IDL Astronomy Library
and applied to SDSS data: ``AngDist`` (2-D, very fast), ``GalAge`` (1-D,
~0.3 ms) and ``ComoveVol`` (2-D, ~1.8 ms).  The IDL library is proprietary /
external code; this module implements the same standard flat-ΛCDM cosmology
quantities from first principles (numerical quadrature of the Friedmann
equation), so that the functions have the same mathematical shape and the
same "expensive numerical integration" character.  They are exposed as
black-box :class:`~repro.udf.base.UDF` objects exactly as the framework
expects.

Cosmological conventions: flat universe with matter density ``omega_m``,
dark-energy density ``1 - omega_m``, Hubble constant ``h0`` in km/s/Mpc.

``scipy.integrate`` is imported inside the three integrals that use it, so
importing this module (and ``repro``) does not load it; the first UDF call
does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import UDFError
from repro.udf.base import UDF

#: Speed of light in km/s.
SPEED_OF_LIGHT_KM_S = 299_792.458

#: Conversion from 1/H0 (s Mpc / km) to Gyr.
_HUBBLE_TIME_GYR_PER_100 = 9.778  # 1/(100 km/s/Mpc) expressed in Gyr


@dataclass(frozen=True)
class Cosmology:
    """Flat ΛCDM cosmological model."""

    h0: float = 70.0
    omega_m: float = 0.3

    def __post_init__(self) -> None:
        if self.h0 <= 0:
            raise UDFError(f"H0 must be positive, got {self.h0}")
        if not (0.0 < self.omega_m < 1.0):
            raise UDFError(f"omega_m must be in (0, 1), got {self.omega_m}")

    @property
    def omega_lambda(self) -> float:
        """Dark-energy density of the flat model."""
        return 1.0 - self.omega_m

    @property
    def hubble_time_gyr(self) -> float:
        """``1 / H0`` expressed in Gyr."""
        return _HUBBLE_TIME_GYR_PER_100 * 100.0 / self.h0

    @property
    def hubble_distance_mpc(self) -> float:
        """``c / H0`` in Mpc."""
        return SPEED_OF_LIGHT_KM_S / self.h0

    def efunc(self, z: float) -> float:
        """Dimensionless Hubble parameter ``E(z) = H(z)/H0``."""
        zp1 = 1.0 + z
        return math.sqrt(self.omega_m * zp1**3 + self.omega_lambda)

    # -- integrated quantities ------------------------------------------------
    def galaxy_age_gyr(self, z: float) -> float:
        """Age of the universe (Gyr) at redshift ``z`` — the GalAge UDF.

        ``t(z) = (1/H0) * ∫_z^∞ dz' / [(1+z') E(z')]`` computed by adaptive
        quadrature after the substitution ``a = 1/(1+z')`` which maps the
        infinite redshift range onto ``a ∈ (0, 1/(1+z)]``.
        """
        if z < 0:
            raise UDFError(f"redshift must be non-negative, got {z}")

        def integrand(a: float) -> float:
            # dt = da / (a H(a)); H(a)/H0 = sqrt(Om a^-3 + OL)
            return 1.0 / (a * math.sqrt(self.omega_m / a**3 + self.omega_lambda))

        from scipy import integrate

        upper = 1.0 / (1.0 + z)
        value, _ = integrate.quad(integrand, 0.0, upper, limit=200)
        return self.hubble_time_gyr * value

    def comoving_distance_mpc(self, z: float) -> float:
        """Line-of-sight comoving distance (Mpc) to redshift ``z``."""
        if z < 0:
            raise UDFError(f"redshift must be non-negative, got {z}")
        from scipy import integrate

        value, _ = integrate.quad(lambda zp: 1.0 / self.efunc(zp), 0.0, z, limit=200)
        return self.hubble_distance_mpc * value

    def comoving_distance_mpc_dense(self, z: float, n_steps: int = 20001) -> float:
        """Comoving distance via dense composite Simpson integration.

        This mirrors the tabulated-integration style of the original IDL
        astronomy routines, which makes ``ComoveVol`` markedly slower than
        ``GalAge`` (the ordering reported in the paper's case-study table).
        Accuracy matches :meth:`comoving_distance_mpc` to many digits.
        """
        if z < 0:
            raise UDFError(f"redshift must be non-negative, got {z}")
        if z == 0:
            return 0.0
        from scipy import integrate

        grid = np.linspace(0.0, z, n_steps)
        integrand = 1.0 / np.sqrt(self.omega_m * (1.0 + grid) ** 3 + self.omega_lambda)
        value = float(integrate.simpson(integrand, x=grid))
        return self.hubble_distance_mpc * value

    def comoving_volume_mpc3(self, z_low: float, z_high: float, area_sr: float) -> float:
        """Comoving volume (Mpc^3) between two redshifts over ``area_sr`` steradians.

        This is the ComoveVol UDF of query Q2.  The order of the redshift
        arguments does not matter; the volume of the shell between them is
        returned.
        """
        if area_sr <= 0:
            raise UDFError(f"area must be positive steradians, got {area_sr}")
        z_lo, z_hi = sorted((float(z_low), float(z_high)))
        d_lo = self.comoving_distance_mpc_dense(z_lo)
        d_hi = self.comoving_distance_mpc_dense(z_hi)
        return area_sr / 3.0 * (d_hi**3 - d_lo**3)

    def luminosity_distance_mpc(self, z: float) -> float:
        """Luminosity distance (Mpc): ``(1+z) * D_C`` in a flat universe."""
        return (1.0 + z) * self.comoving_distance_mpc(z)

    def angular_diameter_distance_mpc(self, z: float) -> float:
        """Angular-diameter distance (Mpc): ``D_C / (1+z)`` in a flat universe."""
        return self.comoving_distance_mpc(z) / (1.0 + z)

    def distance_modulus(self, z: float) -> float:
        """Distance modulus ``5 log10(D_L / 10 pc)``."""
        d_l = self.luminosity_distance_mpc(z)
        if d_l <= 0:
            raise UDFError("distance modulus undefined at z = 0")
        return 5.0 * math.log10(d_l * 1e5)

    def lookback_time_gyr(self, z: float) -> float:
        """Lookback time (Gyr) to redshift ``z``."""
        return self.galaxy_age_gyr(0.0) - self.galaxy_age_gyr(z)


def angular_separation_deg(ra1: float, dec1: float, ra2: float, dec2: float) -> float:
    """Great-circle separation (degrees) of two sky positions given in degrees.

    Uses the Vincenty formula, which is numerically stable for both very
    small and near-antipodal separations (this is the ``gcirc``-style
    computation behind the paper's ``Distance`` / ``AngDist`` UDFs).
    """
    ra1_r, dec1_r, ra2_r, dec2_r = np.radians([ra1, dec1, ra2, dec2])
    d_ra = ra2_r - ra1_r
    sin_d1, cos_d1 = math.sin(dec1_r), math.cos(dec1_r)
    sin_d2, cos_d2 = math.sin(dec2_r), math.cos(dec2_r)
    num = math.hypot(cos_d2 * math.sin(d_ra), cos_d1 * sin_d2 - sin_d1 * cos_d2 * math.cos(d_ra))
    den = sin_d1 * sin_d2 + cos_d1 * cos_d2 * math.cos(d_ra)
    return math.degrees(math.atan2(num, den))


# ---------------------------------------------------------------------------
# Black-box UDF factories matching the paper's case-study table.
# ---------------------------------------------------------------------------

#: Default survey area for ComoveVol, in steradians (a few hundred square
#: degrees, typical of an SDSS stripe).
DEFAULT_AREA_SR = 0.1

#: Redshift range of the synthetic SDSS workload.
REDSHIFT_RANGE = (0.01, 1.5)

#: Sky-offset range (degrees) for the AngDist workload.
ANGLE_OFFSET_RANGE = (-2.0, 2.0)


def galage_udf(cosmology: Cosmology | None = None) -> UDF:
    """``GalAge(redshift)`` — 1-D UDF returning the galaxy age in Gyr (Q1)."""
    cosmo = cosmology or Cosmology()
    low = np.array([REDSHIFT_RANGE[0]])
    high = np.array([REDSHIFT_RANGE[1]])
    return UDF(
        lambda x: cosmo.galaxy_age_gyr(float(np.asarray(x).ravel()[0])),
        dimension=1,
        name="GalAge",
        vectorized=False,
        domain=(low, high),
    )


def comove_vol_udf(area_sr: float = DEFAULT_AREA_SR, cosmology: Cosmology | None = None) -> UDF:
    """``ComoveVol(z1, z2, AREA)`` — 2-D UDF returning comoving volume (Q2)."""
    cosmo = cosmology or Cosmology()

    def _eval(x: np.ndarray) -> float:
        z1, z2 = np.asarray(x, dtype=float).ravel()[:2]
        return cosmo.comoving_volume_mpc3(z1, z2, area_sr)

    low = np.array([REDSHIFT_RANGE[0], REDSHIFT_RANGE[0]])
    high = np.array([REDSHIFT_RANGE[1], REDSHIFT_RANGE[1]])
    return UDF(_eval, dimension=2, name="ComoveVol", vectorized=False, domain=(low, high))


def angdist_udf(ra_center: float = 180.0, dec_center: float = 30.0) -> UDF:
    """``AngDist(d_ra, d_dec)`` — 2-D UDF for the angular separation (degrees).

    The inputs are a galaxy's RA/Dec offsets (degrees) from a reference
    direction; the output is the great-circle separation from that reference.
    This mirrors the fast trigonometric sky-distance computation of the
    paper's table (dimension 2, microsecond evaluation time).
    """

    def _eval(x: np.ndarray) -> float:
        d_ra, d_dec = np.asarray(x, dtype=float).ravel()[:2]
        return angular_separation_deg(ra_center, dec_center, ra_center + d_ra, dec_center + d_dec)

    low = np.array([ANGLE_OFFSET_RANGE[0], ANGLE_OFFSET_RANGE[0]])
    high = np.array([ANGLE_OFFSET_RANGE[1], ANGLE_OFFSET_RANGE[1]])
    return UDF(_eval, dimension=2, name="AngDist", vectorized=False, domain=(low, high))


def sky_distance_udf() -> UDF:
    """``Distance(ra1, dec1, ra2, dec2)`` — 4-D pairwise sky separation (Q2)."""

    def _eval(x: np.ndarray) -> float:
        ra1, dec1, ra2, dec2 = np.asarray(x, dtype=float).ravel()[:4]
        return angular_separation_deg(ra1, dec1, ra2, dec2)

    low = np.array([0.0, -10.0, 0.0, -10.0])
    high = np.array([360.0, 70.0, 360.0, 70.0])
    return UDF(_eval, dimension=4, name="Distance", vectorized=False, domain=(low, high))


def lookback_time_udf(cosmology: Cosmology | None = None) -> UDF:
    """``LookbackTime(redshift)`` — additional 1-D cosmology UDF."""
    cosmo = cosmology or Cosmology()
    low = np.array([REDSHIFT_RANGE[0]])
    high = np.array([REDSHIFT_RANGE[1]])
    return UDF(
        lambda x: cosmo.lookback_time_gyr(float(np.asarray(x).ravel()[0])),
        dimension=1,
        name="LookbackTime",
        vectorized=False,
        domain=(low, high),
    )


def distance_modulus_udf(cosmology: Cosmology | None = None) -> UDF:
    """``DistMod(redshift)`` — additional 1-D cosmology UDF (magnitudes)."""
    cosmo = cosmology or Cosmology()
    low = np.array([REDSHIFT_RANGE[0]])
    high = np.array([REDSHIFT_RANGE[1]])
    return UDF(
        lambda x: cosmo.distance_modulus(float(np.asarray(x).ravel()[0])),
        dimension=1,
        name="DistMod",
        vectorized=False,
        domain=(low, high),
    )


def case_study_udfs() -> dict[str, UDF]:
    """The three UDFs of the §6.4 case-study table, keyed by name."""
    return {
        "AngDist": angdist_udf(),
        "GalAge": galage_udf(),
        "ComoveVol": comove_vol_udf(),
    }
