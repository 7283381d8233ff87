"""Physical parameter record, unit conventions and two-mode phase classification.

All rates and frequencies held by :class:`SystemParams` are angular (rad/s);
:mod:`magnomech.config` converts cyclic (Hz) input.

Sign convention: ``kappa_a > 0`` is a gain (active) cavity, ``kappa_a < 0``
a lossy one; the magnon and mechanical rates are always positive losses.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError

TWO_PI = 2.0 * math.pi
hbar = 6.62607015e-34 / TWO_PI  # J s, exact in SI
k_B = 1.380649e-23  # J/K, exact in SI

#: Electron gyromagnetic ratio, 2*pi * 28 GHz/T.
GYROMAGNETIC_RATIO = TWO_PI * 28e9

#: Relative tolerance of the exceptional-point classification.
EP_REL_TOL = 1e-9

#: SystemParams fields held in rad/s.
ANGULAR_FIELDS = (
    "omega_a", "omega_m", "omega_b", "delta_a", "delta_m", "delta_m_eff",
    "kappa_a", "kappa_m", "gamma_b", "g_ma", "g_mb", "G_eff", "epsilon_d",
)


class PTRegime(enum.Enum):
    """Phase of the two-mode photon-magnon subsystem."""

    UNBROKEN = "Unbroken"
    EXCEPTIONAL_POINT = "ExceptionalPoint"
    BROKEN = "Broken"


@dataclass(frozen=True)
class PTPhase:
    """Classification result with the raw margin 2*g_ma - (kappa_a + kappa_m)."""

    regime: PTRegime
    margin: float

    @property
    def tag(self) -> str:
        return self.regime.value


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein mean occupation 1/(exp(hbar*omega/kB*T) - 1).

    ``omega`` is angular (rad/s), ``temperature`` in kelvin. Returns 0 at T=0
    and below ~1.8e-301 K, where k_B*T underflows to 0. Once exp(x) overflows
    a double (x > ~709.78), the occupation is exp(-x) to working precision,
    which underflows toward 0 as T goes to 0. Where x underflows to 0 at
    T > 0 (omega below ~5e-290 rad/s), k_B*T/(hbar*omega) exceeds every
    double and the occupation is inf.
    """
    if not (math.isfinite(omega) and math.isfinite(temperature)):
        raise ParameterError("thermal_occupation: non-finite input")
    if omega <= 0.0:
        raise ParameterError("thermal_occupation: omega must be positive")
    if temperature < 0.0:
        raise ParameterError("thermal_occupation: negative temperature")
    if k_B * temperature == 0.0:
        return 0.0
    x = hbar * omega / (k_B * temperature)
    if x == 0.0:
        return math.inf
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        return math.exp(-x)


def sphere_volume(diameter: float) -> float:
    """Volume of a sphere of the given diameter."""
    return math.pi / 6.0 * diameter**3


def rabi_frequency(b0: float, sphere_diameter: float, spin_density: float) -> float:
    """Drive amplitude (rad/s) of a magnetically driven sphere of spins.

    epsilon = (sqrt(5)/4) * gamma_g * sqrt(rho * V) * B0, with V the sphere
    volume and gamma_g the electron gyromagnetic ratio.
    """
    for name, val in (("b0", b0), ("sphere_diameter", sphere_diameter),
                      ("spin_density", spin_density)):
        if not (math.isfinite(val) and val > 0.0):
            raise ParameterError(f"rabi_frequency: {name} must be finite and > 0")
    n_total = spin_density * sphere_volume(sphere_diameter)
    return math.sqrt(5.0) / 4.0 * GYROMAGNETIC_RATIO * math.sqrt(n_total) * b0


def pt_classify(g_ma: float, kappa_a: float, kappa_m: float) -> PTPhase:
    """Classify the photon-magnon pair by comparing 2*g_ma with kappa_a + kappa_m.

    Within ``EP_REL_TOL * (kappa_a + kappa_m)`` of the balance point the result
    is the exceptional point; beyond it the phase is unbroken (2*g_ma larger)
    or broken (smaller).
    """
    if kappa_m <= 0.0:
        raise ParameterError("pt_classify: kappa_m must be positive")
    # An overflowing kappa_a + kappa_m is compared halved: halving rates
    # that large is exact.
    scale = 1.0 if math.isfinite(kappa_a + kappa_m) else 0.5
    total = scale * kappa_a + scale * kappa_m
    margin = 2.0 * scale * g_ma - total
    if abs(margin) <= EP_REL_TOL * abs(total):
        regime = PTRegime.EXCEPTIONAL_POINT
    elif margin > 0.0:
        regime = PTRegime.UNBROKEN
    else:
        regime = PTRegime.BROKEN
    return PTPhase(regime=regime, margin=margin / scale)


def two_mode_eigenfrequencies(delta: float, kappa_a: float, kappa_m: float,
                              g_ma: float) -> tuple[complex, complex]:
    """Complex eigenfrequencies of the coupled photon-magnon pair.

    omega_pm = -delta - i*(kappa_m - kappa_a)/2 +/- sqrt(g_ma^2 - (kappa_a+kappa_m)^2/4)
    with the square root taken in the complex plane.
    """
    for val in (delta, kappa_a, kappa_m, g_ma):
        if not math.isfinite(val):
            raise ParameterError("two_mode_eigenfrequencies: non-finite input")
    base = -delta - 0.5j * (kappa_m - kappa_a)
    try:
        root = cmath.sqrt(complex(g_ma**2 - 0.25 * (kappa_a + kappa_m) ** 2))
    except OverflowError:  # a finite float's square
        root = complex(math.inf)
    roots = base + root, base - root
    if not all(map(cmath.isfinite, roots)):
        raise ParameterError(
            f"two_mode_eigenfrequencies: eigenfrequencies overflow at delta = "
            f"{delta}, kappa_a = {kappa_a}, kappa_m = {kappa_m}, g_ma = {g_ma}")
    return roots


def parameter_violations(values):
    """Each rule of a valid :class:`SystemParams`, as (violated, message).

    ``values`` maps every field name to None or a number. Numbers may also be
    arrays with one entry per point, and "violated" is then a mask over the
    points. Rules come in the order they are checked.
    """
    given = [name for name, val in values.items() if val is not None]
    not_finite = ~np.isfinite(np.array([values[name] for name in given],
                                       dtype=np.float64))
    for name, violated in zip(given, not_finite):
        yield violated, f"SystemParams.{name} is not finite"
    yield values["omega_a"] <= 0.0, "omega_a must be positive"
    yield values["omega_m"] <= 0.0, "omega_m must be positive"
    yield values["kappa_m"] <= 0.0, "kappa_m must be positive"
    yield values["gamma_b"] <= 0.0, "gamma_b must be positive"
    yield values["omega_b"] <= 0.0, "omega_b must be positive"
    yield ((values["g_ma"] < 0.0) | (values["g_mb"] < 0.0),
           "coupling rates must be non-negative")
    yield values["temperature"] < 0.0, "temperature must be non-negative"
    has_g = values["G_eff"] is not None
    has_drive = values["epsilon_d"] is not None and values["g_mb"] > 0.0
    yield (has_g == has_drive,
           "exactly one of G_eff or (epsilon_d with g_mb > 0) must be given")
    if has_g:
        yield values["G_eff"] < 0.0, "G_eff must be non-negative"
    if values["epsilon_d"] is not None:
        yield values["epsilon_d"] < 0.0, "epsilon_d must be non-negative"
    yield (values["delta_m_eff"] is None and values["delta_m"] is None,
           "delta_m is required when delta_m_eff is self-consistent")


@dataclass(frozen=True)
class SystemParams:
    """All physical rates and detunings of the three-mode system, in rad/s.

    ``delta_m_eff=None`` marks self-consistent mode (the effective magnon
    detuning is computed from the steady state; ``delta_m`` must then be set).
    ``G_eff=None`` marks derive-from-drive mode (the effective magnomechanical
    coupling comes from ``epsilon_d`` and ``g_mb``). Exactly one of ``G_eff``
    and ``epsilon_d`` must be supplied.
    """

    omega_a: float
    omega_m: float
    omega_b: float
    delta_a: float
    kappa_a: float
    kappa_m: float
    gamma_b: float
    g_ma: float
    g_mb: float
    temperature: float
    delta_m_eff: float | None = None
    delta_m: float | None = None
    G_eff: float | None = None
    epsilon_d: float | None = None

    def __post_init__(self) -> None:
        for violated, message in parameter_violations(vars(self)):
            if violated:
                raise ParameterError(message)

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)

    def columns(self, n: int = 1) -> dict:
        """The fields as batch columns: None or an n-vector per field."""
        given = {name: value for name, value in vars(self).items()
                 if value is not None}
        block = np.repeat(np.array(list(given.values()), dtype=np.float64)[:, None],
                          n, axis=1)
        columns = dict.fromkeys(vars(self))
        columns.update(zip(given, block))
        return columns

    def pt_phase(self) -> PTPhase:
        return pt_classify(self.g_ma, self.kappa_a, self.kappa_m)
