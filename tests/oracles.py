"""Reference representations of zeta that the package itself does not use.

Tests compare the package's port-block determinant against these, so they
take nothing from opendicke.matrices: the inputs are PhaseData and
ModelParams, and a signature is any object with sign_a and sign_b.
"""

from __future__ import annotations

import numpy as np


def zeta_quartic_coeffs(phase_data, params, signature=None) -> np.ndarray:
    """Quartic coefficients of zeta for constant rates, omega^4 first.

    The product of the two port quadratics

        (omega^2 + i gamma_a omega - omega_a^2)
        (omega^2 + i gamma_b omega - omega_b~^2 - 4 d omega_b~),

    with the signature signs on the rates (None is (+1, +1)) and the
    constant term replaced by zeta(0) = omega_a^2 (omega_b~^2 + 4 d omega_b~)
    - 4 g~^2 omega_a omega_b~, which carries the coupling. gamma_b is
    PhaseData.gamma_b_tilde_amp: the bare amplitude in the normal phase, the
    saturated one above the transition. Only defined for ohmic baths (s = 0
    on both ports).
    """
    if params.bath_a.exponent_s != 0.0 or params.bath_b.exponent_s != 0.0:
        raise ValueError("quartic coefficients require ohmic baths (s = 0)")
    sign_a, sign_b = (1, 1) if signature is None else (signature.sign_a, signature.sign_b)
    wa, wbt = params.omega_a, phase_data.omega_b_tilde
    gt, d = phase_data.g_tilde, phase_data.d_term
    coeffs = np.polymul(
        [1.0, 1j * (sign_a * params.bath_a.gamma0), -(wa**2)],
        [1.0, 1j * (sign_b * phase_data.gamma_b_tilde_amp), -(wbt**2 + 4.0 * d * wbt)],
    )
    coeffs[-1] = wa**2 * (wbt**2 + 4.0 * d * wbt) - 4.0 * gt**2 * wa * wbt
    return coeffs
