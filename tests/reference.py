"""Independent reference implementation of the rate model.

Direct scalar transcription of the signal model: spherical-wave coefficient,
in-waveguide phase, per-antenna power with dielectric loss, SIC ordering and
per-user rates.  Kept deliberately free of any pinchsim import so the test
suite can check the package against code that shares nothing with it.
"""

import cmath
import math

C_LIGHT = 299792458.0


def euclid(a, b):
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


def reference_coeff(user, antenna, carrier_hz):
    """Spherical-wave coefficient eta * exp(-j 2 pi r / lambda) / r."""
    lam = C_LIGHT / carrier_hz
    eta = C_LIGHT / (4.0 * math.pi * carrier_hz)
    r = euclid(user, antenna)
    return eta * cmath.exp(-1j * 2.0 * math.pi * r / lam) / r


def reference_antenna_power(pt_watts, size, kappa_db_per_m, d_feed):
    """Transmit power of one of `size` active antennas, d_feed meters down
    the guide: P_t split equally, then kappa dB per meter of loss."""
    return (pt_watts / size) * 10.0 ** (-kappa_db_per_m * d_feed / 10.0)


def reference_user_channels(users, antennas, feed, pt_watts, kappa_db_per_m,
                            carrier_hz, n_eff):
    """Complex effective channel per user for the activated antenna points.

    users, antennas, feed: (x, y, z) tuples in meters.  Returns a list of
    complex scalars, one per user.  Empty antenna list gives all-zero channels.
    """
    if not antennas:
        return [0j for _ in users]
    lam_g = C_LIGHT / carrier_hz / n_eff
    size = len(antennas)
    channels = []
    for u in users:
        total = 0j
        for a in antennas:
            d_feed = euclid(feed, a)
            theta = 2.0 * math.pi * d_feed / lam_g
            p = reference_antenna_power(pt_watts, size, kappa_db_per_m, d_feed)
            coeff = reference_coeff(u, a, carrier_hz)
            total += coeff * cmath.exp(-1j * theta) * math.sqrt(p)
        channels.append(total)
    return channels


def reference_rates(gains, alpha, noise_watts):
    """Per-user rates under SIC given unsorted gains |h_n|^2.

    alpha is indexed by SIC rank (ascending gain).  Returns rates indexed by
    user, matching the tie rule "equal gains keep user order".
    """
    order = sorted(range(len(gains)), key=lambda i: (gains[i], i))
    n = len(gains)
    rates = [0.0] * n
    for m, user in enumerate(order):
        g = gains[user]
        interference = g * sum(alpha[m + 1:])
        rates[user] = math.log2(1.0 + alpha[m] * g / (interference + noise_watts))
    return rates


def reference_sum_rate(users, antennas, feed, pt_watts, noise_watts,
                       kappa_db_per_m, carrier_hz, n_eff, alpha):
    """Sum rate for one activation, computed end to end from coordinates."""
    channels = reference_user_channels(users, antennas, feed, pt_watts,
                                       kappa_db_per_m, carrier_hz, n_eff)
    gains = [abs(h) ** 2 for h in channels]
    if not antennas:
        return 0.0
    return sum(reference_rates(gains, alpha, noise_watts))
