"""Suite-wide test settings and the replay of a deal's master polynomials.

Hypothesis derives its examples from each test's name instead of a random
seed, so every run of the suite tries the same inputs.
"""

from hypothesis import settings

from crtdhss.fieldpoly import Poly

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def dealt_masters(structure, params, secret, rng):
    """f_1..f_m of a deal made with `rng` in this state, replayed from the draw order.

    A deal's first draws are alpha_1..alpha_m, K_l - d0 calls of rng.randrange(p) each,
    where K_l = d_1 + ... + d_{t_l}; f_l = Poly(p, secret | alpha_l). The dealer keeps
    f_l to itself, so tests rebuild it here; `rng` is left just past alpha_m.
    """
    masters = []
    for t in structure.thresholds:
        alpha = tuple(rng.randrange(params.p) for _ in range(sum(params.degrees[:t]) - params.d0))
        masters.append(Poly(params.p, tuple(secret) + alpha))
    return tuple(masters)
