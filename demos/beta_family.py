"""Walkthrough for the pure-jump family with Gamma-ratio exponent.

The depth-sum law H is a Gauss hypergeometric function here, so the
threshold is one root solve on a closed form.  At beta = 2 the family
collapses to a drifting Brownian motion, which gives an exact cross-check
of the 2F1 route; at beta = 1.5 the simulation runs on a compound-jump
approximation.

    python3 demos/beta_family.py
"""

import math

from lastzero import (
    BetaFamily,
    BrownianDrift,
    McConfig,
    estimate_expected_g,
    infimum_pair_sum_median,
    solve,
)


def main():
    # beta = 2: the 2F1 form of H vs the equivalent diffusion
    family = BetaFamily(2.0)
    equiv = family.brownian_equivalent()
    _, rule_num = solve(family)
    _, rule_ref = solve(equiv)
    print("beta = 2 against its equivalent diffusion:")
    print(f"  2F1 (beta) a*     : {rule_num.a_star:.10f}")
    print(f"  Brownian a*       : {rule_ref.a_star:.10f}")
    print(f"  difference        : {abs(rule_num.a_star - rule_ref.a_star):.2e}")
    print(f"  x0 = ln 2         : {rule_num.x0:.10f} vs {math.log(2.0):.10f}")
    print()

    # beta = 1.5: property summary plus simulation cross-checks
    family = BetaFamily(1.5)
    ev, rule = solve(family)
    p1, p2 = family.psi_derivatives()
    print("beta = 1.5:")
    print(f"  psi'(0+)          : {p1:.6f}")
    print(f"  psi''(0+)         : {p2:.6f}  (= 4 - 4 ln 2)")
    print(f"  x0                : {rule.x0:.6f}")
    print(f"  a*                : {rule.a_star:.6f}")
    print(f"  regime            : {rule.regime.value}")
    print()

    med, sums = infimum_pair_sum_median(
        BetaFamily(2.0), McConfig(n_paths=20000, base_seed=11, tail_eps=1e-4)
    )
    se = 1.2533 * sums.std(ddof=1) / math.sqrt(sums.size)
    print("simulation cross-checks:")
    print(
        f"  beta=2 pair-sum median : {med:.4f} (se {se:.4f}) "
        f"vs a* {rule_num.a_star:.4f}"
    )
    rep = estimate_expected_g(family, McConfig(n_paths=4000, base_seed=12, dt=2e-3))
    print(
        f"  beta=1.5 mean g        : {rep.estimate:.4f} (se {rep.std_error:.4f}) "
        f"vs analytic {p2 / p1**2:.4f}"
    )


if __name__ == "__main__":
    main()
