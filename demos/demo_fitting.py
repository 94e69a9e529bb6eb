"""Fit the two candidate revenue laws to synthetic samples.

Generates an exponential body (the stable, monopolistic prediction) and a
near-condensation Bose-Einstein sample (the crisis-prone, perfectly
competitive prediction), fits both laws to each, and compares the
Kolmogorov-Smirnov statistics.
"""

from econorder import (
    fit_boltzmann,
    fit_bose_einstein,
    goodness_of_fit,
    synthetic_bose_einstein,
    synthetic_exponential,
)

levels = list(range(1, 51))

print("=== Exponential world (stable economy) ===")
samples = synthetic_exponential(50_000, t_eff=10.0, mu=0.0, seed=1)
exp_fit = fit_boltzmann(samples, tail_quantile=0.0)
be_fit = fit_bose_einstein(samples, tail_quantile=0.0)
print(f"true effective temperature 10.0 -> fitted {exp_fit.parameters['t_eff']:.3f}")
print(f"exponential KS  = {exp_fit.ks_statistic:.4f}  (gof pass: {goodness_of_fit(exp_fit).passed})")
print(f"bose-einstein KS = {be_fit.ks_statistic:.4f}  (mu pushed to {be_fit.parameters['mu']:.1f}, far below the data)")
print("With mu driven far below the support, the BE law degenerates into the")
print("exponential, so the statistics are comparable: no crisis signature.\n")

print("=== Near-condensation world (crisis regime) ===")
samples = synthetic_bose_einstein(
    20_000, levels, mu=0.5, lambda_theta=4.0, seed=2, mode="continuous"
)
exp_fit = fit_boltzmann(samples, tail_quantile=0.0)
be_fit = fit_bose_einstein(samples, tail_quantile=0.0)
print(f"true location 0.5 -> fitted {be_fit.parameters['mu']:.3f}")
print(f"exponential KS  = {exp_fit.ks_statistic:.4f}")
print(f"bose-einstein KS = {be_fit.ks_statistic:.4f}")
winner = "bose-einstein" if be_fit.ks_statistic < exp_fit.ks_statistic else "exponential"
print(f"better fit: {winner}")
print("Near condensation the low-revenue pile-up bends the distribution away")
print("from any exponential, and the BE fit wins decisively.")
