"""When the sample mean refuses to settle.

For symmetric stable data the running mean at size n scales like
n**(1/alpha - 1): it diverges for alpha < 1 (the largest observation cannot
be compensated by the rest), wanders forever at alpha = 1, and converges
for alpha > 1.  The frequent ratio outliers at small alpha are the visible
symptom of the same mechanism.
"""

import tailratio as tr

CHECKPOINTS = [100, 1000, 10_000, 100_000]

print("running means along one stream (seed 5):")
for alpha in (0.6, 1.0, 1.5, 2.0):
    fam = tr.make_symmetric_stable(alpha, 1.0)
    series = tr.running_mean_trajectory(fam, CHECKPOINTS, seed=5)
    cells = "  ".join(f"{m:>12.4f}" for m in series.running_means)
    print(f"  alpha = {alpha}: {cells}")
print(f"  (columns: n = {CHECKPOINTS})")

print("\nscaling exponent of median |running mean| (200 replications):")
for alpha in (0.6, 1.0, 1.5, 2.0):
    fam = tr.make_symmetric_stable(alpha, 1.0)
    res = tr.scaling_exponent_experiment(
        fam, [1000, 10_000, 100_000], 200, seed=17
    )
    print(
        f"  alpha = {alpha}: measured slope {res.slope:+.3f}, "
        f"theory 1/alpha - 1 = {tr.theory_slope(alpha):+.3f}"
    )

print("\npositive slope = no law of large numbers: the mean's magnitude")
print("grows with the sample.  The crossover sits exactly at alpha = 1.")
