"""Surface mislabeled training points with diagonal self-influence: a point
whose label the trained model confidently contradicts gets a large score
vector, which inflates its own Stein-kernel diagonal.

Run from the repository root:  python3 demos/data_debugging.py
"""

from hdexplain import TrainConfig, gen_two_moons, label_flip_debug_experiment

data = gen_two_moons(1000, noise_std=0.1, seed=5)
report = label_flip_debug_experiment(
    data,
    flip_fraction=0.05,
    train_config=TrainConfig(seed=5),
    kernel=None,  # RBFKernel(1.0): every RBF bandwidth ranks by the score norm
    seed=5,
)

print(f"flipped {report.flip_count} of {data.n} labels, retrained, and ranked "
      "all points by their self-kernel value\n")
print(f"{'depth m':>8} {'precision@m':>12} {'recall@m':>10}")
for m, precision, recall in report.points:
    print(f"{m:>8} {precision:>12.3f} {recall:>10.3f}")

random_baseline = report.flip_count / data.n
print(f"\nrandom-ranking precision would be {random_baseline:.3f} at any depth")
top20 = report.ranking[:20]
flagged = sum(1 for i in top20 if i in set(report.flipped_indices))
print(f"of the 20 most suspicious points, {flagged} are actual label flips")
