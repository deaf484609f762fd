"""Compare base kernels (and two baselines) on the augmented self-retrieval
protocol: perturb a training point, ask each method for its top-k supporting
training points, and count how often the source point is recovered.

Run from the repository root:  python3 demos/kernel_options.py
"""

from hdexplain import (
    ExplainerConfig,
    IMQKernel,
    LinearKernel,
    RBFKernel,
    TrainConfig,
    build_cache,
    gen_two_moons,
    hit_rate_experiment,
    local_scale_gamma,
    median_heuristic_gamma,
    train,
)

SEED = 7
data = gen_two_moons(500, noise_std=0.1, seed=SEED)
model = train(data, TrainConfig(seed=SEED))
cache = build_cache(model, data, variant="raw")

kernels = {
    "linear": LinearKernel(),
    "rbf (median heuristic)": RBFKernel(median_heuristic_gamma(cache.z)),
    "rbf (nearest-neighbor scale)": RBFKernel(local_scale_gamma(cache.z)),
    "imq (c=1, beta=-0.5)": IMQKernel(1.0, -0.5),
}

print(f"{'ranker':<34} {'hit@1':>6} {'hit@3':>6} {'cov@3':>7} {'ms/query':>9}")
for name, kernel in kernels.items():
    config = ExplainerConfig(kernel=kernel, variant="raw", top_k=3)
    r = hit_rate_experiment(model, data, "noise", trials_per_point=10,
                            sample_size=100, config=config, seed=SEED)
    print(f"{name:<34} {r.hit_rate[1]:>6.3f} {r.hit_rate[3]:>6.3f} "
          f"{r.coverage[3]:>7.4f} {r.mean_ms:>9.3f}")

config = ExplainerConfig(kernel=None, top_k=3)  # the baselines use no kernel
for method in ("tracin-last", "rep-sim"):
    r = hit_rate_experiment(model, data, "noise", trials_per_point=10,
                            sample_size=100, config=config, seed=SEED, method=method)
    print(f"{method:<34} {r.hit_rate[1]:>6.3f} {r.hit_rate[3]:>6.3f} "
          f"{r.coverage[3]:>7.4f} {r.mean_ms:>9.3f}")

print(
    "\nNote: a kernel can only localize an explanation if its bandwidth\n"
    "resolves the spacing between training points. In 2-D the global median\n"
    "pairwise distance is ~50x the nearest-neighbor distance, so the median\n"
    "heuristic produces a kernel too wide for retrieval; the nearest-neighbor\n"
    "rule (local_scale_gamma) restores it. In high-dimensional data the two\n"
    "scales are close and the median heuristic is a fine default."
)
