"""What the kpod benchmark measures: workloads, metrics, units and bounds.

``python3 perfbench/run.py --write-spec`` writes this into ``BENCHMARK.json``
at the root of the repository, so the names live in one place.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = [
    {
        "name": "fit_mcar_wide",
        "why": "kpod_fit, 20000x50, k=20, 50% MCAR, 11 fixed MM rounds: the n*k*p distance kernel and its "
               "memory do nearly all the work, with too few rounds for mm or masked to matter",
    },
    {
        "name": "campaign_small",
        "why": "run_benchmark over 180 tiny runs (3 mechanisms, 2 rates, 3 methods, 10 trials, up to 40 MM "
               "rounds) on 2 workers: per-call and per-round overhead, ampute, scoring, baselines, the pool",
    },
    {
        "name": "cli_csv",
        "why": "in-process CLI simulate, ampute, cluster, evaluate at 2500x50, k=4: CSV read and write "
               "dominate, so a kernel gain should barely move it",
    },
]

# name, unit, better, bound
# On the 2-core VM where these were set (environment.json), runs of one seed
# varied by 10-30% in every timing, because the machine's speed jumps from one
# run to the next; the timing bounds allow for that. rand_mean is exact per
# seed but varies by a few percent across seeds.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("fit_s_p50", "s", "lower", 0.25),
    ("run_s_p50", "s", "lower", 0.25),
    ("run_s_p90", "s", "lower", 0.25),
    ("runs_per_s", "1/s", "higher", 0.25),
    ("pipeline_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("rand_mean", "ratio", "higher", 0.15),
]

# name, unit, better
PER_LAYER = [
    ("kmeans.assign_s", "s", "lower"),
    ("kmeans.assign_flops", "count", "lower"),
    ("kmeans.assign_gflops", "GFLOP/s", "higher"),
    ("kmeans.update_s", "s", "lower"),
    ("kmeans.objective_s", "s", "lower"),
    ("kmeans.seed_s", "s", "lower"),
    ("kmeans.lloyd_self_s", "s", "lower"),
    ("kmeans.sweeps", "count", "lower"),
    ("mm.self_s", "s", "lower"),
    ("mm.rounds", "count", "lower"),
    ("mm.cold_sweeps", "count", "lower"),
    ("mm.warm_sweeps_per_round", "sweeps/round", "lower"),
    ("mm.converged_ratio", "ratio", "higher"),
    ("masked.fill_s", "s", "lower"),
    ("masked.project_s", "s", "lower"),
    ("masked.standardize_s", "s", "lower"),
    ("missingness.ampute_s", "s", "lower"),
    ("missingness.simulate_s", "s", "lower"),
    ("baselines.mean_impute_s", "s", "lower"),
    ("baselines.delete_s", "s", "lower"),
    ("evaluation.score_s", "s", "lower"),
    ("benchmark.self_s", "s", "lower"),
    ("benchmark.serial_runs_per_s", "1/s", "higher"),
    ("benchmark.parallel_efficiency", "ratio", "higher"),
    ("csv_io.read_s", "s", "lower"),
    ("csv_io.write_s", "s", "lower"),
    ("csv_io.read_mb_per_s", "MB/s", "higher"),
    ("csv_io.write_mb_per_s", "MB/s", "higher"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
]


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
