//! End-to-end and per-layer benchmark of the info-rdl router.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `README.md` next to this crate for why each
//! exists), checks every outcome for correctness, and prints one JSON
//! object as its last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it is a result block with the run's provenance and the
//! workload facts behind its mode splits. Exits 1 when a check failed.

mod eco;
mod report;
mod route;
mod serve;

use info_router::serve::json::Json;
use report::{mean, median, percentile, ratio, Metrics, Tally};

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct WorkloadRun {
    /// End-to-end figures (filled on untraced runs).
    pub e2e: EndToEnd,
    /// Per-layer figures (filled on traced runs).
    pub layers: Layers,
    pub tally: Tally,
    /// Router threads the workload routes with.
    pub threads: usize,
    /// Names of the main and second operation kinds, which label their
    /// latencies in the result block.
    pub kinds: [&'static str; 2],
    /// Extra facts for the result block.
    pub facts: Vec<(&'static str, Json)>,
}

/// Raw end-to-end samples. Every workload reports the same metric names;
/// what "main" and "second" operation mean per workload is listed in
/// `README.md`. Latencies are never pooled across operation kinds.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Wall time of each main-kind operation, ms.
    pub main_ms: Vec<f64>,
    /// Wall time of each second-kind operation, ms.
    pub second_ms: Vec<f64>,
    /// Operations counted for throughput, and the seconds they took.
    pub ops: usize,
    pub ops_window_s: f64,
    /// Routability (%) and wirelength (µm) of each returned outcome.
    pub routability_pct: Vec<f64>,
    pub wirelength_um: Vec<f64>,
    /// Wall time of each repetition of the set-up, s.
    pub setup_s: Vec<f64>,
}

impl EndToEnd {
    fn metrics(&self, peak_rss_mb: f64) -> Metrics {
        let mut m = Metrics::default();
        m.put("main_p50_ms", median(&self.main_ms), "ms");
        m.put("second_p50_ms", median(&self.second_ms), "ms");
        m.put(
            "ops_per_s",
            self.ops as f64 / self.ops_window_s.max(1e-9),
            "1/s",
        );
        m.put("routability_pct", mean(&self.routability_pct), "%");
        m.put("wirelength_um", mean(&self.wirelength_um), "um");
        m.put("setup_s", median(&self.setup_s), "s");
        m.put("peak_rss_mb", peak_rss_mb, "MB");
        m
    }
}

/// Per-layer figures of a traced run. Every workload reports every
/// field; a layer the workload does not exercise reads 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub preprocess_s: f64,
    pub assign_s: f64,
    pub concurrent_s: f64,
    pub concurrent_committed: u64,
    pub concurrent_skipped: u64,
    pub lpopt_s: f64,
    pub lpopt_iterations: u64,
    pub space_build_s: f64,
    pub sequential_s: f64,
    pub searches: u64,
    pub nodes_expanded: u64,
    pub window_escalations: u64,
    pub escalation_expansions: u64,
    pub ripup_attempts: u64,
    pub ripup_commits: u64,
    pub snapshot_restores: u64,
    pub ripup_s: f64,
    pub cells_rebuilt: u64,
    pub legality_hits: u64,
    pub legality_misses: u64,
    pub speculative_commits: u64,
    pub speculative_conflicts: u64,
    pub pool_steals: u64,
    pub drc_s: f64,
    pub drc_check_ms: f64,
    pub eco_plan_ms: f64,
    pub eco_nets_rerouted: u64,
    pub eco_nets_replayed: u64,
    pub eco_cells_invalidated: u64,
    pub eco_lp_dirty_nets: u64,
    pub eco_lp_components_skipped: u64,
    pub eco_removals: u64,
    pub eco_removals_rerouting: u64,
    pub warm_hits: u64,
    pub warm_misses: u64,
    pub serve_parse_ms: f64,
    pub netlist_parse_ms: f64,
    pub serve_route_runtime_ms: f64,
    pub serve_eco_runtime_ms: f64,
    pub serve_route_wait_ms: f64,
    pub serve_eco_wait_ms: f64,
    pub serve_rejected: u64,
    pub serve_retried: u64,
    pub serve_route_jobs: u64,
    pub serve_eco_jobs: u64,
    /// Traced route wall minus untraced route wall.
    pub trace_overhead_s: f64,
    /// Share of the traced route wall the stage spans cover.
    pub trace_coverage: f64,
}

impl Layers {
    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let c = |x: u64| x as f64;
        m.put("preprocess.busy_s", self.preprocess_s, "s");
        m.put("assign.busy_s", self.assign_s, "s");
        m.put("concurrent.busy_s", self.concurrent_s, "s");
        m.put(
            "concurrent.committed",
            c(self.concurrent_committed),
            "count",
        );
        m.put("concurrent.skipped", c(self.concurrent_skipped), "count");
        m.put(
            "concurrent.commit_ratio",
            ratio(
                self.concurrent_committed,
                self.concurrent_committed + self.concurrent_skipped,
            ),
            "ratio",
        );
        m.put("lpopt.busy_s", self.lpopt_s, "s");
        m.put("lpopt.iterations", c(self.lpopt_iterations), "count");
        m.put("space.build_s", self.space_build_s, "s");
        m.put("sequential.busy_s", self.sequential_s, "s");
        m.put("search.searches", c(self.searches), "count");
        m.put("search.nodes_expanded", c(self.nodes_expanded), "count");
        m.put(
            "search.window_escalations",
            c(self.window_escalations),
            "count",
        );
        m.put(
            "search.escalation_expansions",
            c(self.escalation_expansions),
            "count",
        );
        m.put("ripup.attempts", c(self.ripup_attempts), "count");
        m.put("ripup.commits", c(self.ripup_commits), "count");
        m.put(
            "ripup.commit_ratio",
            ratio(self.ripup_commits, self.ripup_attempts),
            "ratio",
        );
        m.put(
            "ripup.snapshot_restores",
            c(self.snapshot_restores),
            "count",
        );
        m.put("ripup.busy_s", self.ripup_s, "s");
        m.put("space.cells_rebuilt", c(self.cells_rebuilt), "count");
        m.put(
            "legality_cache.hit_ratio",
            ratio(
                self.legality_hits,
                self.legality_hits + self.legality_misses,
            ),
            "ratio",
        );
        m.put(
            "pool.speculative_commits",
            c(self.speculative_commits),
            "count",
        );
        m.put(
            "pool.speculative_conflicts",
            c(self.speculative_conflicts),
            "count",
        );
        m.put(
            "pool.commit_ratio",
            ratio(
                self.speculative_commits,
                self.speculative_commits + self.speculative_conflicts,
            ),
            "ratio",
        );
        m.put("pool.steals", c(self.pool_steals), "count");
        m.put("drc.busy_s", self.drc_s, "s");
        m.put("drc.check_ms", self.drc_check_ms, "ms");
        m.put("eco.plan_ms", self.eco_plan_ms, "ms");
        m.put("eco.nets_rerouted", c(self.eco_nets_rerouted), "count");
        m.put("eco.nets_replayed", c(self.eco_nets_replayed), "count");
        m.put(
            "eco.cells_invalidated",
            c(self.eco_cells_invalidated),
            "count",
        );
        m.put("eco.lp_dirty_nets", c(self.eco_lp_dirty_nets), "count");
        m.put(
            "eco.lp_components_skipped",
            c(self.eco_lp_components_skipped),
            "count",
        );
        m.put(
            "eco.remove_reroute_share",
            ratio(self.eco_removals_rerouting, self.eco_removals),
            "ratio",
        );
        m.put("warm.hits", c(self.warm_hits), "count");
        m.put("warm.misses", c(self.warm_misses), "count");
        m.put(
            "warm.hit_ratio",
            ratio(self.warm_hits, self.warm_hits + self.warm_misses),
            "ratio",
        );
        m.put("serve.parse_ms", self.serve_parse_ms, "ms");
        m.put("netlist.parse_ms", self.netlist_parse_ms, "ms");
        m.put("serve.route_runtime_ms", self.serve_route_runtime_ms, "ms");
        m.put("serve.eco_runtime_ms", self.serve_eco_runtime_ms, "ms");
        m.put("serve.route_wait_ms", self.serve_route_wait_ms, "ms");
        m.put("serve.eco_wait_ms", self.serve_eco_wait_ms, "ms");
        m.put("serve.rejected", c(self.serve_rejected), "count");
        m.put("serve.retried", c(self.serve_retried), "count");
        m.put(
            "serve.route_share",
            ratio(
                self.serve_route_jobs,
                self.serve_route_jobs + self.serve_eco_jobs,
            ),
            "ratio",
        );
        m.put("trace.overhead_s", self.trace_overhead_s, "s");
        m.put("trace.coverage", self.trace_coverage, "ratio");
        m
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("expected a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// High-water resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let mut run = match args.workload.as_str() {
        "route_dense2" => route::run(2, 1, &args),
        "route_dense3_t2" => route::run(3, 2, &args),
        "eco_dense2" => eco::run(&args),
        "serve_dense1" => serve::run(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload '{other}' \
                 (route_dense2, route_dense3_t2, eco_dense2, serve_dense1)"
            );
            std::process::exit(2);
        }
    };
    if run.tally.attempted == 0 {
        run.tally
            .op(vec![format!("{}: no operation ran", args.workload)]);
    }
    let metrics = if args.trace {
        run.layers.metrics()
    } else {
        run.e2e.metrics(peak_rss_mb())
    };
    let tally = &run.tally;
    for msg in &tally.messages {
        eprintln!("perfbench: CHECK FAILED: {msg}");
    }

    let env = |k: &str| Json::Str(std::env::var(k).unwrap_or_else(|_| "unknown".to_string()));
    let n = |x: f64| Json::Num(x);
    let count = |x: usize| Json::Num(x as f64);
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut block: Vec<(String, Json)> = [
        ("workload", Json::Str(args.workload.clone())),
        ("seed", n(args.seed as f64)),
        ("seconds", n(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("git_rev", env("PERFBENCH_GIT_REV")),
        ("source_fp", env("PERFBENCH_SOURCE_FP")),
        ("nproc", count(nproc)),
        ("threads", count(run.threads)),
        ("profile", Json::Str(profile.to_string())),
        ("date", env("PERFBENCH_DATE")),
        ("attempted", n(tally.attempted as f64)),
        ("failed", n(tally.failed as f64)),
        (
            "failed_pct",
            n(100.0 * ratio(tally.failed, tally.attempted)),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    if !args.trace {
        // Each kind's latencies under its own name, with the sample count
        // and the p75 tail. Not gated: at the sample counts one run allows,
        // p75 is steady on some workloads only.
        for (kind, xs) in run.kinds.iter().zip([&run.e2e.main_ms, &run.e2e.second_ms]) {
            block.extend([
                (format!("{kind}_samples"), count(xs.len())),
                (format!("{kind}_p50_ms"), n(median(xs))),
                (format!("{kind}_p75_ms"), n(percentile(xs, 75.0))),
            ]);
        }
    }
    block.extend(run.facts.into_iter().map(|(k, v)| (k.to_string(), v)));
    println!(
        "{}",
        Json::Obj(vec![("result_block".to_string(), Json::Obj(block))])
    );

    let correct = tally.failed == 0;
    let result = vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), n(tally.attempted as f64)),
        ("failed".to_string(), n(tally.failed as f64)),
        ("metrics".to_string(), metrics.json()),
    ];
    println!("{}", Json::Obj(result));
    if !correct {
        std::process::exit(1);
    }
}
