//! Sequential-search ablation: isolates the contribution of each of the
//! two A\*-cost axes — the edge-legality (adjacency) cache and the ALT
//! landmark heuristic — on the dense suite.
//!
//! Rows are cumulative, lossless axis first: `baseline` disables both,
//! `+legality` re-enables the adjacency cache (output-preserving, so its
//! layout hash must equal the baseline's — the run asserts it), and
//! `+alt` adds landmark tables. ALT preserves per-net path *costs* (the
//! heuristic stays admissible and consistent) but may break equal-cost
//! ties differently, so its hash is reported rather than asserted.
//!
//! Usage: `ablation_search [max_index] [alt_k]` (defaults 2 and 8). The
//! EXPERIMENTS.md table is generated with `ablation_search 5`; CI runs
//! the default as a fast smoke.

use info_router::{InfoRouter, RouterConfig};
use std::time::Instant;

struct Cell {
    routability_pct: f64,
    nodes_expanded: u64,
    tightenings: u64,
    sequential_s: f64,
    layout_hash: u64,
}

fn run(pkg: &info_model::Package, cfg: RouterConfig) -> Cell {
    let out = InfoRouter::new(cfg).route(pkg);
    Cell {
        routability_pct: out.stats.routability_pct,
        nodes_expanded: out.timings.search.nodes_expanded,
        tightenings: out.timings.search.heuristic_tightenings,
        sequential_s: out.timings.sequential.as_secs_f64(),
        layout_hash: out.layout.canonical_hash(),
    }
}

fn main() {
    let max_index: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let alt_k: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let configs: Vec<(&str, RouterConfig)> = vec![
        ("baseline", RouterConfig::default().without_legality_cache()),
        ("+legality", RouterConfig::default()),
        ("+alt", RouterConfig::default().with_alt_landmarks(alt_k)),
    ];
    println!("Sequential-search ablation (cumulative rows; alt_k = {alt_k})");
    println!(
        "{:<8} {:<10} {:>6} {:>14} {:>12} {:>8}  layout_hash",
        "circuit", "config", "rt%", "nodes_expanded", "tightenings", "seq_s"
    );
    for idx in 1..=max_index {
        let pkg = info_gen::dense(idx);
        let mut baseline_hash = None;
        for (name, cfg) in &configs {
            let t = Instant::now();
            let cell = run(&pkg, *cfg);
            let total_s = t.elapsed().as_secs_f64();
            println!(
                "{:<8} {:<10} {:>6.1} {:>14} {:>12} {:>8.2}  {:016x}  (total {:.2}s)",
                format!("dense{idx}"),
                name,
                cell.routability_pct,
                cell.nodes_expanded,
                cell.tightenings,
                cell.sequential_s,
                cell.layout_hash,
                total_s,
            );
            match *name {
                "baseline" => baseline_hash = Some(cell.layout_hash),
                // The legality cache is lossless by construction; a hash
                // drift here is a bug, not noise.
                "+legality" => assert_eq!(
                    Some(cell.layout_hash),
                    baseline_hash,
                    "{name} must be byte-identical to baseline on dense{idx}"
                ),
                _ => {}
            }
        }
    }
}
