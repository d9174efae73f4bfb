//! `route_dense2` / `route_dense3_t2`: one cold five-stage route per
//! operation, with the default configuration. Each route's wall and its
//! own sequential-stage wall are the two operation kinds.
//!
//! The traced run calls the stage functions in flow order, with a span
//! around each, and must reproduce the `InfoRouter::route` hash.

use crate::report::{geometry_problems, hex, ms, Spans};
use crate::{Args, Layers, WorkloadRun};
use info_gen::dense;
use info_model::drc;
use info_model::stats::LayoutStats;
use info_model::{Layout, NetId, Package};
use info_router::assign::assign_layers;
use info_router::concurrent::route_concurrent;
use info_router::preprocess::preprocess;
use info_router::sequential::route_sequential;
use info_router::serve::json::Json;
use info_router::{
    lpopt, Completion, FlowCtx, InfoRouter, RouteOutcome, RouterConfig, WarmSpaceCache,
};
use info_telemetry::Sink;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Set-up (building the circuit) repeats at least `SETUP_MIN_REPS` times
/// and until `SETUP_MIN_S` seconds have passed. Building dense3 takes about
/// 0.2 s, and on a shared host the speed of such short builds moves in
/// phases lasting a second or more, so the median is taken over a window
/// of several seconds, not over three builds.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 3.0;

pub fn run(circuit: usize, threads: usize, args: &Args) -> WorkloadRun {
    let mut run = WorkloadRun {
        threads,
        kinds: ["route", "sequential_stage"],
        ..Default::default()
    };
    let mut pkg = None;
    let setup_start = Instant::now();
    while run.e2e.setup_s.len() < SETUP_MIN_REPS
        || setup_start.elapsed().as_secs_f64() < SETUP_MIN_S
    {
        let t0 = Instant::now();
        pkg = Some(black_box(dense(circuit)));
        run.e2e.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let pkg = pkg.expect("at least one set-up repetition");
    let cfg = RouterConfig::default().with_threads(threads);
    let name = format!("dense{circuit}@{threads}t");

    if args.trace {
        traced(&pkg, cfg, &name, &mut run);
        return run;
    }

    let mut first_hash = None;
    let start = Instant::now();
    while run.e2e.main_ms.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let out = InfoRouter::new(cfg).route(&pkg);
        let wall = t0.elapsed();
        run.e2e.main_ms.push(ms(wall));
        run.e2e.second_ms.push(ms(out.timings.sequential));
        run.e2e.ops += 1;
        run.e2e.ops_window_s += wall.as_secs_f64();
        run.e2e.routability_pct.push(out.stats.routability_pct);
        run.e2e.wirelength_um.push(out.stats.total_wirelength_um);

        let hash = out.layout.canonical_hash();
        let mut problems = outcome_problems(&name, &out);
        if *first_hash.get_or_insert(hash) != hash {
            problems.push(format!("{name}: repeated route hash {hash:016x} differs"));
        }
        run.tally.op(problems);
    }
    if let Some(h) = first_hash {
        run.facts.push(("layout_hash", hex(h)));
    }
    run
}

/// A route must complete, and its geometry must be clean.
fn outcome_problems(name: &str, out: &RouteOutcome) -> Vec<String> {
    let mut problems = geometry_problems(name, out);
    if out.completion != Completion::Full {
        problems.push(format!("{name}: route did not complete"));
    }
    problems
}

/// The traced run: an untraced reference route, the stage-call pipeline
/// with spans, and the oracles that tie the two together.
fn traced(pkg: &Package, cfg: RouterConfig, name: &str, run: &mut WorkloadRun) {
    let t0 = Instant::now();
    let reference = InfoRouter::new(cfg).route(pkg);
    let untraced_s = t0.elapsed().as_secs_f64();
    let want = reference.layout.canonical_hash();
    run.tally.op(outcome_problems(name, &reference));

    let l = &mut run.layers;
    let mut spans = Spans::new("route");
    let traced = match stage_pipeline(pkg, cfg, l, &mut spans) {
        Ok(t) => t,
        Err(e) => {
            run.tally
                .op(vec![format!("{name}: traced pipeline failed: {e}")]);
            return;
        }
    };
    let wall = spans.wall();
    l.trace_overhead_s = wall - untraced_s;
    l.trace_coverage = spans.covered() / wall;

    let got = traced.layout.canonical_hash();
    run.tally.check(got == want, || {
        format!("{name}: traced pipeline hash {got:016x} != InfoRouter::route hash {want:016x}")
    });
    run.tally.check(run.layers.trace_coverage >= 0.95, || {
        format!(
            "{name}: stage spans cover only {:.3} of the traced wall",
            run.layers.trace_coverage
        )
    });
    run.tally.check(
        traced.drc.violations() == reference.drc.violations(),
        || format!("{name}: traced DRC report differs from the route's"),
    );
    let naive = drc::check_naive(pkg, &traced.layout);
    run.tally
        .check(naive.violations() == traced.drc.violations(), || {
            format!("{name}: drc::check_naive disagrees with drc::check on the final layout")
        });

    let mut facts = vec![
        ("layout_hash", hex(want)),
        ("untraced_route_s", Json::Num(untraced_s)),
        ("traced_route_s", Json::Num(wall)),
        ("routability_pct", Json::Num(traced.stats.routability_pct)),
        ("spans", spans.json()),
    ];
    if cfg.threads > 1 {
        // The layout must not depend on the thread count.
        let one = InfoRouter::new(cfg.with_threads(1)).route(pkg);
        let h1 = one.layout.canonical_hash();
        run.tally.check(h1 == want, || {
            format!(
                "{name}: {}-thread hash {want:016x} != 1-thread hash {h1:016x}",
                cfg.threads
            )
        });
        facts.push(("one_thread_hash", hex(h1)));
    }
    run.facts.extend(facts);
}

struct Traced {
    layout: Layout,
    drc: drc::DrcReport,
    stats: LayoutStats,
}

/// `InfoRouter::route`'s stages called one by one, each under a span:
/// preprocess → assign → concurrent → LP → space build → sequential →
/// LP → DRC. The space is built into a fresh warm cache, so the
/// sequential stage starts warm from it and the two spans do not overlap.
fn stage_pipeline(
    pkg: &Package,
    cfg: RouterConfig,
    l: &mut Layers,
    sp: &mut Spans,
) -> Result<Traced, String> {
    let ctx = FlowCtx::new(cfg.fault_plan);
    let tel = Sink::enabled();
    let mut layout = Layout::new(pkg);
    let mut done: Vec<NetId> = Vec::new();

    if cfg.concurrent_enabled {
        let pre = sp
            .time("preprocess", || preprocess(pkg, &cfg, &ctx))
            .map_err(|e| format!("preprocess: {e}"))?;
        let asg = sp
            .time("assign", || {
                assign_layers(&pre, &cfg, pkg.wire_layer_count(), &ctx)
            })
            .map_err(|e| format!("assign: {e}"))?;
        let conc = sp
            .time("concurrent", || {
                route_concurrent(pkg, &mut layout, &pre, &asg, &cfg, &ctx)
            })
            .map_err(|e| format!("concurrent: {e}"))?;
        l.concurrent_committed = conc.routed.len() as u64;
        l.concurrent_skipped = conc.skipped.len() as u64;
        done = conc.routed;
        if cfg.lp_enabled && !done.is_empty() {
            let rep = sp.time("lpopt", || lpopt::optimize(pkg, &mut layout, &cfg, &ctx));
            l.lpopt_iterations += rep.iterations as u64;
        }
    }

    let done: BTreeSet<NetId> = done.into_iter().collect();
    let remaining: Vec<NetId> = pkg
        .nets()
        .iter()
        .map(|n| n.id)
        .filter(|id| !done.contains(id))
        .collect();
    let cache = WarmSpaceCache::new(1);
    sp.time("space", || {
        drop(cache.get_or_build(pkg, &layout, &cfg, &Sink::disabled()))
    });
    let seq = sp.time("sequential", || {
        route_sequential(pkg, &mut layout, &remaining, &cfg, &ctx, Some(&cache), &tel)
    });
    if cfg.lp_enabled {
        let rep = sp.time("lpopt", || lpopt::optimize(pkg, &mut layout, &cfg, &ctx));
        l.lpopt_iterations += rep.iterations as u64;
    }
    let report = sp.time("drc", || drc::check_with(pkg, &layout, &tel));
    let stats = LayoutStats::from_report(pkg, &layout, &report);

    l.preprocess_s = sp.total("preprocess");
    l.assign_s = sp.total("assign");
    l.concurrent_s = sp.total("concurrent");
    l.lpopt_s = sp.total("lpopt");
    l.space_build_s = sp.total("space");
    l.sequential_s = sp.total("sequential");
    l.drc_s = sp.total("drc");
    l.searches = seq.search.searches;
    l.nodes_expanded = seq.search.nodes_expanded;
    l.window_escalations = seq.search.window_escalations;
    l.escalation_expansions = seq.search.escalation_expansions;
    let rep = tel.report().unwrap_or_default();
    l.ripup_attempts = rep.counter("ripup_attempts");
    l.ripup_commits = rep.counter("ripup_commits");
    l.snapshot_restores = rep.counter("snapshot_restores");
    l.ripup_s = rep.counter("ripup_wall_us") as f64 / 1e6;
    l.cells_rebuilt = rep.counter("cells_rebuilt");
    l.legality_hits = rep.counter("legality_cache_hits");
    l.legality_misses = rep.counter("legality_cache_misses");
    l.speculative_commits = rep.counter("speculative_commits");
    l.speculative_conflicts = rep.counter("speculative_conflicts");
    l.pool_steals = rep.counter("pool_steals");
    (l.warm_hits, l.warm_misses) = cache.stats();

    Ok(Traced {
        layout,
        drc: report,
        stats,
    })
}
