//! `eco_dense2`: single-net deletions and restores of dense2 through
//! `InfoRouter::reroute_delta`, against a shared warm space cache.
//!
//! Set-up routes the base design. A round then deletes every net once
//! (seeded order) and restores every `stride`-th deleted net right after
//! its deletion, by re-adding the same pad pair to the deletion's outcome.
//! Rounds repeat until the run's seconds are spent.

use crate::report::{geometry_problems, hex, median, ms, percentile, ratio, Rng};
use crate::{Args, WorkloadRun};
use info_gen::dense;
use info_model::{drc, Layout, NetId, Package};
use info_router::serve::json::Json;
use info_router::{EcoChangeSet, InfoRouter, RouteOutcome, RouterConfig, WarmSpaceCache};
use info_telemetry::Sink;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Set-up (build the circuit and route the base) repetitions per run.
/// Each takes a full dense2 route, so there are two, and they run side by
/// side, one thread each (the recorded box has 2 cores).
const SETUP_REPS: usize = 2;
/// Deleted nets restored per round, spread evenly through it.
const RESTORES_PER_ROUND: usize = 4;

pub fn run(args: &Args) -> WorkloadRun {
    let cfg = RouterConfig::default();
    let mut run = WorkloadRun {
        threads: cfg.threads,
        kinds: ["delete_every_net", "eco_restore"],
        ..Default::default()
    };
    let setups: Vec<(Package, RouteOutcome, f64)> = thread::scope(|scope| {
        let reps: Vec<_> = (0..SETUP_REPS)
            .map(|_| {
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let pkg = dense(2);
                    let prior = InfoRouter::new(cfg).route(&pkg);
                    (pkg, prior, t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        reps.into_iter()
            .map(|rep| rep.join().expect("set-up thread panicked"))
            .collect()
    });
    let mut base: Option<(Package, RouteOutcome)> = None;
    for (pkg, prior, setup_s) in setups {
        run.e2e.setup_s.push(setup_s);
        let mut problems = geometry_problems("dense2 base route", &prior);
        if let Some((_, first)) = &base {
            let (a, b) = (first.layout.canonical_hash(), prior.layout.canonical_hash());
            if a != b {
                problems.push(format!("dense2 base routes disagree: {a:016x} vs {b:016x}"));
            }
        }
        run.tally.op(problems);
        base = Some((pkg, prior));
    }
    let (pkg, prior) = base.expect("at least one set-up repetition");

    let cache = Arc::new(WarmSpaceCache::new(4));
    let router = InfoRouter::new(cfg).with_warm_cache(Arc::clone(&cache));
    let mut rng = Rng::new(args.seed);
    let mut plan_ms = Vec::new();
    let mut drc_ms = Vec::new();
    let mut space_s = Vec::new();
    let mut restored: Vec<usize> = Vec::new();
    let mut remove_ms = Vec::new();

    let start = Instant::now();
    while run.e2e.ops == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let mut order: Vec<NetId> = pkg.nets().iter().map(|n| n.id).collect();
        rng.shuffle(&mut order);
        // Every `stride`-th deleted net is restored right after its
        // deletion, so the restores are spread evenly through the round
        // and the deletions are sampled over the whole round, not in one
        // burst ahead of the restores.
        let stride = order.len().div_ceil(RESTORES_PER_ROUND);
        let mut round_ms = 0.0;

        for (pos, &id) in order.iter().enumerate() {
            let changes = EcoChangeSet::new().remove_net(id);
            let what = format!("delete net {}", id.index());
            let Some((del, wall)) = eco_op(&router, &pkg, &prior, &changes, &what, &mut run) else {
                continue;
            };
            remove_ms.push(wall);
            round_ms += wall;
            run.tally.op(geometry_problems(&what, &del));
            let l = &mut run.layers;
            l.eco_removals += 1;
            if del.eco.as_ref().is_some_and(|s| s.nets_rerouted > 0) {
                l.eco_removals_rerouting += 1;
            }
            if args.trace {
                replicas(&pkg, &changes, &del, &mut plan_ms, &mut drc_ms);
            }
            if pos % stride != stride / 2 {
                continue;
            }

            let net = pkg.nets()[id.index()];
            let edited = match changes.plan(&pkg) {
                Ok(plan) => plan.package,
                Err(e) => {
                    run.tally
                        .op(vec![format!("plan deletion of net {}: {e}", id.index())]);
                    continue;
                }
            };
            let changes = EcoChangeSet::new().add_net(net.a, net.b);
            let what = format!("restore net {}", id.index());
            let Some((out, wall)) = eco_op(&router, &edited, &del, &changes, &what, &mut run)
            else {
                continue;
            };
            run.e2e.second_ms.push(wall);
            let mut problems = geometry_problems(&what, &out);
            if out.stats.routed_nets < del.stats.routed_nets {
                problems.push(format!("{what}: restoring lost a routed net"));
            }
            run.tally.op(problems);
            if args.trace {
                replicas(&edited, &changes, &out, &mut plan_ms, &mut drc_ms);
                space_s.extend(restore_space_s(&edited, &changes, &del, &cfg));
            }
            restored.push(id.index());
        }
        // The main operation is the round's deletions as a whole. One
        // deletion is ~90% a full-die DRC of a few ms, whose speed on a
        // shared host moves in phases of up to a minute; the round's sum
        // is steadier, and its 40:6 mix of the two deletion modes is the
        // same in every round.
        run.e2e.main_ms.push(round_ms);
    }
    run.e2e.ops_window_s = start.elapsed().as_secs_f64();

    let l = &mut run.layers;
    (l.warm_hits, l.warm_misses) = cache.stats();
    l.eco_plan_ms = median(&plan_ms);
    l.drc_check_ms = median(&drc_ms);
    l.space_build_s = median(&space_s);
    run.facts.extend([
        ("base_hash", hex(prior.layout.canonical_hash())),
        ("eco_remove_samples", Json::Num(remove_ms.len() as f64)),
        ("eco_remove_p50_ms", Json::Num(median(&remove_ms))),
        ("eco_remove_p75_ms", Json::Num(percentile(&remove_ms, 75.0))),
        ("deletions", Json::Num(l.eco_removals as f64)),
        (
            "deletions_rerouting",
            Json::Num(l.eco_removals_rerouting as f64),
        ),
        (
            "remove_reroute_share",
            Json::Num(ratio(l.eco_removals_rerouting, l.eco_removals)),
        ),
        (
            "restored_nets",
            Json::Arr(restored.iter().map(|&i| Json::Num(i as f64)).collect()),
        ),
    ]);
    run
}

/// One timed `reroute_delta`, recording the outcome's figures; the
/// caller checks the outcome. `None` (counted as failed) when the
/// router refused the change set.
fn eco_op(
    router: &InfoRouter,
    pkg: &Package,
    prior: &RouteOutcome,
    changes: &EcoChangeSet,
    what: &str,
    run: &mut WorkloadRun,
) -> Option<(RouteOutcome, f64)> {
    let t0 = Instant::now();
    let res = router.reroute_delta(pkg, prior, changes);
    let wall = t0.elapsed();
    let out = match res {
        Ok(out) => out,
        Err(e) => {
            run.tally.op(vec![format!("{what}: {e}")]);
            return None;
        }
    };
    run.e2e.ops += 1;
    run.e2e.routability_pct.push(out.stats.routability_pct);
    run.e2e.wirelength_um.push(out.stats.total_wirelength_um);
    if let Some(s) = &out.eco {
        let l = &mut run.layers;
        l.eco_nets_rerouted += s.nets_rerouted as u64;
        l.eco_nets_replayed += s.nets_replayed as u64;
        l.eco_cells_invalidated += s.cells_invalidated as u64;
        l.eco_lp_dirty_nets += s.lp_dirty_nets as u64;
        l.eco_lp_components_skipped += s.lp_components_skipped as u64;
    }
    Some((out, ms(wall)))
}

/// Replica calls of the layers that run inside `reroute_delta`, timed on
/// the same input: the change-set plan, and the DRC verify of the result.
fn replicas(
    pkg: &Package,
    changes: &EcoChangeSet,
    out: &RouteOutcome,
    plan_ms: &mut Vec<f64>,
    drc_ms: &mut Vec<f64>,
) {
    let t0 = Instant::now();
    let plan = changes.plan(pkg);
    plan_ms.push(ms(t0.elapsed()));
    if let Ok(plan) = plan {
        let t0 = Instant::now();
        drop(drc::check(&plan.package, &out.layout));
        drc_ms.push(ms(t0.elapsed()));
    }
}

/// Replica of the cold space build a restore pays, in seconds: the edited
/// design with the net re-added, over the deletion's layout re-labeled
/// into that design's net ids, built into a fresh cache. `None` when the
/// change set does not plan.
fn restore_space_s(
    edited: &Package,
    changes: &EcoChangeSet,
    del: &RouteOutcome,
    cfg: &RouterConfig,
) -> Option<f64> {
    let plan = changes.plan(edited).ok()?;
    let mut layout = Layout::new(&plan.package);
    for r in del.layout.routes() {
        if let Some(&u) = plan.net_map.get(&r.net) {
            layout.add_route(u, r.layer, r.path.clone());
        }
    }
    for v in del.layout.vias() {
        if let Some(&u) = plan.net_map.get(&v.net) {
            layout.add_via(u, v.center, v.width, v.top, v.bottom, v.fixed);
        }
    }
    let t0 = Instant::now();
    drop(WarmSpaceCache::new(1).get_or_build(&plan.package, &layout, cfg, &Sink::disabled()));
    Some(t0.elapsed().as_secs_f64())
}
