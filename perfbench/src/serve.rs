//! `serve_dense1`: two clients driving `serve_lines` in-process over
//! pipes, in lockstep rounds of one dense1 `route` and one `eco`
//! (single-net remove) request line. One thread plays both clients.
//!
//! Latency is timed on the client, from writing a request line to reading
//! its response line, so request parsing, queueing and response rendering
//! all count. Each response is checked against the hash the direct
//! `route` / `reroute_delta` call computed for that request in set-up.

use crate::report::{geometry_problems, hex, median, ms, ratio, Rng};
use crate::{Args, WorkloadRun};
use info_gen::dense;
use info_model::{parse_package, write_package, Package};
use info_router::serve::json::{self, Json};
use info_router::serve::{parse_request, serve_lines, ServeConfig};
use info_router::{EcoChangeSet, InfoRouter, RouteOutcome, RouterConfig, WarmSpaceCache};
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Set-up repetitions per run.
const SETUP_REPS: usize = 5;
/// Server worker threads: one per client.
const WORKERS: usize = 2;
/// Replica calls per parse layer in a traced run.
const REPLICA_REPS: usize = 5;

/// What the direct call computed for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Expected {
    hash: u64,
    wirelength_um: f64,
}

impl Expected {
    fn of(out: &RouteOutcome) -> Self {
        Expected {
            hash: out.layout.canonical_hash(),
            wirelength_um: out.stats.total_wirelength_um,
        }
    }
}

/// Inputs and the answers the server must give.
struct Setup {
    netlist: String,
    pkg: Package,
    route: Expected,
    /// Indexed by the removed net.
    eco: Vec<Expected>,
}

fn setup() -> Result<Setup, String> {
    let netlist = write_package(&dense(1));
    let pkg = parse_package(&netlist).map_err(|e| format!("dense1 netlist: {e}"))?;
    let cfg = RouterConfig::default();
    let cache = Arc::new(WarmSpaceCache::new(4));
    let router = InfoRouter::new(cfg).with_warm_cache(cache);
    let base = router.route(&pkg);
    let mut problems = geometry_problems("dense1 route", &base);
    let mut eco = Vec::new();
    for net in pkg.nets() {
        let what = format!("dense1 delete net {}", net.id.index());
        let out = router
            .reroute_delta(&pkg, &base, &EcoChangeSet::new().remove_net(net.id))
            .map_err(|e| format!("{what}: {e}"))?;
        problems.extend(geometry_problems(&what, &out));
        eco.push(Expected::of(&out));
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    Ok(Setup {
        netlist,
        pkg,
        route: Expected::of(&base),
        eco,
    })
}

/// One request: `None` routes, `Some(net)` removes that net.
type Kind = Option<usize>;

fn request_line(s: &Setup, id: &str, kind: Kind) -> String {
    let mut members = vec![
        ("id".to_string(), Json::Str(id.to_string())),
        ("netlist".to_string(), Json::Str(s.netlist.clone())),
    ];
    match kind {
        None => members.push(("op".to_string(), Json::Str("route".to_string()))),
        Some(net) => {
            let remove = Json::Arr(vec![Json::Num(net as f64)]);
            members.push(("op".to_string(), Json::Str("eco".to_string())));
            members.push((
                "changes".to_string(),
                Json::Obj(vec![("remove".to_string(), remove)]),
            ));
        }
    }
    format!("{}\n", Json::Obj(members))
}

/// One completed request, as its client saw it.
struct Sample {
    kind: Kind,
    /// Sent before the measured rounds: checked, not timed.
    warm_up: bool,
    latency_ms: f64,
    response: String,
}

pub fn run(args: &Args) -> WorkloadRun {
    let mut run = WorkloadRun {
        threads: RouterConfig::default().threads,
        kinds: ["serve_route", "serve_eco"],
        ..Default::default()
    };
    let mut s: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let next = setup();
        run.e2e.setup_s.push(t0.elapsed().as_secs_f64());
        match next {
            Ok(next) => {
                if let Some(prev) = &s {
                    run.tally
                        .check(prev.route == next.route && prev.eco == next.eco, || {
                            "dense1 set-up routes disagree between repetitions".to_string()
                        });
                }
                s = Some(next);
            }
            Err(e) => {
                run.tally.op(vec![format!("set-up: {e}")]);
                return run;
            }
        }
    }
    let s = s.expect("at least one set-up repetition");

    // Each round, client 0 sends a route and client 1 deletes a seeded net.
    let nets = s.pkg.nets().len();
    let mut rng = Rng::new(args.seed);
    let (samples, window_s) = match session(&s, || rng.below(nets), args.seconds) {
        Ok(r) => r,
        Err(e) => {
            run.tally.op(vec![format!("serve session: {e}")]);
            return run;
        }
    };

    let mut parse_ms = Vec::new();
    let mut netlist_ms = Vec::new();
    if args.trace {
        // Replicas of the two parse layers on the lines this run sent,
        // interleaved so that drift in machine speed hits both alike.
        let lines = [None, Some(0)].map(|kind| request_line(&s, "replica", kind));
        for _ in 0..REPLICA_REPS {
            for line in &lines {
                let t0 = Instant::now();
                let ok = parse_request(line.trim_end()).is_ok();
                parse_ms.push(ms(t0.elapsed()));
                run.tally.check(ok, || {
                    "replica parse_request rejected a request line".to_string()
                });
            }
            let t0 = Instant::now();
            drop(parse_package(&s.netlist));
            netlist_ms.push(ms(t0.elapsed()));
        }
    }
    let parse = median(&parse_ms);

    let mut runtime = [Vec::new(), Vec::new()];
    let mut wait = [Vec::new(), Vec::new()];
    let (mut routes, mut ecos, mut rejected, mut retried) = (0u64, 0u64, 0u64, 0u64);
    for sample in &samples {
        let want = match sample.kind {
            None => s.route,
            Some(net) => s.eco[net],
        };
        let r = json::parse(&sample.response).unwrap_or(Json::Null);
        let text = |key: &str| r.get(key).and_then(Json::as_str).unwrap_or("");
        let number = |key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let (status, hash) = (text("status"), text("hash"));
        let mut problems = Vec::new();
        if status != "done" {
            problems.push(format!("response status '{status}': {}", sample.response));
        }
        if hash != format!("{:016x}", want.hash) {
            problems.push(format!(
                "response hash '{hash}' != direct call {:016x}",
                want.hash
            ));
        }
        run.tally.op(problems);
        rejected += u64::from(status == "rejected");
        retried += u64::from(r.get("retried").and_then(Json::as_bool) == Some(true));
        if sample.warm_up {
            continue;
        }

        let runtime_ms = number("runtime_ms");
        let k = usize::from(sample.kind.is_some());
        runtime[k].push(runtime_ms);
        wait[k].push(sample.latency_ms - runtime_ms - parse);
        if sample.kind.is_none() {
            // Quality is that of the routed design: an eco response's
            // wirelength depends on which seeded net it deleted.
            routes += 1;
            run.e2e.main_ms.push(sample.latency_ms);
            run.e2e.routability_pct.push(number("routability_pct"));
            run.e2e.wirelength_um.push(want.wirelength_um);
        } else {
            ecos += 1;
            run.e2e.second_ms.push(sample.latency_ms);
        }
    }
    run.e2e.ops = (routes + ecos) as usize;
    run.e2e.ops_window_s = window_s;

    let l = &mut run.layers;
    l.serve_parse_ms = parse;
    l.netlist_parse_ms = median(&netlist_ms);
    l.serve_route_runtime_ms = median(&runtime[0]);
    l.serve_eco_runtime_ms = median(&runtime[1]);
    l.serve_route_wait_ms = median(&wait[0]);
    l.serve_eco_wait_ms = median(&wait[1]);
    l.serve_rejected = rejected;
    l.serve_retried = retried;
    l.serve_route_jobs = routes;
    l.serve_eco_jobs = ecos;
    let count = |x: usize| Json::Num(x as f64);
    run.facts.extend([
        ("clients", count(2)),
        ("workers", count(WORKERS)),
        ("route_jobs", Json::Num(routes as f64)),
        ("eco_jobs", Json::Num(ecos as f64)),
        ("route_share", Json::Num(ratio(routes, routes + ecos))),
        ("route_hash", hex(s.route.hash)),
    ]);
    run
}

/// Runs one `serve_lines` session: a warm-up route and eco request one at
/// a time, then lockstep rounds until `seconds` pass. In a round both
/// clients write their line, route first, and the next round starts when
/// both replies are in: the eco request waits behind the route's parse,
/// and every round meets an idle server. Returns every sample and the
/// seconds from the first round's start to its last response.
fn session(
    s: &Setup,
    mut next_net: impl FnMut() -> usize,
    seconds: f64,
) -> Result<(Vec<Sample>, f64), String> {
    let (in_r, mut input) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
    let (out_r, out_w) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
    let cfg = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    thread::scope(|scope| {
        let server = scope.spawn(move || serve_lines(BufReader::new(in_r), out_w, cfg));
        let mut responses = BufReader::new(out_r).lines();

        let result = (|| -> Result<(Vec<Sample>, f64), String> {
            let mut samples = Vec::new();
            // Sends `batch` (id, kind) lines in order, then reads one reply
            // per line, in whatever order they come.
            let mut exchange =
                |batch: &[(String, Kind)], warm_up: bool| -> Result<Instant, String> {
                    let mut sent = Vec::new();
                    for (id, kind) in batch {
                        let line = request_line(s, id, *kind);
                        let t0 = Instant::now();
                        input
                            .write_all(line.as_bytes())
                            .map_err(|e| format!("write request: {e}"))?;
                        sent.push(t0);
                    }
                    let mut last = Instant::now();
                    for _ in batch {
                        let response = responses
                            .next()
                            .ok_or("server closed the stream")?
                            .map_err(|e| format!("read response: {e}"))?;
                        last = Instant::now();
                        let id = json::parse(&response)
                            .ok()
                            .and_then(|r| r.get("id").and_then(Json::as_str).map(str::to_string));
                        let k = batch
                            .iter()
                            .position(|(want, _)| Some(want) == id.as_ref())
                            .ok_or_else(|| format!("response to no request: {response}"))?;
                        samples.push(Sample {
                            kind: batch[k].1,
                            warm_up,
                            latency_ms: ms(last - sent[k]),
                            response,
                        });
                    }
                    Ok(last)
                };

            // Warm-up: the server's first eco job would otherwise route the
            // base design on the spot.
            exchange(&[("c0-warm".to_string(), None)], true)?;
            exchange(&[("c1-warm".to_string(), Some(next_net()))], true)?;

            let start = Instant::now();
            let mut end = start;
            let mut n = 0;
            while n == 0 || start.elapsed().as_secs_f64() < seconds {
                let batch = [
                    (format!("c0-{n}"), None),
                    (format!("c1-{n}"), Some(next_net())),
                ];
                end = exchange(&batch, false)?;
                n += 1;
            }
            Ok((samples, (end - start).as_secs_f64()))
        })();

        // Closing the request pipe ends the session; the server drains
        // and closes the response pipe.
        drop(input);
        let served = server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        served.map_err(|e| format!("serve_lines: {e}"))?;
        result
    })
}
