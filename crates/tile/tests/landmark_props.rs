//! Property tests on the ALT landmark heuristic (`info_tile::landmarks`).
//!
//! The guarantees under test, on randomized instances:
//!
//! - **Admissibility**: the landmark lower bound between the source and
//!   destination never exceeds the cost of the path A\* actually finds —
//!   the bound is a true lower bound on the real search graph, not just
//!   on the optimistic graph it was computed from.
//! - **Consistency**: along every hop of a found path, the bound toward
//!   the destination drops by at most the hop's cost (the triangle
//!   inequality the A\* invariants need).
//! - **Losslessness**: installing the tables changes no path *cost*; a
//!   search with ALT finds the same-cost route as one without.
//! - **Usefulness**: on a detour-forcing instance (a wall between the
//!   terminals on a single wire layer) the bound strictly beats the
//!   geometric heuristic, i.e. `heuristic_tightenings > 0`.

use info_geom::{Point, Polyline, Rect};
use info_model::{DesignRules, Layout, NetId, Package, PackageBuilder, WireLayer};
use info_tile::{astar, Landmarks, RoutingSpace, SearchOptions, SpaceConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Randomized single-net instance with obstacles and committed foreign
/// wires (same family as the `astar_props` suite).
fn random_instance(seed: u64) -> (Package, Layout) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = PackageBuilder::new(
        Rect::new(Point::new(0, 0), Point::new(600_000, 600_000)),
        DesignRules::default(),
        2,
    );
    let chip = b.add_chip(Rect::new(Point::new(60_000, 60_000), Point::new(240_000, 240_000)));
    for _ in 0..rng.gen_range(0..5) {
        let x = rng.gen_range(260_000..500_000);
        let y = rng.gen_range(60_000..500_000);
        let w = rng.gen_range(10_000..80_000);
        let h = rng.gen_range(10_000..80_000);
        let _ = b.add_obstacle(
            WireLayer(rng.gen_range(0..2)),
            Rect::new(Point::new(x, y), Point::new(x + w, y + h)),
        );
    }
    let io = b.add_io_pad(chip, Point::new(200_000, 200_000)).unwrap();
    let bump = b
        .add_bump_pad(Point::new(rng.gen_range(380_000..560_000), rng.gen_range(60_000..560_000)))
        .unwrap();
    b.add_net(io, bump).unwrap();
    let pkg = b.build().unwrap();
    let mut layout = Layout::new(&pkg);
    for k in 0..rng.gen_range(0..4i64) {
        let x = 280_000 + 50_000 * k;
        let (y0, y1) = (rng.gen_range(0..250_000), rng.gen_range(350_000..600_000));
        layout.add_route(
            NetId(7),
            WireLayer(rng.gen_range(0..2)),
            Polyline::new(vec![Point::new(x, y0), Point::new(x, y1)]),
        );
    }
    (pkg, layout)
}

fn cfg() -> SpaceConfig {
    SpaceConfig {
        cells_x: 6,
        cells_y: 6,
        clearance: 4_000,
        min_thickness: 4_000,
        via_width: 5_000,
        via_cost: 20_000.0,
        adjacency_cache: true,
    }
}

fn terminals(pkg: &Package) -> ((WireLayer, Point), (WireLayer, Point)) {
    let net = pkg.net(NetId(0));
    (
        (pkg.pad_layer(net.a), pkg.pad(net.a).center),
        (pkg.pad_layer(net.b), pkg.pad(net.b).center),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Admissibility and losslessness: the src→dst landmark bound never
    /// exceeds the found path's cost, and routing with the tables
    /// installed returns the same cost as routing without them.
    fn landmark_bound_is_admissible_and_lossless(seed in 0u64..1_000_000) {
        let (pkg, layout) = random_instance(seed);
        let mut space = RoutingSpace::build(&pkg, &layout, cfg());
        let (src, dst) = terminals(&pkg);
        let plain = astar::route(&space, NetId(0), src, dst);

        let lm = Landmarks::build(&space, 4);
        prop_assert!(lm.landmark_count() >= 1);
        space.set_landmarks(Some(Arc::new(lm)));
        let alt = astar::route(&space, NetId(0), src, dst);

        match (plain, alt) {
            (None, None) => {}
            (Some(p), Some(a)) => {
                prop_assert!(
                    (p.cost - a.cost).abs() <= 1e-6,
                    "ALT changed the path cost: {} vs {}",
                    p.cost,
                    a.cost
                );
                let lm = space.landmarks().unwrap();
                let (sn, dn) = (
                    lm.node_at(src.0.index(), src.1),
                    lm.node_at(dst.0.index(), dst.1),
                );
                if let (Some(sn), Some(dn)) = (sn, dn) {
                    let bound = lm.lower_bound(sn, dn);
                    prop_assert!(
                        bound <= p.cost + 1e-6,
                        "landmark bound {} exceeds true path cost {}",
                        bound,
                        p.cost
                    );
                }
            }
            (p, a) => prop_assert!(
                false,
                "ALT changed routability: plain={:?} alt={:?}",
                p.map(|r| r.cost),
                a.map(|r| r.cost)
            ),
        }
    }

    /// Consistency: along every hop of a found path, the landmark bound
    /// toward the destination decreases by at most the hop's cost (plus a
    /// float-rounding epsilon) — the triangle inequality that makes the
    /// heuristic consistent and keeps A* label-setting.
    fn landmark_bound_is_consistent_along_paths(seed in 0u64..1_000_000) {
        let (pkg, layout) = random_instance(seed);
        let mut space = RoutingSpace::build(&pkg, &layout, cfg());
        let (src, dst) = terminals(&pkg);
        let lm = Landmarks::build(&space, 4);
        space.set_landmarks(Some(Arc::new(lm)));
        let Some(r) = astar::route(&space, NetId(0), src, dst) else { return Ok(()); };
        let lm = space.landmarks().unwrap();
        let Some(dn) = lm.node_at(dst.0.index(), dst.1) else { return Ok(()); };
        let via_cost = space.config().via_cost;
        for w in r.steps.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let la = space.tile(a.tile).layer.index();
            let lb = space.tile(b.tile).layer.index();
            let (Some(na), Some(nb)) = (lm.node_at(la, a.entry), lm.node_at(lb, b.entry))
            else { continue; };
            // Cost attributed to this hop in the search graph: movement
            // to the next entry point plus the via cost when layers hop.
            let hop = info_geom::x_arch_len(a.entry, b.entry)
                + if b.via.is_some() { via_cost } else { 0.0 };
            let (ha, hb) = (lm.lower_bound(na, dn), lm.lower_bound(nb, dn));
            prop_assert!(
                ha <= hop + hb + 1e-6,
                "consistency violated: h(a)={} > hop {} + h(b)={}",
                ha,
                hop,
                hb
            );
        }
    }
}

/// Two same-layer terminals separated by a full-height wall on their
/// layer, with the layer below open: the route is forced through two
/// vias the geometric heuristic never charges for (zero layer distance
/// between the terminals). The landmark tables see the wall in the
/// optimistic graph — planar edges chain through abutting tiles at near
/// zero weight, so via crossings are exactly the structure ALT can
/// resolve — and with a via cost dominating the plate diagonal the bound
/// must strictly beat geometry (`heuristic_tightenings > 0`) while
/// leaving the path cost unchanged.
#[test]
fn forced_via_detour_tightens_heuristic() {
    let mut b = PackageBuilder::new(
        Rect::new(Point::new(0, 0), Point::new(600_000, 600_000)),
        DesignRules::default(),
        2,
    );
    let c1 = b.add_chip(Rect::new(Point::new(40_000, 220_000), Point::new(200_000, 380_000)));
    let c2 = b.add_chip(Rect::new(Point::new(400_000, 220_000), Point::new(560_000, 380_000)));
    // The wall splits the top layer edge to edge; only layer 1 connects
    // the two halves.
    b.add_obstacle(
        WireLayer(0),
        Rect::new(Point::new(290_000, 0), Point::new(310_000, 600_000)),
    )
    .unwrap();
    let io1 = b.add_io_pad(c1, Point::new(180_000, 300_000)).unwrap();
    let io2 = b.add_io_pad(c2, Point::new(420_000, 300_000)).unwrap();
    b.add_net(io1, io2).unwrap();
    let pkg = b.build().unwrap();
    let layout = Layout::new(&pkg);
    // A via cost above the plate diagonal: the two forced vias dwarf any
    // planar estimate, so the ALT bound must win somewhere on the way.
    let space_cfg = SpaceConfig { via_cost: 900_000.0, ..cfg() };
    let mut space = RoutingSpace::build(&pkg, &layout, space_cfg);
    let (src, dst) = terminals(&pkg);

    let mut stats = astar::SearchStats::default();
    let plain = astar::route_opts(
        &space, NetId(0), src, dst, SearchOptions::default(), None, &mut stats,
    ).ok();
    assert_eq!(stats.heuristic_tightenings, 0, "no tables, no tightenings");

    space.set_landmarks(Some(Arc::new(Landmarks::build(&space, 4))));
    let mut alt_stats = astar::SearchStats::default();
    let alt = astar::route_opts(
        &space, NetId(0), src, dst, SearchOptions::default(), None, &mut alt_stats,
    ).ok();

    let (plain, alt) = (plain.expect("plain route"), alt.expect("alt route"));
    assert!(
        (plain.cost - alt.cost).abs() <= 1e-6,
        "ALT changed the detour cost: {} vs {}",
        plain.cost,
        alt.cost
    );
    assert!(
        alt_stats.heuristic_tightenings > 0,
        "wall detour must make the landmark bound beat the geometric heuristic"
    );
    assert!(
        alt_stats.nodes_expanded <= stats.nodes_expanded,
        "a tighter heuristic must not expand more nodes ({} > {})",
        alt_stats.nodes_expanded,
        stats.nodes_expanded
    );
}
