//! ALT landmark lower bounds over the stage-start tile graph (§III-D
//! acceleration; see DESIGN.md §4f).
//!
//! ## The optimistic stage-start graph
//!
//! Landmark distances are exact only for a fixed graph, but the tile
//! graph is rebuilt after every committed net. Instead of patching
//! tables per commit, the tables are computed **once per sequential
//! stage** over a graph `G₀` whose distances lower-bound the true
//! routing cost in *every* state the stage can reach:
//!
//! - **Nodes** are the stage-start tiles minus hard-blocked ones
//!   (net-tagged tiles are kept: they are passable for their owner, and
//!   keeping them only lowers distances for everyone else).
//! - **Planar edges** join same-layer tiles whose shapes share at least
//!   a point, with weight `max(0, oct(c_a, c_b) − r_a − r_b)` where `c`
//!   is an interior point and `r` the tile's octilinear radius. For any
//!   points `p ∈ a, q ∈ b` the triangle inequality gives
//!   `oct(p, q) ≥ oct(c_a, c_b) − r_a − r_b`, so any real hop costs at
//!   least the edge weight.
//! - **Via edges** join overlapping tiles on adjacent layers at weight
//!   `via_cost` (the travel to the via site is deflated to zero).
//!
//! Admissibility: the sequential stage only *adds* blockage relative to
//! its start state (rip-up evicts only nets the stage itself committed,
//! so restores never go below stage start). Any future legal route is a
//! curve in stage-start free space; tracing the stage-start tiles it
//! passes through yields a `G₀` walk whose weight, by the hop bound
//! above, does not exceed the route's cost. Hence
//! `d₀(T(p), T(q)) ≤ cost(p → q)` for the stage-start tiles `T(·)`
//! containing the endpoints, in every reachable state. The classic ALT
//! bound `max_L |d₀(L, T(p)) − d₀(L, T(dst))|` then lower-bounds
//! `d₀(T(p), T(dst))`, and consistency follows from the same argument
//! applied to each search edge (every A\* move's geometric segment stays
//! inside a convex stage-start-free octagon). `tests/` pins both
//! properties against exact Dijkstra distances.
//!
//! Each per-edge weight is additionally deflated by `EDGE_SLACK` so
//! accumulated floating-point rounding can never push a table distance
//! above the true infimum.

use crate::space::RoutingSpace;
use info_geom::{x_arch_len, GridIndex, Octagon, Point, Rect};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-edge deflation absorbing float rounding in summed path weights
/// (nanometers; a thousand-edge path gives up one millionth of a nm of
/// tightening in exchange for bulletproof admissibility).
const EDGE_SLACK: f64 = 1e-6;

/// Landmark distance tables over the stage-start tile graph. Built once
/// per sequential stage ([`RoutingSpace::set_landmarks`]); valid for the
/// whole stage by the blockage-monotonicity argument in the module docs,
/// so no per-commit invalidation is needed — snapshots and restores share
/// the tables through an `Arc`.
#[derive(Debug, Clone)]
pub struct Landmarks {
    /// Per wire layer: spatial index over node bboxes (payload = node).
    locate: Vec<GridIndex<u32>>,
    /// Node shapes, for exact point-membership tests.
    shapes: Vec<Octagon>,
    /// `dist[l * nodes + node]`: Dijkstra distance from landmark `l`.
    dist: Vec<f64>,
    /// Landmark count actually selected (≤ requested on tiny graphs).
    k: usize,
}

/// One adjacency list entry of the optimistic graph.
#[derive(Clone, Copy)]
struct Arc0 {
    to: u32,
    w: f64,
}

impl Landmarks {
    /// Builds tables with (up to) `k` landmarks over the space's current
    /// tiles. Deterministic: node order is tile-slot order, landmark
    /// selection is farthest-point sampling seeded at the node with the
    /// lexicographically smallest `(center, layer)`.
    pub fn build(space: &RoutingSpace, k: usize) -> Self {
        Self::build_threaded(space, k, 1)
    }

    /// [`Landmarks::build`] with the per-landmark Dijkstra loop spread
    /// over up to `threads` OS threads. Each landmark's table is an
    /// independent single-source problem writing a disjoint slice of
    /// `dist`, so the tables are bit-identical at every thread count —
    /// which is also why a warm-space cache key never needs to include
    /// the thread count.
    pub fn build_threaded(space: &RoutingSpace, k: usize, threads: usize) -> Self {
        let layers = space.layer_count();

        // --- Collect nodes (stage-start tiles that someone can pass).
        let mut shapes: Vec<Octagon> = Vec::new();
        let mut centers: Vec<Point> = Vec::new();
        let mut radii: Vec<f64> = Vec::new();
        let mut node_layer: Vec<u32> = Vec::new();
        let mut bounds: Option<Rect> = None;
        for (_, t) in space.live_tiles() {
            let hard = t
                .blockers
                .iter()
                .any(|b| matches!(b, crate::space::Blocker::Hard));
            if hard {
                continue;
            }
            let c = t.shape.interior_point();
            let r = t
                .shape
                .vertices()
                .iter()
                .map(|&v| x_arch_len(c, v))
                .fold(0.0f64, f64::max);
            let bb = t.shape.bbox();
            bounds = Some(match bounds {
                None => bb,
                Some(acc) => acc.union(bb),
            });
            shapes.push(t.shape);
            centers.push(c);
            radii.push(r);
            node_layer.push(t.layer.index() as u32);
        }
        let n = shapes.len();
        let bounds = bounds.unwrap_or_else(|| Rect::new(Point::new(0, 0), Point::new(1, 1)));

        // --- Per-layer locate indexes (also the adjacency query source).
        let mut locate: Vec<GridIndex<u32>> = (0..layers)
            .map(|_| GridIndex::with_capacity_hint(bounds, n / layers.max(1) + 1))
            .collect();
        for i in 0..n {
            locate[node_layer[i] as usize].insert(shapes[i].bbox(), i as u32);
        }

        if n == 0 || k == 0 {
            return Landmarks { locate, shapes, dist: Vec::new(), k: 0 };
        }

        // --- Optimistic adjacency (CSR). Planar: same-layer touching
        // shapes, deflated octilinear weight. Via: overlapping shapes on
        // adjacent layers at `via_cost`.
        let via_cost = space.config().via_cost;
        let mut adj: Vec<Vec<Arc0>> = vec![Vec::new(); n];
        for i in 0..n {
            let layer = node_layer[i] as usize;
            let my_bb = shapes[i].bbox();
            // Same layer: query returns candidates in insertion (= node)
            // order; keep j > i and add both directions once.
            let idx = &locate[layer];
            for e in idx.query_ref(my_bb) {
                let (_, &j) = idx.get(e).expect("live locate entry");
                let j = j as usize;
                if j <= i || !shapes[i].intersects(&shapes[j]) {
                    continue;
                }
                let raw = x_arch_len(centers[i], centers[j]) - radii[i] - radii[j];
                let w = (raw - EDGE_SLACK).max(0.0);
                adj[i].push(Arc0 { to: j as u32, w });
                adj[j].push(Arc0 { to: i as u32, w });
            }
            // Adjacent layer above only (below is covered symmetrically).
            if layer + 1 < layers {
                let idx = &locate[layer + 1];
                for e in idx.query_ref(my_bb) {
                    let (_, &j) = idx.get(e).expect("live locate entry");
                    let j = j as usize;
                    if !shapes[i].intersects(&shapes[j]) {
                        continue;
                    }
                    let w = (via_cost - EDGE_SLACK).max(0.0);
                    adj[i].push(Arc0 { to: j as u32, w });
                    adj[j].push(Arc0 { to: i as u32, w });
                }
            }
        }

        // --- Farthest-point landmark selection over (center, layer-hop)
        // octilinear distance. Seed: lexicographically smallest center.
        let metric = |a: usize, b: usize| {
            x_arch_len(centers[a], centers[b])
                + (node_layer[a].abs_diff(node_layer[b]) as f64) * via_cost
        };
        let seed = (0..n)
            .min_by_key(|&i| (centers[i].x, centers[i].y, node_layer[i]))
            .expect("n > 0");
        let mut landmarks = vec![seed];
        let mut min_d: Vec<f64> = (0..n).map(|i| metric(seed, i)).collect();
        while landmarks.len() < k.min(n) {
            let far = (0..n)
                .max_by(|&a, &b| min_d[a].total_cmp(&min_d[b]).then(b.cmp(&a)))
                .expect("n > 0");
            if min_d[far] <= 0.0 {
                break; // every node coincides with a landmark already
            }
            landmarks.push(far);
            for (i, d) in min_d.iter_mut().enumerate() {
                *d = d.min(metric(far, i));
            }
        }
        let k = landmarks.len();

        // --- Per-landmark Dijkstra over the optimistic graph. Each
        // landmark fills its own disjoint `dist` slice, so the slices are
        // dealt out to scoped worker threads round-robin (this crate sits
        // below the router's worker pool in the dependency graph,
        // and k is small enough that static striping balances fine).
        let mut dist = vec![f64::INFINITY; k * n];
        let workers = threads.max(1).min(k.max(1));
        let mut striped: Vec<Vec<(usize, &mut [f64])>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (l, slice) in dist.chunks_mut(n).enumerate() {
            striped[l % workers].push((l, slice));
        }
        let run_landmark = |src: usize, d: &mut [f64]| {
            let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            d[src] = 0.0;
            heap.push(Reverse((0u64, src as u32)));
            while let Some(Reverse((fb, u))) = heap.pop() {
                let u = u as usize;
                if f64::from_bits(fb) > d[u] {
                    continue;
                }
                let du = d[u];
                for a in &adj[u] {
                    let nd = du + a.w;
                    if nd < d[a.to as usize] {
                        d[a.to as usize] = nd;
                        heap.push(Reverse((nd.to_bits(), a.to)));
                    }
                }
            }
        };
        if workers <= 1 {
            for stripe in striped {
                for (l, d) in stripe {
                    run_landmark(landmarks[l], d);
                }
            }
        } else {
            std::thread::scope(|s| {
                for stripe in striped {
                    let landmarks = &landmarks;
                    let run_landmark = &run_landmark;
                    s.spawn(move || {
                        for (l, d) in stripe {
                            run_landmark(landmarks[l], d);
                        }
                    });
                }
            });
        }

        Landmarks { locate, shapes, dist, k }
    }

    /// Number of landmarks in the tables.
    pub fn landmark_count(&self) -> usize {
        self.k
    }

    /// Number of graph nodes (stage-start passable tiles).
    pub fn node_count(&self) -> usize {
        self.shapes.len()
    }

    /// The stage-start node containing `p` on `layer`, if any
    /// (deterministic: the lowest-numbered containing node). Allocation
    /// free — the hot path calls this once per heuristic-cache miss.
    pub fn node_at(&self, layer: usize, p: Point) -> Option<u32> {
        let idx = self.locate.get(layer)?;
        let mut best: Option<u32> = None;
        idx.for_each_in(Rect::new(p, p), |_, _, &node| {
            if self.shapes[node as usize].contains(p) {
                best = Some(match best {
                    Some(b) => b.min(node),
                    None => node,
                });
            }
        });
        best
    }

    /// The ALT lower bound between two nodes:
    /// `max_L |d₀(L, a) − d₀(L, b)|`. Landmarks that cannot reach either
    /// node contribute nothing (the bound stays finite and admissible).
    #[inline]
    pub fn lower_bound(&self, a: u32, b: u32) -> f64 {
        let n = self.shapes.len();
        let (a, b) = (a as usize, b as usize);
        let mut best = 0.0f64;
        for l in 0..self.k {
            let da = self.dist[l * n + a];
            let db = self.dist[l * n + b];
            if da.is_finite() && db.is_finite() {
                let d = (da - db).abs();
                if d > best {
                    best = d;
                }
            }
        }
        best
    }
}
