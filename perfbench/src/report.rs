//! What one run reports: metrics with units, the correctness tally, and
//! the JSON rendering of both.

use info_model::drc::Violation;
use info_router::serve::json::Json;
use info_router::{NetStatus, RouteOutcome};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Operations attempted and failed, with one message per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one operation whose checks all passed when `problems` is
    /// empty, and one failed operation (reporting each problem) otherwise.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.messages.extend(problems);
        }
    }

    /// A single run-level check (hash agreement, oracle agreement).
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.op(if ok { Vec::new() } else { vec![message()] });
    }
}

/// Problems with an outcome's geometry: its only DRC violations may be
/// `Disconnected` on nets the outcome itself reports as not routed.
pub fn geometry_problems(what: &str, out: &RouteOutcome) -> Vec<String> {
    let unrouted: BTreeSet<usize> = out
        .net_status
        .iter()
        .filter(|(_, st)| *st != NetStatus::Routed)
        .map(|(id, _)| id.index())
        .collect();
    out.drc
        .violations()
        .iter()
        .filter(
            |v| !matches!(v, Violation::Disconnected { net } if unrouted.contains(&net.index())),
        )
        .map(|v| format!("{what}: DRC violation {v:?}"))
        .collect()
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    let entry = vec![
                        ("value".to_string(), Json::Num(*value)),
                        ("unit".to_string(), Json::Str(unit.to_string())),
                    ];
                    (name.clone(), Json::Obj(entry))
                })
                .collect(),
        )
    }
}

/// Spans recorded around calls into the program: `(name, start, end)`
/// in seconds since the span tree's root began. All are children of the
/// root, which names the traced operation.
#[derive(Debug)]
pub struct Spans {
    root: &'static str,
    origin: Instant,
    list: Vec<(&'static str, f64, f64)>,
}

impl Spans {
    pub fn new(root: &'static str) -> Self {
        Spans {
            root,
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    /// Runs `f` under a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed().as_secs_f64();
        let value = f();
        self.list
            .push((name, start, self.origin.elapsed().as_secs_f64()));
        value
    }

    /// Seconds since the root began.
    pub fn wall(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Busy seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.list
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.2 - s.1)
            .sum()
    }

    /// Busy seconds of all spans (they never overlap).
    pub fn covered(&self) -> f64 {
        self.list.iter().map(|s| s.2 - s.1).sum()
    }

    pub fn json(&self) -> Json {
        let span = |&(name, start, end): &(&str, f64, f64)| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(name.to_string())),
                ("parent".to_string(), Json::Str(self.root.to_string())),
                ("start_s".to_string(), Json::Num(start)),
                ("end_s".to_string(), Json::Num(end)),
            ])
        };
        Json::Arr(self.list.iter().map(span).collect())
    }
}

/// Linear-interpolated percentile (`q` in 0..=100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A layout hash as the server prints it.
pub fn hex(hash: u64) -> Json {
    Json::Str(format!("{hash:016x}"))
}

/// A small deterministic generator (SplitMix64) for seeded inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert_eq!(percentile(&xs, 75.0), 3.25);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
