//! Inputs, model builds, accuracy scoring and process figures shared by
//! the workloads.

use crate::drive::same_bits;
use crate::out::Metric;
use entropydb_bench::common::{self, flights_pairs, Scale};
use entropydb_core::metrics::{f_measure, relative_error};
use entropydb_core::prelude::*;
use entropydb_core::selection::heuristics::select_pair_statistics;
use entropydb_data::flights::FlightsDataset;
use entropydb_data::workload::Workload;
use entropydb_server::Client;
use entropydb_storage::Table;
use std::net::SocketAddr;
use std::time::Instant;

/// Rows of the flights table every workload summarizes.
pub const ROWS: usize = 100_000;

/// Set-up repetitions per run (at least); `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Cheap set-ups repeat until they have taken this long together (or
/// [`SETUP_REPS_MAX`] times), so their median is steady too.
const SETUP_MIN_SECS: f64 = 2.0;
const SETUP_REPS_MAX: usize = 15;

/// Seed of the fixed accuracy item set (the same for every run, so the
/// accuracy figures of a model repeat exactly).
const ACCURACY_SEED: u64 = 0xACC;

/// The coarse flights table (fixed; the workload seed shapes the traffic).
pub fn dataset() -> FlightsDataset {
    let mut scale = Scale::quick();
    scale.flights_rows = ROWS;
    common::flights_coarse(&scale)
}

/// COMPOSITE statistics over the paper's pairs 1, 2 and 3, `budget` per
/// pair.
pub fn pair_statistics(d: &FlightsDataset, budget: usize) -> Vec<MultiDimStatistic> {
    let pairs = flights_pairs(d);
    let mut stats = Vec::new();
    for (x, y) in &pairs[..3] {
        stats.extend(
            select_pair_statistics(&d.table, *x, *y, budget, Heuristic::Composite)
                .expect("statistic selection"),
        );
    }
    stats
}

/// Runs `build` at least [`SETUP_REPS`] times, keeping the last result;
/// returns it with the median duration in seconds and the repetitions
/// made. Earlier results are dropped (servers shut down) before the next
/// repetition starts.
pub fn repeated<T>(mut build: impl FnMut() -> T) -> (T, f64, usize) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECS && times.len() < SETUP_REPS_MAX)
    {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
        eprintln!("set-up {}: {:.3} s", times.len(), times[times.len() - 1]);
    }
    (
        last.expect("at least one repetition"),
        entropydb_bench::report::percentile(&times, 50.0),
        times.len(),
    )
}

/// Peak resident set size, from `VmHWM`, of this process plus that of each
/// child process in `children` (the shard nodes of a cluster): the sum of
/// every process's own peak.
pub fn peak_rss_mb(children: &[u32]) -> f64 {
    let hwm_mb = |path: &str| {
        let status = std::fs::read_to_string(path).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    let own = hwm_mb("/proc/self/status");
    own + children
        .iter()
        .map(|pid| hwm_mb(&format!("/proc/{pid}/status")))
        .sum::<f64>()
}

/// The paper's rounding (as `common::Method::estimate` applies it):
/// expectations below 0.5 count as 0.
fn rounded(raw: f64) -> f64 {
    if raw < 0.5 {
        0.0
    } else {
        raw
    }
}

/// Accuracy of served answers on the fixed item set.
pub struct Accuracy {
    /// Metrics `heavy_rel_err`, `light_rel_err`, `null_f_measure`.
    pub metrics: Vec<Metric>,
    /// Queries sent.
    pub attempted: u64,
    /// Queries that failed.
    pub failed: u64,
    /// Replies that differed from the in-process reference.
    pub wrong: u64,
}

/// Scores served COUNT estimates on the heavy, light and nonexistent items
/// of the four templates (paper Sec. 6.2: 100 / 100 / 200 per template).
/// Exact counts come from the base table; every reply is also compared
/// bitwise with `reference`.
pub fn accuracy(
    d: &FlightsDataset,
    addr: SocketAddr,
    reference: impl Fn(&[QueryRequest]) -> Vec<Result<QueryResponse>>,
) -> Accuracy {
    let mut heavy = Vec::new();
    let mut light_err = Vec::new();
    let mut light_est = Vec::new();
    let mut null_est = Vec::new();
    let mut acc = Accuracy {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        wrong: 0,
    };
    let mut client = Client::connect(addr).expect("connect for accuracy");
    for (x, y) in flights_pairs(d) {
        let w = Workload::generate(&d.table, &[x, y], 100, 100, 200, ACCURACY_SEED)
            .expect("accuracy workload");
        let items: Vec<(Vec<u32>, Option<u64>)> = w
            .heavy
            .iter()
            .map(|(v, t)| (v.clone(), Some(*t)))
            .chain(w.light.iter().map(|(v, t)| (v.clone(), Some(*t))))
            .chain(w.nulls.iter().map(|v| (v.clone(), None)))
            .collect();
        let requests: Vec<QueryRequest> = items
            .iter()
            .map(|(v, _)| QueryRequest::count(w.predicate(v)))
            .collect();
        acc.attempted += requests.len() as u64;
        let served = match client.execute_batch(&requests) {
            Ok(r) => r,
            Err(_) => {
                acc.failed += requests.len() as u64;
                continue;
            }
        };
        let expected = reference(&requests);
        for (i, (reply, want)) in served.into_iter().zip(expected).enumerate() {
            let (Ok(reply), Ok(want)) = (reply, want) else {
                acc.failed += 1;
                continue;
            };
            if !same_bits(&reply, &want) {
                acc.wrong += 1;
            }
            let est = rounded(reply.estimate().map_or(f64::NAN, |e| e.expectation));
            match items[i].1 {
                Some(truth) if i < w.heavy.len() => heavy.push(relative_error(truth as f64, est)),
                Some(truth) => {
                    light_err.push(relative_error(truth as f64, est));
                    light_est.push(est);
                }
                None => null_est.push(est),
            }
        }
    }
    client.quit();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    acc.metrics = vec![
        Metric::new("heavy_rel_err", mean(&heavy), "ratio", "lower", heavy.len()),
        Metric::new(
            "light_rel_err",
            mean(&light_err),
            "ratio",
            "lower",
            light_err.len(),
        ),
        Metric::new(
            "null_f_measure",
            f_measure(&light_est, &null_est).f,
            "ratio",
            "higher",
            light_est.len() + null_est.len(),
        ),
    ];
    acc
}

/// Times the build of one model layer by layer: statistic selection over
/// the whole table, then `Statistics::observe`, `FactorizedPolynomial::build`
/// and `solver::solve` over `part` with the statistics `multi` that model
/// was fitted with.
pub fn build_layers(
    d: &FlightsDataset,
    budget: usize,
    part: &Table,
    multi: &[MultiDimStatistic],
) -> Vec<Metric> {
    let ms = |start: Instant| start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    std::hint::black_box(pair_statistics(d, budget));
    let selection = ms(start);
    let start = Instant::now();
    let stats = Statistics::observe(part, multi.to_vec()).expect("observe");
    let observe = ms(start);
    let start = Instant::now();
    let poly = FactorizedPolynomial::build(stats.domain_sizes(), stats.multi()).expect("compress");
    let compress = ms(start);
    let start = Instant::now();
    let (_, report) =
        entropydb_core::solver::solve(&poly, &stats, &SolverConfig::default()).expect("solve");
    let solve = ms(start);
    vec![
        Metric::new("selection.ms", selection, "ms", "lower", 1),
        Metric::new("statistics.observe_ms", observe, "ms", "lower", 1),
        Metric::new("polynomial.compress_ms", compress, "ms", "lower", 1),
        Metric::new("solver.ms", solve, "ms", "lower", 1),
        Metric::new("solver.sweeps", report.sweeps as f64, "count", "lower", 1),
        Metric::new(
            "solver.converged",
            f64::from(u8::from(report.converged)),
            "bool",
            "higher",
            1,
        ),
    ]
}
