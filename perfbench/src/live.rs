//! `live_ingest`: a served `LiveSummary` taking appends while it answers.
//!
//! One open-loop appender sends fixed-size batches on a fixed schedule
//! (every fifth a replay of the previous batch's idempotency token); one
//! closed-loop reader sends counts, whole-relation counts and GROUP BYs.
//! Appends are timed from when they were due. A batch's fold lag runs from
//! its due time until a whole-relation count the reader received covers
//! it.
//!
//! Replies are checked against uncached mixtures rebuilt outside the
//! served summary: the base shards, plus every sealed segment and the
//! fitted delta re-fitted with `fit_segment` from the rows the appender
//! sent, at each epoch the summary published.

use crate::drive::{phase, phase_with, same_bits, Check, Phase};
use crate::layers::{analyze, EngineTime, Layers};
use crate::ops::{pool, Draw, Kind, Op};
use crate::out::{Metric, Run};
use crate::setup::{self, accuracy, pair_statistics, peak_rss_mb, repeated};
use crate::shared::{CallLog, Shared};
use crate::trace::Tracer;
use crate::workloads::{
    describe, end_to_end, layer_tail, save_spans, server_metrics, shards, stream, Args, CacheTally,
    CACHE_ENTRIES, LOOPBACK, SHARD_BUDGET, WARMUP_SECS,
};
use entropydb_bench::report::percentile;
use entropydb_core::ingest::fit_segment;
use entropydb_core::prelude::*;
use entropydb_core::serialize;
use entropydb_server::{serve, Client, ServerHandle};
use entropydb_storage::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The reader's kinds, with equal shares: the counts (point, range, whole
/// relation) and GROUP BYs named for this workload.
const LIVE_KINDS: &[Kind] = &[Kind::Point, Kind::Range, Kind::CountAll, Kind::GroupBy];
/// Rows per appended batch: the append batch of the repository's ingest
/// bench (`crates/bench/benches/ingest.rs`).
const APPEND_ROWS: usize = 64;
/// Interval between appended batches: 20 per second, 16 of them new, so
/// one default fold threshold (1,024 rows) arrives per second.
const APPEND_PERIOD: Duration = Duration::from_millis(50);
/// Every fifth batch replays the previous batch's idempotency token.
const REPLAY_EVERY: usize = 5;
/// Longest wait for the summary to fold every appended row.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// The live summary, its server and the call log of its served wrapper.
struct Live {
    summary: Arc<LiveSummary>,
    server: ServerHandle,
    log: Arc<CallLog>,
    base: ShardedSummary,
    stats: Vec<MultiDimStatistic>,
}

/// What the served mixture held at one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Published {
    /// Relation size.
    n: u64,
    /// Sealed segments, base shards included.
    segments: usize,
}

/// Records what the reader received, for checking once the run is over.
/// Replies to the same operation within one epoch must be identical, so
/// each later one is compared with the first on arrival; the first is
/// checked against the rebuilt mixture of its epoch afterwards.
struct LiveCheck<'a> {
    summary: &'a LiveSummary,
    ops: &'a [Op],
    /// First reply per `(epoch, op)`.
    first: Mutex<HashMap<(u64, usize), Vec<QueryResponse>>>,
    /// Epochs the watcher saw, with what they held.
    published: Mutex<BTreeMap<u64, Published>>,
    /// Arrival time and cardinality of every whole-relation count.
    observed: Mutex<Vec<(Instant, u64)>>,
    /// Replies compared with an earlier reply of the same epoch.
    repeated: AtomicU64,
    /// Replies whose epoch changed while they were in flight.
    straddled: AtomicU64,
}

impl LiveCheck<'_> {
    /// Records the current epoch with the mixture size and segment count
    /// it serves, when the three reads agree.
    fn watch(&self) {
        let epoch = self.summary.epoch();
        // Takes the state lock, which a fold holds until its publish is
        // complete: the snapshot of `epoch` is the one now served.
        let segments = self.summary.num_segments();
        let n = self.summary.n();
        if self.summary.epoch() == epoch {
            let mut published = self.published.lock().expect("epochs poisoned");
            published.entry(epoch).or_insert(Published { n, segments });
        }
    }
}

impl Check for LiveCheck<'_> {
    fn before(&self) -> u64 {
        let epoch = self.summary.epoch();
        // As in `watch`: the snapshot of `epoch` is installed before the
        // request is sent.
        self.summary.staged_rows();
        epoch
    }

    fn verify(&self, op: usize, before: u64, replies: &[QueryResponse]) -> bool {
        if self.summary.epoch() != before {
            self.straddled.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let mut first = self.first.lock().expect("replies poisoned");
        match first.get(&(before, op)) {
            Some(want) => {
                self.repeated.fetch_add(1, Ordering::Relaxed);
                want.len() == replies.len()
                    && want.iter().zip(replies).all(|(w, r)| same_bits(w, r))
            }
            None => {
                first.insert((before, op), replies.to_vec());
                true
            }
        }
    }

    fn observe(&self, op: usize, replies: &[QueryResponse], at: Instant) {
        if self.ops[op].kind == Kind::CountAll {
            if let Some(e) = replies.first().and_then(QueryResponse::estimate) {
                let mut observed = self.observed.lock().expect("observations poisoned");
                observed.push((at, e.expectation as u64));
            }
        }
    }
}

/// Outcome of checking the first replies of every epoch.
struct Verdict {
    /// Replies compared bitwise with a rebuilt mixture.
    verified: u64,
    /// Replies whose epoch could not be rebuilt.
    unknown: u64,
    /// Replies that differed.
    wrong: u64,
}

/// Rebuilds the mixture of every watched epoch from the base shards and
/// the unique appended `rows` (in send order), and compares the first
/// replies of each epoch with it. A fold that raised the segment count
/// sealed the delta it fitted; when that fold's epoch was not watched the
/// segment's bounds are unknown, and later epochs are not rebuilt.
fn verify_epochs(live: &Live, check: &LiveCheck, rows: &[Vec<u32>]) -> Verdict {
    let published = check.published.lock().expect("epochs poisoned").clone();
    let first = std::mem::take(&mut *check.first.lock().expect("replies poisoned"));
    let mut by_epoch: BTreeMap<u64, Vec<(usize, Vec<QueryResponse>)>> = BTreeMap::new();
    for ((epoch, op), replies) in first {
        by_epoch.entry(epoch).or_default().push((op, replies));
    }
    let base_n = live.base.n();
    let schema = live.base.schema().clone();
    let fit = |from: usize, to: usize| {
        let mut delta = Table::new(schema.clone());
        delta
            .append_rows(&rows[from..to])
            .expect("appended rows are valid");
        fit_segment(&delta, &live.stats, &SolverConfig::default())
    };
    let mut verdict = Verdict {
        verified: 0,
        unknown: 0,
        wrong: 0,
    };
    let mut sealed: Vec<MaxEntSummary> = Vec::new();
    let mut start = 0;
    let mut last = Published {
        n: base_n,
        segments: live.base.shards().len(),
    };
    let mut known = true;
    for (epoch, p) in &published {
        let folded = (p.n - base_n) as usize;
        if p.segments != last.segments {
            if p.segments == last.segments + 1 && known && folded <= rows.len() {
                match fit(start, folded) {
                    Ok(segment) => sealed.push(segment),
                    Err(_) => known = false,
                }
                start = folded;
            } else {
                known = false;
            }
        }
        last = *p;
        let Some(replies) = by_epoch.remove(epoch) else {
            continue;
        };
        let mut parts = live.base.shards().to_vec();
        parts.extend(sealed.iter().cloned());
        let delta = (folded > start && folded <= rows.len()).then(|| fit(start, folded));
        let mixture = match delta {
            Some(Ok(d)) => {
                parts.push(d);
                ShardedSummary::from_shards(parts).ok()
            }
            Some(Err(_)) => None,
            None => ShardedSummary::from_shards(parts).ok(),
        };
        let Some(mixture) = mixture.filter(|m| known && m.n() == p.n) else {
            verdict.unknown += replies.len() as u64;
            continue;
        };
        let reference = QueryEngine::new(mixture);
        for (op, replies) in replies {
            let want = reference.execute_batch(&check.ops[op].requests);
            verdict.verified += 1;
            let same = want.len() == replies.len()
                && want
                    .iter()
                    .zip(&replies)
                    .all(|(w, r)| w.as_ref().is_ok_and(|w| same_bits(w, r)));
            verdict.wrong += u64::from(!same);
        }
    }
    verdict.unknown += by_epoch.values().map(|v| v.len() as u64).sum::<u64>();
    verdict
}

/// One appended batch.
struct Sent {
    due: Instant,
    sent: Instant,
    acked: Instant,
    /// Relation size once this batch is folded (`None` for a replay).
    covers: Option<u64>,
}

/// The open-loop appender's state, kept across phases.
struct Appender {
    client: Client,
    rng: StdRng,
    seed: u64,
    origin: Option<Instant>,
    next: usize,
    base_n: u64,
    rows: Vec<Vec<u32>>,
    replays: u64,
    last: Option<(String, Vec<Vec<u32>>)>,
    log: Vec<Sent>,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Appender {
    /// Sends every batch due before `until`.
    fn run(&mut self, table: &Table, until: Instant) {
        let origin = *self.origin.get_or_insert_with(Instant::now);
        loop {
            let due = origin + APPEND_PERIOD * self.next as u32;
            if due >= until {
                return;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let replay = self.next % REPLAY_EVERY == REPLAY_EVERY - 1;
            let (token, rows) = match (&self.last, replay) {
                (Some(last), true) => last.clone(),
                _ => {
                    let rows: Vec<Vec<u32>> = (0..APPEND_ROWS)
                        .map(|_| {
                            let r = self.rng.gen_range(0..table.num_rows());
                            table.row(r).expect("row in range")
                        })
                        .collect();
                    (format!("b{:x}-{}", self.seed, self.next), rows)
                }
            };
            self.next += 1;
            self.attempted += 1;
            let sent = Instant::now();
            let outcome = self.client.append(&rows, Some(&token));
            let acked = Instant::now();
            let Ok(outcome) = outcome else {
                self.failed += 1;
                continue;
            };
            let covers = if replay {
                self.replays += 1;
                if !outcome.duplicate || outcome.accepted != 0 {
                    self.wrong += 1;
                }
                None
            } else {
                if outcome.duplicate || outcome.accepted != rows.len() as u64 {
                    self.wrong += 1;
                }
                self.rows.extend(rows.iter().cloned());
                self.last = Some((token, rows));
                Some(self.base_n + self.rows.len() as u64)
            };
            self.log.push(Sent {
                due,
                sent,
                acked,
                covers,
            });
        }
    }
}

/// `live_ingest`.
pub fn live(args: &Args) -> Run {
    let mut run = Run::default();
    let d = setup::dataset();
    // The shipped fold and seal thresholds, with the gateway's cache.
    let config = IngestConfig::builder()
        .background(true)
        .probe_cache_entries(CACHE_ENTRIES)
        .build()
        .expect("ingest config");
    let (live, setup_s, reps) = repeated(|| {
        let stats = pair_statistics(&d, SHARD_BUDGET);
        let base = shards(&d, stats.clone());
        let summary = Arc::new(
            LiveSummary::new(
                base.clone(),
                stats.clone(),
                SolverConfig::default(),
                config.clone(),
            )
            .expect("live summary"),
        );
        let log = Arc::new(CallLog::with_queries());
        let server = serve(
            QueryEngine::new(Shared::new(Arc::clone(&summary), Arc::clone(&log))),
            LOOPBACK,
        )
        .expect("serve live");
        Client::connect(server.local_addr())
            .and_then(|mut c| c.ping().map_err(std::io::Error::other))
            .expect("live server answers");
        Live {
            summary,
            server,
            log,
            base,
            stats,
        }
    });
    let addr = live.server.local_addr();
    let base_n = live.summary.n();
    // Epoch 0 serves the base shards; accuracy is scored there.
    let reference = QueryEngine::new(live.base.clone());
    let acc = accuracy(&d, addr, |r| reference.execute_batch(r));
    run.count(acc.attempted, acc.failed, acc.wrong);

    let ops = pool(&d, LIVE_KINDS, args.seed);
    let check = LiveCheck {
        summary: &live.summary,
        ops: &ops,
        first: Mutex::new(HashMap::new()),
        published: Mutex::new(BTreeMap::new()),
        observed: Mutex::new(Vec::new()),
        repeated: AtomicU64::new(0),
        straddled: AtomicU64::new(0),
    };
    check.watch();
    let mut warm = vec![stream(
        &ops,
        LIVE_KINDS,
        &Draw::Uniform,
        args.seed ^ 0x5EED,
        0,
    )];
    phase(&live.server, &ops, &mut warm, WARMUP_SECS, &check, None);
    live.log.take_queries();
    let cache = Mutex::new(CacheTally::default());
    cache
        .lock()
        .expect("cache tally")
        .reset(live.summary.cache_stats());

    let mut appender = Appender {
        client: Client::connect(addr).expect("appender connects"),
        rng: StdRng::seed_from_u64(args.seed ^ 0xA99E),
        seed: args.seed,
        origin: None,
        next: 0,
        base_n,
        rows: Vec::new(),
        replays: 0,
        last: None,
        log: Vec::new(),
        attempted: 0,
        failed: 0,
        wrong: 0,
    };
    let mut reader = vec![stream(&ops, LIVE_KINDS, &Draw::Uniform, args.seed, 0)];
    let staged_max = AtomicU64::new(0);
    let mut window = |secs: f64, tracer: Option<&Tracer>| -> Phase {
        let until = Instant::now() + Duration::from_secs_f64(secs);
        let summary = &live.summary;
        let staged_max = &staged_max;
        let cache = &cache;
        let check = &check;
        let table = &d.table;
        let appender = &mut appender;
        phase_with(
            &live.server,
            &ops,
            &mut reader,
            secs,
            check,
            tracer,
            |scope| {
                scope.spawn(move || appender.run(table, until));
                scope.spawn(move || {
                    while Instant::now() < until {
                        check.watch();
                        staged_max.fetch_max(summary.staged_rows(), Ordering::Relaxed);
                        cache
                            .lock()
                            .expect("cache tally")
                            .sample(summary.cache_stats());
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
            },
        )
    };
    let (untraced, traced) = if args.trace {
        let untraced = window(args.seconds / 2.0, None);
        let tracer = Tracer::new(Instant::now());
        let traced = window(args.seconds / 2.0, Some(&tracer));
        (untraced, Some((traced, tracer)))
    } else {
        (window(args.seconds, None), None)
    };
    for p in std::iter::once(&untraced).chain(traced.as_ref().map(|(p, _)| p)) {
        run.count(p.outcome.attempted, p.outcome.failed, p.outcome.wrong);
    }
    run.count(appender.attempted, appender.failed, appender.wrong);
    let verdict = verify_epochs(&live, &check, &appender.rows);
    run.wrong += verdict.wrong;

    // Drain: fold what is still staged below the fold threshold; then every
    // unique row must be counted exactly once, and every replay must have
    // been absorbed as a duplicate.
    let expected = base_n + appender.rows.len() as u64;
    let flushed = live.summary.flush();
    let drained = flushed.is_ok() && drain(addr, expected, &check);
    let clean = live.summary.wait_until_clean(DRAIN_TIMEOUT);
    let stats = live.summary.ingest_stats();
    let fold_error = live.summary.take_fold_error();
    run.attempted += 1;
    if !drained || !clean || fold_error.is_some() || stats.duplicate_appends != appender.replays {
        run.wrong += 1;
        run.note(format!(
            "live_ingest: drain failed: flush {flushed:?}, count reached expected {expected}: {drained}, clean: {clean}, fold error: {fold_error:?}, duplicates {} vs replays {}",
            stats.duplicate_appends, appender.replays
        ));
    }

    describe(
        &mut run,
        "live_ingest",
        LIVE_KINDS,
        &untraced,
        &ops,
        Some(CACHE_ENTRIES),
    );
    run.note(format!(
        "live_ingest: {} appends ({} replays) of {APPEND_ROWS} rows every {:?}; {} folds, {} seals",
        appender.log.len(),
        appender.replays,
        APPEND_PERIOD,
        stats.folds,
        stats.seals,
    ));
    run.note(format!(
        "live_ingest: {} first replies of an epoch compared with its rebuilt mixture ({} wrong, {} of epochs not rebuilt), {} later replies with the first, {} not checked because a fold landed while in flight",
        verdict.verified,
        verdict.wrong,
        verdict.unknown,
        check.repeated.load(Ordering::Relaxed),
        check.straddled.load(Ordering::Relaxed)
    ));
    let summary_kb = serialize::sharded_to_string(&live.base).len() as f64 / 1024.0;
    if let Some((traced, tracer)) = &traced {
        let captured = live.log.take_queries();
        let layers = Layers {
            engine: EngineTime::Captured(&captured),
            kernel: &live.base.shards()[0],
            gather: None,
        };
        let base = percentile(&untraced.outcome.count_latencies(), 50.0);
        let (metrics, notes) = analyze(&traced.outcome, base, &ops, tracer, &layers);
        run.metrics.extend(metrics);
        run.notes.extend(notes);
        run.metrics.extend(server_metrics(&untraced));
        run.metrics
            .extend(cache.lock().expect("cache tally").metrics());
        run.metrics.extend(ingest_metrics(
            &appender,
            &live,
            &check,
            staged_max.load(Ordering::Relaxed),
        ));
        layer_tail(&mut run, &d, &live.base, summary_kb);
        save_spans("live_ingest", args, tracer, &mut run);
    } else {
        end_to_end(
            &mut run,
            (setup_s, reps),
            &untraced,
            acc.metrics,
            (peak_rss_mb(&[]), summary_kb),
        );
    }
    run
}

/// Polls whole-relation counts until one reports `expected` rows, feeding
/// the observations to `check`. Returns whether it got there.
fn drain(addr: SocketAddr, expected: u64, check: &LiveCheck) -> bool {
    let Ok(mut client) = Client::connect(addr) else {
        return false;
    };
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    let count_all = check
        .ops
        .iter()
        .position(|o| o.kind == Kind::CountAll)
        .expect("the live pool has a whole-relation count");
    while Instant::now() < deadline {
        let Ok(reply) = client.execute(&check.ops[count_all].requests[0]) else {
            return false;
        };
        let at = Instant::now();
        check.observe(count_all, std::slice::from_ref(&reply), at);
        if reply
            .estimate()
            .is_some_and(|e| e.expectation == expected as f64)
        {
            client.quit();
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// Ingest metrics: append latencies, fold lag, and a re-fit of the delta
/// at each size a fold would fit it.
fn ingest_metrics(a: &Appender, live: &Live, check: &LiveCheck, staged_max: u64) -> Vec<Metric> {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let append_us: Vec<f64> = live.log.take_appends().into_iter().map(us).collect();
    let ack_us: Vec<f64> = a.log.iter().map(|s| us(s.acked - s.due)).collect();
    let late_us: Vec<f64> = a.log.iter().map(|s| us(s.sent - s.due)).collect();
    let mut observed = check
        .observed
        .lock()
        .expect("observations poisoned")
        .clone();
    observed.sort_by_key(|(at, _)| *at);
    let lag_ms: Vec<f64> = a
        .log
        .iter()
        .filter_map(|s| {
            let covers = s.covers?;
            let first = observed
                .iter()
                .find(|(at, n)| *n >= covers && *at >= s.due)?;
            Some((first.0 - s.due).as_secs_f64() * 1e3)
        })
        .collect();

    let schema = live.base.schema().clone();
    let config = IngestConfig::default();
    let mut fits = Vec::new();
    let mut size = config.delta_rows;
    while size <= config.seal_rows.min(a.rows.len()) {
        let mut delta = Table::new(schema.clone());
        delta
            .append_rows(&a.rows[..size])
            .expect("appended rows are valid");
        let start = Instant::now();
        std::hint::black_box(fit_segment(&delta, &live.stats, &SolverConfig::default()).ok());
        fits.push(start.elapsed().as_secs_f64() * 1e3);
        size += config.delta_rows;
    }
    let stats = live.summary.ingest_stats();
    vec![
        Metric::pct("ingest.append_p50_us", &append_us, 50.0, "us"),
        Metric::pct("ingest.append_p99_us", &append_us, 99.0, "us"),
        Metric::pct("ingest.append_ack_p99_us", &ack_us, 99.0, "us"),
        Metric::pct("ingest.fold_lag_p99_ms", &lag_ms, 99.0, "ms"),
        Metric::new(
            "ingest.fit_ms",
            fits.iter().sum::<f64>() / fits.len().max(1) as f64,
            "ms",
            "lower",
            fits.len(),
        ),
        Metric::new("ingest.folds", stats.folds as f64, "count", "lower", 1),
        Metric::new(
            "ingest.duplicates",
            stats.duplicate_appends as f64,
            "count",
            "lower",
            1,
        ),
        Metric::new("ingest.staged_max", staged_max as f64, "count", "lower", 1),
        Metric::pct("loadgen.late_p99_us", &late_us, 99.0, "us"),
    ]
}
