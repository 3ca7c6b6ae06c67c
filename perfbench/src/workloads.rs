//! The workloads. Each sets up its servers several times (`setup_s` is the
//! median, see [`repeated`]), checks accuracy outside the timed window,
//! warms up, and then measures for the requested seconds. A traced run
//! measures the first half untraced and the second half traced, so the
//! tracing overhead is the difference between the two halves.

use crate::drive::{phase, Check, Outcome, Phase, Precomputed};
use crate::layers::{analyze, time_engine, EngineTime, Gather, Layers};
use crate::node::ShardNode;
use crate::ops::{self, pool, Draw, Kind, Op, Stream};
use crate::out::{Metric, Run};
use crate::setup::{self, accuracy, build_layers, pair_statistics, peak_rss_mb, repeated};
use crate::shared::Shared;
use crate::trace::{write_jsonl, Tracer};
use entropydb_bench::report::percentile;
use entropydb_core::metrics::CacheStatsSnapshot;
use entropydb_core::prelude::*;
use entropydb_core::serialize;
use entropydb_data::flights::FlightsDataset;
use entropydb_server::{serve, Client, RemoteShardedSummary, ServerHandle};
use entropydb_storage::Partitioning;
use std::sync::Arc;
use std::time::Instant;

/// What the command line asked for.
pub struct Args {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Closed-loop clients of `explore_mono` and `gateway_fanout`.
const CLIENTS: u64 = 2;

/// Untimed warm-up before measuring: lazy scratch pools fill, connections
/// open, the gather cache reaches its steady state.
pub(crate) const WARMUP_SECS: f64 = 1.0;

/// Statistic budget per pair of the monolithic model (~150k terms).
const MONO_BUDGET: usize = 300;
/// Statistic budget per pair of every shard model (~2k terms each).
pub(crate) const SHARD_BUDGET: usize = 20;
/// Shards of the sharded workloads.
pub(crate) const SHARDS: usize = 4;
/// Gather-cache capacity, in shard answers, of the gateway and the live
/// mixture: 1/64 of the gateway's shipped default (65,536). A ten-second
/// run sends some 10^5 requests, too few to cycle the default capacity
/// through a working set several times its size, so the capacity is scaled
/// down to what one run can cycle rather than the request set scaled up.
pub(crate) const CACHE_ENTRIES: usize = 1024;

/// `explore_mono`: the Sec. 6.1 templates named for it, equally often.
const EXPLORE_KINDS: &[Kind] = &[
    Kind::Point,
    Kind::Range,
    Kind::GroupBy,
    Kind::TopK,
    Kind::Batch,
];

/// `gateway_fanout`: the same templates.
const GATEWAY_KINDS: &[Kind] = EXPLORE_KINDS;
/// Zipf exponent of the gateway's request popularity: the skew the flights
/// generator gives location popularity (`entropydb_data::flights`), so
/// requests are as skewed as the places they ask about.
const GATEWAY_ZIPF: f64 = 1.05;

pub(crate) fn stream(ops: &[Op], kinds: &[Kind], draw: &Draw, seed: u64, client: u64) -> Stream {
    Stream::new(
        ops,
        kinds,
        draw,
        seed ^ (client + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// Servers listen on an ephemeral loopback port.
pub(crate) const LOOPBACK: &str = "127.0.0.1:0";

/// Answers for every pool operation from an in-process engine.
fn precompute<B: SummaryBackend>(engine: &QueryEngine<B>, ops: &[Op]) -> Precomputed {
    let flat: Vec<QueryRequest> = ops.iter().flat_map(|o| o.requests.clone()).collect();
    let answers = engine.execute_batch(&flat);
    let mut answers = answers.into_iter();
    Precomputed(
        ops.iter()
            .map(|o| {
                (&mut answers)
                    .take(o.requests.len())
                    .map(|a| a.expect("reference answers every pool request"))
                    .collect()
            })
            .collect(),
    )
}

/// Every end-to-end metric, in `BENCHMARK.json` order: set-up time
/// (median and repetitions), the phase's latencies and throughput, the
/// accuracy metrics, peak memory and summary size.
pub(crate) fn end_to_end(
    run: &mut Run,
    (setup_s, reps): (f64, usize),
    p: &Phase,
    accuracy: Vec<Metric>,
    (peak_rss_mb, summary_kb): (f64, f64),
) {
    let o = &p.outcome;
    run.push(Metric::new("setup_s", setup_s, "s", "lower", reps));
    run.metrics.extend([
        Metric::windowed("count_p50_us", &o.count_us, 50.0, "us"),
        Metric::windowed("count_p99_us", &o.count_us, 99.0, "us"),
        Metric::windowed("multi_p50_us", &o.multi_us, 50.0, "us"),
        Metric::windowed("multi_p99_us", &o.multi_us, 99.0, "us"),
        Metric::new(
            "qps",
            o.statements as f64 / p.secs,
            "1/s",
            "higher",
            o.statements as usize,
        ),
    ]);
    run.metrics.extend(accuracy);
    run.push(Metric::new("peak_rss_mb", peak_rss_mb, "MB", "lower", 1));
    run.push(Metric::new("summary_kb", summary_kb, "kB", "lower", 1));
}

/// Serving-side counters of a phase.
pub(crate) fn server_metrics(p: &Phase) -> Vec<Metric> {
    let (a, b) = p.stats;
    let bytes = (b.bytes_in + b.bytes_out).saturating_sub(a.bytes_in + a.bytes_out);
    let statements = p.outcome.statements.max(1);
    vec![
        Metric::new(
            "server.shed",
            (b.shed_total - a.shed_total) as f64,
            "count",
            "lower",
            1,
        ),
        Metric::new("server.depth_max", p.depth_max as f64, "count", "lower", 1),
        Metric::new(
            "server.bytes_per_req",
            bytes as f64 / statements as f64,
            "B",
            "lower",
            statements as usize,
        ),
    ]
}

/// Gather-cache counters summed over successive snapshots. A live
/// summary starts fresh counters with every published mixture, so a
/// snapshot below the previous one counts from zero.
#[derive(Default)]
pub(crate) struct CacheTally {
    last: CacheStatsSnapshot,
    total: CacheStatsSnapshot,
}

impl CacheTally {
    /// Adds what changed since the previous snapshot.
    pub(crate) fn sample(&mut self, now: Option<CacheStatsSnapshot>) {
        let now = now.unwrap_or_default();
        let step = |now: u64, last: u64| if now >= last { now - last } else { now };
        self.total.hits += step(now.hits, self.last.hits);
        self.total.misses += step(now.misses, self.last.misses);
        self.total.coalesced += step(now.coalesced, self.last.coalesced);
        self.total.evicted += step(now.evicted, self.last.evicted);
        self.last = now;
    }

    /// Starts counting from the current snapshot.
    pub(crate) fn reset(&mut self, now: Option<CacheStatsSnapshot>) {
        self.last = now.unwrap_or_default();
        self.total = CacheStatsSnapshot::default();
    }

    /// The summed counters as metrics.
    pub(crate) fn metrics(&self) -> Vec<Metric> {
        let t = &self.total;
        let lookups = (t.hits + t.misses + t.coalesced) as usize;
        vec![
            Metric::new(
                "scatter.cache_hit_ratio",
                t.hit_rate(),
                "ratio",
                "higher",
                lookups,
            ),
            Metric::new(
                "scatter.coalesced",
                t.coalesced as f64,
                "count",
                "higher",
                1,
            ),
            Metric::new("scatter.evicted", t.evicted as f64, "count", "lower", 1),
        ]
    }
}

/// Per-layer ingest metrics of a workload without appends: the layer is
/// not on its path.
fn no_ingest() -> Vec<Metric> {
    [
        ("ingest.append_p50_us", "us"),
        ("ingest.append_p99_us", "us"),
        ("ingest.append_ack_p99_us", "us"),
        ("ingest.fold_lag_p99_ms", "ms"),
        ("ingest.fit_ms", "ms"),
        ("ingest.folds", "count"),
        ("ingest.duplicates", "count"),
        ("ingest.staged_max", "count"),
        ("loadgen.late_p99_us", "us"),
    ]
    .into_iter()
    .map(|(name, unit)| Metric::new(name, 0.0, unit, "lower", 0))
    .collect()
}

/// Share of operations whose pool index was already sent earlier in the
/// run.
fn repeat_share(o: &Outcome) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let repeats = o.sent.iter().filter(|i| !seen.insert(**i)).count();
    repeats as f64 / o.sent.len().max(1) as f64
}

/// The measured phases of a run, and the gather-cache counters over them.
struct Measured {
    untraced: Phase,
    traced: Option<(Phase, Tracer)>,
    cache: CacheTally,
}

/// Runs the closed-loop clients of a workload: warm-up, then either one
/// untraced phase or an untraced and a traced half.
fn measure(
    args: &Args,
    server: &ServerHandle,
    ops: &[Op],
    kinds: &[Kind],
    draw: &Draw,
    check: &dyn Check,
    cache_stats: &dyn Fn() -> Option<CacheStatsSnapshot>,
) -> Measured {
    let mut warm: Vec<Stream> = (0..CLIENTS)
        .map(|c| stream(ops, kinds, draw, args.seed ^ 0x5EED, c))
        .collect();
    phase(server, ops, &mut warm, WARMUP_SECS, check, None);
    let mut cache = CacheTally::default();
    cache.reset(cache_stats());
    let mut streams: Vec<Stream> = (0..CLIENTS)
        .map(|c| stream(ops, kinds, draw, args.seed, c))
        .collect();
    if !args.trace {
        let untraced = phase(server, ops, &mut streams, args.seconds, check, None);
        cache.sample(cache_stats());
        return Measured {
            untraced,
            traced: None,
            cache,
        };
    }
    let half = args.seconds / 2.0;
    let untraced = phase(server, ops, &mut streams, half, check, None);
    let tracer = Tracer::new(Instant::now());
    let traced = phase(server, ops, &mut streams, half, check, Some(&tracer));
    cache.sample(cache_stats());
    Measured {
        untraced,
        traced: Some((traced, tracer)),
        cache,
    }
}

/// Tallies the clients' outcomes and failures into `run`.
fn tally(run: &mut Run, m: &Measured) {
    for p in std::iter::once(&m.untraced).chain(m.traced.as_ref().map(|(p, _)| p)) {
        run.count(p.outcome.attempted, p.outcome.failed, p.outcome.wrong);
    }
}

/// Writes the spans of a traced phase under `perfbench/out/`.
pub(crate) fn save_spans(workload: &str, args: &Args, tracer: &Tracer, run: &mut Run) {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{workload}-seed{}.jsonl",
        args.seed
    ));
    let spans = tracer.spans();
    match write_jsonl(&spans, &path) {
        Ok(()) => run.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => run.note(format!("spans not written: {e}")),
    }
}

/// The monolithic model and its server.
struct Mono {
    model: Arc<MaxEntSummary>,
    server: ServerHandle,
}

pub(crate) fn shared<B: SummaryBackend>(backend: &Arc<B>) -> QueryEngine<Shared<B>> {
    QueryEngine::new(Shared::new(Arc::clone(backend), Arc::default()))
}

/// `explore_mono`.
pub fn explore(args: &Args) -> Run {
    let mut run = Run::default();
    let d = setup::dataset();
    let (mono, setup_s, reps) = repeated(|| {
        let stats = pair_statistics(&d, MONO_BUDGET);
        let model = Arc::new(
            MaxEntSummary::build(&d.table, stats, &SolverConfig::default()).expect("model builds"),
        );
        let server = serve(shared(&model), LOOPBACK).expect("serve");
        Client::connect(server.local_addr())
            .and_then(|mut c| c.ping().map_err(std::io::Error::other))
            .expect("server answers");
        Mono { model, server }
    });
    let reference = shared(&mono.model);
    let ops = pool(&d, EXPLORE_KINDS, args.seed);
    let check = precompute(&reference, &ops);
    let acc = accuracy(&d, mono.server.local_addr(), |r| reference.execute_batch(r));
    run.count(acc.attempted, acc.failed, acc.wrong);

    let m = measure(
        args,
        &mono.server,
        &ops,
        EXPLORE_KINDS,
        &Draw::Uniform,
        &check,
        &|| None,
    );
    tally(&mut run, &m);
    describe(
        &mut run,
        "explore_mono",
        EXPLORE_KINDS,
        &m.untraced,
        &ops,
        None,
    );
    let summary_kb = serialize::to_string(&mono.model).len() as f64 / 1024.0;
    if let Some((traced, tracer)) = &m.traced {
        let engine = shared(&mono.model);
        let layers = Layers {
            engine: EngineTime::Rerun(&|r| time_engine(&engine, r)),
            kernel: &mono.model,
            gather: None,
        };
        let base = percentile(&m.untraced.outcome.count_latencies(), 50.0);
        let (metrics, notes) = analyze(&traced.outcome, base, &ops, tracer, &layers);
        run.metrics.extend(metrics);
        run.notes.extend(notes);
        run.metrics.extend(server_metrics(&m.untraced));
        run.metrics.extend(m.cache.metrics());
        run.metrics.extend(no_ingest());
        run.push(Metric::new(
            "polynomial.terms",
            mono.model.size_stats().num_terms as f64,
            "count",
            "lower",
            1,
        ));
        run.metrics.extend(build_layers(
            &d,
            MONO_BUDGET,
            &d.table,
            mono.model.statistics().multi(),
        ));
        run.push(Metric::new("serialize.kb", summary_kb, "kB", "lower", 1));
        save_spans("explore_mono", args, tracer, &mut run);
    } else {
        end_to_end(
            &mut run,
            (setup_s, reps),
            &m.untraced,
            acc.metrics,
            (peak_rss_mb(&[]), summary_kb),
        );
    }
    run
}

/// Report lines describing what a workload sent.
pub(crate) fn describe(
    run: &mut Run,
    name: &str,
    kinds: &[Kind],
    p: &Phase,
    ops: &[Op],
    cache: Option<usize>,
) {
    let o = &p.outcome;
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<usize> = o.sent.iter().copied().filter(|i| seen.insert(*i)).collect();
    run.note(format!(
        "{name}: kinds {}; {} operations of a pool of {}, {} of them distinct ({:.1}% repeats)",
        ops::describe(kinds),
        o.sent.len(),
        ops.len(),
        distinct.len(),
        100.0 * repeat_share(o)
    ));
    if let Some(entries) = cache {
        let answers: usize = distinct
            .iter()
            .map(|&i| ops[i].requests.len() * SHARDS)
            .sum();
        run.note(format!(
            "{name}: working set {} distinct operations = {answers} shard answers ({:.1}x) vs gather cache of {entries} answers",
            distinct.len(),
            answers as f64 / entries as f64
        ));
    }
}

/// Hash-partitioned shard models of the flights table.
pub(crate) fn shards(d: &FlightsDataset, stats: Vec<MultiDimStatistic>) -> ShardedSummary {
    ShardedSummary::build(
        &d.table,
        &Partitioning::hash(SHARDS),
        stats,
        &ShardedBuildConfig::default(),
    )
    .expect("shards build")
}

/// Shard nodes, and the gateway serving a cached gather over them (the
/// gateway is declared first so it shuts down before the nodes do).
struct Cluster {
    local: ShardedSummary,
    manifest: Vec<ClusterShard>,
    gateway: ServerHandle,
    nodes: Vec<ShardNode>,
}

impl Cluster {
    /// Process ids of the shard nodes.
    fn node_pids(&self) -> Vec<u32> {
        self.nodes.iter().map(ShardNode::pid).collect()
    }
}

fn cached_gather(manifest: &[ClusterShard]) -> RemoteShardedSummary {
    let mut remote = RemoteShardedSummary::connect(manifest).expect("gather connects");
    remote.enable_probe_cache(CACHE_ENTRIES);
    remote
}

/// `gateway_fanout`.
pub fn gateway(args: &Args) -> Run {
    let mut run = Run::default();
    let d = setup::dataset();
    let (cluster, setup_s, reps) = repeated(|| {
        let local = shards(&d, pair_statistics(&d, SHARD_BUDGET));
        let nodes: Vec<ShardNode> = local
            .shards()
            .iter()
            .map(|s| ShardNode::spawn(s).expect("start shard node"))
            .collect();
        let manifest: Vec<ClusterShard> = nodes
            .iter()
            .zip(local.shards())
            .enumerate()
            .map(|(i, (node, s))| ClusterShard::single(i, s.n(), node.addr().to_string()))
            .collect();
        let gateway =
            serve(QueryEngine::new(cached_gather(&manifest)), LOOPBACK).expect("serve gateway");
        Client::connect(gateway.local_addr())
            .and_then(|mut c| c.ping().map_err(std::io::Error::other))
            .expect("gateway answers");
        Cluster {
            local,
            manifest,
            gateway,
            nodes,
        }
    });
    let reference = QueryEngine::new(cluster.local.clone());
    let ops = pool(&d, GATEWAY_KINDS, args.seed);
    let check = precompute(&reference, &ops);
    let addr = cluster.gateway.local_addr();
    let acc = accuracy(&d, addr, |r| reference.execute_batch(r));
    run.count(acc.attempted, acc.failed, acc.wrong);

    let cache = || {
        Client::connect(addr)
            .ok()
            .and_then(|mut c| c.cache_stats().ok().flatten())
    };
    let draw = Draw::Zipf(GATEWAY_ZIPF);
    let m = measure(
        args,
        &cluster.gateway,
        &ops,
        GATEWAY_KINDS,
        &draw,
        &check,
        &cache,
    );
    tally(&mut run, &m);
    describe(
        &mut run,
        "gateway_fanout",
        GATEWAY_KINDS,
        &m.untraced,
        &ops,
        Some(CACHE_ENTRIES),
    );
    run.note(format!(
        "gateway_fanout: gather-cache hit ratio {:.3} over the measured window",
        m.cache.total.hit_rate()
    ));
    let summary_kb = serialize::sharded_to_string(&cluster.local).len() as f64 / 1024.0;
    if let Some((traced, tracer)) = &m.traced {
        // A second gateway backend and an in-process mixture over the same
        // shards, each with a cache of the same capacity and fed the same
        // requests in the same order.
        let remote = QueryEngine::new(cached_gather(&cluster.manifest));
        let local = QueryEngine::new(cluster.local.clone().with_probe_cache(CACHE_ENTRIES));
        // Bring their caches to the gateway's warm state.
        let sent = &m.untraced.outcome.sent;
        for o in &sent[sent.len().saturating_sub(4 * CACHE_ENTRIES)..] {
            time_engine(&remote, &ops[*o].requests);
            time_engine(&local, &ops[*o].requests);
        }
        let layers = Layers {
            engine: EngineTime::Rerun(&|r| time_engine(&remote, r)),
            kernel: &cluster.local.shards()[0],
            gather: Some(Gather {
                local: &|r| time_engine(&local, r),
                probe: cluster.manifest[0]
                    .primary()
                    .parse()
                    .expect("shard address"),
            }),
        };
        let base = percentile(&m.untraced.outcome.count_latencies(), 50.0);
        let (metrics, notes) = analyze(&traced.outcome, base, &ops, tracer, &layers);
        run.metrics.extend(metrics);
        run.notes.extend(notes);
        run.metrics.extend(server_metrics(&m.untraced));
        run.metrics.extend(m.cache.metrics());
        run.metrics.extend(no_ingest());
        layer_tail(&mut run, &d, &cluster.local, summary_kb);
        save_spans("gateway_fanout", args, tracer, &mut run);
    } else {
        end_to_end(
            &mut run,
            (setup_s, reps),
            &m.untraced,
            acc.metrics,
            (peak_rss_mb(&cluster.node_pids()), summary_kb),
        );
    }
    run
}

/// Build-side per-layer metrics of a sharded workload: term count over all
/// shards, the layer-by-layer build of shard 0, and the serialized size.
pub(crate) fn layer_tail(
    run: &mut Run,
    d: &FlightsDataset,
    shards: &ShardedSummary,
    summary_kb: f64,
) {
    let terms: usize = shards
        .shards()
        .iter()
        .map(|s| s.size_stats().num_terms)
        .sum();
    run.push(Metric::new(
        "polynomial.terms",
        terms as f64,
        "count",
        "lower",
        SHARDS,
    ));
    let part = d
        .table
        .partition(&Partitioning::hash(SHARDS))
        .expect("partition")
        .remove(0);
    run.metrics.extend(build_layers(
        d,
        SHARD_BUDGET,
        &part,
        shards.shards()[0].statistics().multi(),
    ));
    run.push(Metric::new("serialize.kb", summary_kb, "kB", "lower", 1));
}
