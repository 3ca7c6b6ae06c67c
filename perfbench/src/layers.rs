//! Per-layer attribution of the traced phase.
//!
//! While a request is in flight the benchmark can only time it whole
//! (`plan.parse` and `client.rtt`). Its inner layers are timed by
//! re-running the same request, after the phase, against each layer's
//! public entry point: the wire codec, `QueryEngine::execute` on the served
//! backend (or an identically configured one), `Mask::from_predicate`, the
//! kernel passes and, behind a gateway, the in-process scatter and a shard
//! probe. Those re-runs are child spans of the request, so the self times
//! along its blocking steps split what the client observed:
//!
//! ```text
//! request ─┬─ plan.parse
//!          └─ client.rtt ─┬─ plan.codec
//!                         └─ engine.execute ─┬─ assignment.mask
//!                                            └─ polynomial.eval
//! ```
//!
//! Behind a gateway `engine.execute` is the remote gather, whose own child
//! is `scatter.local` (the same shards in-process). Self time of
//! `client.rtt` is the server (sessions, reactor, sockets, queueing); self
//! time of a gateway's `engine.execute` is the remote layer. Where a gather
//! cache may answer without the kernel (gateway, live), the kernel re-runs
//! are recorded beside the chain rather than in it.

use crate::drive::{Outcome, TracedOp};
use crate::ops::{Kind, Op};
use crate::out::Metric;
use crate::trace::{self_times, Span, Tracer};
use entropydb_bench::report::percentile;
use entropydb_core::prelude::*;
use entropydb_server::Client;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A timed batch of engine calls.
pub type Timed<'a> = &'a dyn Fn(&[QueryRequest]) -> Duration;

/// Where a traced request's `engine.execute` time comes from.
pub enum EngineTime<'a> {
    /// Re-running the request on the served backend, or on a backend
    /// configured identically.
    Rerun(Timed<'a>),
    /// The intervals the served backend spent in query calls. With a
    /// single reader every interval inside a request's round trip is that
    /// request's.
    Captured(&'a [(Instant, Instant)]),
}

/// The remote gather's own layers (`gateway_fanout` only).
pub struct Gather<'a> {
    /// The same requests through an in-process `ShardedSummary` over the
    /// same shards.
    pub local: Timed<'a>,
    /// A shard server answering probes for the kernel's relation.
    pub probe: SocketAddr,
}

/// The layers one workload's traced requests are re-run through.
pub struct Layers<'a> {
    /// `QueryEngine::execute`.
    pub engine: EngineTime<'a>,
    /// The model whose kernel is timed (a shard's model when sharded).
    pub kernel: &'a MaxEntSummary,
    /// The remote gather. Its backend carries a cache, so every traced
    /// request is re-run in order to keep the cache state faithful.
    pub gather: Option<Gather<'a>>,
}

/// Times a batch of engine calls.
pub fn time_engine<B: SummaryBackend>(
    engine: &QueryEngine<B>,
    requests: &[QueryRequest],
) -> Duration {
    let start = Instant::now();
    for request in requests {
        std::hint::black_box(engine.execute(request).ok());
    }
    start.elapsed()
}

/// Sums the captured backend intervals that lie inside `t`'s round trip,
/// moving `cursor` past the intervals that start before its reply.
fn captured_busy(calls: &[(Instant, Instant)], cursor: &mut usize, t: &TracedOp) -> Duration {
    let mut busy = Duration::ZERO;
    while let Some(&(s, e)) = calls.get(*cursor) {
        if s >= t.replied {
            break;
        }
        if s >= t.sent && e <= t.replied {
            busy += e - s;
        }
        *cursor += 1;
    }
    busy
}

/// Re-runs the traced requests layer by layer and derives per-layer
/// metrics from the resulting spans.
pub fn analyze(
    traced: &Outcome,
    untraced_count_p50: f64,
    ops: &[Op],
    tracer: &Tracer,
    layers: &Layers,
) -> (Vec<Metric>, Vec<String>) {
    let mut order: Vec<&TracedOp> = traced.traced.iter().collect();
    order.sort_by_key(|t| t.sent);
    let count_lat: Vec<f64> = order
        .iter()
        .filter(|t| ops[t.op].kind.is_count())
        .map(|t| t.latency_us)
        .collect();
    // The median band: the tenth of count requests whose latency lies
    // closest to the median.
    let p50 = percentile(&count_lat, 50.0);
    let mut near: Vec<&&TracedOp> = order.iter().filter(|t| ops[t.op].kind.is_count()).collect();
    near.sort_by(|a, b| {
        (a.latency_us - p50)
            .abs()
            .total_cmp(&(b.latency_us - p50).abs())
    });
    let band: HashSet<u64> = near
        .iter()
        .take(count_lat.len().div_ceil(10))
        .map(|t| t.request)
        .collect();
    let stride = order.len().div_ceil(600).max(1);

    let kernel = layers.kernel;
    let mut scratch = kernel.polynomial().make_scratch();
    let mut probe = layers
        .gather
        .as_ref()
        .and_then(|g| Client::connect(g.probe).ok());
    let mut pending_masks: Vec<Mask> = Vec::new();
    let mut cursor = 0;
    // Kernel re-runs hang under the engine only where every request
    // reaches the kernel: behind a gather cache (gateway, live) a served
    // answer may never have touched it.
    let kernel_in_chain = matches!(layers.engine, EngineTime::Rerun(_)) && layers.gather.is_none();

    for (i, t) in order.iter().enumerate() {
        let sampled = i % stride == 0 || band.contains(&t.request);
        if !sampled && layers.gather.is_none() {
            continue;
        }
        let op = &ops[t.op];
        let rid = t.request;
        tracer.time("plan.codec", Some(t.rtt_span), rid, || {
            for r in &op.requests {
                std::hint::black_box(QueryRequest::decode(&r.encode()).ok());
            }
            for r in &t.replies {
                std::hint::black_box(QueryResponse::decode(&r.encode()).ok());
            }
        });
        let engine_span = match layers.engine {
            EngineTime::Captured(calls) => {
                let busy = captured_busy(calls, &mut cursor, t);
                tracer.record(
                    "engine.execute",
                    Some(t.rtt_span),
                    rid,
                    t.sent,
                    t.sent + busy,
                )
            }
            EngineTime::Rerun(engine) => {
                let start = Instant::now();
                let took = engine(&op.requests);
                let span =
                    tracer.record("engine.execute", Some(t.rtt_span), rid, start, start + took);
                if let Some(gather) = &layers.gather {
                    let start = Instant::now();
                    let took = (gather.local)(&op.requests);
                    tracer.record("scatter.local", Some(span), rid, start, start + took);
                }
                span
            }
        };
        if !sampled {
            continue;
        }
        let kernel_parent = kernel_in_chain.then_some(engine_span);
        for request in &op.requests {
            let Some(pred) = request.predicate() else {
                continue;
            };
            let chain = kernel_parent.filter(|_| op.kind.is_count());
            let (_, mask) = tracer.time("assignment.mask", chain, rid, || {
                Mask::from_predicate(pred, kernel.domain_sizes())
            });
            let Ok(mask) = mask else { continue };
            match request {
                QueryRequest::GroupBy { attr, .. } | QueryRequest::TopK { attr, .. } => {
                    tracer.time("polynomial.derivs", None, rid, || {
                        std::hint::black_box(kernel.polynomial().eval_with_attr_derivatives_with(
                            kernel.assignment(),
                            &mask,
                            attr.index(),
                            &mut scratch,
                        ));
                    });
                }
                _ => {
                    tracer.time("polynomial.eval", chain, rid, || {
                        std::hint::black_box(kernel.polynomial().eval_masked_with(
                            kernel.assignment(),
                            &mask,
                            &mut scratch,
                        ))
                    });
                    if let Some(client) = probe.as_mut() {
                        let request = ProbeRequest::Count { mask: mask.clone() };
                        tracer.time("remote.probe", None, rid, || {
                            std::hint::black_box(client.probe(&request).ok())
                        });
                    }
                    pending_masks.push(mask);
                    if pending_masks.len() == crate::ops::BATCH {
                        let mut out = vec![0.0; pending_masks.len()];
                        tracer.time("polynomial.eval_many", None, rid, || {
                            kernel.polynomial().eval_masked_many_with(
                                kernel.assignment(),
                                &pending_masks,
                                &mut scratch,
                                &mut out,
                            )
                        });
                        pending_masks.clear();
                    }
                }
            }
        }
    }
    if let Some(client) = probe {
        client.quit();
    }
    summarize(&tracer.spans(), &order, &band, ops, untraced_count_p50)
}

/// Per-layer metrics from the spans.
fn summarize(
    spans: &[Span],
    order: &[&TracedOp],
    band: &HashSet<u64>,
    ops: &[Op],
    untraced_count_p50: f64,
) -> (Vec<Metric>, Vec<String>) {
    let own = self_times(spans);
    let kind: HashMap<u64, Kind> = order.iter().map(|t| (t.request, ops[t.op].kind)).collect();
    let is_count = |s: &Span| kind.get(&s.request).is_some_and(|k| k.is_count());
    let durations = |name: &str, counts_only: bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && (!counts_only || is_count(s)))
            .map(Span::us)
            .collect()
    };
    let traced_count: Vec<f64> = durations("request", true);
    let traced_p50 = percentile(&traced_count, 50.0);
    // Each median-band request splits its latency among the spans along its
    // blocking steps. The mean split, applied to the traced median, is the
    // median request's attribution; it sums to the median by construction,
    // so a re-run child longer than its parent shows as a negative self
    // time, counted and reported rather than hidden.
    let total: HashMap<u64, f64> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.request, s.us()))
        .collect();
    let mut band_self: HashMap<&'static str, f64> = HashMap::new();
    let mut band_dur: HashMap<&'static str, f64> = HashMap::new();
    let mut negative = (0usize, 0.0);
    for s in spans.iter().filter(|s| band.contains(&s.request)) {
        let on_chain = s.parent.is_some() || s.name == "request";
        if let Some(&t) = total.get(&s.request).filter(|t| on_chain && **t > 0.0) {
            *band_self.entry(s.name).or_default() += own[&s.id] / t;
            *band_dur.entry(s.name).or_default() += s.us();
            if own[&s.id] < 0.0 {
                negative.0 += 1;
                negative.1 += own[&s.id];
            }
        }
    }
    let n_band = band.len().max(1) as f64;
    for v in band_self.values_mut() {
        *v *= traced_p50 / n_band;
    }
    for v in band_dur.values_mut() {
        *v /= n_band;
    }
    let self_of = |name: &str| band_self.get(name).copied().unwrap_or(0.0);
    let dur_of = |name: &str| band_dur.get(name).copied().unwrap_or(0.0);
    let gateway = band_dur.contains_key("scatter.local");

    let rtt = durations("client.rtt", false);
    let engine = durations("engine.execute", false);
    let probe = durations("remote.probe", false);
    let n = band.len();
    let metrics = vec![
        Metric::pct("plan.parse_us", &durations("plan.parse", true), 50.0, "us"),
        Metric::pct("plan.codec_us", &durations("plan.codec", true), 50.0, "us"),
        Metric::pct("client.rtt_p50_us", &rtt, 50.0, "us"),
        Metric::pct("client.rtt_p99_us", &rtt, 99.0, "us"),
        Metric::new("server.self_us", self_of("client.rtt"), "us", "lower", n),
        Metric::pct("engine.execute_p50_us", &engine, 50.0, "us"),
        Metric::pct("engine.execute_p99_us", &engine, 99.0, "us"),
        Metric::pct(
            "assignment.mask_us",
            &durations("assignment.mask", true),
            50.0,
            "us",
        ),
        Metric::pct(
            "polynomial.eval_us",
            &durations("polynomial.eval", false),
            50.0,
            "us",
        ),
        Metric::pct(
            "polynomial.eval_many_us",
            &durations("polynomial.eval_many", false),
            50.0,
            "us",
        ),
        Metric::pct(
            "polynomial.derivs_us",
            &durations("polynomial.derivs", false),
            50.0,
            "us",
        ),
        Metric::pct(
            "scatter.local_us",
            &durations("scatter.local", true),
            50.0,
            "us",
        ),
        Metric::new(
            "remote.self_us",
            if gateway {
                self_of("engine.execute")
            } else {
                0.0
            },
            "us",
            "lower",
            if gateway { n } else { 0 },
        ),
        Metric::pct("remote.probe_rtt_p50_us", &probe, 50.0, "us"),
        Metric::pct("remote.probe_rtt_p99_us", &probe, 99.0, "us"),
        Metric::new(
            "trace.count_p50_us",
            traced_p50,
            "us",
            "lower",
            traced_count.len(),
        ),
        Metric::new(
            "trace.overhead_ratio",
            traced_p50 / untraced_count_p50,
            "ratio",
            "lower",
            traced_count.len(),
        ),
        Metric::new(
            "trace.overhead_us",
            traced_p50 - untraced_count_p50,
            "us",
            "lower",
            traced_count.len(),
        ),
        Metric::new(
            "trace.negative_self",
            negative.0 as f64,
            "count",
            "lower",
            n,
        ),
    ];
    let mut parts: Vec<(&str, f64)> = band_self.iter().map(|(k, v)| (*k, *v)).collect();
    parts.sort_by(|a, b| b.1.total_cmp(&a.1));
    let breakdown: Vec<String> = parts.iter().map(|(k, v)| format!("{k} {v:.1}")).collect();
    // The layers timed on their own, without the residual of any parent.
    let measured = dur_of("plan.parse") + dur_of("plan.codec") + dur_of("engine.execute");
    let scatter = if gateway {
        format!(" (scatter.local {:.1} of it)", dur_of("scatter.local"))
    } else {
        String::new()
    };
    let mut notes = vec![
        format!(
            "traced count p50 {traced_p50:.1} us = {} (self time, us, split as in the {n} median-band count requests); untraced count p50 {untraced_count_p50:.1} us, so tracing costs {:.1} us",
            breakdown.join(" + "),
            traced_p50 - untraced_count_p50
        ),
        format!(
            "independently timed parts of the median band: plan.parse {:.1} + plan.codec {:.1} + engine.execute {:.1}{scatter} = {measured:.1} us of the {:.1} us the client observed; the residual {:.1} us is the server's self time",
            dur_of("plan.parse"),
            dur_of("plan.codec"),
            dur_of("engine.execute"),
            dur_of("request"),
            dur_of("request") - measured
        ),
    ];
    if negative.0 > 0 {
        notes.push(format!(
            "WARNING: {} median-band spans have a negative self time, {:.1} us per band request in all: a re-run child took longer than its parent, and the split above absorbs it",
            negative.0,
            negative.1 / n_band
        ));
    }
    (metrics, notes)
}
