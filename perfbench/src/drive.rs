//! Closed-loop clients and the checks on what they receive.

use crate::ops::{Op, Stream};
use crate::trace::Tracer;
use entropydb_core::prelude::{parse_request, Estimate, QueryRequest, QueryResponse};
use entropydb_server::{Client, ServerHandle, ServerStatsSnapshot};
use entropydb_storage::Schema;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Whether two answers are identical bit for bit.
pub fn same_bits(a: &QueryResponse, b: &QueryResponse) -> bool {
    fn est(a: &Estimate, b: &Estimate) -> bool {
        a.expectation.to_bits() == b.expectation.to_bits()
            && a.variance.to_bits() == b.variance.to_bits()
    }
    fn ests(a: &[Estimate], b: &[Estimate]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| est(x, y))
    }
    use QueryResponse as R;
    match (a, b) {
        (R::Probability(x), R::Probability(y)) => x.to_bits() == y.to_bits(),
        (R::Estimate(x), R::Estimate(y)) => est(x, y),
        (R::Average(x), R::Average(y)) => x.map(f64::to_bits) == y.map(f64::to_bits),
        (R::Groups(x), R::Groups(y)) => ests(x, y),
        (R::Groups2(x), R::Groups2(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| ests(p, q))
        }
        (R::Ranked(x), R::Ranked(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.0 == q.0 && est(&p.1, &q.1))
        }
        (R::Rows { .. }, R::Rows { .. }) => a == b,
        _ => false,
    }
}

/// How a client verifies the replies it receives.
pub trait Check: Sync {
    /// Called just before an operation is sent; its result is handed to
    /// [`Check::verify`].
    fn before(&self) -> u64 {
        0
    }

    /// Whether `replies` are the right answers to pool operation `op`.
    fn verify(&self, op: usize, before: u64, replies: &[QueryResponse]) -> bool;

    /// Sees every verified reply and the time it arrived.
    fn observe(&self, _op: usize, _replies: &[QueryResponse], _at: Instant) {}
}

/// Replies checked against answers computed in-process beforehand.
pub struct Precomputed(pub Vec<Vec<QueryResponse>>);

impl Check for Precomputed {
    fn verify(&self, op: usize, _before: u64, replies: &[QueryResponse]) -> bool {
        let want = &self.0[op];
        want.len() == replies.len() && want.iter().zip(replies).all(|(a, b)| same_bits(a, b))
    }
}

/// One operation sent during the traced phase.
pub struct TracedOp {
    /// Pool index.
    pub op: usize,
    /// Request id of its spans.
    pub request: u64,
    /// Span id of its `client.rtt` call.
    pub rtt_span: u64,
    /// Client-observed latency (parse + round trip), µs.
    pub latency_us: f64,
    /// Send time of the round trip.
    pub sent: Instant,
    /// Reply arrival.
    pub replied: Instant,
    /// The replies received.
    pub replies: Vec<QueryResponse>,
}

/// What one client saw.
#[derive(Default)]
pub struct Outcome {
    /// Completion time and latency (µs) of count operations.
    pub count_us: Vec<(Instant, f64)>,
    /// Completion time and latency (µs) of GROUP BY, TOP k and batch
    /// operations.
    pub multi_us: Vec<(Instant, f64)>,
    /// Statements answered.
    pub statements: u64,
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Operations answered wrongly.
    pub wrong: u64,
    /// The traced operations, in send order.
    pub traced: Vec<TracedOp>,
    /// Pool indices sent, in order.
    pub sent: Vec<usize>,
}

impl Outcome {
    /// Count latencies, µs.
    pub fn count_latencies(&self) -> Vec<f64> {
        self.count_us.iter().map(|&(_, us)| us).collect()
    }

    /// Folds another client's outcome into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.count_us.extend(other.count_us);
        self.multi_us.extend(other.multi_us);
        self.statements += other.statements;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.traced.extend(other.traced);
        self.sent.extend(other.sent);
    }
}

/// The traced round trip of one operation.
struct RoundTrip {
    span: u64,
    sent: Instant,
    replied: Instant,
}

/// Sends one operation: untraced through [`Client::query`] (or
/// [`Client::execute_batch`]), traced as separate parse and round-trip
/// spans.
fn send(
    client: &mut Client,
    schema: &Schema,
    op: &Op,
    tracer: Option<(&Tracer, u64)>,
) -> (Option<Vec<QueryResponse>>, Option<RoundTrip>) {
    let Some((tracer, request)) = tracer else {
        let replies = if op.statements.len() == 1 {
            client.query(&op.statements[0]).ok().map(|r| vec![r])
        } else {
            let requests: Option<Vec<QueryRequest>> = op
                .statements
                .iter()
                .map(|s| parse_request(s, schema).ok())
                .collect();
            requests.and_then(|r| {
                client
                    .execute_batch(&r)
                    .ok()
                    .and_then(|rs| rs.into_iter().collect::<Result<Vec<_>, _>>().ok())
            })
        };
        return (replies, None);
    };
    let root_span = tracer.reserve();
    let root = Instant::now();
    let (_, requests) = tracer.time("plan.parse", Some(root_span), request, || {
        op.statements
            .iter()
            .map(|s| parse_request(s, schema).ok())
            .collect::<Option<Vec<QueryRequest>>>()
    });
    let Some(requests) = requests else {
        return (None, None);
    };
    let sent = Instant::now();
    let replies = if requests.len() == 1 {
        client.execute(&requests[0]).ok().map(|r| vec![r])
    } else {
        client
            .execute_batch(&requests)
            .ok()
            .and_then(|rs| rs.into_iter().collect::<Result<Vec<_>, _>>().ok())
    };
    let replied = Instant::now();
    let rtt = tracer.record("client.rtt", Some(root_span), request, sent, replied);
    tracer.fill(root_span, "request", None, request, root, replied);
    (
        replies,
        Some(RoundTrip {
            span: rtt,
            sent,
            replied,
        }),
    )
}

/// Runs one closed-loop client until `until`: each operation is sent only
/// after the previous reply arrived. With a tracer, operations are traced
/// (request ids `base_request + i`).
pub fn closed_loop(
    addr: SocketAddr,
    ops: &[Op],
    mut next: impl FnMut() -> usize,
    until: Instant,
    check: &dyn Check,
    tracer: Option<(&Tracer, u64)>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let schema = match client.schema() {
        Ok(s) => s.clone(),
        Err(_) => {
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    while Instant::now() < until {
        let i = next();
        let op = &ops[i];
        let before = check.before();
        let request = tracer.map(|(t, base)| (t, base + out.attempted));
        let start = Instant::now();
        let (replies, traced) = send(&mut client, &schema, op, request);
        let end = Instant::now();
        out.attempted += 1;
        out.sent.push(i);
        let Some(replies) = replies else {
            out.failed += 1;
            continue;
        };
        let done = traced.as_ref().map_or(end, |rt| rt.replied);
        let us = (done - start).as_secs_f64() * 1e6;
        if op.kind.is_count() {
            out.count_us.push((done, us));
        } else {
            out.multi_us.push((done, us));
        }
        out.statements += replies.len() as u64;
        if !check.verify(i, before, &replies) {
            out.wrong += 1;
        }
        check.observe(i, &replies, end);
        if let (Some(rt), Some((_, request))) = (traced, request) {
            out.traced.push(TracedOp {
                op: i,
                request,
                rtt_span: rt.span,
                latency_us: us,
                sent: rt.sent,
                replied: rt.replied,
                replies,
            });
        }
    }
    client.quit();
    out
}

/// One timed phase of closed-loop clients against a server.
pub struct Phase {
    /// Everything the clients saw.
    pub outcome: Outcome,
    /// Wall time of the phase, seconds.
    pub secs: f64,
    /// Largest dispatch-queue depth sampled during the phase.
    pub depth_max: u64,
    /// Server counters at the start and end of the phase.
    pub stats: (ServerStatsSnapshot, ServerStatsSnapshot),
}

/// Runs one closed-loop client per stream against `server` for `secs`
/// seconds, sampling the server's queue depth every millisecond.
pub fn phase(
    server: &ServerHandle,
    ops: &[Op],
    streams: &mut [Stream],
    secs: f64,
    check: &dyn Check,
    tracer: Option<&Tracer>,
) -> Phase {
    phase_with(server, ops, streams, secs, check, tracer, |_| {})
}

/// [`phase`], with `extra` spawning more threads into the phase's scope
/// (they must end by the phase's end).
pub fn phase_with<'env, F>(
    server: &'env ServerHandle,
    ops: &'env [Op],
    streams: &'env mut [Stream],
    secs: f64,
    check: &'env dyn Check,
    tracer: Option<&'env Tracer>,
    extra: F,
) -> Phase
where
    F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>),
{
    let addr = server.local_addr();
    let before = server.stats();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    let mut outcome = Outcome::default();
    let mut depth_max = 0;
    std::thread::scope(|scope| {
        extra(scope);
        let clients: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(i, stream)| {
                let tracer = tracer.map(|t| (t, (i as u64) << 40));
                scope.spawn(move || {
                    closed_loop(addr, ops, || stream.next_index(), until, check, tracer)
                })
            })
            .collect();
        while Instant::now() < until {
            depth_max = depth_max.max(server.stats().dispatch_depth);
            std::thread::sleep(Duration::from_millis(1));
        }
        for client in clients {
            outcome.merge(client.join().expect("client thread"));
        }
    });
    Phase {
        outcome,
        secs: start.elapsed().as_secs_f64(),
        depth_max,
        stats: (before, server.stats()),
    }
}
