//! The shard-source-agnostic probe layer under every mixture.
//!
//! A [`Mixture`](crate::sharded::Mixture) answers queries by probing each
//! of its shards and folding the answers (see [`crate::sharded`] for the
//! merge rules). This module holds the shard side of that split:
//!
//! * [`ShardProbe`], the mask-level estimator surface of one shard. An
//!   in-process [`MaxEntSummary`] is one probe; a TCP connection to a
//!   remote `entropydb-serve` instance (`entropydb_server::RemoteShard`)
//!   is another. Every probe sits under the same mixture folds, which is
//!   what makes remote answers bitwise-identical to local ones.
//! * [`fan_out`], which runs one probe per shard on the worker pool and
//!   returns the answers in shard order.
//! * the gather-side answer cache: [`ProbeCache`] (a bounded two-segment
//!   LRU with single-flight coalescing), [`CachedProbe`] (the cache in
//!   front of any [`ShardProbe`]), and [`GatherCache`] (one cache plus one
//!   identity token per shard, whose [`GatherCache::peek_all`] answers a
//!   fully-cached probe without entering the pool). Cache keys are the
//!   canonical probe encoding (1:1 with the `b1` wire form) combined with
//!   a per-shard identity token, so swapping a shard's blob invalidates
//!   every cached answer for it.
//! * the stratified sampling plan: draws are apportioned across shards by
//!   largest remainder of the shard cardinalities
//!   ([`sample_assignment`]), with every tuple's stream derived only from
//!   `(seed, global index)`.

use crate::assignment::Mask;
use crate::engine::SummaryBackend;
use crate::error::{ModelError, RemoteDetail, Result};
use crate::metrics::{CacheCounters, CacheStatsSnapshot};
use crate::model::MaxEntSummary;
use crate::par;
use crate::probe::ProbeResponse;
use crate::query::Estimate;
use entropydb_storage::{AttrId, Schema};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Chunk size for the default [`ShardProbe::probe_count_restricted`]:
/// restricted masks are materialized at most this many at a time, so a
/// huge candidate set never holds the whole mask batch in memory while
/// still filling the fused kernel's lanes.
pub const RESTRICTED_PROBE_CHUNK: usize = 32;

/// The mask-level estimator surface of one shard, as seen by the gather
/// side. All methods are fallible: in-process probes only fail on genuine
/// shape errors, remote probes surface transport failures as
/// [`ModelError::Remote`] with the failing shard named.
pub trait ShardProbe: Send + Sync {
    /// Per-probe reusable workspace (an evaluation scratch for in-process
    /// probes; unit for connection-pooled remote probes).
    type Scratch: Send;

    /// This shard's relation cardinality `n_s`.
    fn shard_n(&self) -> u64;

    /// Builds a fresh probe workspace.
    fn make_probe_scratch(&self) -> Self::Scratch;

    /// Tuple-draw probability under the mask, in this shard's model.
    fn probe_probability(&self, mask: &Mask, scratch: &mut Self::Scratch) -> Result<f64>;

    /// COUNT estimate under the mask.
    fn probe_count(&self, mask: &Mask, scratch: &mut Self::Scratch) -> Result<Estimate>;

    /// Batched form of [`ShardProbe::probe_probability`]: one probability
    /// per mask. The default is the sequential per-mask loop; in-process
    /// probes override it to ride the fused multi-mask kernel, remote
    /// probes to transport the whole batch in few wire rounds. Overrides
    /// must stay bitwise-identical to the loop.
    fn probe_probability_many(
        &self,
        masks: &[Mask],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<f64>> {
        masks
            .iter()
            .map(|mask| self.probe_probability(mask, scratch))
            .collect()
    }

    /// Batched form of [`ShardProbe::probe_count`], same contract as
    /// [`ShardProbe::probe_probability_many`].
    fn probe_count_many(
        &self,
        masks: &[Mask],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>> {
        masks
            .iter()
            .map(|mask| self.probe_count(mask, scratch))
            .collect()
    }

    /// One COUNT estimate per candidate value: the base mask restricted to
    /// each value of `attr` in turn — the top-k re-probe. The default
    /// builds the probe masks locally with [`restricted_counts`] and rides
    /// [`ShardProbe::probe_count_many`] in bounded chunks, so in-process
    /// probes answer a whole candidate set through the fused multi-mask
    /// kernel instead of one masked walk per candidate (bitwise-identical
    /// to the per-value loop — the fused kernel's contract). Remote probes
    /// override this to transport the base mask plus the value list in one
    /// compact wire round; the shard rebuilds the masks with the same
    /// helper.
    fn probe_count_restricted(
        &self,
        mask: &Mask,
        attr: AttrId,
        values: &[u32],
        n_attr: usize,
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>> {
        restricted_counts(mask, attr, values, n_attr, |masks| {
            self.probe_count_many(masks, scratch)
        })
    }

    /// SUM estimate under the base mask, weighting `attr` by `values`.
    fn probe_sum(
        &self,
        base: &Mask,
        attr: AttrId,
        values: &[f64],
        scratch: &mut Self::Scratch,
    ) -> Result<Estimate>;

    /// One estimate per value of `attr` under the mask.
    fn probe_group_by(
        &self,
        mask: &Mask,
        attr: AttrId,
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>>;

    /// This shard's local top-`k` candidates for `attr` under the mask.
    fn probe_top_k(
        &self,
        mask: &Mask,
        attr: AttrId,
        k: usize,
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<(u32, Estimate)>>;

    /// Draws the tuples at the given global `indices` of a
    /// `sample_rows(k, seed)` call, in index order.
    fn probe_sample_at(
        &self,
        k: usize,
        seed: u64,
        indices: &[u64],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Vec<u32>>>;

    /// The counter this shard bumps whenever the answers it serves change
    /// (a remote replica caught serving a swapped blob, a live node's
    /// fold). A gather cache mixes it into the shard's keys, so a bump
    /// orphans every cached answer. `None` (the default) for shards whose
    /// answers never change underneath the gatherer.
    fn cache_generation(&self) -> Option<Arc<AtomicU64>> {
        None
    }
}

/// The top-k re-probe: `mask` restricted to each candidate value of `attr`
/// in turn, answered by `count_many` at most [`RESTRICTED_PROBE_CHUNK`]
/// masks at a time. The one mask-building step behind both the default
/// [`ShardProbe::probe_count_restricted`] and the shard-side `countr`
/// probe handler, so local and remote re-probes are bit-identical.
pub fn restricted_counts(
    mask: &Mask,
    attr: AttrId,
    values: &[u32],
    n_attr: usize,
    mut count_many: impl FnMut(&[Mask]) -> Result<Vec<Estimate>>,
) -> Result<Vec<Estimate>> {
    let mut out = Vec::with_capacity(values.len());
    for chunk in values.chunks(RESTRICTED_PROBE_CHUNK) {
        let masks: Vec<Mask> = chunk
            .iter()
            .map(|&v| {
                let mut probe = mask.clone();
                probe.restrict_in_place(attr, v, n_attr);
                probe
            })
            .collect();
        out.extend(count_many(&masks)?);
    }
    Ok(out)
}

/// An in-process model is the canonical shard probe: every probe is one
/// local masked evaluation.
impl ShardProbe for MaxEntSummary {
    type Scratch = crate::factorized::FactorizedScratch;

    fn shard_n(&self) -> u64 {
        self.n()
    }

    fn make_probe_scratch(&self) -> Self::Scratch {
        SummaryBackend::make_scratch(self)
    }

    fn probe_probability(&self, mask: &Mask, scratch: &mut Self::Scratch) -> Result<f64> {
        self.probability_under_mask(mask, scratch)
    }

    fn probe_count(&self, mask: &Mask, scratch: &mut Self::Scratch) -> Result<Estimate> {
        self.count_under_mask(mask, scratch)
    }

    fn probe_probability_many(
        &self,
        masks: &[Mask],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<f64>> {
        self.probabilities_under_masks(masks, scratch)
    }

    fn probe_count_many(
        &self,
        masks: &[Mask],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>> {
        self.counts_under_masks(masks, scratch)
    }

    fn probe_sum(
        &self,
        base: &Mask,
        attr: AttrId,
        values: &[f64],
        scratch: &mut Self::Scratch,
    ) -> Result<Estimate> {
        self.sum_under_mask(base, attr, values, scratch)
    }

    fn probe_group_by(
        &self,
        mask: &Mask,
        attr: AttrId,
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>> {
        self.group_by_under_mask(mask, attr, scratch)
    }

    fn probe_top_k(
        &self,
        mask: &Mask,
        attr: AttrId,
        k: usize,
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<(u32, Estimate)>> {
        self.top_k_under_mask(mask, attr, k, scratch)
    }

    fn probe_sample_at(
        &self,
        _k: usize,
        seed: u64,
        indices: &[u64],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Vec<u32>>> {
        let arity = self.domain_sizes().len();
        indices
            .iter()
            .map(|&i| {
                let mut row = vec![0u32; arity];
                self.sample_tuple(&(), i as usize, seed, &mut row, scratch)?;
                Ok(row)
            })
            .collect()
    }
}

// ======================= gather-side probe cache =======================

/// Recovers from a poisoned lock: the cache holds plain data, never
/// invariants that a panicking holder could half-update into nonsense
/// (worst case a stale or missing entry, both safe).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 8-byte chunks (plus a byte-wise tail) — fast enough to
/// hash a full probe encoding in the cached point-query hot path.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer, used to diffuse token/hash combinations.
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

// Op tags of the canonical probe key encoding, 1:1 with the `b1` wire
// ops (`prob`, `count`, `countr` per candidate, `sum`, `group`, `topk`).
const TAG_PROBABILITY: u8 = 1;
const TAG_COUNT: u8 = 2;
const TAG_COUNT_RESTRICTED: u8 = 3;
const TAG_SUM: u8 = 4;
const TAG_GROUP_BY: u8 = 5;
const TAG_TOP_K: u8 = 6;

/// The shard-independent part of a cache key: a compact binary form of
/// the canonical `b1` probe encoding (op tag, arguments, then the mask as
/// per-attribute identity flags or `f64::to_bits` weight vectors). Floats
/// round-trip the wire bit-exactly, so two probes get the same body
/// exactly when their wire lines are identical — the key *is* the
/// canonical wire form, just pre-hashed and byte-packed.
#[derive(Debug, Clone)]
pub struct ProbeKeyBody {
    bytes: Arc<Vec<u8>>,
    hash: u64,
}

fn encode_mask_into(out: &mut Vec<u8>, mask: &Mask) {
    out.extend_from_slice(&(mask.arity() as u32).to_le_bytes());
    for attr in 0..mask.arity() {
        match mask.attr_weights(attr) {
            None => out.push(0),
            Some(weights) => {
                out.push(1);
                out.extend_from_slice(&(weights.len() as u32).to_le_bytes());
                for &w in weights {
                    out.extend_from_slice(&w.to_bits().to_le_bytes());
                }
            }
        }
    }
}

impl ProbeKeyBody {
    fn finish(bytes: Vec<u8>) -> ProbeKeyBody {
        let hash = hash_bytes(&bytes);
        ProbeKeyBody {
            bytes: Arc::new(bytes),
            hash,
        }
    }

    /// Key body of a `prob` probe.
    pub fn probability(mask: &Mask) -> ProbeKeyBody {
        let mut bytes = vec![TAG_PROBABILITY];
        encode_mask_into(&mut bytes, mask);
        ProbeKeyBody::finish(bytes)
    }

    /// Key body of a `count` probe.
    pub fn count(mask: &Mask) -> ProbeKeyBody {
        let mut bytes = vec![TAG_COUNT];
        encode_mask_into(&mut bytes, mask);
        ProbeKeyBody::finish(bytes)
    }

    /// Key body of one `countr` candidate (the base mask restricted to
    /// `value` of `attr`). Cached per candidate, so overlapping candidate
    /// unions across top-k rounds share entries.
    pub fn count_restricted(mask: &Mask, attr: AttrId, value: u32) -> ProbeKeyBody {
        RestrictedKeyFamily::new(mask, attr).body(value)
    }

    /// Key body of a `sum` probe (the weight vector is part of the key,
    /// bit for bit, like on the wire).
    pub fn sum(mask: &Mask, attr: AttrId, values: &[f64]) -> ProbeKeyBody {
        let mut bytes = vec![TAG_SUM];
        bytes.extend_from_slice(&(attr.0 as u32).to_le_bytes());
        bytes.extend_from_slice(&(values.len() as u32).to_le_bytes());
        for &v in values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        encode_mask_into(&mut bytes, mask);
        ProbeKeyBody::finish(bytes)
    }

    /// Key body of a `group` probe.
    pub fn group_by(mask: &Mask, attr: AttrId) -> ProbeKeyBody {
        let mut bytes = vec![TAG_GROUP_BY];
        bytes.extend_from_slice(&(attr.0 as u32).to_le_bytes());
        encode_mask_into(&mut bytes, mask);
        ProbeKeyBody::finish(bytes)
    }

    /// Key body of a `topk` probe (the per-shard candidate nomination —
    /// `k` is part of the key).
    pub fn top_k(mask: &Mask, attr: AttrId, k: usize) -> ProbeKeyBody {
        let mut bytes = vec![TAG_TOP_K];
        bytes.extend_from_slice(&(attr.0 as u32).to_le_bytes());
        bytes.extend_from_slice(&(k as u64).to_le_bytes());
        encode_mask_into(&mut bytes, mask);
        ProbeKeyBody::finish(bytes)
    }

    /// Binds the body to one shard's identity token, yielding a full key.
    pub fn key(&self, token: u64) -> ProbeKey {
        ProbeKey {
            token,
            hash: mix(self.hash ^ token),
            bytes: Arc::clone(&self.bytes),
        }
    }
}

/// Builds `countr` candidate key bodies sharing one mask encoding: the
/// mask bytes are encoded once and only the 4-byte candidate-value field
/// is patched per body — a whole candidate union costs one mask encode.
pub struct RestrictedKeyFamily {
    bytes: Vec<u8>,
}

/// Byte offset of the candidate value inside a `countr` key body
/// (op tag + restricted-attr id).
const RESTRICTED_VALUE_OFFSET: usize = 1 + 4;

impl RestrictedKeyFamily {
    /// Pre-encodes the shared `(mask, attr)` part of a candidate family.
    pub fn new(mask: &Mask, attr: AttrId) -> RestrictedKeyFamily {
        let mut bytes = vec![TAG_COUNT_RESTRICTED];
        bytes.extend_from_slice(&(attr.0 as u32).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        encode_mask_into(&mut bytes, mask);
        RestrictedKeyFamily { bytes }
    }

    /// The key body of one candidate value.
    pub fn body(&mut self, value: u32) -> ProbeKeyBody {
        self.bytes[RESTRICTED_VALUE_OFFSET..RESTRICTED_VALUE_OFFSET + 4]
            .copy_from_slice(&value.to_le_bytes());
        ProbeKeyBody::finish(self.bytes.clone())
    }
}

/// A full cache key: canonical probe body + shard identity token. The
/// hash is precomputed (body hash diffused with the token); equality
/// compares the full bytes, so a hash collision can never alias two
/// different probes.
#[derive(Debug, Clone)]
pub struct ProbeKey {
    token: u64,
    hash: u64,
    bytes: Arc<Vec<u8>>,
}

impl PartialEq for ProbeKey {
    fn eq(&self, other: &Self) -> bool {
        self.token == other.token && self.hash == other.hash && self.bytes == other.bytes
    }
}

impl Eq for ProbeKey {}

impl std::hash::Hash for ProbeKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One in-flight probe: the single-flight rendezvous between the leader
/// (who runs the shard round trip) and coalesced waiters.
#[derive(Debug)]
pub struct Flight {
    slot: Mutex<Option<Result<Arc<ProbeResponse>>>>,
    done: Condvar,
}

/// Leadership of one in-flight probe. The holder must call
/// [`FlightGuard::complete`] with the shard's real outcome; if it unwinds
/// first (a panic mid-probe), dropping the guard completes the flight
/// with an error so coalesced waiters never hang.
pub struct FlightGuard<'c> {
    cache: &'c ProbeCache,
    key: ProbeKey,
    flight: Arc<Flight>,
    armed: bool,
}

impl FlightGuard<'_> {
    /// Publishes the leader's outcome: a success is cached and handed to
    /// every waiter as one shared decoded response; an error is handed to
    /// the waiters *as-is* (cloned — never fabricated, so PR 7 failure
    /// classification stays truthful) and deliberately not cached.
    pub fn complete(mut self, result: Result<ProbeResponse>) -> Result<Arc<ProbeResponse>> {
        let outcome = result.map(Arc::new);
        self.finish(outcome.clone());
        self.armed = false;
        outcome
    }

    fn finish(&self, outcome: Result<Arc<ProbeResponse>>) {
        {
            let mut segments = lock(&self.cache.segments);
            segments.inflight.remove(&self.key);
            if let Ok(value) = &outcome {
                segments.insert(
                    self.key.clone(),
                    Arc::clone(value),
                    self.cache.capacity,
                    &self.cache.counters,
                );
            }
        }
        *lock(&self.flight.slot) = Some(outcome);
        self.flight.done.notify_all();
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.finish(Err(ModelError::Remote(RemoteDetail::message(
                "probe leader abandoned its flight",
            ))));
        }
    }
}

/// Outcome of a non-blocking [`ProbeCache::claim`].
pub enum Claim<'c> {
    /// The answer was cached (shared, already decoded).
    Hit(Arc<ProbeResponse>),
    /// Another probe is already fetching this key — wait on its flight
    /// (only after completing any flights *you* lead, or two leaders
    /// waiting on each other could deadlock).
    Foreign(Arc<Flight>),
    /// This caller leads: fetch from the shard and complete the guard.
    Lead(FlightGuard<'c>),
}

#[derive(Debug, Default)]
struct Segments {
    hot: HashMap<ProbeKey, Arc<ProbeResponse>>,
    cold: HashMap<ProbeKey, Arc<ProbeResponse>>,
    inflight: HashMap<ProbeKey, Arc<Flight>>,
}

impl Segments {
    fn get(
        &mut self,
        key: &ProbeKey,
        capacity: usize,
        counters: &CacheCounters,
    ) -> Option<Arc<ProbeResponse>> {
        if let Some(value) = self.hot.get(key) {
            return Some(Arc::clone(value));
        }
        // A cold hit promotes: entries touched since the last segment
        // flip survive the next one.
        let value = self.cold.remove(key)?;
        self.insert(key.clone(), Arc::clone(&value), capacity, counters);
        Some(value)
    }

    fn insert(
        &mut self,
        key: ProbeKey,
        value: Arc<ProbeResponse>,
        capacity: usize,
        counters: &CacheCounters,
    ) {
        if self.hot.len() >= capacity.div_ceil(2) && !self.hot.contains_key(&key) {
            // Segment flip: everything not touched since the previous
            // flip (the cold segment) is discarded in O(1).
            let dropped = std::mem::replace(&mut self.cold, std::mem::take(&mut self.hot));
            counters.add_evicted(dropped.len() as u64);
        }
        self.cold.remove(&key);
        self.hot.insert(key, value);
    }
}

/// A bounded gather-side answer cache with single-flight coalescing.
///
/// Entries are shared decoded [`ProbeResponse`] values keyed by
/// [`ProbeKey`] (canonical probe encoding + shard identity token).
/// Eviction is a two-segment LRU approximation: insertions and touched
/// entries live in a *hot* segment; when it reaches half the capacity the
/// segments flip and the untouched half is dropped wholesale — bounded
/// memory with O(1) operations and no per-entry bookkeeping.
///
/// Concurrent identical probes coalesce: the first caller leads the one
/// shard round trip, later callers wait on its [`Flight`] and share the
/// decoded response. A leader's *error* is propagated to waiters verbatim
/// (cloned) and never cached.
#[derive(Debug)]
pub struct ProbeCache {
    capacity: usize,
    segments: Mutex<Segments>,
    counters: CacheCounters,
}

impl ProbeCache {
    /// A cache bounded to at most `entries` cached responses (clamped to
    /// a minimum of 2 — one per segment).
    pub fn new(entries: usize) -> ProbeCache {
        ProbeCache {
            capacity: entries.max(2),
            segments: Mutex::new(Segments::default()),
            counters: CacheCounters::default(),
        }
    }

    /// The operational counters (hits / misses / coalesced / evicted).
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        self.counters.snapshot()
    }

    /// Number of cached responses currently held.
    pub fn len(&self) -> usize {
        let segments = lock(&self.segments);
        segments.hot.len() + segments.cold.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking lookup that never counts toward the hit/miss
    /// counters — the building block of the all-shards-cached fast path,
    /// which accounts for its probes itself.
    pub fn peek(&self, key: &ProbeKey) -> Option<Arc<ProbeResponse>> {
        let mut segments = lock(&self.segments);
        segments.get(key, self.capacity, &self.counters)
    }

    /// Non-blocking claim: a cached answer, an in-flight foreign probe to
    /// wait on, or leadership of a new flight. Counts one hit, coalesced
    /// probe, or miss respectively.
    pub fn claim(&self, key: &ProbeKey) -> Claim<'_> {
        let mut segments = lock(&self.segments);
        if let Some(value) = segments.get(key, self.capacity, &self.counters) {
            drop(segments);
            self.counters.add_hits(1);
            return Claim::Hit(value);
        }
        if let Some(flight) = segments.inflight.get(key) {
            let flight = Arc::clone(flight);
            drop(segments);
            self.counters.add_coalesced(1);
            return Claim::Foreign(flight);
        }
        let flight = Arc::new(Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        segments.inflight.insert(key.clone(), Arc::clone(&flight));
        drop(segments);
        self.counters.add_misses(1);
        Claim::Lead(FlightGuard {
            cache: self,
            key: key.clone(),
            flight,
            armed: true,
        })
    }

    /// Blocks until a foreign flight completes, returning the leader's
    /// outcome (shared response, or its error cloned).
    pub fn wait(&self, flight: &Flight) -> Result<Arc<ProbeResponse>> {
        let mut slot = lock(&flight.slot);
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = flight
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The single-probe convenience: cached answer, or wait on the
    /// in-flight leader, or lead the one `compute` call yourself. Safe to
    /// call while holding no [`FlightGuard`] (a holder must complete its
    /// own flight before waiting on foreign ones).
    pub fn get_or_compute(
        &self,
        key: &ProbeKey,
        compute: impl FnOnce() -> Result<ProbeResponse>,
    ) -> Result<Arc<ProbeResponse>> {
        match self.claim(key) {
            Claim::Hit(value) => Ok(value),
            Claim::Foreign(flight) => self.wait(&flight),
            Claim::Lead(guard) => guard.complete(compute()),
        }
    }
}

/// One shard's cache identity: a stable base token derived from the blob
/// served at handshake time ([`shard_identity_token`]) plus a generation
/// counter the owner bumps whenever that blob is found replaced
/// (wrong-blob eviction). Bumping the generation changes every future
/// key, so stale entries become unreachable instantly and age out with
/// the next segment flips.
#[derive(Debug, Clone)]
pub struct ShardCacheId {
    base: u64,
    generation: Arc<AtomicU64>,
}

impl ShardCacheId {
    /// An identity with its own private generation counter (local shards,
    /// whose blob never changes underneath the gatherer).
    pub fn new(base: u64) -> ShardCacheId {
        ShardCacheId::with_generation(base, Arc::new(AtomicU64::new(0)))
    }

    /// An identity sharing the owner's generation counter (remote shards
    /// bump it at every wrong-blob eviction).
    pub fn with_generation(base: u64, generation: Arc<AtomicU64>) -> ShardCacheId {
        ShardCacheId { base, generation }
    }

    /// The current per-shard key token.
    pub fn token(&self) -> u64 {
        let generation = self.generation.load(Ordering::Acquire);
        mix(self.base ^ generation.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// A stable base token for one shard's served blob: shard index,
/// cardinality, and schema — exactly the identity the PR 7 handshake
/// verifies, so two shards answer under the same token only when the
/// handshake would accept them interchangeably.
pub fn shard_identity_token(index: usize, n: u64, schema: &Schema) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(&(index as u64).to_le_bytes());
    bytes.extend_from_slice(&n.to_le_bytes());
    bytes.extend_from_slice(format!("{schema:?}").as_bytes());
    mix(hash_bytes(&bytes))
}

fn cached_shape_error() -> ModelError {
    ModelError::Remote(RemoteDetail::message(
        "cached probe response had an unexpected shape",
    ))
}

pub(crate) fn as_probability(resp: &ProbeResponse) -> Result<f64> {
    match resp {
        ProbeResponse::Probability(p) => Ok(*p),
        _ => Err(cached_shape_error()),
    }
}

pub(crate) fn as_estimate(resp: &ProbeResponse) -> Result<Estimate> {
    match resp {
        ProbeResponse::Estimate(e) => Ok(*e),
        _ => Err(cached_shape_error()),
    }
}

pub(crate) fn as_groups(resp: &ProbeResponse) -> Result<Vec<Estimate>> {
    match resp {
        ProbeResponse::Groups(cells) => Ok(cells.clone()),
        _ => Err(cached_shape_error()),
    }
}

fn as_ranked(resp: &ProbeResponse) -> Result<Vec<(u32, Estimate)>> {
    match resp {
        ProbeResponse::Ranked(ranked) => Ok(ranked.clone()),
        _ => Err(cached_shape_error()),
    }
}

/// A [`ShardProbe`] with a [`ProbeCache`] in front: every probe first
/// consults the cache under this shard's identity token, coalesces with
/// identical in-flight probes, and batches the *misses* of a multi-probe
/// round into one inner batched call (one pipelined wire frame for a
/// remote shard). Cached answers are the shard's own decoded responses,
/// so going through the wrapper is bitwise-invisible.
pub struct CachedProbe<'a, P: ShardProbe> {
    inner: &'a P,
    cache: &'a ProbeCache,
    token: u64,
}

impl<'a, P: ShardProbe> CachedProbe<'a, P> {
    /// Wraps `inner`, keying its answers under `token`.
    pub fn new(inner: &'a P, cache: &'a ProbeCache, token: u64) -> CachedProbe<'a, P> {
        CachedProbe {
            inner,
            cache,
            token,
        }
    }

    /// Runs one multi-probe round: duplicate keys within the round share
    /// one slot (counted as coalesced), cached keys are answered
    /// immediately, and the remaining misses are fetched with a *single*
    /// `fetch` call over their positions. All flights this round leads
    /// are completed before any foreign flight is waited on, so
    /// concurrent rounds over overlapping keys cannot deadlock.
    fn batched<T: Clone>(
        &self,
        keys: &[ProbeKey],
        extract: impl Fn(&ProbeResponse) -> Result<T>,
        wrap: impl Fn(T) -> ProbeResponse,
        fetch: impl FnOnce(&[usize]) -> Result<Vec<T>>,
    ) -> Result<Vec<T>> {
        let n = keys.len();
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut claims: Vec<Option<Claim<'_>>> = (0..n).map(|_| None).collect();
        let mut dup_of: Vec<usize> = (0..n).collect();
        let mut leads: Vec<usize> = Vec::new();
        let mut first_pos: HashMap<&ProbeKey, usize> = HashMap::with_capacity(n);
        for i in 0..n {
            match first_pos.entry(&keys[i]) {
                Entry::Vacant(slot) => {
                    slot.insert(i);
                    let claim = self.cache.claim(&keys[i]);
                    if matches!(claim, Claim::Lead(_)) {
                        leads.push(i);
                    }
                    claims[i] = Some(claim);
                }
                Entry::Occupied(slot) => {
                    dup_of[i] = *slot.get();
                    self.cache.counters().add_coalesced(1);
                }
            }
        }
        if !leads.is_empty() {
            let fetched = match fetch(&leads) {
                Ok(values) if values.len() == leads.len() => values,
                Ok(_) => {
                    let err = ModelError::Remote(RemoteDetail::message(
                        "shard answered a mismatched batch shape",
                    ));
                    for &i in &leads {
                        if let Some(Claim::Lead(guard)) = claims[i].take() {
                            let _ = guard.complete(Err(err.clone()));
                        }
                    }
                    return Err(err);
                }
                Err(err) => {
                    // Hand the real failure to every waiter, then fail
                    // this round with it unchanged.
                    for &i in &leads {
                        if let Some(Claim::Lead(guard)) = claims[i].take() {
                            let _ = guard.complete(Err(err.clone()));
                        }
                    }
                    return Err(err);
                }
            };
            for (&i, value) in leads.iter().zip(fetched) {
                match claims[i].take() {
                    Some(Claim::Lead(guard)) => {
                        let resp = guard.complete(Ok(wrap(value)))?;
                        out[i] = Some(extract(&resp)?);
                    }
                    _ => unreachable!("lead positions hold Lead claims"),
                }
            }
        }
        for i in 0..n {
            if out[i].is_some() || dup_of[i] != i {
                continue;
            }
            match claims[i].take() {
                Some(Claim::Hit(resp)) => out[i] = Some(extract(&resp)?),
                Some(Claim::Foreign(flight)) => {
                    let resp = self.cache.wait(&flight)?;
                    out[i] = Some(extract(&resp)?);
                }
                _ => unreachable!("every distinct position holds a claim"),
            }
        }
        for i in 0..n {
            if dup_of[i] != i {
                out[i] = out[dup_of[i]].clone();
            }
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("every batch slot filled"))
            .collect())
    }
}

impl<P: ShardProbe> ShardProbe for CachedProbe<'_, P> {
    type Scratch = P::Scratch;

    fn shard_n(&self) -> u64 {
        self.inner.shard_n()
    }

    fn make_probe_scratch(&self) -> Self::Scratch {
        self.inner.make_probe_scratch()
    }

    fn probe_probability(&self, mask: &Mask, scratch: &mut Self::Scratch) -> Result<f64> {
        let key = ProbeKeyBody::probability(mask).key(self.token);
        let resp = self.cache.get_or_compute(&key, || {
            self.inner
                .probe_probability(mask, scratch)
                .map(ProbeResponse::Probability)
        })?;
        as_probability(&resp)
    }

    fn probe_count(&self, mask: &Mask, scratch: &mut Self::Scratch) -> Result<Estimate> {
        let key = ProbeKeyBody::count(mask).key(self.token);
        let resp = self.cache.get_or_compute(&key, || {
            self.inner
                .probe_count(mask, scratch)
                .map(ProbeResponse::Estimate)
        })?;
        as_estimate(&resp)
    }

    fn probe_probability_many(
        &self,
        masks: &[Mask],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<f64>> {
        let keys: Vec<ProbeKey> = masks
            .iter()
            .map(|mask| ProbeKeyBody::probability(mask).key(self.token))
            .collect();
        self.batched(
            &keys,
            as_probability,
            ProbeResponse::Probability,
            |misses| {
                let miss_masks: Vec<Mask> = misses.iter().map(|&i| masks[i].clone()).collect();
                self.inner.probe_probability_many(&miss_masks, scratch)
            },
        )
    }

    fn probe_count_many(
        &self,
        masks: &[Mask],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>> {
        let keys: Vec<ProbeKey> = masks
            .iter()
            .map(|mask| ProbeKeyBody::count(mask).key(self.token))
            .collect();
        self.batched(&keys, as_estimate, ProbeResponse::Estimate, |misses| {
            let miss_masks: Vec<Mask> = misses.iter().map(|&i| masks[i].clone()).collect();
            self.inner.probe_count_many(&miss_masks, scratch)
        })
    }

    fn probe_count_restricted(
        &self,
        mask: &Mask,
        attr: AttrId,
        values: &[u32],
        n_attr: usize,
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>> {
        // Per-candidate entries: only the candidates nobody cached yet
        // ride the inner batched re-probe (one `countr` frame per shard
        // per round for a remote shard).
        let mut family = RestrictedKeyFamily::new(mask, attr);
        let keys: Vec<ProbeKey> = values
            .iter()
            .map(|&v| family.body(v).key(self.token))
            .collect();
        self.batched(&keys, as_estimate, ProbeResponse::Estimate, |misses| {
            let miss_values: Vec<u32> = misses.iter().map(|&i| values[i]).collect();
            self.inner
                .probe_count_restricted(mask, attr, &miss_values, n_attr, scratch)
        })
    }

    fn probe_sum(
        &self,
        base: &Mask,
        attr: AttrId,
        values: &[f64],
        scratch: &mut Self::Scratch,
    ) -> Result<Estimate> {
        let key = ProbeKeyBody::sum(base, attr, values).key(self.token);
        let resp = self.cache.get_or_compute(&key, || {
            self.inner
                .probe_sum(base, attr, values, scratch)
                .map(ProbeResponse::Estimate)
        })?;
        as_estimate(&resp)
    }

    fn probe_group_by(
        &self,
        mask: &Mask,
        attr: AttrId,
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>> {
        let key = ProbeKeyBody::group_by(mask, attr).key(self.token);
        let resp = self.cache.get_or_compute(&key, || {
            self.inner
                .probe_group_by(mask, attr, scratch)
                .map(ProbeResponse::Groups)
        })?;
        as_groups(&resp)
    }

    fn probe_top_k(
        &self,
        mask: &Mask,
        attr: AttrId,
        k: usize,
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<(u32, Estimate)>> {
        let key = ProbeKeyBody::top_k(mask, attr, k).key(self.token);
        let resp = self.cache.get_or_compute(&key, || {
            self.inner
                .probe_top_k(mask, attr, k, scratch)
                .map(ProbeResponse::Ranked)
        })?;
        as_ranked(&resp)
    }

    fn probe_sample_at(
        &self,
        k: usize,
        seed: u64,
        indices: &[u64],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Vec<u32>>> {
        // Sampling is deterministic in (seed, index) and cheap relative
        // to its payload — caching rows would only crowd out estimator
        // entries, so draws pass straight through.
        self.inner.probe_sample_at(k, seed, indices, scratch)
    }
}

/// The per-mixture cache bundle: one [`ProbeCache`] plus one
/// [`ShardCacheId`] per shard. A mixture first tries
/// [`GatherCache::peek_all`] — when *every* shard's answer is cached, the
/// fold runs on the calling thread and the fan-out worker pool is bypassed
/// entirely, which is what closes the cached point-query gap. On any miss,
/// [`GatherCache::probes`] wraps the shards in [`CachedProbe`] for the
/// normal fan-out.
#[derive(Debug)]
pub struct GatherCache {
    cache: Arc<ProbeCache>,
    shards: Vec<ShardCacheId>,
}

impl GatherCache {
    /// A cache bounded to `entries` responses over the given shard
    /// identities.
    pub fn new(entries: usize, shards: Vec<ShardCacheId>) -> GatherCache {
        GatherCache {
            cache: Arc::new(ProbeCache::new(entries)),
            shards,
        }
    }

    /// The underlying answer cache.
    pub fn cache(&self) -> &ProbeCache {
        &self.cache
    }

    /// A point-in-time copy of the cache counters.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        self.cache.snapshot()
    }

    /// Wraps each shard in a [`CachedProbe`] under its current identity
    /// token, for the fan-out.
    pub fn probes<'a, P: ShardProbe>(&'a self, inner: &'a [P]) -> Vec<CachedProbe<'a, P>> {
        assert_eq!(inner.len(), self.shards.len(), "one cache id per shard");
        inner
            .iter()
            .zip(&self.shards)
            .map(|(probe, id)| CachedProbe::new(probe, &self.cache, id.token()))
            .collect()
    }

    /// Every shard's cached answer to one probe, in shard order; `Some`
    /// only when all of them are cached and have the shape `extract`
    /// expects. The whole round counts as hits on success and touches no
    /// counter otherwise (the fan-out that follows a miss counts itself).
    pub fn peek_all<R>(
        &self,
        body: &ProbeKeyBody,
        extract: impl Fn(&ProbeResponse) -> Result<R>,
    ) -> Option<Vec<R>> {
        let mut answers = Vec::with_capacity(self.shards.len());
        for id in &self.shards {
            let resp = self.cache.peek(&body.key(id.token()))?;
            answers.push(extract(&resp).ok()?);
        }
        self.cache.counters().add_hits(answers.len() as u64);
        Some(answers)
    }
}

/// Fans `f` out over `(shard index, probe, probe scratch)` on the worker
/// pool and collects the per-shard results in shard order. Each shard owns
/// its scratch slot, so results are deterministic and identical to serial
/// execution. `scratches` must hold one workspace per probe.
pub fn fan_out<P: ShardProbe, R: Send>(
    probes: &[P],
    scratches: &mut [P::Scratch],
    f: impl Fn(usize, &P, &mut P::Scratch) -> R + Sync,
) -> Vec<R> {
    assert_eq!(probes.len(), scratches.len(), "one scratch per shard");
    let mut work: Vec<(usize, &P, &mut P::Scratch, Option<R>)> = probes
        .iter()
        .enumerate()
        .zip(scratches.iter_mut())
        .map(|((i, probe), scratch)| (i, probe, scratch, None))
        .collect();
    par::for_each_chunk_mut(&mut work, 1, |_, chunk| {
        for (i, probe, scratch, slot) in chunk.iter_mut() {
            *slot = Some(f(*i, probe, scratch));
        }
    });
    work.into_iter()
        .map(|(_, _, _, r)| r.expect("fan-out slot filled"))
        .collect()
}

/// Largest-remainder (Hamilton) apportionment of `k` draws proportional to
/// `weights`; deterministic, ties broken by lower index.
pub fn proportional_quota(weights: &[u64], k: usize) -> Vec<usize> {
    let total: u64 = weights.iter().sum();
    let mut quota = vec![0usize; weights.len()];
    if total == 0 || weights.is_empty() {
        if let Some(first) = quota.first_mut() {
            *first = k;
        }
        return quota;
    }
    let mut remainders: Vec<(u64, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let exact = k as u128 * w as u128;
        quota[i] = (exact / total as u128) as usize;
        assigned += quota[i];
        remainders.push(((exact % total as u128) as u64, i));
    }
    // Highest fractional remainder first; ties to the lower shard index.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in remainders.iter().take(k - assigned) {
        quota[i] += 1;
    }
    quota
}

/// The stratified shard assignment of a `sample_rows(k, ..)` call: element
/// `i` is the shard that draws global tuple `i` (contiguous by shard, sized
/// by largest-remainder apportionment of the shard cardinalities `ns`).
pub fn sample_assignment(ns: &[u64], k: usize) -> Vec<u32> {
    let quota = proportional_quota(ns, k);
    let mut plan = Vec::with_capacity(k);
    for (shard, &q) in quota.iter().enumerate() {
        plan.extend(std::iter::repeat_n(shard as u32, q));
    }
    plan
}

/// Groups a [`sample_assignment`] into per-shard global-index lists (the
/// per-shard [`ShardProbe::probe_sample_at`] arguments).
pub fn shard_index_lists(assignment: &[u32], num_shards: usize) -> Vec<Vec<u64>> {
    let mut lists = vec![Vec::new(); num_shards];
    for (i, &shard) in assignment.iter().enumerate() {
        lists[shard as usize].push(i as u64);
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// A synthetic shard probe that counts inner calls, optionally
    /// sleeps (to widen coalescing windows), and optionally fails.
    struct CountingProbe {
        n: u64,
        calls: AtomicUsize,
        delay: Duration,
        fail: bool,
    }

    impl CountingProbe {
        fn new(n: u64) -> CountingProbe {
            CountingProbe {
                n,
                calls: AtomicUsize::new(0),
                delay: Duration::ZERO,
                fail: false,
            }
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::SeqCst)
        }

        fn tick(&self) -> Result<()> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            if self.fail {
                return Err(ModelError::Remote(RemoteDetail::message(
                    "injected probe failure",
                )));
            }
            Ok(())
        }

        /// A value derived from the mask so distinct probes get distinct
        /// answers: the sum of all explicit weights.
        fn mask_signature(mask: &Mask) -> f64 {
            (0..mask.arity())
                .filter_map(|a| mask.attr_weights(a))
                .flatten()
                .sum()
        }
    }

    impl ShardProbe for CountingProbe {
        type Scratch = ();

        fn shard_n(&self) -> u64 {
            self.n
        }

        fn make_probe_scratch(&self) {}

        fn probe_probability(&self, mask: &Mask, _scratch: &mut ()) -> Result<f64> {
            self.tick()?;
            Ok(CountingProbe::mask_signature(mask) / self.n as f64)
        }

        fn probe_count(&self, mask: &Mask, _scratch: &mut ()) -> Result<Estimate> {
            self.tick()?;
            Ok(Estimate::new(CountingProbe::mask_signature(mask), 1.0))
        }

        fn probe_sum(
            &self,
            base: &Mask,
            _attr: AttrId,
            values: &[f64],
            _scratch: &mut (),
        ) -> Result<Estimate> {
            self.tick()?;
            Ok(Estimate::new(
                CountingProbe::mask_signature(base) + values.iter().sum::<f64>(),
                1.0,
            ))
        }

        fn probe_group_by(
            &self,
            mask: &Mask,
            _attr: AttrId,
            _scratch: &mut (),
        ) -> Result<Vec<Estimate>> {
            self.tick()?;
            Ok(vec![Estimate::new(
                CountingProbe::mask_signature(mask),
                1.0,
            )])
        }

        fn probe_top_k(
            &self,
            _mask: &Mask,
            _attr: AttrId,
            k: usize,
            _scratch: &mut (),
        ) -> Result<Vec<(u32, Estimate)>> {
            self.tick()?;
            Ok((0..k as u32)
                .map(|v| (v, Estimate::new(1.0, 1.0)))
                .collect())
        }

        fn probe_sample_at(
            &self,
            _k: usize,
            _seed: u64,
            indices: &[u64],
            _scratch: &mut (),
        ) -> Result<Vec<Vec<u32>>> {
            self.tick()?;
            Ok(indices.iter().map(|&i| vec![i as u32]).collect())
        }
    }

    fn weighted_mask(weights: &[f64]) -> Mask {
        Mask::from_weights(vec![Some(weights.to_vec()), None])
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_probes() {
        let probe = CountingProbe {
            delay: Duration::from_millis(30),
            ..CountingProbe::new(100)
        };
        let cache = ProbeCache::new(64);
        let mask = weighted_mask(&[1.0, 0.0, 2.5]);
        let results: Vec<Estimate> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        CachedProbe::new(&probe, &cache, 7)
                            .probe_count(&mask, &mut ())
                            .expect("probe succeeds")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(probe.calls(), 1, "eight identical probes, one inner call");
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        let snap = cache.snapshot();
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.hits + snap.coalesced, 7);
    }

    #[test]
    fn leader_errors_propagate_and_are_not_cached() {
        let probe = CountingProbe {
            fail: true,
            ..CountingProbe::new(100)
        };
        let cache = ProbeCache::new(64);
        let cached = CachedProbe::new(&probe, &cache, 1);
        let mask = weighted_mask(&[1.0]);
        let first = cached.probe_count(&mask, &mut ());
        let second = cached.probe_count(&mask, &mut ());
        assert_eq!(
            first.clone().unwrap_err(),
            ModelError::Remote(RemoteDetail::message("injected probe failure"))
        );
        assert_eq!(first, second, "waiters and retries see the real error");
        assert_eq!(probe.calls(), 2, "errors are never cached");
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_is_bounded_and_counts_evictions() {
        let probe = CountingProbe::new(100);
        let cache = ProbeCache::new(4);
        let cached = CachedProbe::new(&probe, &cache, 1);
        for i in 0..10 {
            cached
                .probe_count(&weighted_mask(&[i as f64]), &mut ())
                .unwrap();
        }
        assert!(cache.len() <= 4, "cache stays bounded: {}", cache.len());
        let snap = cache.snapshot();
        assert_eq!(snap.misses, 10);
        assert!(snap.evicted > 0);
    }

    #[test]
    fn generation_bump_invalidates_cached_entries() {
        let probe = CountingProbe::new(100);
        let cache = ProbeCache::new(64);
        let generation = Arc::new(AtomicU64::new(0));
        let id = ShardCacheId::with_generation(9, Arc::clone(&generation));
        let mask = weighted_mask(&[2.0]);
        let before = CachedProbe::new(&probe, &cache, id.token())
            .probe_count(&mask, &mut ())
            .unwrap();
        assert_eq!(probe.calls(), 1);
        // Same generation: served from cache.
        CachedProbe::new(&probe, &cache, id.token())
            .probe_count(&mask, &mut ())
            .unwrap();
        assert_eq!(probe.calls(), 1);
        // Blob replaced: every cached answer becomes unreachable.
        generation.fetch_add(1, Ordering::SeqCst);
        let after = CachedProbe::new(&probe, &cache, id.token())
            .probe_count(&mask, &mut ())
            .unwrap();
        assert_eq!(probe.calls(), 2, "new generation misses the cache");
        assert_eq!(before, after);
    }

    #[test]
    fn batched_round_coalesces_duplicates_and_fetches_misses_once() {
        let probe = CountingProbe::new(100);
        let cache = ProbeCache::new(64);
        let cached = CachedProbe::new(&probe, &cache, 3);
        let a = weighted_mask(&[1.0]);
        let b = weighted_mask(&[2.0]);
        let masks = vec![a.clone(), b.clone(), a.clone(), a.clone()];
        let round = cached.probe_count_many(&masks, &mut ()).unwrap();
        assert_eq!(probe.calls(), 2, "two distinct masks, two inner probes");
        assert_eq!(round[0], round[2]);
        assert_eq!(round[0], round[3]);
        assert_eq!(cache.snapshot().coalesced, 2);
        // The wrapper must agree with the uncached probe bitwise.
        let direct = probe.probe_count_many(&masks, &mut ()).unwrap();
        assert_eq!(round, direct);
    }

    #[test]
    fn restricted_default_matches_per_value_loop() {
        let probe = CountingProbe::new(100);
        let base = weighted_mask(&[1.0, 2.0, 3.0, 4.0]);
        let values = [0u32, 2, 3];
        let batched = probe
            .probe_count_restricted(&base, AttrId(0), &values, 4, &mut ())
            .unwrap();
        let looped: Vec<Estimate> = values
            .iter()
            .map(|&v| {
                let mut m = base.clone();
                m.restrict_in_place(AttrId(0), v, 4);
                probe.probe_count(&m, &mut ()).unwrap()
            })
            .collect();
        assert_eq!(batched, looped);
    }

    #[test]
    fn probe_keys_distinguish_ops_tokens_and_arguments() {
        let mask = weighted_mask(&[1.0, 0.5]);
        let count = ProbeKeyBody::count(&mask);
        let prob = ProbeKeyBody::probability(&mask);
        assert_ne!(count.key(1), prob.key(1), "op is part of the key");
        assert_ne!(count.key(1), count.key(2), "token is part of the key");
        assert_eq!(count.key(1), ProbeKeyBody::count(&mask).key(1));
        let other = weighted_mask(&[1.0, 0.25]);
        assert_ne!(count.key(1), ProbeKeyBody::count(&other).key(1));
        let r0 = ProbeKeyBody::count_restricted(&mask, AttrId(0), 0);
        let r1 = ProbeKeyBody::count_restricted(&mask, AttrId(0), 1);
        assert_ne!(r0.key(1), r1.key(1), "candidate value is part of the key");
        let k3 = ProbeKeyBody::top_k(&mask, AttrId(1), 3);
        let k5 = ProbeKeyBody::top_k(&mask, AttrId(1), 5);
        assert_ne!(k3.key(1), k5.key(1), "k is part of the key");
    }

    #[test]
    fn gather_cache_peek_paths_match_drivers_bitwise() {
        use crate::sharded::Mixture;
        use entropydb_storage::Attribute;
        let schema = Schema::new(vec![
            Attribute::categorical("a", 2).unwrap(),
            Attribute::categorical("b", 3).unwrap(),
        ]);
        let mixture = |schema: &Schema| {
            let probes = vec![CountingProbe::new(60), CountingProbe::new(40)];
            Mixture::new(schema.clone(), probes).unwrap()
        };
        let uncached = mixture(&schema);
        let cached = mixture(&schema).with_probe_cache(256);
        let mask = weighted_mask(&[1.5, 0.5]);
        let masks = [mask.clone(), weighted_mask(&[0.25, 2.0])];
        let values = [1.0, 2.0];
        let (mut su, mut sc) = (uncached.make_scratch(), cached.make_scratch());
        let calls = |m: &Mixture<CountingProbe>| -> Vec<usize> {
            m.shards().iter().map(CountingProbe::calls).collect()
        };
        let mut cold_calls = Vec::new();

        // Pass 0 fans out behind the cache; pass 1 is answered entirely
        // from it (peeked without the pool where the op has a cache key).
        // Both must be bitwise the uncached answers, for every op.
        for pass in 0..2 {
            if pass == 1 {
                cold_calls = calls(&cached);
            }
            let p = |m: &Mixture<CountingProbe>, s: &mut Vec<()>| {
                m.probability_under_mask(&mask, s).unwrap().to_bits()
            };
            assert_eq!(p(&cached, &mut sc), p(&uncached, &mut su));
            let ps = |m: &Mixture<CountingProbe>, s: &mut Vec<()>| -> Vec<u64> {
                let ps = m.probabilities_under_masks(&masks, s).unwrap();
                ps.into_iter().map(f64::to_bits).collect()
            };
            assert_eq!(ps(&cached, &mut sc), ps(&uncached, &mut su));
            assert_eq!(
                cached.count_under_mask(&mask, &mut sc).unwrap(),
                uncached.count_under_mask(&mask, &mut su).unwrap()
            );
            assert_eq!(
                cached.counts_under_masks(&masks, &mut sc).unwrap(),
                uncached.counts_under_masks(&masks, &mut su).unwrap()
            );
            assert_eq!(
                cached
                    .sum_under_mask(&mask, AttrId(0), &values, &mut sc)
                    .unwrap(),
                uncached
                    .sum_under_mask(&mask, AttrId(0), &values, &mut su)
                    .unwrap()
            );
            assert_eq!(
                cached
                    .group_by_under_mask(&mask, AttrId(0), &mut sc)
                    .unwrap(),
                uncached
                    .group_by_under_mask(&mask, AttrId(0), &mut su)
                    .unwrap()
            );
            assert_eq!(
                cached
                    .top_k_under_mask(&mask, AttrId(0), 2, &mut sc)
                    .unwrap(),
                uncached
                    .top_k_under_mask(&mask, AttrId(0), 2, &mut su)
                    .unwrap()
            );
        }

        // The warm pass never reached a shard.
        assert!(cold_calls.iter().all(|&c| c > 0));
        assert_eq!(calls(&cached), cold_calls);
        assert!(cached.cache_stats().unwrap().hits > 0);
    }

    #[test]
    fn quota_is_exact_and_deterministic() {
        assert_eq!(proportional_quota(&[1, 1, 1], 3), vec![1, 1, 1]);
        assert_eq!(proportional_quota(&[2, 1], 3), vec![2, 1]);
        let q = proportional_quota(&[5, 3, 2], 7);
        assert_eq!(q.iter().sum::<usize>(), 7);
        assert_eq!(q, proportional_quota(&[5, 3, 2], 7));
        assert_eq!(proportional_quota(&[], 4), Vec::<usize>::new());
        assert_eq!(proportional_quota(&[0, 0], 4), vec![4, 0]);
    }

    #[test]
    fn assignment_round_trips_through_index_lists() {
        let plan = sample_assignment(&[6, 3, 1], 10);
        assert_eq!(plan.len(), 10);
        let lists = shard_index_lists(&plan, 3);
        assert_eq!(lists.iter().map(Vec::len).sum::<usize>(), 10);
        for (shard, list) in lists.iter().enumerate() {
            for &i in list {
                assert_eq!(plan[i as usize] as usize, shard);
            }
        }
    }
}
