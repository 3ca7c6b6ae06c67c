//! The mixture: one summary answered by several per-shard distributions.
//!
//! The paper answers every query from one MaxEnt distribution. This module
//! scales that to a **mixture** `Σ (n_s / n) · P_s` of per-shard
//! distributions over disjoint row sets. [`Mixture`] is generic over its
//! children ([`ShardProbe`]) and is the only implementation of the merge
//! rules:
//!
//! * [`ShardedSummary`] is `Mixture<MaxEntSummary>`: the relation is split
//!   into horizontal shards ([`Table::partition`]), one [`MaxEntSummary`]
//!   is fitted per shard in parallel on the persistent worker pool, and
//!   queries fan out over the shard models.
//! * `entropydb_server::RemoteShardedSummary` holds a mixture of
//!   `RemoteShard` children (one TCP-reachable replica set per shard) and
//!   gets its whole query path from it through [`AsMixture`].
//! * [`LiveSummary`](crate::ingest::LiveSummary) publishes a fresh
//!   `ShardedSummary` over its segments plus the fitted delta at every
//!   fold.
//!
//! The merge rules:
//!
//! * COUNT / SUM expectations add, and — because the shard models are
//!   independent distributions over disjoint row sets — their variances add
//!   too (tighter than a single Binomial over the merged probability).
//! * Tuple-draw probability is the mixture `Σ (n_s / n) · p_s`, clamped
//!   into `[0, 1]`. `n` and the weights are read from the children's
//!   current `shard_n()` at every call, so a child whose cardinality grows
//!   (a live node behind a gateway) is weighted by what it serves now.
//! * Group-by cells merge by value (per-value estimates add).
//! * Top-k unions per-shard candidates, then re-probes every candidate
//!   exactly across all shards before ranking, so a value that is popular
//!   overall but below `k` in some shard is still scored correctly.
//! * `sample_rows` stratifies the draw across shards proportionally to
//!   shard cardinality (largest-remainder apportionment). Each contributing
//!   shard draws its whole stratum in one probe on first touch, with every
//!   tuple's SplitMix64 stream derived only from `(seed, global tuple
//!   index)` — output is deterministic and never depends on thread fan-out.
//!
//! Every primitive first collects the per-shard answers, then runs one
//! shard-order fold over them. With a gather cache on
//! ([`Mixture::with_probe_cache`]), an answer every shard has cached is
//! read without entering the worker pool; otherwise the shards answer
//! through [`scatter::fan_out`] behind [`scatter::CachedProbe`]. Cached
//! entries are the shards' own answers and the fold is shared, so cached
//! answers are bitwise the uncached ones.
//!
//! Sharding also *bounds per-shard closures*: with range sharding, a shard
//! only sees rows in its code range, so any multi statistic whose range on
//! some attribute has no support in the shard constrains a region the
//! shard's complete 1D statistics already force to zero mass. Such
//! statistics are dropped from that shard's model (`P` is independent of
//! their variables — the distribution is unchanged), which shrinks the
//! per-shard polynomial and is where the monolithic-vs-sharded build-time
//! win comes from even on a single core (see `crates/bench/benches/shard.rs`).
//!
//! A `ShardedSummary` built with **one** shard answers every
//! [`QueryEngine`](crate::engine::QueryEngine) path bit-identically to the
//! equivalent [`MaxEntSummary`]: a single shard's answer passes through
//! every fold unchanged, so no floating-point operation is added (enforced
//! by `crates/core/tests/sharded.rs`).

use crate::assignment::Mask;
use crate::engine::{ir, rank_candidates, rank_top_k, AppendOutcome, ScratchPool, SummaryBackend};
use crate::error::{ModelError, RemoteDetail, Result};
use crate::factorized::FactorizedScratch;
use crate::metrics::{CacheStatsSnapshot, IngestStatsSnapshot};
use crate::model::MaxEntSummary;
use crate::par;
use crate::probe::ProbeResponse;
use crate::query::Estimate;
use crate::scatter::{self, GatherCache, ProbeKeyBody, ShardCacheId, ShardProbe};
use crate::solver::SolverConfig;
use crate::statistics::MultiDimStatistic;
use entropydb_storage::{AttrId, Histogram1D, Partitioning, Predicate, Schema, Table};
use std::sync::{Arc, Mutex};

/// How [`ShardedSummary::build`] fits the per-shard models.
#[derive(Debug, Clone)]
pub struct ShardedBuildConfig {
    /// Solver configuration for every per-shard solve.
    pub solver: SolverConfig,
    /// Drop, per shard, multi statistics with an unsupported clause range
    /// (all 1D counts zero across the range): the shard's 1D statistics
    /// already force that region to zero mass, so the fitted distribution
    /// is *exactly* unchanged while the shard polynomial shrinks. Only
    /// applies with two or more shards — a 1-shard summary always keeps the
    /// full statistic set so it stays bit-identical to the monolithic model.
    pub prune_unsupported_stats: bool,
    /// With two or more shards, drop a statistic from a shard when it
    /// covers *every* shard row (`s_j = n_s`) — the coordinate update is
    /// degenerate for such a statistic and the monolithic builder rejects
    /// it outright; per shard it is merely uninformative there.
    pub drop_degenerate_stats: bool,
}

impl Default for ShardedBuildConfig {
    fn default() -> Self {
        ShardedBuildConfig {
            solver: SolverConfig::default(),
            prune_unsupported_stats: true,
            drop_degenerate_stats: true,
        }
    }
}

/// Per-call scratch of a sharded summary: one shard-model scratch per shard.
pub type ShardedScratch = Vec<FactorizedScratch>;

/// A queryable summary sharded across horizontal row partitions: the
/// mixture of in-process shard models.
pub type ShardedSummary = Mixture<MaxEntSummary>;

/// The mixture `Σ (n_s / n) · P_s` of per-shard distributions (see the
/// module docs for the merge rules). Implements [`SummaryBackend`] through
/// [`AsMixture`].
#[derive(Debug, Clone)]
pub struct Mixture<P: ShardProbe> {
    schema: Schema,
    domain_sizes: Vec<usize>,
    /// The children, in shard order. Shared so that a background thread
    /// (the remote re-handshake) and operators ([`Mixture::shard_set`])
    /// can watch them while the mixture serves.
    shards: Arc<Vec<P>>,
    scratch: ScratchPool<Vec<P::Scratch>>,
    /// Optional gather-side answer cache (see [`Mixture::with_probe_cache`]).
    cache: Option<Arc<GatherCache>>,
}

impl ShardedSummary {
    /// Builds a sharded summary of `table`: partitions the rows, fits one
    /// [`MaxEntSummary`] per non-empty shard in parallel (each over the
    /// given multi-dimensional statistics, possibly pruned per shard — see
    /// [`ShardedBuildConfig`]), and wraps them behind the merged query API.
    pub fn build(
        table: &Table,
        partitioning: &Partitioning,
        multi: Vec<MultiDimStatistic>,
        config: &ShardedBuildConfig,
    ) -> Result<Self> {
        let parts: Vec<Table> = table
            .partition(partitioning)
            .map_err(ModelError::Storage)?
            .into_iter()
            .filter(|p| p.num_rows() > 0)
            .collect();
        if parts.is_empty() {
            return Err(ModelError::NumericalFailure(
                "cannot summarize an empty relation",
            ));
        }
        let multi_shard = parts.len() > 1;
        let shards: Result<Vec<MaxEntSummary>> =
            par::map(&parts, 1, |_, part| -> Result<MaxEntSummary> {
                if !multi_shard {
                    // Single shard: the monolithic build path, bit for bit.
                    return MaxEntSummary::build(part, multi.clone(), &config.solver);
                }
                let mut keep = if config.prune_unsupported_stats {
                    stats_with_support(part, &multi)?
                } else {
                    multi.clone()
                };
                loop {
                    match MaxEntSummary::build(part, keep.clone(), &config.solver) {
                        Err(ModelError::DegenerateStatistic { stat })
                            if config.drop_degenerate_stats =>
                        {
                            keep.remove(stat);
                        }
                        other => return other,
                    }
                }
            })
            .into_iter()
            .collect();
        Self::from_shards(shards?)
    }

    /// Wraps already-fitted shard models. All shards must share one schema.
    pub fn from_shards(shards: Vec<MaxEntSummary>) -> Result<Self> {
        let Some(first) = shards.first() else {
            return Err(ModelError::ShapeMismatch);
        };
        let schema = first.schema().clone();
        if shards[1..].iter().any(|s| s.schema() != &schema) {
            return Err(ModelError::ShapeMismatch);
        }
        if shards.iter().all(|s| s.n() == 0) {
            return Err(ModelError::NumericalFailure(
                "cannot summarize an empty relation",
            ));
        }
        Mixture::new(schema, shards)
    }

    /// Decomposes the mixture back into its per-shard models, in shard
    /// order — the inverse of [`ShardedSummary::from_shards`]. Used by the
    /// streaming-ingest layer to seed a live summary's sealed-segment list
    /// from a fitted base mixture.
    pub fn into_shards(self) -> Vec<MaxEntSummary> {
        Arc::try_unwrap(self.shards).unwrap_or_else(|shared| shared.to_vec())
    }
}

impl<P: ShardProbe> Mixture<P> {
    /// A mixture over `shards`, which must all serve `schema`.
    pub fn new(schema: Schema, shards: Vec<P>) -> Result<Self> {
        if shards.is_empty() {
            return Err(ModelError::ShapeMismatch);
        }
        Ok(Mixture {
            domain_sizes: schema.domain_sizes(),
            schema,
            shards: Arc::new(shards),
            scratch: ScratchPool::new(),
            cache: None,
        })
    }

    /// Puts a gather-side answer cache (bounded to `entries` responses) in
    /// front of the shards: repeated probes are answered from the cache,
    /// concurrent identical probes coalesce, and fully-cached queries skip
    /// the fan-out pool entirely. Each shard's keys carry its
    /// [`ShardProbe::cache_generation`], so a shard that reports changed
    /// answers (a swapped remote blob, a live node's fold) orphans its
    /// cached entries at once. Answers stay bitwise-identical to the
    /// uncached paths.
    pub fn with_probe_cache(mut self, entries: usize) -> Self {
        self.enable_probe_cache(entries);
        self
    }

    /// In-place form of [`Mixture::with_probe_cache`].
    pub fn enable_probe_cache(&mut self, entries: usize) {
        let ids = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let base = scatter::shard_identity_token(i, shard.shard_n(), &self.schema);
                match shard.cache_generation() {
                    Some(generation) => ShardCacheId::with_generation(base, generation),
                    None => ShardCacheId::new(base),
                }
            })
            .collect();
        self.cache = Some(Arc::new(GatherCache::new(entries, ids)));
    }

    /// The gather-side cache, when one is enabled.
    pub fn probe_cache(&self) -> Option<&Arc<GatherCache>> {
        self.cache.as_ref()
    }

    /// Total relation cardinality `n`: the sum of the children's current
    /// cardinalities.
    pub fn n(&self) -> u64 {
        self.shards.iter().map(P::shard_n).sum()
    }

    /// The summarized relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The children, in shard order.
    pub fn shards(&self) -> &[P] {
        &self.shards
    }

    /// A shareable handle to the children.
    pub fn shard_set(&self) -> Arc<Vec<P>> {
        Arc::clone(&self.shards)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    // ---- Inherent query API (mirrors `MaxEntSummary`; same shared paths) ----

    /// The mixture probability that a single tuple draw satisfies `pred`.
    pub fn probability(&self, pred: &Predicate) -> Result<f64> {
        ir::probability(self, &self.scratch, pred)
    }

    /// Estimates `SELECT COUNT(*) WHERE pred`; expectations and variances
    /// are summed across shards.
    pub fn estimate_count(&self, pred: &Predicate) -> Result<Estimate> {
        ir::estimate_count(self, &self.scratch, pred)
    }

    /// Estimates one COUNT per predicate, fanning the batch out across
    /// threads.
    pub fn estimate_count_batch(&self, preds: &[Predicate]) -> Result<Vec<Estimate>> {
        ir::estimate_count_batch(self, &self.scratch, preds)
    }

    /// Estimates `SELECT SUM(value(attr)) WHERE pred` (shard sums add).
    pub fn estimate_sum(&self, pred: &Predicate, attr: AttrId) -> Result<Estimate> {
        ir::estimate_sum(self, &self.scratch, pred, attr)
    }

    /// Estimates `SELECT AVG(value(attr)) WHERE pred` as merged SUM over
    /// merged COUNT.
    pub fn estimate_avg(&self, pred: &Predicate, attr: AttrId) -> Result<Option<f64>> {
        ir::estimate_avg(self, &self.scratch, pred, attr)
    }

    /// Estimates the one-attribute group-by; cells merge by value.
    pub fn estimate_group_by(&self, pred: &Predicate, attr: AttrId) -> Result<Vec<Estimate>> {
        ir::estimate_group_by(self, &self.scratch, pred, attr)
    }

    /// Estimates the two-attribute group-by.
    pub fn estimate_group_by2(
        &self,
        pred: &Predicate,
        attr_a: AttrId,
        attr_b: AttrId,
    ) -> Result<Vec<Vec<Estimate>>> {
        ir::estimate_group_by2(self, &self.scratch, pred, attr_a, attr_b)
    }

    /// Top-k via per-shard candidates plus an exact cross-shard re-probe.
    pub fn top_k(&self, pred: &Predicate, attr: AttrId, k: usize) -> Result<Vec<(u32, Estimate)>> {
        ir::top_k(self, &self.scratch, pred, attr, k)
    }

    /// Top-k per attribute for several candidate attributes at once.
    pub fn top_k_multi(
        &self,
        pred: &Predicate,
        attrs: &[AttrId],
        k: usize,
    ) -> Result<Vec<Vec<(u32, Estimate)>>> {
        ir::top_k_multi(self, &self.scratch, pred, attrs, k)
    }

    /// Draws `k` synthetic tuples, stratified across shards proportionally
    /// to shard cardinality; deterministic in `seed`.
    pub fn sample_rows(&self, k: usize, seed: u64) -> Result<Table> {
        ir::sample_rows(self, &self.scratch, k, seed)
    }

    // ---- Gather: per-shard answers in shard order ----

    /// The mixture weights `n_s / n`, from the children's current
    /// cardinalities.
    fn weights(&self) -> Vec<f64> {
        let n = self.n();
        self.shards
            .iter()
            .map(|s| s.shard_n() as f64 / n as f64)
            .collect()
    }

    /// Every shard's answer to `probe`, in shard order, fanned out on the
    /// worker pool — behind the gather cache when one is on.
    fn fan<R: Send>(
        &self,
        scratch: &mut [P::Scratch],
        probe: impl Fn(&dyn ShardProbe<Scratch = P::Scratch>, &mut P::Scratch) -> Result<R> + Sync,
    ) -> Result<Vec<R>> {
        let answers = match &self.cache {
            Some(cache) => {
                scatter::fan_out(&cache.probes(&self.shards), scratch, |_, p, s| probe(p, s))
            }
            None => scatter::fan_out(&self.shards[..], scratch, |_, p, s| probe(p, s)),
        };
        answers.into_iter().collect()
    }

    /// [`Mixture::fan`] for a probe with a cache key: when every shard's
    /// answer is cached it is read on the calling thread, without the pool.
    fn peek_or_fan<R: Send>(
        &self,
        scratch: &mut [P::Scratch],
        body: impl FnOnce() -> ProbeKeyBody,
        extract: fn(&ProbeResponse) -> Result<R>,
        probe: impl Fn(&dyn ShardProbe<Scratch = P::Scratch>, &mut P::Scratch) -> Result<R> + Sync,
    ) -> Result<Vec<R>> {
        if let Some(cache) = &self.cache {
            if let Some(answers) = cache.peek_all(&body(), extract) {
                return Ok(answers);
            }
        }
        self.fan(scratch, probe)
    }
}

/// The multi statistics of `multi` that have 1D support in `table` on every
/// clause range. A statistic failing this is annihilated by the shard's
/// complete 1D statistics (all tuples in its region carry an `α = 0`
/// factor), so dropping it leaves the fitted distribution exactly unchanged.
pub(crate) fn stats_with_support(
    table: &Table,
    multi: &[MultiDimStatistic],
) -> Result<Vec<MultiDimStatistic>> {
    let hists: Vec<Histogram1D> = table
        .schema()
        .attr_ids()
        .map(|a| Histogram1D::compute(table, a))
        .collect::<entropydb_storage::Result<_>>()
        .map_err(ModelError::Storage)?;
    Ok(multi
        .iter()
        .filter(|stat| {
            stat.clauses().iter().all(|c| {
                hists[c.attr.0].counts()[c.lo as usize..=c.hi as usize]
                    .iter()
                    .any(|&count| count > 0)
            })
        })
        .cloned()
        .collect())
}

// ---- The shard-order folds (a single shard's answer passes unchanged) ----

fn add_estimates(a: Estimate, b: Estimate) -> Estimate {
    Estimate::new(a.expectation + b.expectation, a.variance + b.variance)
}

/// COUNT / SUM: expectations and variances add, in shard order.
fn sum_estimates(per_shard: impl IntoIterator<Item = Estimate>) -> Estimate {
    per_shard
        .into_iter()
        .reduce(add_estimates)
        .expect("at least one shard")
}

/// Probability: `Σ (n_s / n) · p_s` in shard order, clamped into `[0, 1]`.
fn mix(weights: &[f64], per_shard: impl IntoIterator<Item = f64>) -> f64 {
    weights
        .iter()
        .zip(per_shard)
        .fold(0.0, |acc, (&w, p)| acc + w * p)
        .clamp(0.0, 1.0)
}

fn mismatch(what: &str) -> ModelError {
    ModelError::Remote(RemoteDetail::message(format!(
        "shards answered mismatched {what}"
    )))
}

/// Group-by: value-aligned cells add position-wise; every shard must
/// answer the same number of cells.
fn merge_cells(per_shard: Vec<Vec<Estimate>>) -> Result<Vec<Estimate>> {
    let len = per_shard.first().map_or(0, Vec::len);
    if per_shard.iter().any(|cells| cells.len() != len) {
        return Err(mismatch("group-by shapes"));
    }
    Ok(per_shard
        .into_iter()
        .reduce(|mut acc, cells| {
            for (a, b) in acc.iter_mut().zip(cells) {
                *a = add_estimates(*a, b);
            }
            acc
        })
        .expect("at least one shard"))
}

/// Batched answers: every shard must answer one value per mask.
fn check_batch<T>(per_shard: &[Vec<T>], masks: usize) -> Result<()> {
    if per_shard.iter().any(|answers| answers.len() != masks) {
        return Err(mismatch("batch shapes"));
    }
    Ok(())
}

/// A backend whose queries a [`Mixture`] answers. The one blanket
/// [`SummaryBackend`] impl below serves every implementor from its
/// mixture; an implementor adds only what is not a query: the ingest
/// hooks, which default to an immutable backend.
pub trait AsMixture: Send + Sync {
    /// The mixture's child type.
    type Probe: ShardProbe;

    /// The mixture answering this backend's queries.
    fn mixture(&self) -> &Mixture<Self::Probe>;

    /// See [`SummaryBackend::epoch`].
    fn epoch(&self) -> u64 {
        0
    }

    /// See [`SummaryBackend::append_rows`].
    fn append_rows(&self, rows: &[Vec<u32>], token: Option<&str>) -> Result<AppendOutcome> {
        let _ = (rows, token);
        Err(ModelError::Immutable)
    }

    /// See [`SummaryBackend::ingest_stats`].
    fn ingest_stats(&self) -> Option<IngestStatsSnapshot> {
        None
    }
}

impl<P: ShardProbe> AsMixture for Mixture<P> {
    type Probe = P;

    fn mixture(&self) -> &Mixture<P> {
        self
    }
}

/// The per-call sampling plan of a mixture: the stratified shard
/// assignment plus each shard's stratum, drawn lazily on first touch by
/// one [`ShardProbe::probe_sample_at`] call. A full `sample_rows` draw
/// costs one probe per contributing shard, while a sparse `SampleAt` probe
/// served by a gateway fetches only the strata it reads — a few-byte probe
/// line can never demand the whole `k`-row draw.
#[derive(Debug)]
pub struct MixtureSamplePlan {
    k: usize,
    seed: u64,
    /// Shard per global tuple index.
    assignment: Vec<u32>,
    /// Ascending global indices per shard; positions align with the
    /// stratum rows.
    index_lists: Vec<Vec<u64>>,
    /// Drawn rows per shard, filled on first touch.
    strata: Vec<Mutex<Option<Vec<Vec<u32>>>>>,
}

impl<T: AsMixture> SummaryBackend for T {
    type Scratch = Vec<<T::Probe as ShardProbe>::Scratch>;
    type SamplePlan = MixtureSamplePlan;

    fn schema(&self) -> &Schema {
        &self.mixture().schema
    }

    fn n(&self) -> u64 {
        self.mixture().n()
    }

    fn domain_sizes(&self) -> &[usize] {
        &self.mixture().domain_sizes
    }

    fn make_scratch(&self) -> Self::Scratch {
        self.mixture()
            .shards
            .iter()
            .map(ShardProbe::make_probe_scratch)
            .collect()
    }

    fn probability_under_mask(&self, mask: &Mask, scratch: &mut Self::Scratch) -> Result<f64> {
        let m = self.mixture();
        let ps = m.peek_or_fan(
            scratch,
            || ProbeKeyBody::probability(mask),
            scatter::as_probability,
            |p, s| p.probe_probability(mask, s),
        )?;
        Ok(mix(&m.weights(), ps))
    }

    fn count_under_mask(&self, mask: &Mask, scratch: &mut Self::Scratch) -> Result<Estimate> {
        let counts = self.mixture().peek_or_fan(
            scratch,
            || ProbeKeyBody::count(mask),
            scatter::as_estimate,
            |p, s| p.probe_count(mask, s),
        )?;
        Ok(sum_estimates(counts))
    }

    /// Every shard answers the whole batch in one batched probe (the fused
    /// kernel in-process, a few pipelined lines remotely), then each mask
    /// gets the standard fold — bitwise-identical to the per-mask loop.
    fn probabilities_under_masks(
        &self,
        masks: &[Mask],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<f64>> {
        let m = self.mixture();
        let per_shard = m.fan(scratch, |p, s| p.probe_probability_many(masks, s))?;
        check_batch(&per_shard, masks.len())?;
        let weights = m.weights();
        Ok((0..masks.len())
            .map(|i| mix(&weights, per_shard.iter().map(|ps| ps[i])))
            .collect())
    }

    fn counts_under_masks(
        &self,
        masks: &[Mask],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>> {
        let per_shard = self
            .mixture()
            .fan(scratch, |p, s| p.probe_count_many(masks, s))?;
        check_batch(&per_shard, masks.len())?;
        Ok((0..masks.len())
            .map(|i| sum_estimates(per_shard.iter().map(|es| es[i])))
            .collect())
    }

    fn sum_under_mask(
        &self,
        base: &Mask,
        attr: AttrId,
        values: &[f64],
        scratch: &mut Self::Scratch,
    ) -> Result<Estimate> {
        let sums = self.mixture().peek_or_fan(
            scratch,
            || ProbeKeyBody::sum(base, attr, values),
            scatter::as_estimate,
            |p, s| p.probe_sum(base, attr, values, s),
        )?;
        Ok(sum_estimates(sums))
    }

    fn group_by_under_mask(
        &self,
        mask: &Mask,
        attr: AttrId,
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>> {
        let per_shard = self.mixture().peek_or_fan(
            scratch,
            || ProbeKeyBody::group_by(mask, attr),
            scatter::as_groups,
            |p, s| p.probe_group_by(mask, attr, s),
        )?;
        merge_cells(per_shard)
    }

    /// One shard ranks its full group-by (bitwise parity with the
    /// monolithic model). Several shards each nominate their local top-`k`;
    /// the union of candidates is re-scored against *all* shards (one
    /// batched [`ShardProbe::probe_count_restricted`] per shard) before the
    /// final ranking, so a value popular overall but below `k` somewhere is
    /// still ranked correctly.
    fn top_k_under_mask(
        &self,
        mask: &Mask,
        attr: AttrId,
        k: usize,
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<(u32, Estimate)>> {
        let m = self.mixture();
        if m.shards.len() == 1 {
            return Ok(rank_top_k(
                self.group_by_under_mask(mask, attr, scratch)?,
                k,
            ));
        }
        let nominated = m.fan(scratch, |p, s| p.probe_top_k(mask, attr, k, s))?;
        let mut candidates: Vec<u32> = nominated.into_iter().flatten().map(|(v, _)| v).collect();
        candidates.sort_unstable();
        candidates.dedup();
        let n_attr = m.domain_sizes[attr.0];
        let per_shard = m.fan(scratch, |p, s| {
            p.probe_count_restricted(mask, attr, &candidates, n_attr, s)
        })?;
        let merged = merge_cells(per_shard)?;
        if merged.len() != candidates.len() {
            return Err(mismatch("candidate counts"));
        }
        Ok(rank_candidates(
            candidates.into_iter().zip(merged).collect(),
            k,
        ))
    }

    /// The stratified shard assignment; no shard is probed until
    /// [`SummaryBackend::sample_tuple`] touches its stratum.
    fn plan_samples(&self, k: usize, seed: u64) -> Result<MixtureSamplePlan> {
        let shards = &self.mixture().shards;
        let ns: Vec<u64> = shards.iter().map(ShardProbe::shard_n).collect();
        let assignment = scatter::sample_assignment(&ns, k);
        Ok(MixtureSamplePlan {
            k,
            seed,
            index_lists: scatter::shard_index_lists(&assignment, shards.len()),
            assignment,
            strata: shards.iter().map(|_| Mutex::new(None)).collect(),
        })
    }

    /// Copies tuple `index` out of its shard's stratum, drawing the stratum
    /// on first touch. Shards key every tuple's stream on `(seed, global
    /// index)`, so a 1-shard mixture samples bit-identical rows to the
    /// monolithic model, and adding shards never perturbs another tuple's
    /// stream.
    fn sample_tuple(
        &self,
        plan: &MixtureSamplePlan,
        index: usize,
        _seed: u64,
        row: &mut [u32],
        scratch: &mut Self::Scratch,
    ) -> Result<()> {
        let shard = *plan
            .assignment
            .get(index)
            .ok_or(ModelError::ShapeMismatch)? as usize;
        let indices = &plan.index_lists[shard];
        // Index lists are built in ascending global order, so the row's
        // position within the stratum is found by binary search.
        let pos = indices
            .binary_search(&(index as u64))
            .map_err(|_| ModelError::ShapeMismatch)?;
        let mut stratum = plan.strata[shard].lock().expect("sample stratum lock");
        if stratum.is_none() {
            let rows = self.mixture().shards[shard].probe_sample_at(
                plan.k,
                plan.seed,
                indices,
                &mut scratch[shard],
            )?;
            if rows.len() != indices.len() || rows.iter().any(|r| r.len() != row.len()) {
                return Err(ModelError::Remote(RemoteDetail::message(format!(
                    "shard {shard} answered a stratum of the wrong shape"
                ))));
            }
            *stratum = Some(rows);
        }
        row.copy_from_slice(&stratum.as_ref().expect("stratum drawn")[pos]);
        Ok(())
    }

    fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        self.mixture().cache.as_ref().map(|cache| cache.snapshot())
    }

    fn epoch(&self) -> u64 {
        AsMixture::epoch(self)
    }

    fn append_rows(&self, rows: &[Vec<u32>], token: Option<&str>) -> Result<AppendOutcome> {
        AsMixture::append_rows(self, rows, token)
    }

    fn ingest_stats(&self) -> Option<IngestStatsSnapshot> {
        AsMixture::ingest_stats(self)
    }
}
