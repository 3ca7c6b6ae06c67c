//! A backend the benchmark serves *and* keeps a handle on.
//!
//! [`serve`](entropydb_server::serve) takes its engine by value, so the
//! benchmark could otherwise neither re-execute a request on the very
//! backend a server answers from, nor drain a served live summary. The
//! wrapper holds the backend behind an `Arc` and forwards every
//! [`SummaryBackend`] call unchanged; the only thing it adds is timing of
//! the calls the server makes into the backend ([`CallLog`]).

use entropydb_core::engine::{AppendOutcome, SummaryBackend};
use entropydb_core::metrics::{CacheStatsSnapshot, IngestStatsSnapshot};
use entropydb_core::prelude::{Estimate, Mask, Result};
use entropydb_storage::{AttrId, Schema};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Timings of the calls a served backend received: every `append_rows`
/// duration, and (when `queries` is set) the start and end of every query
/// primitive.
#[derive(Debug, Default)]
pub struct CallLog {
    queries: bool,
    query_calls: Mutex<Vec<(Instant, Instant)>>,
    appends: Mutex<Vec<Duration>>,
}

impl CallLog {
    /// A log that also records query primitives.
    pub fn with_queries() -> Self {
        CallLog {
            queries: true,
            ..CallLog::default()
        }
    }

    /// Takes every recorded append duration.
    pub fn take_appends(&self) -> Vec<Duration> {
        std::mem::take(&mut *self.appends.lock().expect("call log poisoned"))
    }

    /// Takes every recorded query-primitive interval.
    pub fn take_queries(&self) -> Vec<(Instant, Instant)> {
        std::mem::take(&mut *self.query_calls.lock().expect("call log poisoned"))
    }
}

/// Forwards to a shared backend.
pub struct Shared<B> {
    inner: Arc<B>,
    log: Arc<CallLog>,
}

impl<B> Shared<B> {
    /// Wraps `inner`, timing calls into `log`.
    pub fn new(inner: Arc<B>, log: Arc<CallLog>) -> Self {
        Shared { inner, log }
    }

    fn query<R>(&self, call: impl FnOnce() -> R) -> R {
        if !self.log.queries {
            return call();
        }
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.log
            .query_calls
            .lock()
            .expect("call log poisoned")
            .push((start, end));
        out
    }
}

impl<B: SummaryBackend> SummaryBackend for Shared<B> {
    type Scratch = B::Scratch;
    type SamplePlan = B::SamplePlan;

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn n(&self) -> u64 {
        self.inner.n()
    }

    fn domain_sizes(&self) -> &[usize] {
        self.inner.domain_sizes()
    }

    fn make_scratch(&self) -> Self::Scratch {
        self.inner.make_scratch()
    }

    fn probability_under_mask(&self, mask: &Mask, scratch: &mut Self::Scratch) -> Result<f64> {
        self.query(|| self.inner.probability_under_mask(mask, scratch))
    }

    fn count_under_mask(&self, mask: &Mask, scratch: &mut Self::Scratch) -> Result<Estimate> {
        self.query(|| self.inner.count_under_mask(mask, scratch))
    }

    fn probabilities_under_masks(
        &self,
        masks: &[Mask],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<f64>> {
        self.query(|| self.inner.probabilities_under_masks(masks, scratch))
    }

    fn counts_under_masks(
        &self,
        masks: &[Mask],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>> {
        self.query(|| self.inner.counts_under_masks(masks, scratch))
    }

    fn sum_under_mask(
        &self,
        base: &Mask,
        attr: AttrId,
        values: &[f64],
        scratch: &mut Self::Scratch,
    ) -> Result<Estimate> {
        self.query(|| self.inner.sum_under_mask(base, attr, values, scratch))
    }

    fn group_by_under_mask(
        &self,
        mask: &Mask,
        attr: AttrId,
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>> {
        self.query(|| self.inner.group_by_under_mask(mask, attr, scratch))
    }

    fn top_k_under_mask(
        &self,
        mask: &Mask,
        attr: AttrId,
        k: usize,
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<(u32, Estimate)>> {
        self.query(|| self.inner.top_k_under_mask(mask, attr, k, scratch))
    }

    fn plan_samples(&self, k: usize, seed: u64) -> Result<Self::SamplePlan> {
        self.inner.plan_samples(k, seed)
    }

    fn sample_tuple(
        &self,
        plan: &Self::SamplePlan,
        index: usize,
        seed: u64,
        row: &mut [u32],
        scratch: &mut Self::Scratch,
    ) -> Result<()> {
        self.query(|| self.inner.sample_tuple(plan, index, seed, row, scratch))
    }

    fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        self.inner.cache_stats()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn append_rows(&self, rows: &[Vec<u32>], token: Option<&str>) -> Result<AppendOutcome> {
        let start = Instant::now();
        let outcome = self.inner.append_rows(rows, token);
        let took = start.elapsed();
        self.log
            .appends
            .lock()
            .expect("call log poisoned")
            .push(took);
        outcome
    }

    fn ingest_stats(&self) -> Option<IngestStatsSnapshot> {
        self.inner.ingest_stats()
    }
}
