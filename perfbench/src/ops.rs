//! Seeded request pools in the shape of the paper's Sec. 6.1 templates.
//!
//! A pool is a fixed list of distinct operations (one statement, or a
//! 16-statement dashboard batch); a run draws its stream from the pool.
//! Everything here derives from the workload seed, and the servers only
//! ever see the generated statements.

use entropydb_bench::common::flights_pairs;
use entropydb_core::prelude::{parse_request, QueryRequest};
use entropydb_data::flights::FlightsDataset;
use entropydb_data::workload::Workload;
use entropydb_data::zipf::ZipfSampler;
use entropydb_storage::{AttrId, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Statements per dashboard batch.
pub const BATCH: usize = 16;

/// What an operation asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `COUNT WHERE a = x AND b = y` on a heavy, light or nonexistent item.
    Point,
    /// `COUNT WHERE d BETWEEN lo AND hi [AND a = x]`.
    Range,
    /// `COUNT` over the whole relation.
    CountAll,
    /// `COUNT WHERE d BETWEEN lo AND hi GROUP BY a`.
    GroupBy,
    /// `TOP 5 a WHERE d BETWEEN lo AND hi`.
    TopK,
    /// Sixteen point and range counts sent as one batch.
    Batch,
}

impl Kind {
    /// Whether latencies of this kind are `count_*` (else `multi_*`).
    pub fn is_count(self) -> bool {
        matches!(self, Kind::Point | Kind::Range | Kind::CountAll)
    }

    /// Statements per operation of this kind.
    pub fn statements(self) -> usize {
        if self == Kind::Batch {
            BATCH
        } else {
            1
        }
    }
}

/// One operation of a pool.
#[derive(Debug, Clone)]
pub struct Op {
    /// The operation's kind.
    pub kind: Kind,
    /// The statement text (one, or [`BATCH`] for a batch).
    pub statements: Vec<String>,
    /// The statements parsed against the served schema.
    pub requests: Vec<QueryRequest>,
}

/// Distinct statements of each kind in a pool: the paper's queries per
/// template (Sec. 6.2: 100 heavy, 100 light and 200 nonexistent items).
pub const PER_KIND: usize = 400;

/// One line naming a workload's kinds, for the report.
pub fn describe(kinds: &[Kind]) -> String {
    let names: Vec<String> = kinds.iter().map(|k| format!("{k:?}")).collect();
    format!("{} (equal shares)", names.join(", "))
}

/// The text of `code` for `attr`: the bucket midpoint of a binned
/// attribute, the dense code itself for a categorical one.
fn value_text(schema: &Schema, attr: AttrId, code: u32) -> String {
    let attribute = schema.attr(attr).expect("attribute of the schema");
    match attribute.binner() {
        Some(binner) => format!("{}", binner.midpoint(code)),
        None => code.to_string(),
    }
}

fn name(schema: &Schema, attr: AttrId) -> &str {
    schema.attr(attr).expect("attribute of the schema").name()
}

/// Generates the statements of one pool.
struct Generator<'a> {
    d: &'a FlightsDataset,
    rng: StdRng,
    /// `(attrs, values)` of every heavy, light and null item of the four
    /// templates.
    items: Vec<(Vec<AttrId>, Vec<u32>)>,
}

impl<'a> Generator<'a> {
    fn new(d: &'a FlightsDataset, seed: u64) -> Self {
        let mut items = Vec::new();
        for (i, (x, y)) in flights_pairs(d).into_iter().enumerate() {
            let w = Workload::generate(&d.table, &[x, y], 100, 100, 200, seed ^ i as u64)
                .expect("template workload");
            let attrs = w.attrs.clone();
            let values = w
                .heavy
                .iter()
                .chain(&w.light)
                .map(|(v, _)| v.clone())
                .chain(w.nulls.iter().cloned());
            items.extend(values.map(|v| (attrs.clone(), v)));
        }
        Generator {
            d,
            rng: StdRng::seed_from_u64(seed),
            items,
        }
    }

    fn clause_eq(&self, attr: AttrId, code: u32) -> String {
        let schema = self.d.table.schema();
        format!(
            "{} = {}",
            name(schema, attr),
            value_text(schema, attr, code)
        )
    }

    /// A random `BETWEEN` clause on `distance` or `fl_time`.
    fn clause_range(&mut self) -> String {
        let schema = self.d.table.schema();
        let attr = if self.rng.gen_bool(0.5) {
            self.d.distance
        } else {
            self.d.fl_time
        };
        let size = schema.domain_size(attr).expect("domain") as u32;
        let lo = self.rng.gen_range(0..size - 1);
        let hi = self.rng.gen_range(lo + 1..size);
        format!(
            "{} BETWEEN {} AND {}",
            name(schema, attr),
            value_text(schema, attr, lo),
            value_text(schema, attr, hi)
        )
    }

    fn location(&mut self) -> (AttrId, u32) {
        let attr = if self.rng.gen_bool(0.5) {
            self.d.origin
        } else {
            self.d.dest
        };
        let size = self.d.table.schema().domain_size(attr).expect("domain") as u32;
        (attr, self.rng.gen_range(0..size))
    }

    fn point(&mut self) -> String {
        let (attrs, values) = self.items[self.rng.gen_range(0..self.items.len())].clone();
        let clauses: Vec<String> = attrs
            .iter()
            .zip(&values)
            .map(|(&a, &v)| self.clause_eq(a, v))
            .collect();
        format!("COUNT WHERE {}", clauses.join(" AND "))
    }

    fn range(&mut self) -> String {
        let range = self.clause_range();
        if self.rng.gen_bool(0.5) {
            let (attr, code) = self.location();
            format!("COUNT WHERE {range} AND {}", self.clause_eq(attr, code))
        } else {
            format!("COUNT WHERE {range}")
        }
    }

    fn statements(&mut self, kind: Kind) -> Vec<String> {
        match kind {
            Kind::Point => vec![self.point()],
            Kind::Range => vec![self.range()],
            Kind::CountAll => vec!["COUNT".to_string()],
            Kind::GroupBy => {
                let range = self.clause_range();
                let (attr, _) = self.location();
                let schema = self.d.table.schema();
                vec![format!(
                    "COUNT WHERE {range} GROUP BY {}",
                    name(schema, attr)
                )]
            }
            Kind::TopK => {
                let range = self.clause_range();
                let (attr, _) = self.location();
                let schema = self.d.table.schema();
                vec![format!("TOP 5 {} WHERE {range}", name(schema, attr))]
            }
            Kind::Batch => (0..BATCH)
                .map(|i| {
                    if i % 2 == 0 {
                        self.point()
                    } else {
                        self.range()
                    }
                })
                .collect(),
        }
    }
}

/// A pool of [`PER_KIND`] distinct statements of each of `kinds`, as
/// operations of [`Kind::statements`] each (`CountAll` has a single form,
/// so it appears once).
pub fn pool(d: &FlightsDataset, kinds: &[Kind], seed: u64) -> Vec<Op> {
    let mut gen = Generator::new(d, seed);
    let schema = d.table.schema();
    let mut ops = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &kind in kinds {
        let want = if kind == Kind::CountAll {
            1
        } else {
            PER_KIND / kind.statements()
        };
        let mut made = 0;
        let mut tries = 0;
        while made < want && tries < want * 20 {
            tries += 1;
            let statements = gen.statements(kind);
            if !seen.insert(statements.clone()) {
                continue;
            }
            let requests = statements
                .iter()
                .map(|s| parse_request(s, schema).expect("generated statement parses"))
                .collect();
            ops.push(Op {
                kind,
                statements,
                requests,
            });
            made += 1;
        }
    }
    ops
}

/// How a run draws operations from its pool. Every kind is drawn equally
/// often; the draw picks an operation within the kind.
pub enum Draw {
    /// Uniform within a kind.
    Uniform,
    /// Zipf-skewed, exponent `s`, over a seeded ranking of each kind's
    /// operations.
    Zipf(f64),
}

/// An endless seeded stream of pool indices.
pub struct Stream {
    rng: StdRng,
    /// Per kind: its pool indices (in popularity order under Zipf), and the
    /// Zipf sampler over them.
    by_kind: Vec<(Vec<usize>, Option<ZipfSampler>)>,
}

impl Stream {
    /// A stream over `ops` drawn per `draw`, each of `kinds` equally often.
    pub fn new(ops: &[Op], kinds: &[Kind], draw: &Draw, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut by_kind = Vec::new();
        for &kind in kinds {
            let mut idx: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].kind == kind).collect();
            if idx.is_empty() {
                continue;
            }
            let zipf = match draw {
                Draw::Uniform => None,
                Draw::Zipf(s) => {
                    for i in (1..idx.len()).rev() {
                        idx.swap(i, rng.gen_range(0..=i));
                    }
                    Some(ZipfSampler::new(idx.len(), *s))
                }
            };
            by_kind.push((idx, zipf));
        }
        Stream { rng, by_kind }
    }

    /// The next pool index.
    pub fn next_index(&mut self) -> usize {
        let (idx, zipf) = &self.by_kind[self.rng.gen_range(0..self.by_kind.len())];
        match zipf {
            Some(z) => idx[z.sample(&mut self.rng)],
            None => idx[self.rng.gen_range(0..idx.len())],
        }
    }
}
