//! `serve_lookup`: the read side of epoch serving. Two reader threads answer
//! a fixed mix of point lookups, aggregates and scans against one
//! published epoch of the provenance materialization.

use crate::stats::Hist;
use crate::{best_of_slices, metric, registry, secs, Phase, PhaseCtx, PhaseReport};
use kgm_common::{Result, Value};
use kgm_finance::control::control_vadalog_prov;
use kgm_runtime::Rng;
use kgm_vadalog::{EpochPin, ServingLayer};
use std::time::Instant;

/// Reader threads.
pub const READERS: usize = 2;
/// Queries in the generated list; readers cycle through it.
const LIST: usize = 1 << 16;
/// Readers re-pin the current epoch every this many queries.
const REPIN: usize = 256;
/// Queries answered single-threaded before timing, to warm the plan cache.
const WARMUP: usize = 4096;
/// No generated shareholding weighs this much, so these lookups miss.
const MISS_WEIGHT: &str = "9.9";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Point,
    Aggregate,
    Scan,
}

#[derive(Debug, Clone, Copy)]
enum Expect {
    Rows(usize),
    Value(f64),
}

struct Query {
    text: String,
    kind: Kind,
    expect: Expect,
}

fn literal(v: &Value) -> String {
    match v {
        Value::Oid(o) => format!("#{}", o.payload()),
        Value::Float(f) if format!("{f}").contains('.') => format!("{f}"),
        Value::Float(f) => format!("{f}.0"),
        other => other.to_string(),
    }
}

/// The query list: per 256 queries one `rel` scan, 16 aggregates and the
/// rest point lookups on `own`, keys drawn Zipf-skewed over all rows and
/// every fourth lookup a guaranteed miss. Expected answers come from the
/// engine's fact store, not from the epoch being judged.
fn queries(db: &kgm_vadalog::FactDb, rng: &mut Rng) -> Vec<Query> {
    let own: Vec<Vec<Value>> = db.facts_iter("own").collect();
    let weights: Vec<f64> = own.iter().filter_map(|r| r[2].as_f64()).collect();
    let count = |p: &str| db.facts_iter(p).count();
    let aggregates = [
        ("count own".to_string(), count("own") as f64),
        ("count controls".to_string(), count("controls") as f64),
        ("count company".to_string(), count("company") as f64),
        ("sum own 2".to_string(), weights.iter().sum()),
        (
            "min own 2".to_string(),
            weights.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        (
            "max own 2".to_string(),
            weights.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ),
    ];
    // Zipf(1) over a seeded permutation of the rows.
    let mut order: Vec<usize> = (0..own.len()).collect();
    rng.shuffle(&mut order);
    let mut cdf = Vec::with_capacity(own.len());
    let mut acc = 0.0;
    for k in 0..own.len() {
        acc += 1.0 / (k + 1) as f64;
        cdf.push(acc);
    }
    let mut points = 0usize;
    (0..LIST)
        .map(|slot| {
            let s = slot % 256;
            if s == 0 {
                return Query {
                    text: "rel own".to_string(),
                    kind: Kind::Scan,
                    expect: Expect::Rows(own.len()),
                };
            }
            if s % 16 == 8 {
                let (text, v) = &aggregates[(slot / 16) % aggregates.len()];
                return Query {
                    text: text.clone(),
                    kind: Kind::Aggregate,
                    expect: Expect::Value(*v),
                };
            }
            let u = rng.gen_f64() * acc;
            let rank = cdf.partition_point(|&c| c < u).min(own.len() - 1);
            let row = &own[order[rank]];
            points += 1;
            let miss = points.is_multiple_of(4);
            let w = if miss {
                MISS_WEIGHT.to_string()
            } else {
                literal(&row[2])
            };
            Query {
                text: format!("point own({}, {}, {w})", literal(&row[0]), literal(&row[1])),
                kind: Kind::Point,
                expect: Expect::Rows(usize::from(!miss)),
            }
        })
        .collect()
}

/// Is `q`'s answer on `pin` the expected one?
fn answer_ok(pin: &EpochPin, q: &Query) -> bool {
    let Ok(resp) = pin.query(&q.text) else {
        return false;
    };
    match q.expect {
        Expect::Rows(n) => resp.rows.len() == n,
        Expect::Value(v) => {
            resp.rows.len() == 1
                && resp.rows[0].len() == 1
                && resp.rows[0][0]
                    .as_f64()
                    .is_some_and(|x| (x - v).abs() <= 1e-9 * v.abs().max(1.0))
        }
    }
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    // Fields after the command name start at field 3; utime and stime are
    // fields 14 and 15, in clock ticks of 1/100 s.
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// One reader's measurements.
#[derive(Default)]
struct Reader {
    all: Hist,
    point: Hist,
    aggregate: Hist,
    scan: Hist,
    pin: Hist,
    queries: usize,
    failed: u64,
}

impl Reader {
    fn merge(&mut self, o: &Reader) {
        self.all.merge(&o.all);
        self.point.merge(&o.point);
        self.aggregate.merge(&o.aggregate);
        self.scan.merge(&o.scan);
        self.pin.merge(&o.pin);
        self.queries += o.queries;
        self.failed += o.failed;
    }
}

/// Answer queries from `list`, starting at `offset`, re-pinning every
/// [`REPIN`] queries, until `seconds` have passed.
fn read(layer: &ServingLayer, list: &[Query], offset: usize, seconds: f64) -> Reader {
    let mut r = Reader::default();
    let start = Instant::now();
    let mut pin = layer.pin();
    loop {
        if r.queries % REPIN == 0 {
            if r.queries > 0 && secs(start) >= seconds {
                return r;
            }
            let t = Instant::now();
            pin = layer.pin();
            r.pin.record(t.elapsed().as_nanos() as u64);
        }
        let q = &list[(offset + r.queries) % list.len()];
        let t = Instant::now();
        let ok = answer_ok(&pin, q);
        let ns = t.elapsed().as_nanos() as u64;
        r.all.record(ns);
        match q.kind {
            Kind::Point => r.point.record(ns),
            Kind::Aggregate => r.aggregate.record(ns),
            Kind::Scan => r.scan.record(ns),
        }
        r.failed += u64::from(!ok);
        r.queries += 1;
    }
}

pub struct ServeLookup {
    nodes: usize,
    layer: ServingLayer,
    list: Vec<Query>,
    facts: usize,
    generate_s: f64,
    /// Where each reader continues in the list.
    offsets: [usize; READERS],
    total: Reader,
    /// Per slice: the end-to-end values of its queries.
    slices: Vec<[f64; 3]>,
    wall: f64,
    cpu: f64,
    hits: u64,
    misses: u64,
    rep: PhaseReport,
}

impl ServeLookup {
    pub fn setup(ctx: &PhaseCtx) -> Result<ServeLookup> {
        let t = Instant::now();
        let g = registry(ctx.nodes, ctx.seed)?;
        let generate_s = secs(t);
        let (_, db, stats) = control_vadalog_prov(&g, crate::materialize::ENGINE_THREADS)?;
        let layer = ServingLayer::new();
        layer.publish(&db, stats.termination);
        let list = queries(&db, &mut Rng::seed_from_u64(ctx.seed ^ 0x0010_0c0b));
        let mut rep = PhaseReport::default();
        let pin = layer.pin();
        for q in &list[..WARMUP] {
            rep.check(answer_ok(&pin, q));
        }
        let offsets = std::array::from_fn(|t| WARMUP + t * list.len() / READERS);
        Ok(ServeLookup {
            nodes: ctx.nodes,
            facts: pin.fact_count(),
            layer,
            list,
            generate_s,
            offsets,
            total: Reader::default(),
            slices: Vec::new(),
            wall: 0.0,
            cpu: 0.0,
            hits: 0,
            misses: 0,
            rep,
        })
    }
}

impl Phase for ServeLookup {
    fn slice(&mut self, seconds: f64) -> Result<()> {
        let (hits, misses) = self.layer.pin().plan_cache_stats();
        let cpu = cpu_seconds();
        let start = Instant::now();
        let (layer, list, offsets) = (&self.layer, &self.list, self.offsets);
        let readers: Vec<Reader> = std::thread::scope(|s| {
            let handles: Vec<_> = offsets
                .iter()
                .map(|&o| s.spawn(move || read(layer, list, o, seconds)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect()
        });
        let wall = secs(start);
        self.wall += wall;
        self.cpu += cpu_seconds() - cpu;
        let (h, m) = self.layer.pin().plan_cache_stats();
        self.hits += h - hits;
        self.misses += m - misses;
        let mut slice = Reader::default();
        for (o, r) in self.offsets.iter_mut().zip(&readers) {
            *o += r.queries;
            slice.merge(r);
        }
        self.slices.push([
            slice.all.quantile(0.5) / 1e6,
            slice.all.quantile(0.9) / 1e6,
            slice.queries as f64 / wall,
        ]);
        self.total.merge(&slice);
        Ok(())
    }

    fn ops(&self) -> usize {
        self.total.queries
    }

    fn finish(self: Box<Self>) -> Result<PhaseReport> {
        let ServeLookup {
            nodes,
            facts,
            generate_s,
            total,
            slices,
            wall,
            cpu,
            hits,
            misses,
            mut rep,
            ..
        } = *self;
        let n = total.all.count();
        rep.attempted += n;
        rep.failed += total.failed;
        let us = |h: &Hist, q: f64| h.quantile(q) / 1e3;
        rep.headline = us(&total.all, 0.5);
        rep.e2e = best_of_slices(&slices);
        rep.notes.push(format!(
            "serve_lookup: {nodes} nodes, {facts} facts in the epoch, {n} queries by \
             {READERS} readers in {wall:.3} s and {} slices ({} point, {} aggregate, {} scan)",
            slices.len(),
            total.point.count(),
            total.aggregate.count(),
            total.scan.count(),
        ));
        rep.layer.extend([
            metric("finance.generate_s", generate_s, "s"),
            metric("serving.pin_p50_us", us(&total.pin, 0.5), "us"),
            metric("lookup.point_p50_us", us(&total.point, 0.5), "us"),
            metric("lookup.point_p99_us", us(&total.point, 0.99), "us"),
            metric("lookup.aggregate_p50_us", us(&total.aggregate, 0.5), "us"),
            metric("lookup.aggregate_p99_us", us(&total.aggregate, 0.99), "us"),
            metric("lookup.scan_p50_ms", total.scan.quantile(0.5) / 1e6, "ms"),
            metric(
                "serving.plan_cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            ),
            metric("serving.reader_cpu_per_wall", cpu / wall, "ratio"),
        ]);
        Ok(rep)
    }
}
