//! `serve_graph`: regular-path and Cypher queries through
//! `EpochPin::query`, over the epoch's property-graph projection.

use crate::stats::median;
use crate::{
    best_of_slices, metric, registry, secs, slice_values, Perturb, Phase, PhaseCtx, PhaseReport,
};
use kgm_common::{FxHashMap, FxHashSet, Result, Value};
use kgm_finance::control::control_vadalog_prov;
use kgm_runtime::Rng;
use kgm_vadalog::{EpochPin, ServingLayer};
use std::time::Instant;

/// Query kinds, each with its own latency row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Edge,
    Seq,
    Alt,
    Star,
    Cypher,
}

const KINDS: [(Kind, &str); 5] = [
    (Kind::Edge, "edge"),
    (Kind::Seq, "seq"),
    (Kind::Alt, "alt"),
    (Kind::Star, "star"),
    (Kind::Cypher, "cypher"),
];

/// The reference semantics of a query, evaluated by the benchmark itself
/// from the epoch's rows.
#[derive(Debug, Clone, Copy)]
enum Ref {
    /// Path over relations: a sequence of (alternatives of) steps, each
    /// step a relation or its inverse (`~`).
    Path(&'static [&'static [(&'static str, bool)]]),
    /// Reflexive-transitive closure of one relation.
    Star(&'static str),
    /// Cypher node pattern `(c:pred)`: one row per unary fact.
    Nodes(&'static str),
    /// Cypher edge pattern: one row per fact, swapped when inverted.
    Edges(&'static str, bool),
}

/// One cycle of sixteen queries, Kleene star once. Each cycle runs in a
/// seeded order.
const CYCLE: [(&str, Kind, Ref); 16] = [
    ("path own*", Kind::Star, Ref::Star("own")),
    ("path own", Kind::Edge, Ref::Path(&[&[("own", false)]])),
    ("path ~own", Kind::Edge, Ref::Path(&[&[("own", true)]])),
    (
        "path controls",
        Kind::Edge,
        Ref::Path(&[&[("controls", false)]]),
    ),
    (
        "path ~controls",
        Kind::Edge,
        Ref::Path(&[&[("controls", true)]]),
    ),
    (
        "path own/own",
        Kind::Seq,
        Ref::Path(&[&[("own", false)], &[("own", false)]]),
    ),
    (
        "path controls/own",
        Kind::Seq,
        Ref::Path(&[&[("controls", false)], &[("own", false)]]),
    ),
    (
        "path ~own/own",
        Kind::Seq,
        Ref::Path(&[&[("own", true)], &[("own", false)]]),
    ),
    (
        "path controls/controls",
        Kind::Seq,
        Ref::Path(&[&[("controls", false)], &[("controls", false)]]),
    ),
    (
        "path own|controls",
        Kind::Alt,
        Ref::Path(&[&[("own", false), ("controls", false)]]),
    ),
    (
        "path ~own|controls",
        Kind::Alt,
        Ref::Path(&[&[("own", true), ("controls", false)]]),
    ),
    (
        "path (own|controls)/own",
        Kind::Alt,
        Ref::Path(&[&[("own", false), ("controls", false)], &[("own", false)]]),
    ),
    (
        "cypher (c:company) return c",
        Kind::Cypher,
        Ref::Nodes("company"),
    ),
    (
        "cypher (a:v)-[e:own]->(b:v) return (a,b)",
        Kind::Cypher,
        Ref::Edges("own", false),
    ),
    (
        "cypher (a:v)-[e:controls]->(b:v) return (a,b)",
        Kind::Cypher,
        Ref::Edges("controls", false),
    ),
    (
        "cypher (a:v)<-[e:own]-(b:v) return (a,b)",
        Kind::Cypher,
        Ref::Edges("own", true),
    ),
];

type Pair = (u64, u64);

fn key(v: &Value) -> u64 {
    v.as_oid().map_or(u64::MAX, |o| o.raw())
}

/// An answer as sorted pairs; a one-column row pairs with 0.
fn pairs(rows: &[Vec<Value>]) -> Vec<Pair> {
    let mut out: Vec<Pair> = rows
        .iter()
        .map(|r| (r.first().map_or(u64::MAX, key), r.get(1).map_or(0, key)))
        .collect();
    out.sort_unstable();
    out
}

fn relation(pin: &EpochPin, pred: &str, inverse: bool) -> Vec<Pair> {
    pin.rows(pred)
        .iter()
        .map(|r| {
            let (a, b) = (key(&r[0]), key(&r[1]));
            if inverse {
                (b, a)
            } else {
                (a, b)
            }
        })
        .collect()
}

/// Hash join `acc ⋈ step` on `acc.1 == step.0`.
fn join(acc: &FxHashSet<Pair>, step: &FxHashSet<Pair>) -> FxHashSet<Pair> {
    let mut by_src: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
    for &(c, d) in step {
        by_src.entry(c).or_default().push(d);
    }
    acc.iter()
        .flat_map(|&(a, b)| by_src.get(&b).into_iter().flatten().map(move |&d| (a, d)))
        .collect()
}

/// Every node of the projection: the first two columns of each relation of
/// arity two or more, and every unary fact.
fn projection_nodes(pin: &EpochPin) -> FxHashSet<u64> {
    let mut nodes = FxHashSet::default();
    for p in pin.predicates() {
        for r in pin.rows(p) {
            nodes.extend(r.iter().take(2).map(key));
        }
    }
    nodes
}

fn reference(pin: &EpochPin, r: Ref) -> Vec<Pair> {
    let set: FxHashSet<Pair> = match r {
        Ref::Nodes(p) => return pairs(pin.rows(p)),
        Ref::Edges(p, inverse) => {
            let mut v = relation(pin, p, inverse);
            v.sort_unstable();
            return v;
        }
        Ref::Path(steps) => {
            let step = |alts: &[(&str, bool)]| -> FxHashSet<Pair> {
                alts.iter()
                    .flat_map(|&(p, inv)| relation(pin, p, inv))
                    .collect()
            };
            let mut acc = step(steps[0]);
            for s in &steps[1..] {
                acc = join(&acc, &step(s));
            }
            acc
        }
        Ref::Star(p) => {
            // BFS from every projection node over `p`.
            let mut succ: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
            for (a, b) in relation(pin, p, false) {
                succ.entry(a).or_default().push(b);
            }
            let mut out = FxHashSet::default();
            for n in projection_nodes(pin) {
                let mut seen: FxHashSet<u64> = FxHashSet::default();
                seen.insert(n);
                let mut frontier = vec![n];
                while let Some(x) = frontier.pop() {
                    for &y in succ.get(&x).into_iter().flatten() {
                        if seen.insert(y) {
                            frontier.push(y);
                        }
                    }
                }
                out.extend(seen.into_iter().map(|y| (n, y)));
            }
            out
        }
    };
    let mut v: Vec<Pair> = set.into_iter().collect();
    v.sort_unstable();
    v
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The registry every run serves. Its seed is fixed: the cost of `own*`
/// over a 2k-node registry varies several-fold from one generated
/// registry to the next, which would swamp any bound on `graph_qps`; the
/// run's seed orders the queries instead.
const REGISTRY_SEED: u64 = 1;

pub struct ServeGraph {
    nodes: usize,
    pin: EpochPin,
    refs: Vec<Vec<Pair>>,
    generate_s: f64,
    projection_ms: f64,
    rng: Rng,
    order: Vec<usize>,
    lat: Vec<Vec<f64>>,
    result_pairs: Vec<usize>,
    all: Vec<f64>,
    /// Per slice: the end-to-end values of its queries.
    slices: Vec<[f64; 3]>,
    rep: PhaseReport,
}

impl ServeGraph {
    pub fn setup(ctx: &PhaseCtx) -> Result<ServeGraph> {
        let t = Instant::now();
        let g = registry(ctx.nodes, REGISTRY_SEED)?;
        let generate_s = secs(t);
        let (_, db, stats) = control_vadalog_prov(&g, crate::materialize::ENGINE_THREADS)?;
        let layer = ServingLayer::new();
        layer.publish(&db, stats.termination);
        let pin = layer.pin();
        // The first graph query on a fresh epoch builds its projection.
        let cold = Instant::now();
        pin.query("path own")?;
        let cold_ms = ms(cold);
        let warm = Instant::now();
        pin.query("path own")?;
        let projection_ms = cold_ms - ms(warm);
        let mut refs: Vec<Vec<Pair>> = CYCLE.iter().map(|&(_, _, r)| reference(&pin, r)).collect();
        if ctx.perturb == Some(Perturb::DropPathPair) {
            for (r, (text, _, _)) in refs.iter_mut().zip(CYCLE) {
                if text.starts_with("path") {
                    r.pop();
                }
            }
        }
        Ok(ServeGraph {
            nodes: ctx.nodes,
            pin,
            refs,
            generate_s,
            projection_ms,
            rng: Rng::seed_from_u64(ctx.seed ^ 0x6a4f),
            order: (0..CYCLE.len()).collect(),
            lat: vec![Vec::new(); KINDS.len()],
            result_pairs: vec![0; KINDS.len()],
            all: Vec::new(),
            slices: Vec::new(),
            rep: PhaseReport::default(),
        })
    }
}

impl Phase for ServeGraph {
    /// Whole cycles of the sixteen queries, each in a seeded order.
    fn slice(&mut self, seconds: f64) -> Result<()> {
        let start = Instant::now();
        let from = self.all.len();
        loop {
            self.rng.shuffle(&mut self.order);
            for &i in &self.order {
                let (text, kind, _) = CYCLE[i];
                let t = Instant::now();
                let result = self.pin.query(text);
                let dt = ms(t);
                let k = KINDS
                    .iter()
                    .position(|&(x, _)| x == kind)
                    .expect("listed kind");
                self.lat[k].push(dt);
                self.all.push(dt);
                let ok = match result {
                    Ok(resp) => {
                        self.result_pairs[k] += resp.rows.len();
                        pairs(&resp.rows) == self.refs[i]
                    }
                    Err(e) => {
                        eprintln!("serve_graph: {text}: {e}");
                        false
                    }
                };
                self.rep.check(ok);
            }
            if secs(start) >= seconds {
                self.slices.push(slice_values(&self.all[from..]));
                return Ok(());
            }
        }
    }

    fn ops(&self) -> usize {
        self.all.len()
    }

    fn finish(self: Box<Self>) -> Result<PhaseReport> {
        let ServeGraph {
            nodes,
            pin,
            generate_s,
            projection_ms,
            lat,
            result_pairs,
            all,
            slices,
            mut rep,
            ..
        } = *self;
        let n = all.len();
        rep.headline = median(&all);
        rep.e2e = best_of_slices(&slices);
        rep.notes.push(format!(
            "serve_graph: {nodes} nodes, {} facts in the epoch, {n} queries in {} cycles \
             and {} slices",
            pin.fact_count(),
            n / CYCLE.len(),
            slices.len(),
        ));
        rep.layer
            .push(metric("finance.generate_s", generate_s, "s"));
        rep.layer
            .push(metric("serving.projection_build_ms", projection_ms, "ms"));
        for (k, (_, name)) in KINDS.iter().enumerate() {
            rep.layer.push(metric(
                format!("graph.{name}_p50_ms"),
                median(&lat[k]),
                "ms",
            ));
        }
        for (k, (_, name)) in KINDS.iter().enumerate() {
            let per_query = result_pairs[k] as f64 / lat[k].len().max(1) as f64;
            rep.layer
                .push(metric(format!("graph.pairs.{name}"), per_query, "count"));
        }
        Ok(rep)
    }
}
