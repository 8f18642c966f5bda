//! `update_publish`: the engine used incrementally. Example 4.2 is
//! materialized with provenance; then a seeded stream of corporate events
//! is applied batch by batch with `Engine::apply_update`, and each result
//! is published as a serving epoch. The stream is replayed: every replay
//! starts from a fresh materialization and applies the same events, so
//! each batch is timed once per replay.

use crate::stats::{median, quantile};
use crate::{best_of_slices, metric, registry, secs, slice_values, Phase, PhaseCtx, PhaseReport};
use kgm_common::{FxHashSet, Oid, OidSpace, Result, Value};
use kgm_finance::control::{control_vadalog_prov, CONTROL_VADALOG};
use kgm_pgstore::PropertyGraph;
use kgm_runtime::Rng;
use kgm_vadalog::{parse_program, Engine, EngineConfig, FactDb, ServingLayer, Termination, Update};
use std::time::Instant;

/// Chase worker threads of the maintained engine.
pub const ENGINE_THREADS: usize = 1;

/// Cycles of [`CYCLE`] in one replay of the stream (64 batches, under a
/// second at the benchmark's size).
///
/// Every replay applies the same batches to the same state, so each batch
/// is timed dozens of times over a run; its best time estimates the
/// program's own cost of that batch, and the end-to-end metrics are taken
/// over those per-batch bests. On a shared host the same code runs up to
/// half again as slow for seconds at a time, and one long stream, or the
/// best of its slices, follows that interference or the luckiest draw of
/// victims instead.
const REPLAY_CYCLES: usize = 16;

/// The registry every run maintains. Its seed is fixed: control chains,
/// and with them the cost of DRed, differ widely between generated
/// registries of this size; the run's seed draws the event stream.
const REGISTRY_SEED: u64 = 1;

/// One corporate event; the stream holds them in proportion 2:1:1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A new company, 60% owned by an existing one.
    Incorporation,
    /// `own(a, b, w)` replaced by `own(a, b, w')` on the other side of 50%.
    Transfer,
    /// A majority stake `own(a, b, w > 0.5)` withdrawn.
    Retraction,
}

const CYCLE: [Event; 4] = [
    Event::Incorporation,
    Event::Incorporation,
    Event::Transfer,
    Event::Retraction,
];

fn own(a: &Value, b: &Value, w: f64) -> Vec<Value> {
    vec![a.clone(), b.clone(), Value::Float(w)]
}

fn weight(row: &[Value]) -> f64 {
    row[2].as_f64().unwrap_or(0.0)
}

/// `(controller, controlled)` payload pairs of a chased database.
fn control_set(db: &FactDb) -> FxHashSet<(u64, u64)> {
    db.facts_iter("controls")
        .filter_map(|t| Some((t[0].as_oid()?.payload(), t[1].as_oid()?.payload())))
        .collect()
}

/// The benchmark's own copy of the EDB, updated alongside the engine's. It
/// keeps the engine's fact order (deletions in place, insertions at the
/// end): `msum(W, <Z>)` counts one share per contributor, the first in
/// order, so where two `own` facts link the same pair a chase over a
/// reordered input may legitimately derive a different control relation.
struct Edb {
    companies: Vec<Value>,
    own: Vec<Vec<Value>>,
    next_company: u64,
}

impl Edb {
    /// The next event of kind `kind`, as an update plus the facts the
    /// published epoch must and must not contain afterwards.
    #[allow(clippy::type_complexity)]
    fn next(
        &mut self,
        kind: Event,
        rng: &mut Rng,
    ) -> (
        Update,
        Vec<(&'static str, Vec<Value>)>,
        Vec<(&'static str, Vec<Value>)>,
    ) {
        let pick = |rng: &mut Rng, own: &[Vec<Value>], majority: bool| -> Option<usize> {
            let start = rng.gen_range(0..own.len());
            (0..own.len())
                .map(|i| (start + i) % own.len())
                .find(|&i| !majority || weight(&own[i]) > 0.5)
        };
        let victim = match kind {
            Event::Incorporation => None,
            Event::Transfer => pick(rng, &self.own, false),
            Event::Retraction => pick(rng, &self.own, true),
        };
        let Some(i) = victim else {
            self.next_company += 1;
            let newco = Value::Oid(Oid::new(OidSpace::Ground, self.next_company));
            let owner = self.companies[rng.gen_range(0..self.companies.len())].clone();
            let stake = own(&owner, &newco, 0.6);
            self.companies.push(newco.clone());
            self.own.push(stake.clone());
            let update = Update {
                inserts: vec![
                    ("company".to_string(), vec![newco.clone()]),
                    ("own".to_string(), stake.clone()),
                ],
                deletes: Vec::new(),
            };
            return (
                update,
                vec![("own", stake), ("controls", vec![owner, newco])],
                Vec::new(),
            );
        };
        let old = self.own.remove(i);
        let deletes = vec![("own".to_string(), old.clone())];
        if kind == Event::Retraction {
            let update = Update {
                inserts: Vec::new(),
                deletes,
            };
            return (update, Vec::new(), vec![("own", old)]);
        }
        let w = weight(&old);
        let w2 = if w > 0.5 { w / 2.0 } else { 0.51 + w / 2.0 };
        let new = own(&old[0], &old[1], w2);
        self.own.push(new.clone());
        let update = Update {
            inserts: vec![("own".to_string(), new.clone())],
            deletes,
        };
        (update, vec![("own", new)], vec![("own", old)])
    }
}

/// One replay: a fresh materialization and the stream applied to it so far.
struct Stream {
    engine: Engine,
    db: FactDb,
    layer: ServingLayer,
    edb: Edb,
    rng: Rng,
    cycle: [Event; 4],
    /// Whole cycles applied.
    cycles: usize,
}

impl Stream {
    fn start(g: &PropertyGraph, seed: u64) -> Result<Stream> {
        let (engine, db, stats) = control_vadalog_prov(g, ENGINE_THREADS)?;
        let layer = ServingLayer::new();
        layer.publish(&db, stats.termination);
        let edb = Edb {
            companies: db.facts_iter("company").map(|t| t[0].clone()).collect(),
            own: db.facts_iter("own").collect(),
            next_company: 1 << 40,
        };
        Ok(Stream {
            engine,
            db,
            layer,
            edb,
            rng: Rng::seed_from_u64(seed ^ 0x0bad_5eed),
            cycle: CYCLE,
            cycles: 0,
        })
    }
}

pub struct UpdatePublish {
    ctx: PhaseCtx,
    registry: PropertyGraph,
    stream: Stream,
    registry_facts: usize,
    generate_s: f64,
    /// Visible latencies of the current replay.
    replay_ms: Vec<f64>,
    /// Visible latencies of every finished replay.
    replays: Vec<Vec<f64>>,
    insert_ms: Vec<f64>,
    retract_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    visible_ms: Vec<f64>,
    overdeleted: usize,
    rederived: usize,
    fallbacks: usize,
    rep: PhaseReport,
}

impl UpdatePublish {
    pub fn setup(ctx: &PhaseCtx) -> Result<UpdatePublish> {
        let t = Instant::now();
        let g = registry(ctx.nodes, REGISTRY_SEED)?;
        let generate_s = secs(t);
        let stream = Stream::start(&g, ctx.seed)?;
        Ok(UpdatePublish {
            registry_facts: stream.db.total_facts(),
            ctx: ctx.clone(),
            registry: g,
            stream,
            generate_s,
            replay_ms: Vec::new(),
            replays: Vec::new(),
            insert_ms: Vec::new(),
            retract_ms: Vec::new(),
            publish_ms: Vec::new(),
            visible_ms: Vec::new(),
            overdeleted: 0,
            rederived: 0,
            fallbacks: 0,
            rep: PhaseReport::default(),
        })
    }

    /// Apply one batch, publish it and check what the new epoch shows.
    fn batch(&mut self, kind: Event) {
        let s = &mut self.stream;
        let (update, present, absent) = s.edb.next(kind, &mut s.rng);
        let has_deletes = !update.deletes.is_empty();
        let t0 = Instant::now();
        let result = s.engine.apply_update(&mut s.db, update);
        let t1 = Instant::now();
        let termination = result
            .as_ref()
            .map_or(Termination::Complete, |s| s.termination);
        s.layer.publish(&s.db, termination);
        let t2 = Instant::now();
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        if has_deletes {
            self.retract_ms.push(ms(t1 - t0));
        } else {
            self.insert_ms.push(ms(t1 - t0));
        }
        self.publish_ms.push(ms(t2 - t1));
        self.visible_ms.push(ms(t2 - t0));
        self.replay_ms.push(ms(t2 - t0));
        let ok = match result {
            Ok(stats) => {
                self.overdeleted += stats.profile.update_overdeleted;
                self.rederived += stats.profile.update_rederived;
                self.fallbacks += stats.profile.update_fallbacks;
                let pin = self.stream.layer.pin();
                stats.termination.is_complete()
                    && present.iter().all(|(p, t)| pin.contains(p, t))
                    && !absent.iter().any(|(p, t)| pin.contains(p, t))
            }
            Err(e) => {
                eprintln!("update_publish: {e}");
                false
            }
        };
        self.rep.check(ok);
    }
}

impl Phase for UpdatePublish {
    /// Whole cycles of the 2:1:1 mix, each in a seeded order; a finished
    /// replay is followed by a fresh one.
    fn slice(&mut self, seconds: f64) -> Result<()> {
        let start = Instant::now();
        loop {
            if self.stream.cycles == REPLAY_CYCLES {
                self.replays.push(std::mem::take(&mut self.replay_ms));
                // Release the finished replay before materializing the next.
                self.stream.db = FactDb::new();
                self.stream.layer = ServingLayer::new();
                self.stream = Stream::start(&self.registry, self.ctx.seed)?;
            }
            let s = &mut self.stream;
            s.rng.shuffle(&mut s.cycle);
            for kind in s.cycle {
                self.batch(kind);
            }
            self.stream.cycles += 1;
            if secs(start) >= seconds {
                return Ok(());
            }
        }
    }

    fn ops(&self) -> usize {
        self.visible_ms.len()
    }

    fn finish(self: Box<Self>) -> Result<PhaseReport> {
        let UpdatePublish {
            ctx,
            stream:
                Stream {
                    db,
                    layer,
                    edb,
                    cycles,
                    ..
                },
            replay_ms,
            mut replays,
            registry_facts,
            generate_s,
            insert_ms,
            retract_ms,
            publish_ms,
            visible_ms,
            overdeleted,
            rederived,
            fallbacks,
            mut rep,
            ..
        } = *self;
        // The maintained EDB must hold exactly the model's facts, and its
        // control relation must equal a from-scratch chase of the updated
        // input, without the rebuild fallback.
        let companies: Vec<Vec<Value>> = edb.companies.iter().map(|c| vec![c.clone()]).collect();
        let edb_ok = |pred: &str, want: &[Vec<Value>]| {
            let got: FxHashSet<Vec<Value>> = db.facts_iter(pred).collect();
            got.len() == want.len() && want.iter().all(|t| got.contains(t))
        };
        rep.check(edb_ok("own", &edb.own) && edb_ok("company", &companies));
        let mut scratch = FactDb::new();
        scratch.add_facts("company", companies)?;
        scratch.add_facts("own", edb.own)?;
        Engine::with_config(
            parse_program(CONTROL_VADALOG)?,
            EngineConfig {
                threads: ENGINE_THREADS,
                ..Default::default()
            },
        )?
        .run(&mut scratch)?;
        rep.check(control_set(&db) == control_set(&scratch));
        rep.check(fallbacks == 0);

        let n = visible_ms.len();
        rep.headline = median(&visible_ms);
        // A replay cut short by the end of the run did less work than the
        // others; it counts only when no replay finished.
        if cycles == REPLAY_CYCLES || replays.is_empty() {
            replays.push(replay_ms);
        }
        let best_ms: Vec<f64> = (0..replays[0].len())
            .map(|i| replays.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .collect();
        rep.e2e = best_of_slices(&[slice_values(&best_ms)]);
        rep.notes.push(format!(
            "update_publish: {} nodes, {registry_facts} facts at start, {n} batches \
             ({} insert-only, {} with deletes) in {} replays of {} batches",
            ctx.nodes,
            insert_ms.len(),
            retract_ms.len(),
            replays.len(),
            4 * REPLAY_CYCLES,
        ));
        let pin = layer.pin();
        rep.layer.extend([
            metric("finance.generate_s", generate_s, "s"),
            metric("update.apply_insert_p50_ms", median(&insert_ms), "ms"),
            metric(
                "update.apply_insert_p90_ms",
                quantile(&insert_ms, 0.9),
                "ms",
            ),
            metric("update.apply_retract_p50_ms", median(&retract_ms), "ms"),
            metric(
                "update.apply_retract_p90_ms",
                quantile(&retract_ms, 0.9),
                "ms",
            ),
            metric("update.overdeleted", overdeleted as f64, "count"),
            metric("update.rederived", rederived as f64, "count"),
            metric(
                "update.rederive_ratio",
                rederived as f64 / overdeleted.max(1) as f64,
                "ratio",
            ),
            metric("update.fallbacks", fallbacks as f64, "count"),
            metric("serving.publish_p50_ms", median(&publish_ms), "ms"),
            metric("serving.publish_p90_ms", quantile(&publish_ms, 0.9), "ms"),
            metric(
                "serving.epoch_mb",
                pin.approx_bytes() as f64 / (1 << 20) as f64,
                "MiB",
            ),
            metric(
                "serving.resident_epochs",
                layer.resident_epochs() as f64,
                "count",
            ),
        ]);
        Ok(rep)
    }
}
