//! `materialize`: the paper's §6 shape. One Algorithm 2 run (load →
//! reason → flush) of Example 4.1 over a generated registry, repeated.

use crate::stats::median;
use crate::{
    best_of_slices, metric, registry, secs, slice_values, Metric, Perturb, Phase, PhaseCtx,
    PhaseReport,
};
use kgm_common::Result;
use kgm_core::intensional::{materialize, MaterializationMode, MaterializationStats};
use kgm_core::SuperSchema;
use kgm_finance::control::{baseline_control, CONTROL_METALOG};
use kgm_finance::simple_ownership_schema;
use kgm_pgstore::PropertyGraph;
use kgm_runtime::{Collector, SpanNode};
use std::time::Instant;

/// Chase worker threads of the Algorithm 2 engine.
pub const ENGINE_THREADS: usize = 2;

/// Non-reflexive `CONTROLS` edges the flush wrote into the data graph.
fn control_edges(g: &PropertyGraph) -> usize {
    g.edges_with_label("CONTROLS")
        .into_iter()
        .filter(|&e| {
            let (f, t) = g.edge_endpoints(e);
            f != t
        })
        .count()
}

pub struct Materialize {
    ctx: PhaseCtx,
    schema: SuperSchema,
    /// Control edges the baseline algorithm derives on the registry.
    expected: usize,
    owns: usize,
    generate_s: f64,
    times: Vec<f64>,
    /// Per slice: the end-to-end values of its runs.
    slices: Vec<[f64; 3]>,
    runs: Vec<(MaterializationStats, Option<SpanNode>)>,
    rep: PhaseReport,
}

impl Materialize {
    pub fn setup(ctx: &PhaseCtx) -> Result<Materialize> {
        let t = Instant::now();
        let g = registry(ctx.nodes, ctx.seed)?;
        let generate_s = secs(t);
        // The reference: an independent worklist algorithm, no engine.
        let mut expected = baseline_control(&g).len();
        if ctx.perturb == Some(Perturb::ControlCount) {
            expected += 1;
        }
        Ok(Materialize {
            ctx: ctx.clone(),
            schema: simple_ownership_schema()?,
            expected,
            owns: g.edges_with_label("OWNS").len(),
            generate_s,
            times: Vec::new(),
            slices: Vec::new(),
            runs: Vec::new(),
            rep: PhaseReport::default(),
        })
    }
}

impl Phase for Materialize {
    fn slice(&mut self, seconds: f64) -> Result<()> {
        let start = Instant::now();
        let from = self.times.len();
        loop {
            // Materialization writes into its input, so every run gets a
            // fresh copy of the same registry (generation is not timed).
            let mut g = registry(self.ctx.nodes, self.ctx.seed)?;
            let collector = self.ctx.traced.then(Collector::install);
            let t = Instant::now();
            let result = materialize(
                &mut g,
                &self.schema,
                CONTROL_METALOG,
                MaterializationMode::SinglePass,
            );
            self.times.push(secs(t));
            let root = collector.and_then(|c| {
                c.finish()
                    .into_iter()
                    .find(|s| s.name == "intensional.materialize")
            });
            match result {
                Ok(stats) => {
                    self.rep.check(
                        stats.termination.is_complete() && control_edges(&g) == self.expected,
                    );
                    self.runs.push((stats, root));
                }
                Err(e) => {
                    eprintln!("materialize: {e}");
                    self.rep.check(false);
                }
            }
            if secs(start) >= seconds {
                let ms: Vec<f64> = self.times[from..].iter().map(|t| t * 1e3).collect();
                self.slices.push(slice_values(&ms));
                return Ok(());
            }
        }
    }

    fn ops(&self) -> usize {
        self.times.len()
    }

    fn finish(self: Box<Self>) -> Result<PhaseReport> {
        let Materialize {
            ctx,
            expected,
            owns,
            generate_s,
            times,
            slices,
            runs,
            mut rep,
            ..
        } = *self;
        rep.headline = median(&times);
        rep.e2e = best_of_slices(&slices);
        rep.notes.push(format!(
            "materialize: {} nodes, {owns} OWNS edges, {expected} expected control edges, \
             {} runs",
            ctx.nodes,
            times.len()
        ));
        let per_run = |f: &dyn Fn(&MaterializationStats) -> f64| -> f64 {
            median(&runs.iter().map(|(s, _)| f(s)).collect::<Vec<_>>())
        };
        rep.layer
            .push(metric("finance.generate_s", generate_s, "s"));
        rep.layer
            .push(metric("intensional.load_ms", per_run(&|s| s.load_ms), "ms"));
        rep.layer.push(metric(
            "intensional.reason_ms",
            per_run(&|s| s.reason_ms),
            "ms",
        ));
        let spans: Vec<&SpanNode> = runs.iter().filter_map(|(_, s)| s.as_ref()).collect();
        rep.layer.extend(span_metrics(&spans, &mut rep.notes));
        rep.layer.push(metric(
            "intensional.flush_ms",
            per_run(&|s| s.flush_ms),
            "ms",
        ));
        rep.layer.push(metric(
            "flush.new_edges",
            runs.last().map_or(0.0, |(s, _)| s.new_edges as f64),
            "count",
        ));
        Ok(rep)
    }
}

fn children<'a>(s: &'a SpanNode, name: &'a str) -> impl Iterator<Item = &'a SpanNode> + 'a {
    s.children.iter().filter(move |c| c.name == name)
}

/// Per-layer rows of one traced run's `intensional.materialize` span tree.
fn span_rows(root: &SpanNode, notes: &mut Vec<String>) -> Option<Vec<Metric>> {
    let reason = root.find("intensional.reason")?;
    let chase = reason.find("chase.run")?;
    let mut rows = Vec::new();
    let translate = reason
        .find("mtv.translate")
        .map_or(0.0, SpanNode::elapsed_ms);
    let reason_children: f64 = reason.children.iter().map(SpanNode::elapsed_ms).sum();
    rows.push(metric("mtv.translate_ms", translate, "ms"));
    rows.push(metric(
        "intensional.reason.unattributed_ms",
        reason.elapsed_ms() - reason_children,
        "ms",
    ));
    rows.push(metric("chase.run_ms", chase.elapsed_ms(), "ms"));
    let strata: Vec<&SpanNode> = children(chase, "chase.stratum").collect();
    for s in &strata {
        rows.push(metric(
            format!("chase.stratum.{}_ms", s.detail),
            s.elapsed_ms(),
            "ms",
        ));
    }
    // Rule leaves come in rule order, one per rule that ran; in a complete
    // run every rule runs at least once, so positions are rule numbers.
    let rules: Vec<&SpanNode> = children(chase, "chase.rule").collect();
    if !chase.detail.starts_with(&format!("{} rules", rules.len())) {
        notes.push(format!(
            "warning: {} rule spans under chase.run [{}]; rule numbers are positions",
            rules.len(),
            chase.detail
        ));
    }
    for (i, r) in rules.iter().enumerate() {
        rows.push(metric(format!("chase.rule.r{i}_ms"), r.elapsed_ms(), "ms"));
    }
    let rule_ms: f64 = rules.iter().map(|r| r.elapsed_ms()).sum();
    rows.push(metric(
        "chase.run.unattributed_ms",
        chase.elapsed_ms() - rule_ms,
        "ms",
    ));
    let derived = chase.counter("derived").unwrap_or(0) as f64;
    let bindings: i64 = rules.iter().filter_map(|r| r.counter("bindings")).sum();
    let iterations: i64 = strata.iter().filter_map(|s| s.counter("iterations")).sum();
    rows.push(metric("chase.derived_facts", derived, "count"));
    rows.push(metric("chase.iterations", iterations as f64, "count"));
    rows.push(metric(
        "chase.duplicates",
        chase.counter("duplicates").unwrap_or(0) as f64,
        "count",
    ));
    rows.push(metric(
        "chase.derive_ratio",
        derived / bindings.max(1) as f64,
        "ratio",
    ));
    let labels: Vec<String> = rules
        .iter()
        .enumerate()
        .map(|(i, r)| format!("r{i}={}", r.detail))
        .collect();
    notes.push(format!("chase rules: {}", labels.join(" ")));
    Some(rows)
}

/// Per-layer metrics across the traced runs: the median of each time, the
/// last run's counts (they repeat exactly).
fn span_metrics(roots: &[&SpanNode], notes: &mut Vec<String>) -> Vec<Metric> {
    let mut per_run: Vec<Vec<Metric>> = Vec::new();
    let mut run_notes = Vec::new();
    for root in roots {
        run_notes.clear();
        per_run.extend(span_rows(root, &mut run_notes));
    }
    notes.append(&mut run_notes);
    let Some(last) = per_run.last() else {
        return Vec::new();
    };
    last.iter()
        .map(|m| {
            if m.unit != "ms" {
                return m.clone();
            }
            let vals: Vec<f64> = per_run
                .iter()
                .filter_map(|run| run.iter().find(|x| x.name == m.name))
                .map(|x| x.value)
                .collect();
            metric(m.name.clone(), median(&vals), "ms")
        })
        .collect()
}
