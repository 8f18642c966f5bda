//! The KGModel benchmark: Algorithm 2 materialization, incremental updates
//! and epoch serving, timed end to end and per layer.
//!
//! Every layer is measured from outside: the benchmark times calls into
//! the layer's public functions and reads what those functions already
//! return. A traced run additionally captures the spans the program emits
//! (`kgm_runtime::telemetry::Collector`). See `README.md` for the
//! workloads, the layer → end-to-end map and how to read the
//! `unattributed` rows.

pub mod graph;
pub mod lookup;
pub mod materialize;
pub mod stats;
pub mod update;

use kgm_common::Result;
use kgm_finance::{generate_shareholding, ShareholdingConfig};
use kgm_pgstore::PropertyGraph;
use std::time::Instant;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Materialize,
    UpdatePublish,
    ServeLookup,
    ServeGraph,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Materialize,
        Workload::UpdatePublish,
        Workload::ServeLookup,
        Workload::ServeGraph,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Materialize => "materialize",
            Workload::UpdatePublish => "update_publish",
            Workload::ServeLookup => "serve_lookup",
            Workload::ServeGraph => "serve_graph",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Registry sizes (nodes) per workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub materialize: usize,
    pub update_publish: usize,
    pub serve_lookup: usize,
    pub serve_graph: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        materialize: 50_000,
        update_publish: 5_000,
        serve_lookup: 50_000,
        serve_graph: 2_000,
    };
    /// The side-probe sizes (`--scale tiny` runs the workload at them).
    pub const TINY: Scale = Scale {
        materialize: 1_000,
        update_publish: 1_000,
        serve_lookup: 1_000,
        serve_graph: 300,
    };

    fn nodes(&self, w: Workload) -> usize {
        match w {
            Workload::Materialize => self.materialize,
            Workload::UpdatePublish => self.update_publish,
            Workload::ServeLookup => self.serve_lookup,
            Workload::ServeGraph => self.serve_graph,
        }
    }
}

/// A deliberately wrong expected answer, used by the self-tests to show
/// that the correctness checks catch a mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturb {
    /// Expect one control edge more than the baseline algorithm derives.
    ControlCount,
    /// Drop one pair from every path query's reference answer.
    DropPathPair,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Sizes of the workload's own phase; the side probes of a traced run
    /// always run at [`Scale::TINY`].
    pub scale: Scale,
    pub perturb: Option<Perturb>,
}

/// What a phase needs to know.
#[derive(Debug, Clone)]
pub struct PhaseCtx {
    pub seed: u64,
    pub nodes: usize,
    pub traced: bool,
    pub perturb: Option<Perturb>,
}

/// One workload's measured loop, set up once and then run in slices that
/// the runner interleaves with the other phases.
pub trait Phase {
    /// Run whole operations until about `seconds` have passed (at least
    /// one).
    fn slice(&mut self, seconds: f64) -> Result<()>;
    /// Operations run so far.
    fn ops(&self) -> usize;
    /// Final correctness checks and the phase's metrics.
    fn finish(self: Box<Self>) -> Result<PhaseReport>;
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics every workload reports about its own operation
/// (an Algorithm 2 run, an update batch made visible, a lookup, a graph
/// query): `(name, unit, lower is better)`.
pub const E2E: [(&str, &str, bool); 3] = [
    ("latency_p50_ms", "ms", true),
    ("latency_p90_ms", "ms", true),
    ("throughput_per_s", "1/s", false),
];

/// One slice's [`E2E`] values from the latencies (ms) of a single
/// closed-loop client's operations.
pub fn slice_values(latency_ms: &[f64]) -> [f64; 3] {
    [
        stats::median(latency_ms),
        stats::quantile(latency_ms, 0.9),
        latency_ms.len() as f64 / (latency_ms.iter().sum::<f64>() / 1e3),
    ]
}

/// The [`E2E`] metrics from per-slice values: each the best slice's (see
/// [`stats::best`]).
pub fn best_of_slices(slices: &[[f64; 3]]) -> Vec<Metric> {
    E2E.iter()
        .enumerate()
        .map(|(i, &(name, unit, lower))| {
            let vals: Vec<f64> = slices.iter().map(|s| s[i]).collect();
            metric(name, stats::best(&vals, lower), unit)
        })
        .collect()
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseReport {
    /// The phase's end-to-end metrics.
    pub e2e: Vec<Metric>,
    /// The phase's per-layer metrics.
    pub layer: Vec<Metric>,
    /// The end-to-end figure compared between traced and untraced runs.
    pub headline: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Run context and sample counts, printed before the result line.
    pub notes: Vec<String>,
}

impl PhaseReport {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The result of a whole run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The last line of the benchmark's output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a ratio over nothing reads as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The E7 calibration of the shareholding generator.
pub fn registry(nodes: usize, seed: u64) -> Result<PropertyGraph> {
    generate_shareholding(&ShareholdingConfig {
        nodes,
        person_fraction: 0.3,
        cross_ownership: 0.01,
        seed,
        ..Default::default()
    })
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn setup(w: Workload, ctx: &PhaseCtx) -> Result<Box<dyn Phase>> {
    Ok(match w {
        Workload::Materialize => Box::new(materialize::Materialize::setup(ctx)?),
        Workload::UpdatePublish => Box::new(update::UpdatePublish::setup(ctx)?),
        Workload::ServeLookup => Box::new(lookup::ServeLookup::setup(ctx)?),
        Workload::ServeGraph => Box::new(graph::ServeGraph::setup(ctx)?),
    })
}

/// In a traced run, each side probe runs for this share of the time the
/// workload's own phase ran, right after each of its slices.
const PROBE_SHARE: f64 = 0.1;
/// The workload's own phase runs in about this many slices.
const SLICES: f64 = 10.0;
/// Set-ups timed for `setup_s`, the median: at least [`MIN_SETUPS`], and
/// more while they have taken less than [`SETUP_SECONDS`] together, up to
/// [`MAX_SETUPS`]. A cheap set-up is repeated more, so its median does not
/// follow a single scheduling hiccup. The last one is measured.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_SECONDS: f64 = 1.0;

/// Operations the workload's own phase runs at least.
fn min_ops(w: Workload) -> usize {
    match w {
        Workload::Materialize => 3,
        Workload::UpdatePublish => 32,
        Workload::ServeLookup => 1 << 16,
        Workload::ServeGraph => 48,
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload at `cfg.scale` for about `cfg.seconds`, in slices.
///
/// With `cfg.trace`, the workload's phase is set up twice and its slices
/// alternate between an untraced and a traced copy; per-layer metrics come
/// from the traced copy and `trace.overhead_frac` compares the two. The
/// other three phases then run as side probes at [`Scale::TINY`], each
/// for a short slice after every slice of the workload's phase, so that
/// every traced run reports every per-layer metric.
pub fn run(cfg: &Config) -> Result<Outcome> {
    let w = cfg.workload;
    let ctx = |phase: Workload, traced: bool| PhaseCtx {
        seed: cfg.seed,
        nodes: if phase == w { cfg.scale } else { Scale::TINY }.nodes(phase),
        traced,
        perturb: cfg.perturb,
    };

    let mut setup_s = Vec::new();
    let mut own: Vec<Box<dyn Phase>> = Vec::new();
    let mut probes: Vec<Box<dyn Phase>> = Vec::new();
    if cfg.trace {
        own.push(setup(w, &ctx(w, false))?);
        own.push(setup(w, &ctx(w, true))?);
        for p in Workload::ALL.into_iter().filter(|&p| p != w) {
            probes.push(setup(p, &ctx(p, true))?);
        }
    } else {
        while setup_s.len() < MIN_SETUPS
            || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
        {
            own.clear(); // release the previous set-up before timing the next
            let t = Instant::now();
            own.push(setup(w, &ctx(w, false))?);
            setup_s.push(secs(t));
        }
    }

    // Seconds each copy of the workload's phase runs.
    let copies = own.len() as f64;
    let budget = cfg.seconds / (1.0 + PROBE_SHARE * probes.len() as f64) / copies;
    let mut spent = 0.0;
    loop {
        for phase in own.iter_mut() {
            let t = Instant::now();
            phase.slice(budget / SLICES)?;
            let d = secs(t);
            spent += d / copies;
            for probe in probes.iter_mut() {
                probe.slice(d * PROBE_SHARE)?;
            }
        }
        let min = min_ops(cfg.workload).div_ceil(own.len());
        if spent >= budget && own.iter().all(|p| p.ops() >= min) {
            break;
        }
    }

    let mut reports = Vec::new();
    for phase in own.into_iter().chain(probes) {
        reports.push(phase.finish()?);
    }
    let overhead = if cfg.trace {
        let traced = reports.remove(1);
        let untraced = &mut reports[0];
        let overhead = traced.headline / untraced.headline - 1.0;
        untraced.attempted += traced.attempted;
        untraced.failed += traced.failed;
        untraced.layer = traced.layer;
        untraced.notes.extend(traced.notes);
        overhead
    } else {
        0.0
    };

    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let mut metrics: Vec<Metric> = Vec::new();
    // A name measured by several phases (the registry generator) is taken
    // from the workload's own phase, which comes first.
    let mut add = |m: &Metric| {
        if !metrics.iter().any(|x| x.name == m.name) {
            metrics.push(m.clone());
        }
    };
    if cfg.trace {
        reports.iter().flat_map(|r| &r.layer).for_each(&mut add);
        add(&metric("error_rate", error_rate, "fraction"));
        add(&metric("trace.overhead_frac", overhead, "fraction"));
    } else {
        add(&metric("setup_s", stats::median(&setup_s), "s"));
        add(&metric("peak_rss_mb", peak_rss_mb(), "MiB"));
        reports.iter().flat_map(|r| &r.e2e).for_each(&mut add);
    }

    let mut notes = vec![context_line(cfg)];
    for r in &reports {
        notes.extend(r.notes.iter().cloned());
    }
    notes.push(format!(
        "error_rate {error_rate} ({failed} failed of {attempted} attempted)"
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Seed, sizes, thread counts, core count and commit of this run.
fn context_line(cfg: &Config) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut probes = String::new();
    if cfg.trace {
        for p in Workload::ALL.into_iter().filter(|&p| p != cfg.workload) {
            probes += &format!(" probe[{}]={}", p.name(), Scale::TINY.nodes(p));
        }
    }
    format!(
        "context: workload={} seed={} seconds={} trace={} nodes={}{probes} \
         engine_threads[materialize={} update_publish={}] \
         readers[serve_lookup={} serve_graph=1] nproc={nproc} commit={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.scale.nodes(cfg.workload),
        materialize::ENGINE_THREADS,
        update::ENGINE_THREADS,
        lookup::READERS,
        git_commit().unwrap_or_else(|| "unavailable".to_string()),
    )
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
        None => Some(head.to_string()),
    }
}
