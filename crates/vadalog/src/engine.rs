//! The chase engine: stratified semi-naive evaluation with existentials,
//! Skolem functors and aggregation.
//!
//! The evaluation strategy follows Section 4 of the paper and the Vadalog
//! literature it builds on:
//!
//! - **Skolem chase for existentials**: a head variable not bound by the
//!   body is realized as a labelled null (OID space `N`) keyed by
//!   `(rule, variable, frontier values)` — re-firing a rule on the same
//!   ground tuple reuses the same null, which (together with wardedness)
//!   terminates on the paper's programs. An explicit fact cap is the
//!   engine's safety net.
//! - **Stratified execution**: negation and *exact* aggregation read only
//!   strictly lower strata; within a stratum, rules run to a semi-naive
//!   fixpoint (delta-restricted re-evaluation).
//! - **Monotonic aggregation in recursion**: contributor-keyed accumulation
//!   (Example 4.2's `sum(w, ⟨z⟩)`): each distinct contributor tuple is
//!   counted once, updates re-fire the rule with the refined value.

use crate::analysis::{AggMode, ProgramAnalysis};
use crate::ast::{AggregateFunc, Expr, Program, Rule, RuleStep, Term, Var};
use crate::bindings::SourceRegistry;
use crate::eval::{eval_in, EvalCtx, VarSource};
use kgm_common::{
    FxHashMap, FxHashSet, KgmError, Oid, OidGen, OidSpace, Result, SkolemRegistry, Value,
    ValuePool,
};
use kgm_runtime::sync::CancelToken;
use kgm_runtime::telemetry;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Fact storage
// ---------------------------------------------------------------------
//
// The columnar store lives in `crate::factdb`: per-column `u64` id arrays
// over a `ValuePool` interner, a packed tuple-hash dedup table, and
// posting-list join indexes that are built incrementally by the single
// writer and reused (read-only) across semi-naive iterations and shard
// workers. `FactDb` is re-exported here so `engine::FactDb` remains the
// canonical path.

pub use crate::factdb::FactDb;
use crate::factdb::{class_hash, fact_id, BatchRow, FactId, Relation, Verdict};

/// Provenance sidecar aligned 1:1 with the records of a [`Heads`] buffer:
/// the rule id and the body-atom-order parent fact ids behind each emitted
/// head tuple. Always empty when `EngineConfig::provenance` is off.
type ProvOut = Vec<(u32, Box<[FactId]>)>;

// ---------------------------------------------------------------------
// Ids in the hot path
// ---------------------------------------------------------------------
//
// The chase binds, joins and emits pool ids, not `Value`s. A binding is a
// `Vec<u64>` with one slot per rule variable holding an **exact** id (so a
// derived tuple keeps the representation it was matched with); joins and
// the repeated-variable check compare **class** ids (`ValuePool::classes`),
// under which `Int(1) == Float(1.0)`. Values a firing computes — assignment
// results, labelled nulls, head constants the pool never saw — are not in
// the frozen pool: they go to the `pending` table of the `Heads` buffer the
// firing writes to, referenced by a `PENDING`-tagged id, and the single
// writer interns them at merge time.

/// Binding slot of a variable that is not bound.
const UNBOUND: u64 = u64::MAX;

/// Tag bit of an id that indexes a pending value instead of the pool.
const PENDING: u64 = 1 << 63;

/// Header flag of a record emitted by a sharded evaluation (the records
/// `ChaseProfile::merge_dedup_hits` counts).
const SHARDED: u64 = 1 << 31;

/// Header bits holding a record's arity.
const ARITY_MASK: u64 = 0xffff;

/// The pending-table index of a tagged id.
#[inline]
fn pending_index(id: u64) -> Option<usize> {
    (id & PENDING != 0 && id != UNBOUND).then_some((id & !PENDING) as usize)
}

/// Shift the tagged ids among `ids` by `offset` pending entries (for a
/// buffer whose pending table is appended behind another one).
fn rebase(ids: &mut [u64], offset: usize) {
    if offset == 0 {
        return;
    }
    for id in ids {
        if pending_index(*id).is_some() {
            *id += offset as u64;
        }
    }
}

/// Head tuples emitted by rule firings: the chase's emission buffer.
#[derive(Default)]
struct Heads {
    /// One record per tuple: a header word (`pred << 32 | flags | arity`,
    /// `pred` an engine predicate id) followed by the tuple's ids.
    ids: Vec<u64>,
    /// Values behind `PENDING`-tagged ids, of records and of the bindings
    /// that write here.
    pending: Vec<Value>,
    /// Provenance sidecar, one entry per record.
    prov: ProvOut,
    /// Number of records.
    len: usize,
}

impl Heads {
    /// Park `v` in the pending table; returns its tagged id.
    fn push_value(&mut self, v: Value) -> u64 {
        self.pending.push(v);
        PENDING | (self.pending.len() - 1) as u64
    }

    /// Move `other`'s records and pending values behind this buffer's,
    /// returning the offset its tagged ids moved by.
    fn append(&mut self, mut other: Heads) -> usize {
        let offset = self.pending.len();
        rebase(&mut other.ids, offset);
        self.ids.append(&mut other.ids);
        self.pending.append(&mut other.pending);
        self.prov.append(&mut other.prov);
        self.len += other.len;
        offset
    }
}

/// Variable reads through an id binding: pool ids decode through the pool,
/// tagged ids through the pending table they index.
struct IdVars<'a> {
    binding: &'a [u64],
    pool: &'a ValuePool,
    pending: &'a [Value],
}

impl IdVars<'_> {
    fn get(&self, id: u64) -> &Value {
        match pending_index(id) {
            Some(i) => &self.pending[i],
            None => self.pool.get(id),
        }
    }

    /// The value of a variable the rule's safety check guarantees bound.
    fn bound(&self, v: Var) -> Value {
        let id = self.binding[v.0 as usize];
        assert!(id != UNBOUND, "variable #{} is unbound", v.0);
        self.get(id).clone()
    }

    /// The class id of `id`'s value, `None` if no equal value is stored.
    fn class(&self, id: u64) -> Option<u64> {
        match pending_index(id) {
            Some(i) => self.pool.lookup(&self.pending[i]),
            None => Some(self.pool.classes()[id as usize]),
        }
    }
}

impl VarSource for IdVars<'_> {
    fn value(&self, v: Var) -> Option<Value> {
        let id = *self.binding.get(v.0 as usize)?;
        (id != UNBOUND).then(|| self.get(id).clone())
    }
}

/// The frozen database as one evaluation phase sees it: relations resolved
/// by engine predicate id, plus the pool and its class table.
struct View<'a> {
    pool: &'a ValuePool,
    classes: &'a [u64],
    rels: Vec<Option<&'a Relation>>,
}

impl<'a> View<'a> {
    fn new(db: &'a FactDb, rel_ids: &[Option<u32>]) -> View<'a> {
        View {
            pool: db.pool(),
            classes: db.pool().classes(),
            rels: rel_ids
                .iter()
                .map(|r| r.map(|pid| db.rel_at(pid)))
                .collect(),
        }
    }

    /// Physical rows of an engine predicate (0 without a relation).
    fn rows(&self, pred: usize) -> usize {
        self.rels[pred].map_or(0, Relation::rows)
    }
}

/// Where an index-key column of an [`AtomStep`] comes from.
enum KeyTerm {
    /// A constant of the rule text, resolved to its class id per evaluation.
    Const(Value),
    /// A variable slot bound by an earlier atom of the order.
    Slot(usize),
}

/// One body atom at its place in a compiled join order.
struct AtomStep {
    /// Body-atom index.
    atom: usize,
    /// Engine predicate id.
    pred: usize,
    arity: usize,
    /// Term positions bound on entry — constants and variables bound by
    /// earlier atoms — ascending: the posting-list index key.
    positions: Vec<usize>,
    /// Source of each key column, aligned with `positions`.
    key: Vec<KeyTerm>,
    /// `(column, slot)` of each variable this atom binds first.
    binds: Vec<(usize, usize)>,
    /// `(column, slot)` of each repeat, within this atom, of a variable it
    /// binds: compared on class ids.
    checks: Vec<(usize, usize)>,
}

/// A head term resolved for one rule evaluation.
enum HeadTerm {
    /// A constant the pool holds, as its exact id.
    Id(u64),
    /// A constant the pool never saw: parked as a pending value per firing.
    Value(Value),
    /// A variable slot (bound, or an existential).
    Slot(usize),
}

/// The join's callback per complete body match: the binding and the
/// join-order trail of matched fact ids.
type OnMatch<'a> = dyn FnMut(&mut [u64], &[FactId]) -> Result<()> + 'a;

/// A compiled join order resolved against the frozen pool for one rule
/// evaluation.
struct Plan<'r> {
    steps: &'r [AtomStep],
    /// Per step, the index key with constant columns filled in; `None` when
    /// a constant was never interned, so the atom cannot match.
    keys: Vec<Option<Vec<u64>>>,
    /// Per head atom: the record header and its terms.
    heads: Vec<(u64, Vec<HeadTerm>)>,
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// Engine limits and policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Fixpoint iteration cap per stratum.
    pub max_iterations: usize,
    /// Global derived-fact cap (chase safety net).
    pub max_facts: usize,
    /// Refuse to run programs that fail the wardedness check.
    pub require_warded: bool,
    /// Worker threads for sharded rule evaluation. Defaults to the
    /// `KGM_THREADS` environment variable (falling back to the machine's
    /// parallelism); `1` forces the sequential path. Any value produces
    /// bit-identical output — see the "Parallel evaluation" notes on
    /// [`Engine::run`].
    pub threads: usize,
    /// Minimum scan-range size (tuples of the outermost join atom) before a
    /// rule evaluation is sharded across workers; smaller ranges run inline
    /// because thread spawn would dominate. Tests pin this to 1 to force the
    /// parallel path on tiny inputs.
    pub min_parallel_batch: usize,
    /// Wall-clock budget for the whole run in milliseconds (`None` =
    /// unbounded). `0` stops at the first governor check — useful to prove
    /// degradation paths deterministically. Defaults to the
    /// `KGM_DEADLINE_MS` environment variable when set.
    pub deadline_ms: Option<u64>,
    /// Wall-clock budget per stratum in milliseconds (`None` = unbounded).
    /// An overrun terminates the run with [`Termination::Deadline`].
    pub max_stratum_ms: Option<u64>,
    /// Approximate memory budget in bytes, measured against
    /// [`FactDb::approx_bytes`] (`None` = unbounded).
    pub max_bytes: Option<usize>,
    /// Budget/cancellation policy. `false` (the default): exceeding a
    /// budget degrades gracefully — [`Engine::run`] returns `Ok` with the
    /// partial `FactDb` intact and [`RunStats::termination`] naming the
    /// stop reason. `true`: restore the historical behavior of returning
    /// `Err` ([`KgmError::ResourceExhausted`] / [`KgmError::Cancelled`]).
    /// The per-stratum `max_iterations` cap never errors in either mode.
    pub strict: bool,
    /// Cooperative cancellation token, polled between governor checkpoints
    /// and (counter-gated) inside binding loops and shard workers. `None`
    /// disables polling entirely.
    pub cancel: Option<CancelToken>,
    /// Record why-provenance: every derived fact gets a `(rule, parents[])`
    /// edge in the database's [`crate::factdb::ProvStore`], queryable via
    /// [`crate::explain`]. The fact output is bit-identical with the flag
    /// on or off, at any thread count; the overhead contract (< 2× chase
    /// time on the paper's control workload) is pinned by
    /// `BENCH_chase.json`'s `control_vadalog_prov` rows.
    pub provenance: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_iterations: 1_000_000,
            max_facts: 50_000_000,
            require_warded: true,
            threads: kgm_runtime::par::threads_from_env(),
            min_parallel_batch: 256,
            deadline_ms: kgm_runtime::env::parsed(
                "KGM_DEADLINE_MS",
                "milliseconds (an unsigned integer)",
            ),
            max_stratum_ms: None,
            max_bytes: None,
            strict: false,
            cancel: None,
            provenance: false,
        }
    }
}

/// Why a chase run stopped — [`RunStats::termination`].
///
/// Everything except [`Termination::Complete`] marks a *truncated* run: the
/// `FactDb` then holds the facts inserted up to the last completed
/// fixpoint-iteration boundary (plus, for `FactCap`, the batch that crossed
/// the cap), which is a prefix of what the unbounded run would have
/// inserted. [`Termination::IterationCap`] is the one *soft* stop: the
/// affected stratum is truncated but subsequent strata still execute,
/// preserving the long-standing `max_iterations` semantics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Termination {
    /// Every stratum reached its fixpoint.
    #[default]
    Complete,
    /// `max_facts` was exceeded.
    FactCap,
    /// At least one stratum hit `max_iterations` before its fixpoint.
    IterationCap,
    /// `deadline_ms` (or `max_stratum_ms`) elapsed.
    Deadline,
    /// The configured [`CancelToken`] was tripped.
    Cancelled,
    /// `max_bytes` was exceeded.
    MemoryBudget,
}

impl Termination {
    /// Stable machine-readable name (used by the stats codec and the
    /// `chase.termination.<name>` telemetry counters).
    pub fn as_str(self) -> &'static str {
        match self {
            Termination::Complete => "complete",
            Termination::FactCap => "fact_cap",
            Termination::IterationCap => "iteration_cap",
            Termination::Deadline => "deadline",
            Termination::Cancelled => "cancelled",
            Termination::MemoryBudget => "memory_budget",
        }
    }

    /// Inverse of [`Termination::as_str`].
    pub fn parse(s: &str) -> Option<Termination> {
        Some(match s {
            "complete" => Termination::Complete,
            "fact_cap" => Termination::FactCap,
            "iteration_cap" => Termination::IterationCap,
            "deadline" => Termination::Deadline,
            "cancelled" => Termination::Cancelled,
            "memory_budget" => Termination::MemoryBudget,
            _ => return None,
        })
    }

    /// Did the run reach every fixpoint?
    pub fn is_complete(self) -> bool {
        self == Termination::Complete
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Statistics of one reasoning run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Number of strata executed.
    pub strata: usize,
    /// Total fixpoint iterations across strata.
    pub iterations: usize,
    /// Facts newly derived by rules (input facts excluded).
    pub derived_facts: usize,
    /// Labelled nulls minted for existentials.
    pub nulls_created: usize,
    /// Emitted head tuples already present in the database.
    pub duplicates_rejected: usize,
    /// Wall-clock time of the whole run in milliseconds.
    pub elapsed_ms: f64,
    /// Why the run stopped; anything but [`Termination::Complete`] marks a
    /// truncated (but internally consistent) result.
    pub termination: Termination,
    /// Stratum index where the run stopped (the last executed stratum for
    /// complete runs).
    pub stopped_stratum: usize,
    /// Fixpoint iterations executed *within* `stopped_stratum` when the
    /// run stopped.
    pub stopped_iteration: usize,
    /// Per-stratum and per-rule breakdown.
    pub profile: ChaseProfile,
}

/// Per-stratum and per-rule breakdown of one chase run — the detail behind
/// the [`RunStats`] totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaseProfile {
    /// One entry per executed stratum, in execution order.
    pub strata: Vec<StratumProfile>,
    /// One entry per program rule, indexed by rule number (rules that never
    /// ran keep zeroed counters).
    pub rules: Vec<RuleProfile>,
    /// Shard workers spawned across all parallel rule evaluations (0 when
    /// every evaluation ran sequentially).
    pub shards_spawned: usize,
    /// Candidate bindings shard workers handed to the merge writer.
    pub worker_candidates: usize,
    /// Head tuples that sharded evaluations emitted and the frozen store
    /// already held, read off the end-of-iteration insert's dedup. They are
    /// counted in `duplicates_rejected` like any duplicate, so parallel and
    /// sequential runs stay bit-identical; this counter just sizes the
    /// redundant work.
    pub merge_dedup_hits: usize,
    /// Dedup partitions spawned by the hash-partitioned parallel merge
    /// across all insert batches (0 when every batch applied serially).
    pub merge_partitions: usize,
    /// Cancellation/deadline polls performed inside binding loops (0 when
    /// neither a cancel token nor a deadline was configured).
    pub cancel_polls: usize,
    /// Faults `kgm_runtime::fault` injected while this run executed (only
    /// observable in the stats when the run still returned them, i.e. the
    /// injected failure was tolerated or struck another thread).
    pub faults_injected: usize,
    /// Provenance edges recorded by this run (0 when
    /// `EngineConfig::provenance` is off).
    pub prov_edges: usize,
    /// Parent fact references across those edges (post-dedup).
    pub prov_parents: usize,
    /// New EDB facts an [`Engine::apply_update`] call inserted (0 for plain
    /// runs and for updates whose inserts were all duplicates).
    pub update_inserted: usize,
    /// EDB facts an update tombstoned on direct request.
    pub update_deleted: usize,
    /// Derived facts DRed over-deletion tombstoned as (transitively)
    /// supported by a deleted fact.
    pub update_overdeleted: usize,
    /// Over-deleted facts the re-derivation pass brought back through an
    /// alternative support (not tracked — 0 — on the fallback path).
    pub update_rederived: usize,
    /// 1 when the update could not run incrementally and fell back to a
    /// tombstone-everything-derived + from-scratch re-derivation.
    pub update_fallbacks: usize,
}

/// Chase counters for one stratum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StratumProfile {
    /// Stratum number (0-based, execution order).
    pub stratum: usize,
    /// Fixpoint iterations run in this stratum.
    pub iterations: usize,
    /// Facts newly inserted by this stratum's rules.
    pub derived_facts: usize,
    /// Emitted tuples rejected as duplicates in this stratum.
    pub duplicates_rejected: usize,
    /// Labelled nulls minted while this stratum ran.
    pub nulls_minted: usize,
    /// Wall-clock milliseconds spent in this stratum.
    pub elapsed_ms: f64,
}

/// Chase counters for one rule, accumulated across all its evaluations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleProfile {
    /// Rule index in the program.
    pub rule: usize,
    /// Head predicate(s) of the rule, comma-joined — for human-readable
    /// reports.
    pub head: String,
    /// Total evaluation calls (full passes plus delta-restricted passes).
    pub evaluations: usize,
    /// Evaluations restricted to a delta of one body atom.
    pub delta_evaluations: usize,
    /// Complete body matches enumerated (join results reaching the head).
    pub bindings_enumerated: usize,
    /// Head tuples emitted (before database deduplication).
    pub facts_emitted: usize,
    /// Wall-clock milliseconds spent evaluating this rule.
    pub elapsed_ms: f64,
}

pub(crate) struct MonoState {
    contributors: FxHashMap<Vec<Value>, Value>,
    current: Value,
    /// Provenance: parent fact ids of every contributing match so far, in
    /// contribution order. An aggregate firing's value depends on the whole
    /// accumulated state, so its edge carries this full snapshot. Empty
    /// when provenance is off.
    parents: Vec<FactId>,
}

/// The chase's resumable evaluation state, persisted on the [`FactDb`] at
/// the end of every run and consumed by [`Engine::apply_update`]. Holding
/// it is what lets an update *continue* the Skolem chase instead of
/// restarting it: resumed runs reuse the labelled-null table (so re-derived
/// existential facts keep their nulls and the result stays isomorphic to a
/// from-scratch chase) and never re-mint a null payload already embedded in
/// stored facts.
pub(crate) struct ChaseState {
    /// Token of the [`Engine`] that produced this state; an update through
    /// a *different* engine is rejected (its rule numbering, strata and
    /// aggregate modes would reinterpret the state arbitrarily).
    pub(crate) engine_token: u64,
    /// Labelled nulls minted so far (the null generator resumes past them).
    pub(crate) null_count: u64,
    /// Skolem-chase null table: `(rule, variable, frontier) → null`.
    pub(crate) nulls: FxHashMap<(usize, Var, Vec<Value>), Oid>,
    /// Monotonic-aggregate accumulators: `(rule, group) → state`.
    pub(crate) mono: FxHashMap<(usize, Vec<Value>), MonoState>,
}

/// Process-unique token minted per [`Engine`] so persisted [`ChaseState`]
/// can be matched back to the engine that wrote it.
static ENGINE_TOKENS: AtomicU64 = AtomicU64::new(1);

/// Per-rule precomputed metadata.
struct RuleMeta {
    stratum: usize,
    /// head variables except the aggregate target (group key), in var order.
    group_vars: Vec<Var>,
    existentials: Vec<Var>,
    frontier: Vec<Var>,
    agg_mode: Option<AggMode>,
    /// Index of the aggregate step in `rule.steps`.
    agg_step: Option<usize>,
    /// Steps `[0..pure_steps)` are order-independent (no monotonic-aggregate
    /// state update, no Skolem minting) and safe to run on shard workers;
    /// everything from `pure_steps` on must run on the single writer in
    /// deterministic match order.
    pure_steps: usize,
    /// Engine predicate id of each body atom.
    body_preds: Vec<usize>,
    /// Engine predicate id of each head atom.
    head_preds: Vec<usize>,
    /// Engine predicate id of each negated step's atom (`usize::MAX` for
    /// the other steps).
    step_preds: Vec<usize>,
    /// Join order in written atom order (exact aggregates).
    natural: Vec<AtomStep>,
    /// Join order of a full pass.
    full: Vec<AtomStep>,
    /// Join order of a pass restricted to a delta of body atom `i`.
    delta: Vec<Vec<AtomStep>>,
    /// `(predicate, key positions)` of every hash index any of this rule's
    /// join orders can probe — built eagerly once per fixpoint iteration so
    /// the parallel phase reads a frozen database.
    index_needs: Vec<(usize, Vec<usize>)>,
}

/// The resource governor: one cheap check, run at stratum boundaries and
/// once per fixpoint iteration, that maps an exceeded budget (or a tripped
/// cancel token) to the [`Termination`] that stops the run. Checks are
/// ordered most- to least-urgent: cancellation, wall-clock deadlines,
/// memory proxy, fact cap.
struct Governor<'a> {
    deadline: Option<Instant>,
    stratum_budget: Option<Duration>,
    max_bytes: Option<usize>,
    max_facts: usize,
    cancel: Option<&'a CancelToken>,
}

impl Governor<'_> {
    fn check(&self, db: &FactDb, t_stratum: Instant) -> Option<Termination> {
        if let Some(tok) = self.cancel {
            if tok.is_cancelled() {
                return Some(Termination::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(Termination::Deadline);
            }
        }
        if let Some(b) = self.stratum_budget {
            if t_stratum.elapsed() >= b {
                return Some(Termination::Deadline);
            }
        }
        if let Some(b) = self.max_bytes {
            if db.approx_bytes() > b {
                return Some(Termination::MemoryBudget);
            }
        }
        if db.total_facts() > self.max_facts {
            return Some(Termination::FactCap);
        }
        None
    }
}

/// Shared interruption state polled cooperatively inside binding loops —
/// both the sequential join and every shard worker poll the same instance
/// (all fields are atomics), so a cancel or deadline stops a parallel chase
/// within one batch. Polling is counter-gated: the cancel token and the
/// clock are consulted once every `POLL_MASK + 1` join steps. When nothing
/// is configured the whole check is two branches on immutable `None`s, so
/// the default path costs nothing measurable.
struct InterruptState {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    steps: AtomicU32,
    polls: AtomicUsize,
    /// 0 = not interrupted, 1 = cancelled, 2 = deadline.
    hit: AtomicU8,
}

impl InterruptState {
    const POLL_MASK: u32 = 1023;

    fn new(cancel: Option<CancelToken>, deadline: Option<Instant>) -> Self {
        InterruptState {
            cancel,
            deadline,
            steps: AtomicU32::new(0),
            polls: AtomicUsize::new(0),
            hit: AtomicU8::new(0),
        }
    }

    fn hit(&self) -> Option<Termination> {
        match self.hit.load(Ordering::Acquire) {
            0 => None,
            1 => Some(Termination::Cancelled),
            _ => Some(Termination::Deadline),
        }
    }

    /// True when the run should stop enumerating. Sticky: once an
    /// interruption is observed every subsequent call returns `true`.
    fn interrupted(&self) -> bool {
        if self.cancel.is_none() && self.deadline.is_none() {
            return false;
        }
        if self.hit.load(Ordering::Relaxed) != 0 {
            return true;
        }
        let n = self.steps.fetch_add(1, Ordering::Relaxed);
        if n & Self::POLL_MASK != 0 {
            return false;
        }
        self.polls.fetch_add(1, Ordering::Relaxed);
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                self.hit.store(1, Ordering::Release);
                return true;
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.hit.store(2, Ordering::Release);
                return true;
            }
        }
        false
    }
}

/// The sentinel error binding loops raise to unwind out of a join when
/// [`InterruptState::interrupted`] fires. `Engine::run` inspects
/// `InterruptState::hit` before propagating evaluation errors, so this
/// never escapes to callers (in graceful mode it becomes a recorded
/// [`Termination`]; in strict mode it is rebuilt with a proper message).
fn interrupt_sentinel() -> KgmError {
    KgmError::Cancelled("chase interrupted".to_string())
}

/// Human-readable panic payload of a caught shard-worker panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// One incremental change to the extensional database, applied by
/// [`Engine::apply_update`]: facts to retract and facts to assert. Deletes
/// apply before inserts; deleting an absent fact and inserting a present
/// one are no-ops.
#[derive(Debug, Clone, Default)]
pub struct Update {
    /// EDB facts to insert, as `(predicate, tuple)` pairs.
    pub inserts: Vec<(String, Vec<Value>)>,
    /// EDB facts to delete (with their derived consequences, via DRed).
    pub deletes: Vec<(String, Vec<Value>)>,
}

impl Update {
    /// True when the update changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// The Vadalog reasoner.
pub struct Engine {
    program: Program,
    analysis: ProgramAnalysis,
    config: EngineConfig,
    skolems: Arc<SkolemRegistry>,
    meta: Vec<RuleMeta>,
    /// Every predicate the rules mention; the index is the engine
    /// predicate id that compiled rules, watermarks and emitted records use.
    preds: Vec<String>,
    /// Process-unique identity, stamped into persisted [`ChaseState`].
    token: u64,
}

impl Engine {
    /// Build an engine with default configuration.
    pub fn new(program: Program) -> Result<Engine> {
        Engine::with_config(program, EngineConfig::default())
    }

    /// Build an engine with an explicit configuration.
    pub fn with_config(program: Program, config: EngineConfig) -> Result<Engine> {
        let analysis = ProgramAnalysis::analyze(&program)?;
        if config.require_warded && !analysis.warded {
            return Err(KgmError::Analysis(format!(
                "program is not warded: {}",
                analysis.warded_violations.join("; ")
            )));
        }
        let mut meta = Vec::with_capacity(program.rules.len());
        let mut preds: Vec<String> = Vec::new();
        let mut pred_ids: FxHashMap<String, usize> = FxHashMap::default();
        let mut pred_id = |name: &str| -> usize {
            if let Some(&id) = pred_ids.get(name) {
                return id;
            }
            preds.push(name.to_string());
            pred_ids.insert(name.to_string(), preds.len() - 1);
            preds.len() - 1
        };
        for (ri, rule) in program.rules.iter().enumerate() {
            let stratum = rule
                .head
                .iter()
                .map(|h| analysis.stratification.of(&h.predicate))
                .max()
                .unwrap_or(0);
            let agg_mode = analysis.agg_modes.get(&ri).copied();
            let agg_step = rule
                .steps
                .iter()
                .position(|s| matches!(s, RuleStep::Aggregate(_)));
            let mut group_vars: Vec<Var> = Vec::new();
            if let Some(agg) = rule.aggregate() {
                if rule.head.len() != 1 {
                    return Err(KgmError::Analysis(format!(
                        "rule #{ri}: aggregate rules must have exactly one head atom"
                    )));
                }
                let bound: FxHashSet<Var> = rule.bound_vars().into_iter().collect();
                group_vars = rule.head[0]
                    .vars()
                    .filter(|v| *v != agg.target && bound.contains(v))
                    .collect();
                group_vars.sort_unstable();
                group_vars.dedup();
                // Exact mode: post-aggregate steps and the head may only use
                // group vars + the target (other body vars are collapsed by
                // grouping).
                if agg_mode == Some(AggMode::Exact) {
                    let allowed: FxHashSet<Var> = group_vars
                        .iter()
                        .copied()
                        .chain(std::iter::once(agg.target))
                        .collect();
                    for s in &rule.steps[agg_step.expect("agg exists") + 1..] {
                        let mut vs = Vec::new();
                        match s {
                            RuleStep::Condition(e) => e.vars(&mut vs),
                            RuleStep::Assign(_, e) => e.vars(&mut vs),
                            RuleStep::Negated(a) => vs.extend(a.vars()),
                            RuleStep::Aggregate(_) => unreachable!("single aggregate"),
                        }
                        for v in vs {
                            if !allowed.contains(&v) {
                                return Err(KgmError::Analysis(format!(
                                    "rule #{ri}: step after an exact aggregate uses \
                                     non-group variable `{}`",
                                    rule.var_name(v)
                                )));
                            }
                        }
                    }
                }
            }
            let pure_steps = rule
                .steps
                .iter()
                .position(|s| match s {
                    RuleStep::Aggregate(_) => true,
                    RuleStep::Condition(e) | RuleStep::Assign(_, e) => expr_has_skolem(e),
                    RuleStep::Negated(_) => false,
                })
                .unwrap_or(rule.steps.len());
            let body_preds: Vec<usize> = rule.body.iter().map(|a| pred_id(&a.predicate)).collect();
            let head_preds = rule.head.iter().map(|a| pred_id(&a.predicate)).collect();
            let step_preds = rule
                .steps
                .iter()
                .map(|s| match s {
                    RuleStep::Negated(a) => pred_id(&a.predicate),
                    _ => usize::MAX,
                })
                .collect();
            let natural: Vec<usize> = (0..rule.body.len()).collect();
            let natural = compile_order(rule, &natural, &body_preds);
            let full = compile_order(rule, &join_order(rule, None), &body_preds);
            let delta: Vec<Vec<AtomStep>> = (0..rule.body.len())
                .map(|ai| compile_order(rule, &join_order(rule, Some(ai)), &body_preds))
                .collect();
            let index_needs = index_needs(std::iter::once(&natural).chain([&full]).chain(&delta));
            meta.push(RuleMeta {
                stratum,
                group_vars,
                existentials: rule.existential_vars(),
                frontier: rule.frontier(),
                agg_mode,
                agg_step,
                pure_steps,
                body_preds,
                head_preds,
                step_preds,
                natural,
                full,
                delta,
                index_needs,
            });
        }
        Ok(Engine {
            program,
            analysis,
            config,
            skolems: Arc::new(SkolemRegistry::new()),
            meta,
            preds,
            token: ENGINE_TOKENS.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// The analyzed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The analysis results.
    pub fn analysis(&self) -> &ProgramAnalysis {
        &self.analysis
    }

    /// The engine's Skolem registry (shared with MetaLog translations).
    pub fn skolems(&self) -> &Arc<SkolemRegistry> {
        &self.skolems
    }

    /// Load every `@input` binding of the program from `registry` into `db`,
    /// streaming each binding's scan into the store. Each binding gets an
    /// `engine.load_input` span (detail: the predicate) with counters
    /// `rows` (scanned) and `inserted` (new facts).
    pub fn load_inputs(&self, registry: &SourceRegistry, db: &mut FactDb) -> Result<usize> {
        let _span =
            kgm_runtime::span!("engine.load_inputs", "{} inputs", self.program.inputs.len());
        let mut n = 0;
        for b in &self.program.inputs {
            let _input = kgm_runtime::span!("engine.load_input", "{}", b.predicate);
            let scan = registry.scan(b)?;
            let rows = scan.len();
            let inserted = db.add_scan(&b.predicate, scan)?;
            telemetry::record("rows", rows as i64);
            telemetry::record("inserted", inserted as i64);
            n += inserted;
        }
        Ok(n)
    }

    /// Run the chase to fixpoint over `db`.
    ///
    /// Emits a `chase.run` telemetry span with one `chase.stratum` child per
    /// stratum and one `chase.rule` leaf per evaluated rule; the same
    /// numbers are returned in [`RunStats::profile`] regardless of whether
    /// any sink is listening.
    pub fn run(&self, db: &mut FactDb) -> Result<RunStats> {
        let root_span = kgm_runtime::span!(
            "chase.run",
            "{} rules, {} strata",
            self.program.rules.len(),
            self.analysis.stratification.count
        );
        // Provenance recording must be live before any rule fires; program
        // facts (like pre-loaded inputs) get no edges — that edge-lessness
        // is what marks them as EDB leaves in explanation trees.
        if self.config.provenance {
            db.enable_provenance();
        }
        for f in &self.program.facts {
            let tuple: Vec<Value> = f
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(v) => v.clone(),
                    Term::Var(_) => unreachable!("facts are ground"),
                })
                .collect();
            db.insert(&f.predicate, tuple)?;
        }
        self.run_inner(db, &root_span, None, None)
    }

    /// [`Engine::run`], then publish the result as the next serving epoch.
    ///
    /// The epoch carries the run's [`Termination`], so readers pinning a
    /// budget-truncated (graceful-mode) materialization see `complete ==
    /// false` in every [`crate::serving::QueryResponse`] rather than
    /// silently being served a prefix as the full fixpoint. Nothing is
    /// published on `Err` (strict-mode budget errors included) — the layer
    /// keeps serving the previous epoch.
    pub fn run_serving(
        &self,
        db: &mut FactDb,
        serving: &crate::serving::ServingLayer,
    ) -> Result<RunStats> {
        let stats = self.run(db)?;
        serving.publish(db, stats.termination);
        Ok(stats)
    }

    /// [`Engine::apply_update`], then publish the updated database as the
    /// next serving epoch (stamped with the update run's [`Termination`],
    /// same contract as [`Engine::run_serving`]). Readers holding pins keep
    /// their pre-update epoch; new pins see the update applied in full —
    /// never a half-applied DRed deletion.
    pub fn apply_update_serving(
        &self,
        db: &mut FactDb,
        update: Update,
        serving: &crate::serving::ServingLayer,
    ) -> Result<RunStats> {
        let stats = self.apply_update(db, update)?;
        serving.publish(db, stats.termination);
        Ok(stats)
    }

    /// The chase proper, shared by [`Engine::run`] (fresh evaluation) and
    /// [`Engine::apply_update`] (resumed evaluation).
    ///
    /// `seed` switches every stratum from a full first pass to
    /// delta-restricted passes seeded with the given physical watermarks
    /// (indexed by engine predicate id) — the insert-only incremental path:
    /// everything at or past a watermark (new EDB facts and this run's own
    /// derivations) is the delta, everything before it is the already-chased
    /// base.
    ///
    /// `resume` carries a prior run's [`ChaseState`]: the null generator
    /// continues past `null_count` (ids already embedded in stored facts
    /// are never re-minted), and the null/monotonic-aggregate tables pick
    /// up where the prior run stopped. The (possibly updated) state is
    /// re-persisted on `db` at the end of every graceful run.
    fn run_inner(
        &self,
        db: &mut FactDb,
        root_span: &telemetry::SpanGuard,
        seed: Option<&[usize]>,
        resume: Option<ChaseState>,
    ) -> Result<RunStats> {
        let t_run = Instant::now();
        let deadline = self
            .config
            .deadline_ms
            .map(|ms| t_run + Duration::from_millis(ms));
        let governor = Governor {
            deadline,
            stratum_budget: self.config.max_stratum_ms.map(Duration::from_millis),
            max_bytes: self.config.max_bytes,
            max_facts: self.config.max_facts,
            cancel: self.config.cancel.as_ref(),
        };
        let interrupt = InterruptState::new(self.config.cancel.clone(), deadline);
        let faults_before = kgm_runtime::fault::injected_total();
        // Graceful-stop reason, set by `stop_run!` below; `None` means the
        // run either completed or soft-stopped on the iteration cap.
        let mut stop: Option<Termination> = None;
        let mut stats = RunStats::default();
        stats.profile.rules = self
            .program
            .rules
            .iter()
            .enumerate()
            .map(|(ri, rule)| RuleProfile {
                rule: ri,
                head: rule
                    .head
                    .iter()
                    .map(|h| h.predicate.as_str())
                    .collect::<Vec<_>>()
                    .join(","),
                ..RuleProfile::default()
            })
            .collect();
        let prov_edges_before = db.prov_edges();
        let prov_parents_before = db.prov_parent_refs();

        let (null_gen, mut nulls, mut mono) = match resume {
            Some(st) => (
                OidGen::resume(OidSpace::Null, st.null_count),
                st.nulls,
                st.mono,
            ),
            None => (
                OidGen::new(OidSpace::Null),
                FxHashMap::default(),
                FxHashMap::default(),
            ),
        };
        let nulls_base = null_gen.count() as usize;
        // Engine predicate id → relation; insert_out fills in relations as
        // their first tuples arrive.
        let mut rel_ids: Vec<Option<u32>> = self.preds.iter().map(|p| db.pred_id(p)).collect();

        let strata = self.analysis.stratification.count;
        stats.strata = strata;
        'strata: for s in 0..strata {
            let stratum_span = kgm_runtime::span!("chase.stratum", "{s}");
            let t_stratum = Instant::now();
            let iters_before = stats.iterations;
            let derived_before = stats.derived_facts;
            let dups_before = stats.duplicates_rejected;
            let nulls_before = null_gen.count() as usize;
            // Shared stop path for every governed budget. Strict mode keeps
            // the historical erroring behavior; graceful mode records the
            // termination and the stop watermark, closes this stratum's
            // books, and leaves the partial `FactDb` exactly as of the last
            // completed insert batch.
            macro_rules! stop_run {
                ($t:expr) => {{
                    let t = $t;
                    if self.config.strict {
                        return Err(self.budget_error(t, db));
                    }
                    stop = Some(t);
                    stats.stopped_stratum = s;
                    stats.stopped_iteration = stats.iterations - iters_before;
                    self.close_stratum(&mut stats, s, &stratum_span, t_stratum, iters_before,
                        derived_before, dups_before, nulls_before, null_gen.count() as usize);
                    // Tail expression (no semicolon): the macro has type `!`
                    // so it can sit in expression position (match arms).
                    break 'strata
                }};
            }
            macro_rules! governed {
                () => {
                    if let Some(t) = governor.check(db, t_stratum) {
                        stop_run!(t);
                    }
                };
            }
            // 1. Exact aggregate rules of this stratum (body is complete).
            for (ri, rule) in self.program.rules.iter().enumerate() {
                if self.meta[ri].stratum != s {
                    continue;
                }
                if self.meta[ri].agg_mode == Some(AggMode::Exact) {
                    governed!();
                    let t_rule = Instant::now();
                    self.build_indexes(db, &rel_ids, &[ri]);
                    let view = View::new(db, &rel_ids);
                    let new_facts = match self
                        .eval_exact_agg_rule(&view, ri, rule, &null_gen, &mut nulls, &interrupt)
                    {
                        Ok(v) => v,
                        // Interrupted mid-join: the whole rule evaluation is
                        // discarded (nothing was inserted yet), keeping the
                        // database prefix-consistent. Genuine errors still
                        // propagate.
                        Err(e) => match interrupt.hit() {
                            Some(t) => stop_run!(t),
                            None => return Err(e),
                        },
                    };
                    let emitted = new_facts.len;
                    let inserted =
                        self.insert_out(db, &mut rel_ids, new_facts, &mut stats.profile)?;
                    stats.derived_facts += inserted;
                    stats.duplicates_rejected += emitted - inserted;
                    let prof = &mut stats.profile.rules[ri];
                    prof.evaluations += 1;
                    prof.facts_emitted += emitted;
                    prof.elapsed_ms += t_rule.elapsed().as_secs_f64() * 1e3;
                }
            }
            // 2. Semi-naive fixpoint over the remaining rules of the stratum.
            let rules: Vec<usize> = (0..self.program.rules.len())
                .filter(|&ri| {
                    self.meta[ri].stratum == s && self.meta[ri].agg_mode != Some(AggMode::Exact)
                })
                .collect();
            if rules.is_empty() {
                self.close_stratum(&mut stats, s, &stratum_span, t_stratum, iters_before,
                    derived_before, dups_before, nulls_before, null_gen.count() as usize);
                continue;
            }
            // Delta bookkeeping: physical row count per engine predicate
            // before this iteration. A seeded run starts every stratum in
            // delta mode: the seed watermarks (pre-update sizes) make
            // "everything the update added or derived so far" the first delta.
            let (mut first, mut watermark) = match seed {
                None => (true, vec![0; self.preds.len()]),
                Some(base) => (false, base.to_vec()),
            };
            let mut reached_fixpoint = false;
            for _iter in 0..self.config.max_iterations {
                governed!();
                stats.iterations += 1;
                // Freeze the database for this iteration: build every index
                // any rule's join order can probe, so the evaluation phase
                // (possibly running on shard workers) is strictly read-only.
                self.build_indexes(db, &rel_ids, &rules);
                let view = View::new(db, &rel_ids);
                let mut out = Heads::default();
                let mut hit: Option<Termination> = None;
                for &ri in &rules {
                    let rule = &self.program.rules[ri];
                    let result = if first {
                        self.eval_rule(
                            &view,
                            ri,
                            rule,
                            None,
                            &null_gen,
                            &mut nulls,
                            &mut mono,
                            &mut out,
                            &mut stats.profile,
                            &interrupt,
                        )
                    } else {
                        // Delta-restricted runs: one per body atom whose
                        // predicate changed in the previous iteration.
                        let mut r = Ok(());
                        for (ai, &pred) in self.meta[ri].body_preds.iter().enumerate() {
                            let prev = watermark[pred];
                            let cur = view.rows(pred);
                            if cur > prev {
                                r = self.eval_rule(
                                    &view,
                                    ri,
                                    rule,
                                    Some((ai, prev..cur)),
                                    &null_gen,
                                    &mut nulls,
                                    &mut mono,
                                    &mut out,
                                    &mut stats.profile,
                                    &interrupt,
                                );
                                if r.is_err() {
                                    break;
                                }
                            }
                        }
                        r
                    };
                    if let Err(e) = result {
                        match interrupt.hit() {
                            Some(t) => {
                                hit = Some(t);
                                break;
                            }
                            None => return Err(e),
                        }
                    }
                }
                if let Some(t) = hit {
                    // Interrupted mid-evaluation: discard this iteration's
                    // partial `out` so the database stops exactly at the
                    // previous insert batch — the prefix-consistency
                    // guarantee of graceful degradation.
                    drop(out);
                    stop_run!(t);
                }
                // Advance watermarks to the lengths *before* inserting the
                // new facts, so the next iteration's deltas cover them.
                for &ri in &rules {
                    for &pred in &self.meta[ri].body_preds {
                        watermark[pred] = view.rows(pred);
                    }
                }
                let emitted = out.len;
                let inserted = self.insert_out(db, &mut rel_ids, out, &mut stats.profile)?;
                stats.derived_facts += inserted;
                stats.duplicates_rejected += emitted - inserted;
                // Post-insert check (the fact cap's historical timing): the
                // batch that crossed the cap is kept — still a prefix of the
                // unbounded run's insertion order.
                governed!();
                if inserted == 0 {
                    reached_fixpoint = true;
                    break;
                }
                first = false;
            }
            if !reached_fixpoint {
                // The per-stratum iteration cap truncated this fixpoint: a
                // *soft* stop — record it but keep executing later strata,
                // preserving the long-standing `max_iterations` semantics.
                stats.termination = Termination::IterationCap;
                stats.stopped_stratum = s;
                stats.stopped_iteration = stats.iterations - iters_before;
            }
            self.close_stratum(&mut stats, s, &stratum_span, t_stratum, iters_before,
                derived_before, dups_before, nulls_before, null_gen.count() as usize);
        }
        stats.nulls_created = null_gen.count() as usize - nulls_base;
        stats.elapsed_ms = t_run.elapsed().as_secs_f64() * 1e3;
        if let Some(t) = stop {
            // Hard stop: later strata never ran. Make `strata` honest and
            // let the hard reason override any earlier soft IterationCap.
            stats.termination = t;
            stats.strata = stats.profile.strata.len();
        } else if stats.termination.is_complete() {
            stats.stopped_stratum = strata.saturating_sub(1);
            stats.stopped_iteration = stats
                .profile
                .strata
                .last()
                .map(|sp| sp.iterations)
                .unwrap_or(0);
        }
        stats.profile.cancel_polls = interrupt.polls.load(Ordering::Relaxed);
        stats.profile.faults_injected =
            (kgm_runtime::fault::injected_total() - faults_before) as usize;
        stats.profile.prov_edges = db.prov_edges() - prov_edges_before;
        stats.profile.prov_parents = db.prov_parent_refs() - prov_parents_before;
        // Persist the resume state — truncated runs included: the database
        // is prefix-consistent, so continuing (or updating) from it later
        // must still see the minted nulls and accumulated aggregates.
        db.set_chase_state(ChaseState {
            engine_token: self.token,
            null_count: null_gen.count(),
            nulls,
            mono,
        });
        if root_span.is_active() {
            for rp in &stats.profile.rules {
                if rp.evaluations == 0 {
                    continue;
                }
                telemetry::annotate_child(
                    "chase.rule",
                    &rp.head,
                    (rp.elapsed_ms * 1e6) as u128,
                    vec![
                        ("evals".to_string(), rp.evaluations as i64),
                        ("delta_evals".to_string(), rp.delta_evaluations as i64),
                        ("bindings".to_string(), rp.bindings_enumerated as i64),
                        ("emitted".to_string(), rp.facts_emitted as i64),
                    ],
                );
            }
            telemetry::record("derived", stats.derived_facts as i64);
            telemetry::record("duplicates", stats.duplicates_rejected as i64);
            telemetry::record("nulls", stats.nulls_created as i64);
            telemetry::record("shards", stats.profile.shards_spawned as i64);
        }
        telemetry::counter_add("chase.runs", 1);
        telemetry::counter_add("chase.facts_derived", stats.derived_facts as i64);
        telemetry::counter_add("chase.duplicates_rejected", stats.duplicates_rejected as i64);
        telemetry::counter_add("chase.nulls_created", stats.nulls_created as i64);
        if self.config.provenance {
            telemetry::counter_add("chase.prov.edges", stats.profile.prov_edges as i64);
            telemetry::counter_add("chase.prov.parents", stats.profile.prov_parents as i64);
        }
        telemetry::counter_add(
            &format!("chase.termination.{}", stats.termination.as_str()),
            1,
        );
        telemetry::histogram_record("chase.iterations_per_run", stats.iterations as u64);
        Ok(stats)
    }

    /// Build (or catch up) every index the join orders of `rules` can probe,
    /// under one `chase.index_build` span.
    fn build_indexes(&self, db: &mut FactDb, rel_ids: &[Option<u32>], rules: &[usize]) {
        let _span = kgm_runtime::span!("chase.index_build", "{} rules", rules.len());
        for &ri in rules {
            for (pred, positions) in &self.meta[ri].index_needs {
                if let Some(pid) = rel_ids[*pred] {
                    db.ensure_index_at(pid, positions);
                }
            }
        }
    }

    /// The strict-mode error for a governed stop: the historical `Err`
    /// behavior, with messages naming both the configured budget and the
    /// observed value.
    fn budget_error(&self, t: Termination, db: &FactDb) -> KgmError {
        match t {
            Termination::FactCap => KgmError::ResourceExhausted(format!(
                "fact cap exceeded: {} facts > configured max_facts {}",
                db.total_facts(),
                self.config.max_facts
            )),
            Termination::Deadline => KgmError::ResourceExhausted(format!(
                "chase deadline exceeded (deadline_ms={:?}, max_stratum_ms={:?})",
                self.config.deadline_ms, self.config.max_stratum_ms
            )),
            Termination::MemoryBudget => KgmError::ResourceExhausted(format!(
                "memory budget exceeded: ~{} bytes > configured max_bytes {:?}",
                db.approx_bytes(),
                self.config.max_bytes
            )),
            Termination::Cancelled => {
                KgmError::Cancelled("chase cancelled via CancelToken".to_string())
            }
            Termination::Complete | Termination::IterationCap => KgmError::Internal(
                "budget_error called for a non-erroring termination".to_string(),
            ),
        }
    }

    /// Finish one stratum's bookkeeping: push its [`StratumProfile`] and
    /// mirror the counters onto the open `chase.stratum` span.
    #[allow(clippy::too_many_arguments)]
    fn close_stratum(
        &self,
        stats: &mut RunStats,
        s: usize,
        span: &telemetry::SpanGuard,
        t_stratum: Instant,
        iters_before: usize,
        derived_before: usize,
        dups_before: usize,
        nulls_before: usize,
        nulls_now: usize,
    ) {
        let sp = StratumProfile {
            stratum: s,
            iterations: stats.iterations - iters_before,
            derived_facts: stats.derived_facts - derived_before,
            duplicates_rejected: stats.duplicates_rejected - dups_before,
            nulls_minted: nulls_now - nulls_before,
            elapsed_ms: t_stratum.elapsed().as_secs_f64() * 1e3,
        };
        if span.is_active() {
            telemetry::record("iterations", sp.iterations as i64);
            telemetry::record("derived", sp.derived_facts as i64);
            telemetry::record("duplicates", sp.duplicates_rejected as i64);
            telemetry::record("nulls", sp.nulls_minted as i64);
        }
        stats.profile.strata.push(sp);
    }

    /// Convenience: run over the given input facts and return the database.
    pub fn run_with_facts(
        &self,
        inputs: &[(&str, Vec<Vec<Value>>)],
    ) -> Result<(FactDb, RunStats)> {
        let mut db = FactDb::new();
        for (pred, tuples) in inputs {
            db.add_facts(pred, tuples.clone())?;
        }
        let stats = self.run(&mut db)?;
        Ok((db, stats))
    }

    /// Incrementally maintain a database previously materialized by
    /// [`Engine::run`] under an EDB [`Update`] — deletions first, then
    /// insertions — leaving `db` in the state a from-scratch chase over the
    /// updated input would produce (up to labelled-null renaming).
    ///
    /// Three regimes, picked automatically:
    ///
    /// - **Insert-only** (the fast path): the new EDB facts become the
    ///   initial semi-naive delta and every stratum runs delta passes
    ///   against the persisted [`ChaseState`] — existing derivations are
    ///   never re-enumerated, so a small update on a large database costs a
    ///   small fraction of full materialization.
    /// - **Deletions with provenance on**: DRed-style maintenance. The
    ///   recorded `(rule, parents)` edges give each derived fact its single
    ///   recorded support; the downward closure of the deleted facts is
    ///   over-deleted (tombstoned), then a re-derivation pass restores
    ///   every fact that still has an alternative support. The number that
    ///   came back is reported as `update_rederived`.
    /// - **Fallback** (no persisted state, stratified negation, exact
    ///   aggregation combined with inserts, or deletions without
    ///   provenance): every derived row is tombstoned and the chase re-runs
    ///   from the surviving EDB. Always correct, never incremental;
    ///   `update_fallbacks` counts it.
    ///
    /// The update's effect is recorded in the returned stats
    /// (`profile.update_*`) and on the `chase.update.*` telemetry
    /// counters. Requires the same [`Engine`] that materialized `db` when
    /// persisted state exists — a different engine's rule numbering would
    /// reinterpret the state arbitrarily, so that call errors instead.
    pub fn apply_update(&self, db: &mut FactDb, update: Update) -> Result<RunStats> {
        let root_span = kgm_runtime::span!(
            "chase.update",
            "{} inserts, {} deletes",
            update.inserts.len(),
            update.deletes.len()
        );
        let mut state = db.take_chase_state();
        if state.as_ref().is_some_and(|st| st.engine_token != self.token) {
            db.set_chase_state(*state.take().expect("checked above"));
            return Err(KgmError::Constraint(
                "apply_update requires the engine that materialized the database: \
                 the persisted chase state was written by a different engine"
                    .to_string(),
            ));
        }
        let has_negation = self
            .program
            .rules
            .iter()
            .any(|r| r.steps.iter().any(|s| matches!(s, RuleStep::Negated(_))));
        let has_exact_agg = self.meta.iter().any(|m| m.agg_mode == Some(AggMode::Exact));
        // Negation is non-monotone in both directions; an exact aggregate's
        // stale output rows are only cleaned up by deletion's over-delete
        // pass, so inserts alongside one must rebuild; deletions need the
        // recorded provenance edges to know what a fact supported.
        let fallback = state.is_none()
            || has_negation
            || (has_exact_agg && !update.inserts.is_empty())
            || (!update.deletes.is_empty() && !self.config.provenance);
        let mut inserted_new = 0usize;
        let mut deleted = 0usize;
        let mut overdeleted = 0usize;
        let mut rederived = 0usize;
        let mut stats;
        if !fallback && update.deletes.is_empty() {
            // Insert-only: seed every stratum's watermarks with the
            // pre-update physical sizes, making the new EDB facts (and the
            // update run's own derivations) the delta.
            let base: Vec<usize> = self.preds.iter().map(|p| db.rows_of(p)).collect();
            for (pred, tuple) in &update.inserts {
                if db.insert_ref(pred, tuple)? {
                    inserted_new += 1;
                }
            }
            let resume = *state.take().expect("fallback covers the missing-state case");
            stats = self.run_inner(db, &root_span, Some(&base), Some(resume))?;
        } else if !fallback {
            // DRed over-deletion: resolve the requested deletions to live
            // rows, close downward over the recorded provenance edges (the
            // recorded edge is each fact's single support — first
            // derivation wins — so a child dies with any parent), then
            // re-derive; survivors with alternative supports come back.
            let st = *state.take().expect("fallback covers the missing-state case");
            let mut seeds: Vec<FactId> = Vec::new();
            let mut seed_set: FxHashSet<FactId> = FxHashSet::default();
            for (pred, tuple) in &update.deletes {
                if let Some(id) = db.find_id(pred, tuple) {
                    if seed_set.insert(id) {
                        seeds.push(id);
                    }
                }
            }
            let mut children: FxHashMap<FactId, Vec<FactId>> = FxHashMap::default();
            for (child, parents) in db.prov_edges_iter() {
                for &p in parents {
                    children.entry(p).or_default().push(child);
                }
            }
            let mut dead = seed_set.clone();
            let mut queue = seeds.clone();
            while let Some(f) = queue.pop() {
                if let Some(kids) = children.get(&f) {
                    for &k in kids {
                        if dead.insert(k) {
                            queue.push(k);
                        }
                    }
                }
            }
            for &f in &seeds {
                if db.tombstone(f) {
                    deleted += 1;
                }
            }
            // Over-delete the derived remainder, remembering its tuples so
            // the re-derivation pass can report how many came back.
            let mut closure_tuples: Vec<(String, Vec<Value>)> = Vec::new();
            for &f in &dead {
                if seed_set.contains(&f) {
                    continue;
                }
                let tuple = db.fact_values(f).map(|(p, t)| (p.to_string(), t));
                if db.tombstone(f) {
                    overdeleted += 1;
                    if let Some(pt) = tuple {
                        closure_tuples.push(pt);
                    }
                }
            }
            for (pred, tuple) in &update.inserts {
                if db.insert_ref(pred, tuple)? {
                    inserted_new += 1;
                }
            }
            // Full re-derivation passes rebuild alternative supports. The
            // null table is kept (re-derived existential facts reuse their
            // nulls, so surviving facts referencing them stay linked); the
            // monotonic-aggregate accumulators are rebuilt from zero — the
            // old sums may count deleted contributors.
            let resume = ChaseState {
                engine_token: self.token,
                null_count: st.null_count,
                nulls: st.nulls,
                mono: FxHashMap::default(),
            };
            stats = self.run_inner(db, &root_span, None, Some(resume))?;
            rederived = closure_tuples
                .iter()
                .filter(|(p, t)| db.contains(p, t))
                .count();
        } else {
            // Fallback: tombstone everything rule-derived, forget the
            // provenance edges, apply the update to the surviving EDB and
            // re-derive from scratch. The null *counter* still resumes so
            // fresh nulls never collide with ones embedded in kept rows.
            overdeleted = db.tombstone_derived();
            db.clear_prov();
            for (pred, tuple) in &update.deletes {
                if let Some(id) = db.find_id(pred, tuple) {
                    if db.tombstone(id) {
                        deleted += 1;
                    }
                }
            }
            for (pred, tuple) in &update.inserts {
                if db.insert_ref(pred, tuple)? {
                    inserted_new += 1;
                }
            }
            let resume = ChaseState {
                engine_token: self.token,
                null_count: state.map_or(0, |st| st.null_count),
                nulls: FxHashMap::default(),
                mono: FxHashMap::default(),
            };
            stats = self.run_inner(db, &root_span, None, Some(resume))?;
        }
        stats.profile.update_inserted = inserted_new;
        stats.profile.update_deleted = deleted;
        stats.profile.update_overdeleted = overdeleted;
        stats.profile.update_rederived = rederived;
        stats.profile.update_fallbacks = usize::from(fallback);
        telemetry::counter_add("chase.update.runs", 1);
        telemetry::counter_add("chase.update.inserted", inserted_new as i64);
        telemetry::counter_add("chase.update.deleted", deleted as i64);
        telemetry::counter_add("chase.update.overdeleted", overdeleted as i64);
        telemetry::counter_add("chase.update.rederived", rederived as i64);
        if fallback {
            telemetry::counter_add("chase.update.fallbacks", 1);
        }
        Ok(stats)
    }

    /// Insert a batch of emitted head tuples into `db`, in emission order,
    /// returning how many were new.
    ///
    /// The single writer first interns the batch's pending values (in
    /// order of first reference) and rewrites their tagged ids, so every
    /// record is exact ids; dedup then compares class ids only. It runs as
    /// a verdict phase: candidates are hash-partitioned across workers, each
    /// worker owning one slice of the tuple-hash space and issuing a verdict
    /// per candidate (frozen-store probe plus first-occurrence-in-batch;
    /// equal tuples always share a partition). One thread, or a batch under
    /// `min_parallel_batch`, makes that a single partition run inline. The
    /// serial apply then walks the batch in the original order acting on
    /// the verdicts. Verdicts are a pure function of the frozen store and
    /// the batch — the partition count only divides the work — and the
    /// apply loop visits every candidate in exactly the sequential order
    /// (fault-injection checkpoints included), so the insertion order, and
    /// therefore every downstream delta range, null OID and counter, is
    /// bit-identical at any `KGM_THREADS`.
    ///
    /// With `EngineConfig::provenance` on, the entry of each tuple that
    /// actually inserts becomes its derivation edge (first derivation wins
    /// — duplicates never touch the store), keyed by the new [`FactId`].
    /// Because the insertion order is bit-identical at any thread count,
    /// so is the recorded edge set.
    ///
    /// `rel_ids` maps engine predicate ids to relations; a predicate's
    /// relation is created at its first inserted tuple.
    fn insert_out(
        &self,
        db: &mut FactDb,
        rel_ids: &mut [Option<u32>],
        out: Heads,
        profile: &mut ChaseProfile,
    ) -> Result<usize> {
        let span = kgm_runtime::span!("chase.insert", "{} facts", out.len);
        let Heads {
            mut ids,
            pending,
            prov,
            len,
        } = out;
        let record = self.config.provenance;
        debug_assert!(!record || prov.len() == len, "prov sidecar misaligned");
        // Record bounds, with pending values interned on first reference.
        let mut recs: Vec<(usize, u64)> = Vec::with_capacity(len);
        let mut resolved: Vec<u64> = vec![UNBOUND; pending.len()];
        let pool = db.pool_mut();
        let mut at = 0;
        while at < ids.len() {
            let header = ids[at];
            let arity = (header & ARITY_MASK) as usize;
            for id in &mut ids[at + 1..at + 1 + arity] {
                if let Some(i) = pending_index(*id) {
                    if resolved[i] == UNBOUND {
                        resolved[i] = pool.intern(&pending[i]);
                    }
                    *id = resolved[i];
                }
            }
            recs.push((at + 1, header));
            at += 1 + arity;
        }
        let classes = db.pool().classes();
        let rows: Vec<BatchRow<'_>> = recs
            .iter()
            .map(|&(start, header)| {
                let pred = (header >> 32) as u32;
                let tuple = &ids[start..start + (header & ARITY_MASK) as usize];
                BatchRow {
                    pred,
                    rel: rel_ids[pred as usize],
                    ids: tuple,
                    hash: class_hash(tuple, classes),
                }
            })
            .collect();
        let threads = self.config.threads;
        let partitions = if threads > 1 && len >= self.config.min_parallel_batch.max(1) {
            profile.merge_partitions += threads.min(len).max(1);
            threads
        } else {
            1
        };
        let verdicts = db.insert_batch_verdicts(&rows, partitions);
        let dedup_hits = (0..len)
            .filter(|&i| recs[i].1 & SHARDED != 0 && verdicts[i] == Verdict::Present)
            .count();
        let mut inserted = 0usize;
        for (i, row) in rows.iter().enumerate() {
            let pred = row.pred as usize;
            if let Some(msg) = kgm_runtime::fault::trip("chase.insert") {
                return Err(KgmError::Internal(format!("{msg} ({})", self.preds[pred])));
            }
            let pid = match rel_ids[pred] {
                Some(pid) => pid,
                None => {
                    let pid = db.relation_id(&self.preds[pred], row.ids.len())?;
                    rel_ids[pred] = Some(pid);
                    pid
                }
            };
            db.check_arity(pid, row.ids.len())?;
            let novel = verdicts[i] == Verdict::Insert;
            debug_assert!(
                !novel
                    || db
                        .rel_at(pid)
                        .find_ids(row.hash, row.ids, db.pool().classes())
                        .is_none(),
                "merge verdict diverged on `{}`",
                self.preds[pred]
            );
            if novel {
                let id = db.append_derived(pid, row.hash, row.ids)?;
                if record {
                    let (rule, parents) = &prov[i];
                    db.record_prov(id, *rule, parents);
                }
                inserted += 1;
            }
        }
        profile.merge_dedup_hits += dedup_hits;
        if span.is_active() {
            telemetry::record("inserted", inserted as i64);
            telemetry::record("dedup_hits", dedup_hits as i64);
        }
        Ok(inserted)
    }

    // -----------------------------------------------------------------
    // Rule evaluation
    // -----------------------------------------------------------------

    /// Resolve the compiled join order `steps` and the heads of rule `ri`
    /// against the frozen pool: constant key columns become class ids, head
    /// constants exact ids. Runs once per rule evaluation.
    fn plan<'r>(&self, view: &View, ri: usize, steps: &'r [AtomStep]) -> Plan<'r> {
        let keys = steps
            .iter()
            .map(|step| {
                step.key
                    .iter()
                    .map(|k| match k {
                        KeyTerm::Const(v) => view.pool.lookup(v),
                        KeyTerm::Slot(_) => Some(0),
                    })
                    .collect()
            })
            .collect();
        let rule = &self.program.rules[ri];
        let heads = rule
            .head
            .iter()
            .zip(&self.meta[ri].head_preds)
            .map(|(h, &pred)| {
                let terms = h
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(v) => view
                            .pool
                            .find_exact(v)
                            .map_or_else(|| HeadTerm::Value(v.clone()), HeadTerm::Id),
                        Term::Var(v) => HeadTerm::Slot(v.0 as usize),
                    })
                    .collect();
                (((pred as u64) << 32) | h.terms.len() as u64, terms)
            })
            .collect();
        Plan { steps, keys, heads }
    }

    /// Evaluate one rule over the frozen `view`, appending emitted head
    /// tuples to `out`.
    ///
    /// When the configured thread count allows it and the outermost join
    /// atom's scan range is large enough, dispatches to
    /// [`Engine::eval_rule_sharded`]; both paths enumerate matches in the
    /// same order and produce identical `out` contents.
    #[allow(clippy::too_many_arguments)]
    fn eval_rule(
        &self,
        view: &View,
        ri: usize,
        rule: &Rule,
        delta: Option<(usize, Range<usize>)>,
        null_gen: &OidGen,
        nulls: &mut FxHashMap<(usize, Var, Vec<Value>), Oid>,
        mono: &mut FxHashMap<(usize, Vec<Value>), MonoState>,
        out: &mut Heads,
        profile: &mut ChaseProfile,
        interrupt: &InterruptState,
    ) -> Result<()> {
        let meta = &self.meta[ri];
        // A full pass is equivalent to a delta pass over atom 0's complete
        // range: `join_order` always picks atom 0 first when nothing is
        // bound, and the delta only restricts the outermost scan. That
        // equivalence is what lets one sharding scheme cover both cases.
        let (shard_atom, shard_range) = match &delta {
            Some((ai, r)) => (*ai, r.clone()),
            None => (0, 0..meta.body_preds.first().map_or(0, |&p| view.rows(p))),
        };
        if self.config.threads > 1
            && !rule.body.is_empty()
            && shard_range.len() >= self.config.min_parallel_batch.max(1)
        {
            return self.eval_rule_sharded(
                view,
                ri,
                rule,
                shard_atom,
                shard_range,
                delta.is_some(),
                null_gen,
                nulls,
                mono,
                out,
                profile,
                interrupt,
            );
        }
        let t_rule = Instant::now();
        let emitted_before = out.len;
        let mut bindings = 0usize;
        let mut binding: Vec<u64> = vec![UNBOUND; rule.var_names.len()];
        let mut trail: Vec<FactId> = Vec::new();
        let steps = match &delta {
            Some((ai, _)) => &meta.delta[*ai],
            None => &meta.full,
        };
        let plan = self.plan(view, ri, steps);
        let result = self.join(
            view,
            &plan,
            0,
            &delta,
            &mut binding,
            &mut trail,
            interrupt,
            &mut |binding, trail| {
                bindings += 1;
                self.fire(
                    view, &plan, ri, rule, binding, trail, null_gen, nulls, mono, out,
                )
            },
        );
        let prof = &mut profile.rules[ri];
        prof.evaluations += 1;
        if delta.is_some() {
            prof.delta_evaluations += 1;
        }
        prof.bindings_enumerated += bindings;
        prof.facts_emitted += out.len - emitted_before;
        prof.elapsed_ms += t_rule.elapsed().as_secs_f64() * 1e3;
        result
    }

    /// Parallel rule evaluation: shard the outermost atom's scan range
    /// across workers, then merge in shard order.
    ///
    /// Each worker runs the join over its contiguous slice of `shard_range`
    /// against the frozen database and applies the rule's *pure* step prefix
    /// (`RuleMeta::pure_steps`), collecting surviving bindings locally. The
    /// single writer then replays the shard outputs **in shard order** —
    /// concatenated, that is exactly the sequential enumeration order —
    /// running the order-sensitive suffix (monotonic aggregate updates,
    /// Skolem minting) and `emit_heads` (labelled-null minting). Output is
    /// therefore bit-identical to the sequential path for any thread count.
    ///
    /// Workers never touch telemetry (spans are thread-local) nor shared
    /// mutable state; errors are surfaced in shard order, so the earliest
    /// failing match wins, as it would sequentially.
    #[allow(clippy::too_many_arguments)]
    fn eval_rule_sharded(
        &self,
        view: &View,
        ri: usize,
        rule: &Rule,
        shard_atom: usize,
        shard_range: Range<usize>,
        is_delta: bool,
        null_gen: &OidGen,
        nulls: &mut FxHashMap<(usize, Var, Vec<Value>), Oid>,
        mono: &mut FxHashMap<(usize, Vec<Value>), MonoState>,
        out: &mut Heads,
        profile: &mut ChaseProfile,
        interrupt: &InterruptState,
    ) -> Result<()> {
        struct ShardOut {
            /// Head tuples emitted by this worker (fully pure rules only),
            /// in enumeration order; its pending table also holds the
            /// values the survivors' pure-prefix assignments bound.
            heads: Heads,
            /// Bindings that completed the join and survived the pure step
            /// prefix, in enumeration order, one `n_vars` stride each.
            /// Empty for fully pure rules, whose workers emit heads directly.
            survivors: Vec<u64>,
            /// Number of bindings in `survivors`.
            n_survivors: usize,
            /// Provenance: body-atom-order parent fact ids per survivor,
            /// aligned with `survivors`. Empty when provenance is off.
            trails: Vec<Box<[FactId]>>,
            /// Matches that survived the pure step prefix.
            survived: usize,
            /// Complete body matches enumerated (pre-filter).
            enumerated: usize,
        }
        let t_rule = Instant::now();
        let emitted_before = out.len;
        let pure_end = self.meta[ri].pure_steps;
        let n_vars = rule.var_names.len();
        // A rule whose every step is pure and whose head mints no labelled
        // nulls has nothing left for the writer to replay: workers emit the
        // head tuples themselves, and the merge is a shard-order
        // concatenation (identical to the sequential emission order).
        let fully_pure = pure_end == rule.steps.len() && self.meta[ri].existentials.is_empty();
        let plan = self.plan(view, ri, &self.meta[ri].delta[shard_atom]);
        let shards = kgm_runtime::par::split_range(shard_range, self.config.threads);
        let span = kgm_runtime::span_debug!(
            "chase.shard_eval",
            "rule {ri}: {} shard(s)",
            shards.len()
        );
        let results: Vec<Result<ShardOut>> =
            kgm_runtime::par::par_map(&shards, shards.len(), |r| {
                // A panicking worker must not abort the whole process via
                // `map_shards`' join: catch it here and surface a structured
                // error carrying the rule id instead. The chase state is
                // safe to keep — workers only read the frozen database.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if kgm_runtime::fault::should_inject("chase.shard") {
                        panic!("injected fault at chase.shard");
                    }
                    let mut so = ShardOut {
                        heads: Heads::default(),
                        survivors: Vec::new(),
                        n_survivors: 0,
                        trails: Vec::new(),
                        survived: 0,
                        enumerated: 0,
                    };
                    let prov = self.config.provenance;
                    let mut binding: Vec<u64> = vec![UNBOUND; n_vars];
                    let mut trail: Vec<FactId> = Vec::new();
                    // The pure prefix stops before any Aggregate step, so this
                    // map is never consulted; it only satisfies `run_steps`.
                    let mut no_mono: FxHashMap<(usize, Vec<Value>), MonoState> =
                        FxHashMap::default();
                    // Likewise: `emit_heads` on a fully pure rule (no
                    // existentials) never touches the null table.
                    let mut no_nulls: FxHashMap<(usize, Var, Vec<Value>), Oid> =
                        FxHashMap::default();
                    let delta = Some((shard_atom, r.clone()));
                    self.join(
                        view,
                        &plan,
                        0,
                        &delta,
                        &mut binding,
                        &mut trail,
                        interrupt,
                        &mut |binding, trail| {
                            so.enumerated += 1;
                            let mut parents = self.body_order_parents(&plan, trail);
                            let mark = so.heads.pending.len();
                            let mut assigned: Vec<Var> = Vec::new();
                            let keep = self.run_steps(
                                view,
                                ri,
                                rule,
                                0..pure_end,
                                binding,
                                &mut so.heads.pending,
                                &mut assigned,
                                &mut no_mono,
                                &mut parents,
                            );
                            let keep = match keep {
                                Ok(k) => k,
                                Err(e) => {
                                    unbind(binding, &assigned);
                                    return Err(e);
                                }
                            };
                            if keep {
                                so.survived += 1;
                                if fully_pure {
                                    self.emit_heads(
                                        view.pool,
                                        &plan,
                                        ri,
                                        binding,
                                        null_gen,
                                        &mut no_nulls,
                                        &mut so.heads,
                                        &parents,
                                        SHARDED,
                                    )?;
                                } else {
                                    so.survivors.extend_from_slice(binding);
                                    so.n_survivors += 1;
                                    if prov {
                                        so.trails.push(parents.into_boxed_slice());
                                    }
                                }
                            } else {
                                so.heads.pending.truncate(mark);
                            }
                            unbind(binding, &assigned);
                            Ok(())
                        },
                    )?;
                    Ok(so)
                }))
                .unwrap_or_else(|payload| {
                    Err(KgmError::Internal(format!(
                        "chase shard worker panicked evaluating rule {ri}: {}",
                        panic_message(&*payload)
                    )))
                })
            });
        let shards_spawned = results.len();
        let mut enumerated = 0usize;
        let mut candidates = 0usize;
        let mut binding: Vec<u64> = vec![UNBOUND; n_vars];
        for res in results {
            let so = res?;
            enumerated += so.enumerated;
            candidates += so.survived;
            // Fully pure rules: shard-order concatenation of worker-emitted
            // heads *is* the sequential emission order.
            let offset = out.append(so.heads);
            let mut trails = so.trails.into_iter();
            for k in 0..so.n_survivors {
                // A fresh copy per survivor: no undo needed between them.
                binding.copy_from_slice(&so.survivors[k * n_vars..(k + 1) * n_vars]);
                rebase(&mut binding, offset);
                let mut parents: Vec<FactId> =
                    trails.next().map(|t| t.into_vec()).unwrap_or_default();
                let mark = out.pending.len();
                let mut assigned: Vec<Var> = Vec::new();
                let keep = self.run_steps(
                    view,
                    ri,
                    rule,
                    pure_end..rule.steps.len(),
                    &mut binding,
                    &mut out.pending,
                    &mut assigned,
                    mono,
                    &mut parents,
                )?;
                if keep {
                    self.emit_heads(
                        view.pool, &plan, ri, &binding, null_gen, nulls, out, &parents, SHARDED,
                    )?;
                } else {
                    out.pending.truncate(mark);
                }
            }
        }
        profile.shards_spawned += shards_spawned;
        profile.worker_candidates += candidates;
        if span.is_active() {
            telemetry::record("shards", shards_spawned as i64);
            telemetry::record("candidates", candidates as i64);
        }
        telemetry::counter_add("chase.shards_spawned", shards_spawned as i64);
        let prof = &mut profile.rules[ri];
        prof.evaluations += 1;
        if is_delta {
            prof.delta_evaluations += 1;
        }
        prof.bindings_enumerated += enumerated;
        prof.facts_emitted += out.len - emitted_before;
        prof.elapsed_ms += t_rule.elapsed().as_secs_f64() * 1e3;
        Ok(())
    }

    /// Join the body atoms of `plan.steps[pos..]`, invoking `on_match` on
    /// full matches. Starting the order at the delta atom is what makes the
    /// semi-naive evaluation actually incremental: all other atoms then
    /// join through bound variables instead of rescanning their relations.
    ///
    /// The binding holds exact ids; index keys and the repeated-variable
    /// check compare class ids. With provenance on, `trail` carries the
    /// [`FactId`] of each matched atom along the descent (join order — one
    /// id per `plan.steps[..pos]` entry), handed to `on_match` alongside the
    /// binding; it stays empty otherwise.
    #[allow(clippy::too_many_arguments)]
    fn join(
        &self,
        view: &View,
        plan: &Plan,
        pos: usize,
        delta: &Option<(usize, Range<usize>)>,
        binding: &mut [u64],
        trail: &mut Vec<FactId>,
        interrupt: &InterruptState,
        on_match: &mut OnMatch,
    ) -> Result<()> {
        if interrupt.interrupted() {
            // Unwind out of the binding loops with the sentinel; `run`
            // translates it into a graceful stop (or a proper strict error).
            return Err(interrupt_sentinel());
        }
        let Some(step) = plan.steps.get(pos) else {
            return on_match(binding, trail);
        };
        let Some(rel) = view.rels[step.pred] else {
            return Ok(());
        };
        if rel.arity != step.arity {
            return Err(KgmError::Schema(format!(
                "atom `{}` has arity {}, relation has {}",
                self.preds[step.pred], step.arity, rel.arity
            )));
        }
        // A constant the pool never interned cannot appear in any stored
        // tuple, so this atom has no match.
        let Some(template) = &plan.keys[pos] else {
            return Ok(());
        };
        let classes = view.classes;
        let mut small = [0u64; 8];
        let mut large: Vec<u64>;
        let key: &mut [u64] = if template.len() <= small.len() {
            &mut small[..template.len()]
        } else {
            large = vec![0; template.len()];
            &mut large
        };
        for ((k, &t), term) in key.iter_mut().zip(template).zip(&step.key) {
            *k = match term {
                KeyTerm::Const(_) => t,
                KeyTerm::Slot(s) => classes[binding[*s] as usize],
            };
        }
        let range = match delta {
            Some((ai, r)) if *ai == step.atom => r.clone(),
            _ => 0..rel.rows(),
        };
        for row in rel.lookup(&step.positions, key, &range, classes) {
            let r = row as usize;
            for &(col, slot) in &step.binds {
                binding[slot] = rel.id_at(r, col);
            }
            let repeats_agree = step.checks.iter().all(|&(col, slot)| {
                classes[binding[slot] as usize] == classes[rel.id_at(r, col) as usize]
            });
            if repeats_agree {
                if self.config.provenance {
                    trail.push(fact_id(rel.pred_id, row));
                }
                self.join(
                    view,
                    plan,
                    pos + 1,
                    delta,
                    binding,
                    trail,
                    interrupt,
                    on_match,
                )?;
                if self.config.provenance {
                    trail.pop();
                }
            }
        }
        for &(_, slot) in &step.binds {
            binding[slot] = UNBOUND;
        }
        Ok(())
    }

    /// Reorder a join-order `trail` to body-atom order: parent ids must not
    /// depend on which atom carried the delta. Empty when provenance is off.
    fn body_order_parents(&self, plan: &Plan, trail: &[FactId]) -> Vec<FactId> {
        let mut parents: Vec<FactId> = Vec::new();
        if self.config.provenance {
            parents = vec![0; trail.len()];
            for (step, &id) in plan.steps.iter().zip(trail) {
                parents[step.atom] = id;
            }
        }
        parents
    }

    /// Run the rule steps in `range` against `binding`, pushing every
    /// variable it binds onto `assigned` (the caller undoes them when the
    /// binding is reused across matches). Values the steps compute go to
    /// `pending`, which `binding`'s tagged ids index. Returns `Ok(false)`
    /// when a condition, negation, or idempotent aggregate update filtered
    /// the match out.
    ///
    /// `edge_parents` is the provenance in/out slot: callers initialize it
    /// with the match's own body-atom parent ids; a monotonic-aggregate
    /// step that fires replaces it with the accumulated parents of *every*
    /// contributing match, since the emitted value depends on all of them.
    /// Untouched (and expected empty) when provenance is off.
    #[allow(clippy::too_many_arguments, clippy::ptr_arg)]
    fn run_steps(
        &self,
        view: &View,
        ri: usize,
        rule: &Rule,
        range: Range<usize>,
        binding: &mut [u64],
        pending: &mut Vec<Value>,
        assigned: &mut Vec<Var>,
        mono: &mut FxHashMap<(usize, Vec<Value>), MonoState>,
        edge_parents: &mut Vec<FactId>,
    ) -> Result<bool> {
        let ctx = EvalCtx {
            skolems: &self.skolems,
        };
        let first = range.start;
        for (si, step) in rule.steps[range].iter().enumerate() {
            let vars = IdVars {
                binding,
                pool: view.pool,
                pending,
            };
            let bound = match step {
                RuleStep::Condition(e) => {
                    match eval_in(e, &vars, &ctx)? {
                        Value::Bool(true) => continue,
                        Value::Bool(false) => return Ok(false),
                        other => {
                            return Err(KgmError::Type(format!(
                                "condition evaluated to non-bool {other:?}"
                            )))
                        }
                    }
                },
                RuleStep::Assign(v, e) => (*v, eval_in(e, &vars, &ctx)?),
                RuleStep::Negated(a) => {
                    if self.stored(view, self.meta[ri].step_preds[first + si], &a.terms, &vars) {
                        return Ok(false);
                    }
                    continue;
                }
                RuleStep::Aggregate(agg) => {
                    // Only monotonic aggregates reach the fixpoint path.
                    let func = match self.meta[ri].agg_mode {
                        Some(AggMode::Monotonic(f)) => f,
                        _ => {
                            return Err(KgmError::Internal(
                                "exact aggregate in fixpoint path".to_string(),
                            ))
                        }
                    };
                    let group: Vec<Value> = self.meta[ri]
                        .group_vars
                        .iter()
                        .map(|&v| vars.bound(v))
                        .collect();
                    let contrib_key: Vec<Value> =
                        agg.contributors.iter().map(|&v| vars.bound(v)).collect();
                    let val = match &agg.arg {
                        Some(e) => eval_in(e, &vars, &ctx)?,
                        None => Value::Int(1),
                    };
                    let state = mono.entry((ri, group)).or_insert_with(|| MonoState {
                        contributors: FxHashMap::default(),
                        current: initial_value(func),
                        parents: Vec::new(),
                    });
                    if state.contributors.contains_key(&contrib_key) {
                        // Idempotent re-contribution: nothing new.
                        return Ok(false);
                    }
                    let updated = combine(func, &state.current, &val)?;
                    let changed = updated != state.current;
                    state.contributors.insert(contrib_key, val);
                    state.current = updated.clone();
                    if self.config.provenance {
                        // Every new contributor joins the group's parent
                        // set, whether or not the accumulator moved.
                        state.parents.extend_from_slice(edge_parents);
                    }
                    if !changed {
                        // The aggregate did not move; nothing new to emit.
                        return Ok(false);
                    }
                    if self.config.provenance {
                        // A firing's value is a fold over the whole
                        // group: its edge carries the full snapshot.
                        edge_parents.clear();
                        edge_parents.extend_from_slice(&state.parents);
                    }
                    (agg.target, updated)
                }
            };
            let (v, val) = bound;
            pending.push(val);
            binding[v.0 as usize] = PENDING | (pending.len() - 1) as u64;
            assigned.push(v);
        }
        Ok(true)
    }

    /// Negation probe: is the atom `pred(terms)` under `vars` stored? Probes
    /// class ids; a value no stored value equals settles it as absent.
    fn stored(&self, view: &View, pred: usize, terms: &[Term], vars: &IdVars) -> bool {
        let Some(rel) = view.rels[pred] else {
            return false;
        };
        if rel.arity != terms.len() {
            return false;
        }
        let mut key: Vec<u64> = Vec::with_capacity(terms.len());
        for t in terms {
            let class = match t {
                Term::Const(v) => view.pool.lookup(v),
                Term::Var(v) => {
                    let id = vars.binding[v.0 as usize];
                    assert!(id != UNBOUND, "safety-checked bound");
                    vars.class(id)
                }
            };
            match class {
                Some(c) => key.push(c),
                None => return false,
            }
        }
        rel.find_key(&key, view.classes).is_some()
    }

    /// Process steps and emit heads for one complete body match. `trail`
    /// holds the matched facts' ids in join order; empty when provenance is
    /// off.
    #[allow(clippy::too_many_arguments)]
    fn fire(
        &self,
        view: &View,
        plan: &Plan,
        ri: usize,
        rule: &Rule,
        binding: &mut [u64],
        trail: &[FactId],
        null_gen: &OidGen,
        nulls: &mut FxHashMap<(usize, Var, Vec<Value>), Oid>,
        mono: &mut FxHashMap<(usize, Vec<Value>), MonoState>,
        out: &mut Heads,
    ) -> Result<()> {
        let mut parents = self.body_order_parents(plan, trail);
        // Variables assigned by steps must be undone before returning so
        // sibling matches start clean; so must the values they parked.
        let mark = out.pending.len();
        let mut assigned: Vec<Var> = Vec::new();
        let result = self.run_steps(
            view,
            ri,
            rule,
            0..rule.steps.len(),
            binding,
            &mut out.pending,
            &mut assigned,
            mono,
            &mut parents,
        );
        let emit = match result {
            Ok(b) => b,
            Err(e) => {
                unbind(binding, &assigned);
                return Err(e);
            }
        };
        if emit {
            self.emit_heads(
                view.pool, plan, ri, binding, null_gen, nulls, out, &parents, 0,
            )?;
        } else {
            out.pending.truncate(mark);
        }
        unbind(binding, &assigned);
        Ok(())
    }

    /// Emit the rule's head tuples for one surviving binding into `out`,
    /// whose pending table `binding`'s tagged ids index. With provenance
    /// on, each emitted tuple gets a matching `(rule, parents)` entry (all
    /// heads of one firing share the parents). `flags` go into each record
    /// header.
    #[allow(clippy::too_many_arguments)]
    fn emit_heads(
        &self,
        pool: &ValuePool,
        plan: &Plan,
        ri: usize,
        binding: &[u64],
        null_gen: &OidGen,
        nulls: &mut FxHashMap<(usize, Var, Vec<Value>), Oid>,
        out: &mut Heads,
        parents: &[FactId],
        flags: u64,
    ) -> Result<()> {
        // Mint (or reuse) labelled nulls for the rule's existentials, keyed
        // by the frontier values (Skolem chase).
        let meta = &self.meta[ri];
        let mut null_ids: Vec<(usize, u64)> = Vec::new();
        if !meta.existentials.is_empty() {
            let vars = IdVars {
                binding,
                pool,
                pending: &out.pending,
            };
            let frontier: Vec<Value> = meta.frontier.iter().map(|&v| vars.bound(v)).collect();
            for &v in &meta.existentials {
                let oid = *nulls
                    .entry((ri, v, frontier.clone()))
                    .or_insert_with(|| null_gen.fresh());
                null_ids.push((v.0 as usize, out.push_value(Value::Oid(oid))));
            }
        }
        for (header, terms) in &plan.heads {
            out.ids.push(header | flags);
            for t in terms {
                let id = match t {
                    HeadTerm::Id(id) => *id,
                    HeadTerm::Value(v) => out.push_value(v.clone()),
                    HeadTerm::Slot(s) => match binding[*s] {
                        UNBOUND => {
                            null_ids
                                .iter()
                                .find(|(slot, _)| slot == s)
                                .expect("an unbound head variable is existential")
                                .1
                        }
                        id => id,
                    },
                };
                out.ids.push(id);
            }
            out.len += 1;
            if self.config.provenance {
                out.prov.push((ri as u32, parents.into()));
            }
        }
        Ok(())
    }

    /// Evaluate one exact-aggregate rule: body relations are complete, so a
    /// single pass collects contributions, grouping produces the final
    /// values, and post-aggregate steps run once per group. Returns the
    /// emitted head tuples (each group's heads carry the parents of all its
    /// contributing matches; empty sidecar when provenance is off).
    fn eval_exact_agg_rule(
        &self,
        view: &View,
        ri: usize,
        rule: &Rule,
        null_gen: &OidGen,
        nulls: &mut FxHashMap<(usize, Var, Vec<Value>), Oid>,
        interrupt: &InterruptState,
    ) -> Result<Heads> {
        let meta = &self.meta[ri];
        let agg_step = meta.agg_step.expect("exact agg rule");
        let agg = rule.aggregate().expect("exact agg rule").clone();
        let func = agg.func;
        let ctx = EvalCtx {
            skolems: &self.skolems,
        };

        // Pass 1: collect (group, contributor, value) from all body matches,
        // running pre-aggregate steps inline.
        struct Group {
            contributors: FxHashMap<Vec<Value>, Value>,
            order: Vec<Vec<Value>>,
            /// Provenance: parent fact ids of every counted contribution,
            /// in contribution order (empty when provenance is off).
            parents: Vec<FactId>,
        }
        let prov = self.config.provenance;
        let mut groups: FxHashMap<Vec<Value>, Group> = FxHashMap::default();
        let n_vars = rule.var_names.len();
        let mut binding: Vec<u64> = vec![UNBOUND; n_vars];
        let mut trail: Vec<FactId> = Vec::new();
        let mut out = Heads::default();
        let mut no_mono: FxHashMap<(usize, Vec<Value>), MonoState> = FxHashMap::default();
        // Natural atom order — so the trail is already in body-atom order.
        let plan = self.plan(view, ri, &meta.natural);
        self.join(view, &plan, 0, &None, &mut binding, &mut trail, interrupt, &mut |binding, trail| {
            // An error aborts the whole evaluation, so it needs no undo.
            let mut assigned: Vec<Var> = Vec::new();
            let keep = self.run_steps(
                view, ri, rule, 0..agg_step, binding, &mut out.pending, &mut assigned,
                &mut no_mono, &mut Vec::new(),
            )?;
            if keep {
                let vars = IdVars {
                    binding,
                    pool: view.pool,
                    pending: &out.pending,
                };
                let gk: Vec<Value> = meta.group_vars.iter().map(|&v| vars.bound(v)).collect();
                // Contributor key: the ⟨z̄⟩ variables if given, otherwise the
                // full binding of positive vars (every match contributes).
                let ck: Vec<Value> = if agg.contributors.is_empty() {
                    binding
                        .iter()
                        .filter(|&&id| id != UNBOUND)
                        .map(|&id| vars.get(id).clone())
                        .collect()
                } else {
                    agg.contributors.iter().map(|&v| vars.bound(v)).collect()
                };
                let val = match &agg.arg {
                    Some(e) => eval_in(e, &vars, &ctx)?,
                    None => Value::Int(1),
                };
                let g = groups.entry(gk).or_insert_with(|| Group {
                    contributors: FxHashMap::default(),
                    order: Vec::new(),
                    parents: Vec::new(),
                });
                if !g.contributors.contains_key(&ck) {
                    g.contributors.insert(ck.clone(), val);
                    g.order.push(ck);
                    if prov {
                        g.parents.extend_from_slice(trail);
                    }
                }
            }
            unbind(binding, &assigned);
            out.pending.clear();
            Ok(())
        })?;

        // Pass 2: fold each group and run post-aggregate steps + heads.
        for (gk, group) in groups {
            let mut acc = initial_value(func);
            let mut n = 0usize;
            for ck in &group.order {
                acc = combine(func, &acc, &group.contributors[ck])?;
                n += 1;
            }
            if func == AggregateFunc::Avg && n > 0 {
                acc = crate::eval::bin(
                    crate::ast::BinOp::Div,
                    &acc,
                    &Value::Int(n as i64),
                )?;
            }
            let mark = out.pending.len();
            binding.fill(UNBOUND);
            for (v, val) in meta.group_vars.iter().zip(gk) {
                binding[v.0 as usize] = out.push_value(val);
            }
            binding[agg.target.0 as usize] = out.push_value(acc);
            let keep = self.run_steps(
                view,
                ri,
                rule,
                agg_step + 1..rule.steps.len(),
                &mut binding,
                &mut out.pending,
                &mut Vec::new(),
                &mut no_mono,
                &mut Vec::new(),
            )?;
            if keep {
                self.emit_heads(
                    view.pool,
                    &plan,
                    ri,
                    &binding,
                    null_gen,
                    nulls,
                    &mut out,
                    &group.parents,
                    0,
                )?;
            } else {
                out.pending.truncate(mark);
            }
        }
        Ok(out)
    }
}

/// Reset the slots of `assigned` variables to unbound.
fn unbind(binding: &mut [u64], assigned: &[Var]) {
    for v in assigned {
        binding[v.0 as usize] = UNBOUND;
    }
}

/// Choose the atom evaluation order: the delta atom (if any) first, then
/// greedily the atom sharing the most already-bound variables (ties by
/// written order). Constants count as bound.
fn join_order(rule: &Rule, delta_atom: Option<usize>) -> Vec<usize> {
    let n = rule.body.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut bound: FxHashSet<Var> = FxHashSet::default();
    if let Some(ai) = delta_atom {
        order.push(ai);
        remaining.retain(|&x| x != ai);
        bound.extend(rule.body[ai].vars());
    }
    while !remaining.is_empty() {
        let (pick_pos, &pick) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(i, &a)| {
                let shared = rule.body[a].vars().filter(|v| bound.contains(v)).count();
                // Prefer more shared vars; tie-break towards written order
                // (earlier atoms win, hence the negated index).
                (shared, usize::MAX - *i)
            })
            .expect("non-empty");
        order.push(pick);
        remaining.remove(pick_pos);
        bound.extend(rule.body[pick].vars());
    }
    order
}

/// True if evaluating `e` could mint a Skolem OID (and must therefore run
/// on the writer, in deterministic match order).
fn expr_has_skolem(e: &Expr) -> bool {
    match e {
        Expr::Skolem(_, _) => true,
        Expr::Const(_) | Expr::Var(_) => false,
        Expr::Not(a) => expr_has_skolem(a),
        Expr::Bin(_, a, b) => expr_has_skolem(a) || expr_has_skolem(b),
        Expr::Call(_, args) => args.iter().any(expr_has_skolem),
    }
}

/// Compile the body atoms of `rule`, joined in `order`, to [`AtomStep`]s.
/// At each atom the index key is the constant positions plus the positions
/// of variables bound by atoms earlier in the order — repeated variables
/// *within* an atom do not contribute: the first occurrence binds, the
/// others are checked.
fn compile_order(rule: &Rule, order: &[usize], body_preds: &[usize]) -> Vec<AtomStep> {
    let mut bound: FxHashSet<Var> = FxHashSet::default();
    let mut steps = Vec::with_capacity(order.len());
    for &idx in order {
        let atom = &rule.body[idx];
        let mut step = AtomStep {
            atom: idx,
            pred: body_preds[idx],
            arity: atom.terms.len(),
            positions: Vec::new(),
            key: Vec::new(),
            binds: Vec::new(),
            checks: Vec::new(),
        };
        for (i, t) in atom.terms.iter().enumerate() {
            match t {
                Term::Const(v) => {
                    step.positions.push(i);
                    step.key.push(KeyTerm::Const(v.clone()));
                }
                Term::Var(v) => {
                    let slot = v.0 as usize;
                    if bound.contains(v) {
                        step.positions.push(i);
                        step.key.push(KeyTerm::Slot(slot));
                    } else if step.binds.iter().any(|&(_, s)| s == slot) {
                        step.checks.push((i, slot));
                    } else {
                        step.binds.push((i, slot));
                    }
                }
            }
        }
        bound.extend(atom.vars());
        steps.push(step);
    }
    steps
}

/// Every `(predicate, key positions)` pair the compiled join `orders` can
/// probe, deduplicated.
fn index_needs<'a>(orders: impl Iterator<Item = &'a Vec<AtomStep>>) -> Vec<(usize, Vec<usize>)> {
    let mut needs: Vec<(usize, Vec<usize>)> = orders
        .flatten()
        .filter(|step| !step.positions.is_empty())
        .map(|step| (step.pred, step.positions.clone()))
        .collect();
    needs.sort();
    needs.dedup();
    needs
}

fn initial_value(func: AggregateFunc) -> Value {
    match func {
        AggregateFunc::Sum | AggregateFunc::MSum | AggregateFunc::Avg => Value::Int(0),
        AggregateFunc::Count | AggregateFunc::MCount => Value::Int(0),
        AggregateFunc::Prod | AggregateFunc::MProd => Value::Int(1),
        AggregateFunc::Min | AggregateFunc::MMin => Value::Float(f64::MAX),
        AggregateFunc::Max | AggregateFunc::MMax => Value::Float(f64::MIN),
    }
}

fn combine(func: AggregateFunc, acc: &Value, v: &Value) -> Result<Value> {
    use crate::ast::BinOp;
    use crate::eval::bin;
    match func {
        AggregateFunc::Sum | AggregateFunc::MSum | AggregateFunc::Avg => bin(BinOp::Add, acc, v),
        AggregateFunc::Count | AggregateFunc::MCount => bin(BinOp::Add, acc, &Value::Int(1)),
        AggregateFunc::Prod | AggregateFunc::MProd => bin(BinOp::Mul, acc, v),
        AggregateFunc::Min | AggregateFunc::MMin => Ok(if v.total_cmp(acc).is_lt() {
            v.clone()
        } else {
            acc.clone()
        }),
        AggregateFunc::Max | AggregateFunc::MMax => Ok(if v.total_cmp(acc).is_gt() {
            v.clone()
        } else {
            acc.clone()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn run(src: &str, inputs: &[(&str, Vec<Vec<Value>>)]) -> FactDb {
        let engine = Engine::new(parse_program(src).unwrap()).unwrap();
        let (db, _) = engine.run_with_facts(inputs).unwrap();
        db
    }

    fn ints(rows: &[&[i64]]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|r| r.iter().map(|&i| Value::Int(i)).collect())
            .collect()
    }

    // Storage-level lookup/index/iterator tests live in `crate::factdb`
    // next to the columnar implementation they exercise.

    #[test]
    fn transitive_closure() {
        let db = run(
            "edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).",
            &[("edge", ints(&[&[1, 2], &[2, 3], &[3, 4]]))],
        );
        assert_eq!(db.len("path"), 6); // 12 13 14 23 24 34
        assert!(db.contains("path", &[Value::Int(1), Value::Int(4)]));
        assert!(!db.contains("path", &[Value::Int(4), Value::Int(1)]));
    }

    #[test]
    fn transitive_closure_with_cycle_terminates() {
        let db = run(
            "edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).",
            &[("edge", ints(&[&[1, 2], &[2, 1]]))],
        );
        assert_eq!(db.len("path"), 4); // 11 12 21 22
    }

    #[test]
    fn facts_in_program_text() {
        let db = run("p(1). p(2). p(X) -> q(X).", &[]);
        assert_eq!(db.len("q"), 2);
    }

    #[test]
    fn conditions_filter() {
        let db = run(
            "n(X), X > 2 -> big(X).",
            &[("n", ints(&[&[1], &[2], &[3], &[4]]))],
        );
        assert_eq!(db.len("big"), 2);
    }

    #[test]
    fn assignments_compute() {
        let db = run(
            "n(X), Y = X * X + 1 -> sq(X, Y).",
            &[("n", ints(&[&[3]]))],
        );
        assert_eq!(db.facts("sq"), vec![vec![Value::Int(3), Value::Int(10)]]);
    }

    #[test]
    fn stratified_negation() {
        let db = run(
            "a(X) -> b(X).
             c(X), not b(X) -> only_c(X).",
            &[("a", ints(&[&[1]])), ("c", ints(&[&[1], &[2]]))],
        );
        assert_eq!(db.facts("only_c"), vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn existential_creates_reusable_null() {
        let engine =
            Engine::new(parse_program("b(X) -> c(X, N). b(X) -> d(X, N).").unwrap()).unwrap();
        let (db, stats) = engine
            .run_with_facts(&[("b", ints(&[&[1], &[2]]))])
            .unwrap();
        assert_eq!(db.len("c"), 2);
        assert_eq!(db.len("d"), 2);
        // Each rule/var/frontier gets its own null: 2 facts × 2 rules.
        assert_eq!(stats.nulls_created, 4);
        let c = db.facts("c");
        assert!(c.iter().all(|t| t[1].is_labelled_null()));
        // Re-running derivations does not mint more nulls (Skolem chase):
        // the fixpoint already reached stability, so nulls == 4 not more.
    }

    #[test]
    fn skolem_chase_does_not_loop_on_guarded_recursion() {
        // person(X) -> parent(X, Y). parent(X, Y) -> person(Y).
        // The restricted chase would terminate; the Skolem chase generates a
        // chain — the fact cap must stop it, proving the cap works.
        let engine = Engine::with_config(
            parse_program("person(X) -> parent(X, Y). parent(X, Y) -> person(Y).").unwrap(),
            EngineConfig {
                max_facts: 1000,
                strict: true,
                ..Default::default()
            },
        )
        .unwrap();
        let err = engine
            .run_with_facts(&[("person", ints(&[&[1]]))])
            .unwrap_err();
        assert!(matches!(err, KgmError::ResourceExhausted(_)));
        // Graceful mode (the default) keeps the partial database instead.
        let engine = Engine::with_config(
            parse_program("person(X) -> parent(X, Y). parent(X, Y) -> person(Y).").unwrap(),
            EngineConfig {
                max_facts: 1000,
                ..Default::default()
            },
        )
        .unwrap();
        let (db, stats) = engine
            .run_with_facts(&[("person", ints(&[&[1]]))])
            .unwrap();
        assert_eq!(stats.termination, Termination::FactCap);
        assert!(db.total_facts() > 1000, "the crossing batch is kept");
    }

    #[test]
    fn exact_count_aggregate() {
        let db = run(
            "holds(P, S), N = count(<P>) -> stakeholders(S, N).",
            &[(
                "holds",
                ints(&[&[1, 10], &[2, 10], &[3, 10], &[1, 20]]),
            )],
        );
        let mut facts = db.facts("stakeholders");
        facts.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(
            facts,
            vec![
                vec![Value::Int(10), Value::Int(3)],
                vec![Value::Int(20), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn exact_sum_with_duplicate_contributors_counts_once() {
        // Two `holds` rows with the same contributor key P share one
        // contribution (first wins), like the paper's sum over ⟨z⟩.
        let engine = Engine::new(
            parse_program("holds(P, S, W), V = sum(W, <P>) -> total(S, V).").unwrap(),
        )
        .unwrap();
        let (db, _) = engine
            .run_with_facts(&[(
                "holds",
                vec![
                    vec![Value::Int(1), Value::Int(10), Value::Float(0.4)],
                    vec![Value::Int(1), Value::Int(10), Value::Float(0.4)],
                    vec![Value::Int(2), Value::Int(10), Value::Float(0.3)],
                ],
            )])
            .unwrap();
        let facts = db.facts("total");
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0][1], Value::Float(0.7));
    }

    #[test]
    fn company_control_example_4_2() {
        // The running example of the paper. Ownership:
        //   a owns 60% of b; a owns 30% of c; b owns 30% of c.
        // a controls b directly; a controls c jointly through b (30+30 > 50).
        let src = r#"
            company(X) -> controls(X, X).
            controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
                -> controls(X, Y).
            "#;
        let companies = ints(&[&[1], &[2], &[3]]);
        let own = vec![
            vec![Value::Int(1), Value::Int(2), Value::Float(0.6)],
            vec![Value::Int(1), Value::Int(3), Value::Float(0.3)],
            vec![Value::Int(2), Value::Int(3), Value::Float(0.3)],
        ];
        let db = run(src, &[("company", companies), ("own", own)]);
        let controls: FxHashSet<(i64, i64)> = db
            .facts("controls")
            .into_iter()
            .map(|t| (t[0].as_i64().unwrap(), t[1].as_i64().unwrap()))
            .collect();
        assert!(controls.contains(&(1, 2)), "direct majority");
        assert!(controls.contains(&(1, 3)), "joint control via subsidiary");
        assert!(!controls.contains(&(2, 3)), "b alone holds only 30%");
        assert!(!controls.contains(&(3, 2)));
    }

    #[test]
    fn control_does_not_double_count_same_contributor() {
        // x controls z; z owns 30% of y via two ownership facts with the
        // same contributor z — only one contribution may count, so no
        // control edge.
        let src = r#"
            company(X) -> controls(X, X).
            controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
                -> controls(X, Y).
            "#;
        let db = run(
            src,
            &[
                ("company", ints(&[&[1], &[2]])),
                (
                    "own",
                    vec![
                        vec![Value::Int(1), Value::Int(2), Value::Float(0.3)],
                        // duplicate fact is deduped at the fact level anyway;
                        // a *different* weight with same contributor must not
                        // stack either:
                        vec![Value::Int(1), Value::Int(2), Value::Float(0.25)],
                    ],
                ),
            ],
        );
        let controls: FxHashSet<(i64, i64)> = db
            .facts("controls")
            .into_iter()
            .map(|t| (t[0].as_i64().unwrap(), t[1].as_i64().unwrap()))
            .collect();
        assert!(
            !controls.contains(&(1, 2)),
            "two facts for the same (owner, owned) pair must contribute once"
        );
    }

    #[test]
    fn multi_head_rules_emit_all_heads() {
        let db = run("a(X) -> b(X), c(X, X).", &[("a", ints(&[&[5]]))]);
        assert_eq!(db.len("b"), 1);
        assert_eq!(db.facts("c"), vec![vec![Value::Int(5), Value::Int(5)]]);
    }

    #[test]
    fn skolem_links_across_rules() {
        // Two rules using the same linker functor on the same argument must
        // produce the same OID (Section 4: deterministic linker functors).
        let src = r#"
            a(X), N = skolem("skN", X) -> left(X, N).
            a(X), N = skolem("skN", X) -> right(X, N).
            "#;
        let db = run(src, &[("a", ints(&[&[7]]))]);
        let l = db.facts("left")[0][1].clone();
        let r = db.facts("right")[0][1].clone();
        assert_eq!(l, r);
        assert!(matches!(l, Value::Oid(o) if o.space() == OidSpace::Skolem));
    }

    #[test]
    fn non_warded_program_is_refused_by_default() {
        let p = parse_program(
            "p(X) -> q(X, N).
             q(X, N), q(Y, N) -> r(N).",
        )
        .unwrap();
        assert!(Engine::new(p.clone()).is_err());
        // …but can be forced.
        let engine = Engine::with_config(
            p,
            EngineConfig {
                require_warded: false,
                ..Default::default()
            },
        )
        .unwrap();
        let (db, _) = engine.run_with_facts(&[("p", ints(&[&[1]]))]).unwrap();
        assert_eq!(db.len("r"), 1);
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let engine = Engine::new(parse_program("p(X, Y) -> q(X).").unwrap()).unwrap();
        let err = engine.run_with_facts(&[("p", ints(&[&[1]]))]).unwrap_err();
        assert!(matches!(err, KgmError::Schema(_)));
    }

    #[test]
    fn repeated_variable_in_atom_filters() {
        let db = run(
            "e(X, X) -> loops(X).",
            &[("e", ints(&[&[1, 1], &[1, 2], &[3, 3]]))],
        );
        assert_eq!(db.len("loops"), 2);
    }

    /// The fidelity rule of the two-level pool: joins and the repeated-
    /// variable check compare class ids, so `Int(1)` matches `Float(1.0)`,
    /// while a derived tuple keeps the exact representation its binding
    /// matched first.
    #[test]
    fn joins_compare_classes_but_derive_exact_representations() {
        for (src, want) in [
            ("p(1). q(1.0). p(X), q(X) -> r(X).", Value::Int(1)),
            ("p(1). q(1.0). q(X), p(X) -> r(X).", Value::Float(1.0)),
            ("e(1, 1.0). e(X, X) -> r(X).", Value::Int(1)),
            ("e(1.0, 1). e(X, X) -> r(X).", Value::Float(1.0)),
        ] {
            let r = run(src, &[]).facts("r");
            assert_eq!(r, vec![vec![want.clone()]], "{src}");
            assert_eq!(r[0][0].value_type(), want.value_type(), "{src}");
        }
    }

    #[test]
    fn run_stats_are_reported() {
        let engine = Engine::new(
            parse_program("edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).").unwrap(),
        )
        .unwrap();
        let (_, stats) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3]]))])
            .unwrap();
        assert!(stats.iterations >= 2);
        assert_eq!(stats.derived_facts, 3);
        assert_eq!(stats.strata, 1);
    }

    #[test]
    fn exact_min_max_avg() {
        let db = run(
            "v(G, X), M = min(X, <X>) -> lo(G, M).
             v(G, X), M = max(X, <X>) -> hi(G, M).
             v(G, X), M = avg(X, <X>) -> mean(G, M).",
            &[("v", ints(&[&[1, 10], &[1, 20], &[1, 30]]))],
        );
        assert_eq!(db.facts("lo")[0][1], Value::Int(10));
        assert_eq!(db.facts("hi")[0][1], Value::Int(30));
        assert_eq!(db.facts("mean")[0][1], Value::Float(20.0));
    }

    /// Chase program mixing recursion, monotonic aggregation, existentials,
    /// and Skolem functors — every order-sensitive feature at once.
    const PARALLEL_MIX_SRC: &str = r#"
        company(X) -> controls(X, X).
        controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
            -> controls(X, Y).
        own(X, Y, W) -> shell(X, N).
        company(X), S = skolem("skC", X) -> tagged(X, S).
    "#;

    fn parallel_mix_inputs() -> Vec<(&'static str, Vec<Vec<Value>>)> {
        let n = 24i64;
        let companies: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int(i)]).collect();
        let mut own = Vec::new();
        for i in 0..n - 1 {
            own.push(vec![Value::Int(i), Value::Int(i + 1), Value::Float(0.6)]);
        }
        // Joint-control diamonds: i and i+2 each hold 30% of i+5, so the
        // control edge needs two msum contributions.
        for i in 0..n - 5 {
            own.push(vec![Value::Int(i), Value::Int(i + 5), Value::Float(0.3)]);
            own.push(vec![Value::Int(i + 2), Value::Int(i + 5), Value::Float(0.3)]);
        }
        vec![("company", companies), ("own", own)]
    }

    fn run_with_threads(
        src: &str,
        inputs: &[(&str, Vec<Vec<Value>>)],
        threads: usize,
    ) -> (FactDb, RunStats) {
        let engine = Engine::with_config(
            parse_program(src).unwrap(),
            EngineConfig {
                threads,
                min_parallel_batch: 1, // force the parallel path on tiny deltas
                ..Default::default()
            },
        )
        .unwrap();
        engine.run_with_facts(inputs).unwrap()
    }

    /// Full database image: every predicate's facts in insertion order, so
    /// the comparison covers fact *order* (and thus null/Skolem OID
    /// assignment), not just set membership.
    fn db_fingerprint(db: &FactDb) -> Vec<(String, Vec<Vec<Value>>)> {
        db.predicates()
            .into_iter()
            .map(|p| {
                let facts = db.facts(&p);
                (p, facts)
            })
            .collect()
    }

    #[test]
    fn parallel_chase_is_bit_identical_to_sequential() {
        let inputs = parallel_mix_inputs();
        let (base_db, base_stats) = run_with_threads(PARALLEL_MIX_SRC, &inputs, 1);
        assert_eq!(
            base_stats.profile.shards_spawned, 0,
            "threads=1 must never shard"
        );
        for threads in [2, 4, 7] {
            let (db, stats) = run_with_threads(PARALLEL_MIX_SRC, &inputs, threads);
            assert_eq!(
                db_fingerprint(&base_db),
                db_fingerprint(&db),
                "threads={threads}"
            );
            assert_eq!(base_stats.derived_facts, stats.derived_facts);
            assert_eq!(base_stats.nulls_created, stats.nulls_created);
            assert_eq!(base_stats.duplicates_rejected, stats.duplicates_rejected);
            assert_eq!(base_stats.iterations, stats.iterations);
        }
    }

    #[test]
    fn parallel_eval_reports_shard_counters() {
        let inputs = parallel_mix_inputs();
        let (_, stats) = run_with_threads(PARALLEL_MIX_SRC, &inputs, 4);
        assert!(stats.profile.shards_spawned > 0, "parallel run must shard");
        assert!(stats.profile.worker_candidates > 0);
        // The semi-naive re-derivations of `controls(X, X)` & co. surface as
        // merge dedup hits once the facts exist.
        assert!(stats.profile.merge_dedup_hits > 0);
        // min_parallel_batch is 1, so insert batches took the partitioned
        // (hash-sliced) merge path.
        assert!(stats.profile.merge_partitions > 0);
        // Default config on the same input: batches below the threshold run
        // sequentially even with many threads configured.
        let engine = Engine::with_config(
            parse_program(PARALLEL_MIX_SRC).unwrap(),
            EngineConfig {
                threads: 4,
                min_parallel_batch: 1_000_000,
                ..Default::default()
            },
        )
        .unwrap();
        let (_, seq_stats) = engine.run_with_facts(&inputs).unwrap();
        assert_eq!(seq_stats.profile.shards_spawned, 0);
        assert_eq!(seq_stats.derived_facts, stats.derived_facts);
    }

    #[test]
    fn merge_dedup_hits_counts_sharded_emissions_already_stored() {
        let inputs = parallel_mix_inputs();
        // min_parallel_batch 1 sends every insert batch through the parallel
        // verdicts; 20 leaves the small ones to the sequential apply.
        for (min_parallel_batch, hits) in [(1, 70), (20, 58)] {
            for threads in [2, 4, 7] {
                let engine = Engine::with_config(
                    parse_program(PARALLEL_MIX_SRC).unwrap(),
                    EngineConfig {
                        threads,
                        min_parallel_batch,
                        ..Default::default()
                    },
                )
                .unwrap();
                let (_, stats) = engine.run_with_facts(&inputs).unwrap();
                assert_eq!(
                    stats.profile.merge_dedup_hits, hits,
                    "threads={threads} min_parallel_batch={min_parallel_batch}"
                );
            }
        }
        let (_, stats) = run_with_threads(PARALLEL_MIX_SRC, &inputs, 1);
        assert_eq!(
            stats.profile.merge_dedup_hits, 0,
            "no sharding, nothing counted"
        );
    }

    fn run_prov_with_threads(
        src: &str,
        inputs: &[(&str, Vec<Vec<Value>>)],
        threads: usize,
    ) -> (FactDb, RunStats) {
        let engine = Engine::with_config(
            parse_program(src).unwrap(),
            EngineConfig {
                threads,
                min_parallel_batch: 1,
                provenance: true,
                ..Default::default()
            },
        )
        .unwrap();
        engine.run_with_facts(inputs).unwrap()
    }

    /// Value-level image of every provenance edge: `(fact, rule, parent
    /// facts)` for each derived fact, in insertion order per predicate —
    /// id-free, so it compares across independently built databases.
    fn prov_fingerprint(db: &FactDb) -> Vec<(String, Vec<Value>, u32, Vec<(String, Vec<Value>)>)> {
        let mut out = Vec::new();
        for pred in db.predicates() {
            for tuple in db.facts(&pred) {
                let id = db.find_id(&pred, &tuple).unwrap();
                if let Some((rule, parents)) = db.prov_edge(id) {
                    let parent_facts = parents
                        .iter()
                        .map(|&p| {
                            let (pp, pt) = db.fact_values(p).unwrap();
                            (pp.to_string(), pt)
                        })
                        .collect();
                    out.push((pred.clone(), tuple, rule, parent_facts));
                }
            }
        }
        out
    }

    #[test]
    fn provenance_on_is_bit_identical_to_off_at_any_thread_count() {
        let inputs = parallel_mix_inputs();
        let (base_db, base_stats) = run_with_threads(PARALLEL_MIX_SRC, &inputs, 1);
        assert_eq!(
            base_stats.profile.prov_edges, 0,
            "provenance off must record nothing"
        );
        let (prov_db, prov_stats) = run_prov_with_threads(PARALLEL_MIX_SRC, &inputs, 1);
        assert_eq!(
            db_fingerprint(&base_db),
            db_fingerprint(&prov_db),
            "recording provenance must not change the facts"
        );
        assert!(prov_stats.profile.prov_edges > 0);
        assert!(prov_stats.profile.prov_parents >= prov_stats.profile.prov_edges);
        let base_prov = prov_fingerprint(&prov_db);
        assert_eq!(
            base_prov.len(),
            prov_stats.profile.prov_edges,
            "exactly one edge per derived fact"
        );
        for threads in [2, 4, 8] {
            let (db, stats) = run_prov_with_threads(PARALLEL_MIX_SRC, &inputs, threads);
            assert_eq!(db_fingerprint(&base_db), db_fingerprint(&db), "threads={threads}");
            assert_eq!(base_prov, prov_fingerprint(&db), "threads={threads}");
            assert_eq!(stats.profile.prov_edges, prov_stats.profile.prov_edges);
            assert_eq!(stats.profile.prov_parents, prov_stats.profile.prov_parents);
        }
    }

    #[test]
    fn aggregate_provenance_snapshots_all_contributions() {
        // Example 4.2: controls(1,3) needs both 30% stakes, so its edge
        // must carry the accumulated contributor matches — including the
        // earlier firing's parents — not just the trail that tipped the
        // threshold.
        let src = r#"
            company(X) -> controls(X, X).
            controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
                -> controls(X, Y).
            "#;
        let inputs = vec![
            ("company", ints(&[&[1], &[2], &[3]])),
            (
                "own",
                vec![
                    vec![Value::Int(1), Value::Int(2), Value::Float(0.6)],
                    vec![Value::Int(1), Value::Int(3), Value::Float(0.3)],
                    vec![Value::Int(2), Value::Int(3), Value::Float(0.3)],
                ],
            ),
        ];
        let (db, _) = run_prov_with_threads(src, &inputs, 1);
        let joint = db
            .find_id("controls", &[Value::Int(1), Value::Int(3)])
            .expect("joint control derived");
        let (rule, parents) = db.prov_edge(joint).expect("derived fact has an edge");
        assert_eq!(rule, 1);
        let own_parents: Vec<(String, Vec<Value>)> = parents
            .iter()
            .map(|&p| {
                let (pp, pt) = db.fact_values(p).unwrap();
                (pp.to_string(), pt)
            })
            .filter(|(p, _)| p == "own")
            .collect();
        assert_eq!(own_parents.len(), 2, "{own_parents:?}");
        // EDB facts never get edges.
        let edb = db.find_id("own", &own_parents[0].1).unwrap();
        assert!(db.prov_edge(edb).is_none());
    }

    // ---- incremental updates (apply_update) ----

    const TC_SRC: &str =
        "edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).";

    const CONTROL_SRC: &str = r#"
        company(X) -> controls(X, X).
        controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
            -> controls(X, Y).
        "#;

    fn update_engine(src: &str, provenance: bool) -> Engine {
        Engine::with_config(
            parse_program(src).unwrap(),
            EngineConfig {
                provenance,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn edge(a: i64, b: i64) -> (String, Vec<Value>) {
        ("edge".to_string(), vec![Value::Int(a), Value::Int(b)])
    }

    fn own(z: i64, y: i64, w: f64) -> (String, Vec<Value>) {
        (
            "own".to_string(),
            vec![Value::Int(z), Value::Int(y), Value::Float(w)],
        )
    }

    #[test]
    fn incremental_insert_extends_the_fixpoint_without_fallback() {
        let engine = update_engine(TC_SRC, false);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3]]))])
            .unwrap();
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![edge(3, 4)],
                    deletes: vec![],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_inserted, 1);
        assert_eq!(stats.profile.update_fallbacks, 0);
        // Exactly the new suffix paths derive: (3,4), (2,4), (1,4).
        assert_eq!(stats.derived_facts, 3);
        assert!(db.contains("path", &[Value::Int(1), Value::Int(4)]));
        let (scratch, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3], &[3, 4]]))])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn incremental_insert_tips_a_monotonic_aggregate() {
        // Example 4.2 replayed incrementally: the base run leaves a's stake
        // in c at 30%; the update adds b's 30% and the resumed accumulator
        // must fold it in (0.3 + 0.3 > 0.5) without re-reading old rows.
        let engine = update_engine(CONTROL_SRC, false);
        let (mut db, _) = engine
            .run_with_facts(&[
                ("company", ints(&[&[1], &[2], &[3]])),
                (
                    "own",
                    vec![
                        vec![Value::Int(1), Value::Int(2), Value::Float(0.6)],
                        vec![Value::Int(1), Value::Int(3), Value::Float(0.3)],
                    ],
                ),
            ])
            .unwrap();
        assert!(!db.contains("controls", &[Value::Int(1), Value::Int(3)]));
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![own(2, 3, 0.3)],
                    deletes: vec![],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 0);
        assert!(
            db.contains("controls", &[Value::Int(1), Value::Int(3)]),
            "the resumed msum accumulator must fold the new stake in"
        );
    }

    #[test]
    fn dred_delete_removes_the_downward_closure() {
        let engine = update_engine(TC_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3], &[3, 4]]))])
            .unwrap();
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![],
                    deletes: vec![edge(3, 4)],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_deleted, 1);
        assert_eq!(stats.profile.update_fallbacks, 0);
        // Everything supported by edge(3,4): path(3,4), path(2,4), path(1,4).
        assert_eq!(stats.profile.update_overdeleted, 3);
        assert_eq!(stats.profile.update_rederived, 0);
        let (scratch, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3]]))])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn dred_rederives_facts_with_alternative_supports() {
        // Diamond: 1→2→4 and 1→3→4. The recorded support of path(1,4) is
        // its first derivation (via edge(2,4)), so deleting edge(2,4)
        // over-deletes it — and the re-derivation pass must bring it back
        // through the surviving 1→3→4 branch.
        let engine = update_engine(TC_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 4], &[1, 3], &[3, 4]]))])
            .unwrap();
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![],
                    deletes: vec![edge(2, 4)],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 0);
        assert_eq!(stats.profile.update_deleted, 1);
        // Over-deleted: path(2,4) and path(1,4); only the latter comes back.
        assert_eq!(stats.profile.update_overdeleted, 2);
        assert_eq!(stats.profile.update_rederived, 1);
        assert!(db.contains("path", &[Value::Int(1), Value::Int(4)]));
        assert!(!db.contains("path", &[Value::Int(2), Value::Int(4)]));
        let (scratch, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[1, 3], &[3, 4]]))])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn dred_delete_untips_a_monotonic_aggregate() {
        let engine = update_engine(CONTROL_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[
                ("company", ints(&[&[1], &[2], &[3]])),
                (
                    "own",
                    vec![
                        vec![Value::Int(1), Value::Int(2), Value::Float(0.6)],
                        vec![Value::Int(1), Value::Int(3), Value::Float(0.3)],
                        vec![Value::Int(2), Value::Int(3), Value::Float(0.3)],
                    ],
                ),
            ])
            .unwrap();
        assert!(db.contains("controls", &[Value::Int(1), Value::Int(3)]));
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![],
                    deletes: vec![own(2, 3, 0.3)],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 0);
        assert!(
            !db.contains("controls", &[Value::Int(1), Value::Int(3)]),
            "joint control must lapse with the withdrawn stake"
        );
        let (scratch, _) = engine
            .run_with_facts(&[
                ("company", ints(&[&[1], &[2], &[3]])),
                (
                    "own",
                    vec![
                        vec![Value::Int(1), Value::Int(2), Value::Float(0.6)],
                        vec![Value::Int(1), Value::Int(3), Value::Float(0.3)],
                    ],
                ),
            ])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn combined_insert_and_delete_matches_from_scratch() {
        let engine = update_engine(TC_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3]]))])
            .unwrap();
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![edge(2, 4)],
                    deletes: vec![edge(2, 3)],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 0);
        assert_eq!(stats.profile.update_inserted, 1);
        assert_eq!(stats.profile.update_deleted, 1);
        let (scratch, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 4]]))])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn delete_without_provenance_falls_back_to_rebuild() {
        let engine = update_engine(TC_SRC, false);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3], &[3, 4]]))])
            .unwrap();
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![],
                    deletes: vec![edge(3, 4)],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 1);
        // The fallback tombstones every derived row (all 6 paths).
        assert_eq!(stats.profile.update_overdeleted, 6);
        let (scratch, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3]]))])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn negation_forces_fallback_and_stays_correct() {
        // Inserting a(2) must *retract* only_c(2): non-monotone in the
        // insert direction, so the incremental path refuses and rebuilds.
        let engine =
            update_engine("a(X) -> b(X). c(X), not b(X) -> only_c(X).", true);
        let (mut db, _) = engine
            .run_with_facts(&[("a", ints(&[&[1]])), ("c", ints(&[&[1], &[2]]))])
            .unwrap();
        assert_eq!(db.len("only_c"), 1);
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![("a".to_string(), vec![Value::Int(2)])],
                    deletes: vec![],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 1);
        assert_eq!(db.len("only_c"), 0);
        let (scratch, _) = engine
            .run_with_facts(&[("a", ints(&[&[1], &[2]])), ("c", ints(&[&[1], &[2]]))])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn update_rejects_a_foreign_engines_database() {
        let engine = update_engine(TC_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2]]))])
            .unwrap();
        let other = update_engine(TC_SRC, true);
        let err = other
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![edge(2, 3)],
                    deletes: vec![],
                },
            )
            .unwrap_err();
        assert!(matches!(err, KgmError::Constraint(_)), "{err}");
        // The refusal restores the state: the owning engine still runs the
        // fast path afterwards.
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![edge(2, 3)],
                    deletes: vec![],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 0);
        assert!(db.contains("path", &[Value::Int(1), Value::Int(3)]));
    }

    #[test]
    fn update_on_a_never_materialized_database_falls_back() {
        let engine = update_engine(TC_SRC, false);
        let mut db = FactDb::new();
        db.add_facts("edge", ints(&[&[1, 2]])).unwrap();
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![edge(2, 3)],
                    deletes: vec![],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 1);
        assert_eq!(db.len("path"), 3);
    }

    #[test]
    fn deleting_an_absent_fact_is_a_noop() {
        let engine = update_engine(TC_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3]]))])
            .unwrap();
        let before = db_fingerprint(&db);
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![],
                    deletes: vec![edge(7, 8)],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_deleted, 0);
        assert_eq!(stats.profile.update_overdeleted, 0);
        assert_eq!(db_fingerprint(&db), before);
        // An empty update is equally inert.
        let stats = engine.apply_update(&mut db, Update::default()).unwrap();
        assert_eq!(stats.derived_facts, 0);
        assert_eq!(db_fingerprint(&db), before);
    }

    #[test]
    fn updates_chain_across_calls() {
        // State re-persists after every update, so a long edit session
        // stays on the incremental path throughout.
        let engine = update_engine(TC_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2]]))])
            .unwrap();
        let mut edges: Vec<(i64, i64)> = vec![(1, 2)];
        for (ins, del) in [
            ((2, 3), None),
            ((3, 4), None),
            ((4, 5), Some((2, 3))),
            ((2, 4), None),
        ] {
            let deletes = del.map(|(a, b)| edge(a, b)).into_iter().collect();
            let stats = engine
                .apply_update(
                    &mut db,
                    Update {
                        inserts: vec![edge(ins.0, ins.1)],
                        deletes,
                    },
                )
                .unwrap();
            assert_eq!(stats.profile.update_fallbacks, 0);
            edges.push(ins);
            if let Some(d) = del {
                edges.retain(|&e| e != d);
            }
        }
        let rows: Vec<Vec<Value>> = edges
            .iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect();
        let (scratch, _) = engine.run_with_facts(&[("edge", rows)]).unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }
}
