//! Deterministic observability: one stats surface for the whole pipeline.
//!
//! The registry has one owner: the knowledge base (`KnowledgeBase::obs`),
//! the one object every layer is handed. It starts as the disabled stub;
//! `KnowledgeBase::set_obs` (or `Wrangler::set_obs`) attaches a live one,
//! and the orchestrator, the mapping result store, the engine runs beneath
//! them and the write-ahead log all record into it. (An engine or incremental
//! session used on its own takes a registry through its `EngineConfig`.)
//! The layer provides:
//!
//! - a **counter registry**: named monotone `u64` counters recording
//!   *semantic events* (stratum passes, delta outcomes, WAL appends,
//!   dep-cache patches), never scheduling artifacts;
//! - a **span tree**: hierarchical [`SpanGuard`]s opened on coordinating
//!   threads only, carrying structural attributes; each span keeps its
//!   wall-clock duration in its own [`SpanRecord::micros`], never in an
//!   attribute, so a rendered [`span_shape`] stays byte-comparable;
//! - a **report** ([`ObsReport`]) read after the run: a counter summary
//!   ([`ObsReport::render`]) and a lossless JSON document
//!   ([`ObsReport::to_json`]), which [`Json`] parses back.
//!
//! ## Determinism contract
//!
//! Counters split into two classes by name:
//!
//! - **structural** counters live under the `pipeline.` prefix
//!   ([`Obs::is_structural`]) and are byte-identical whether or not the
//!   knowledge base writes a WAL — they count what the pipeline
//!   *computed* (orchestrator steps, writes, knowledge-base events),
//!   which the equivalence suites already pin.
//! - everything else is a **mode-scoped** diagnostic: it exists only in
//!   its mode (`wal.*` only when durable, `incremental.*` only where a
//!   datalog session runs), and increments happen per semantic event,
//!   never per scheduling decision.
//!
//! ## Cost contract
//!
//! [`Obs`] is a cheap clonable handle; [`Obs::disabled`] is a
//! const-constructible no-op stub. When disabled, every counter call is a
//! single branch, spans are elided entirely (no allocation, no lock), and
//! no state is ever observable — the property suite pins this.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::error::{Result, VadaError};

/// Canonical counter names, so call sites and tests cannot drift.
///
/// Names under `pipeline.` are **structural** (storage-invariant);
/// everything else is a mode-scoped diagnostic.
pub mod key {
    /// Orchestrator steps taken (trace entries). Structural.
    pub const ORCH_STEPS: &str = "pipeline.orchestrator.steps";
    /// Knowledge-base writes performed by transducers. Structural.
    pub const ORCH_WRITES: &str = "pipeline.orchestrator.writes";
    /// Per-activity run tally: `pipeline.activity.<tag>`. Structural.
    pub const ACTIVITY_PREFIX: &str = "pipeline.activity.";
    /// Delta events appended to the knowledge-base journal. Structural.
    pub const KB_EVENTS: &str = "pipeline.kb.events";

    /// Datalog queries answered by the knowledge base.
    pub const KB_QUERIES: &str = "kb.queries";
    /// Dependency-view predicates built, each for the first query at a
    /// knowledge-base version that names it.
    pub const DEPCACHE_BUILDS: &str = "kb.depcache.builds";
    /// Storage failures observed (each detaching failure, not just the
    /// sticky first).
    pub const STORAGE_ERRORS: &str = "kb.storage.errors";

    /// WAL records appended.
    pub const WAL_APPENDS: &str = "wal.appends";
    /// WAL fsyncs issued (one per append under the current contract).
    pub const WAL_FSYNCS: &str = "wal.fsyncs";
    /// Encoded WAL payload bytes appended (pre-framing).
    pub const WAL_BYTES: &str = "wal.bytes";
    /// Log compactions (snapshot + truncate).
    pub const WAL_COMPACTIONS: &str = "wal.compactions";

    /// Initial stratum passes evaluated.
    pub const STRATUM_PASSES: &str = "datalog.stratum.passes";
    /// Semi-naive delta re-passes evaluated.
    pub const DELTA_PASSES: &str = "datalog.delta.passes";
    /// Requests for a fact set's join index that filed at least one row:
    /// an index over facts that did not change since it was last asked
    /// for is not counted.
    pub const INDEX_BUILDS: &str = "datalog.index.builds";
    /// Probes served by the join indexes fact sets keep.
    pub const INDEX_PROBES: &str = "datalog.index.probes";
    /// Join-planner choices: literals planned against an index.
    pub const JOIN_INDEXED: &str = "datalog.join.indexed";
    /// Join-planner choices: literals with no bound column — a rule's
    /// generators, enumerated in full. Every rule has at least its
    /// outermost one, so this never reaches 0; a literal *with* a bound
    /// column is always served by an index.
    pub const JOIN_GENERATOR: &str = "datalog.join.generator";

    /// Demand rewrites that restricted the program (magic rules emitted).
    pub const MAGIC_APPLIED: &str = "magic.rewrite.applied";
    /// Demand rewrites that resolved to the identity program.
    pub const MAGIC_UNRESTRICTED: &str = "magic.rewrite.unrestricted";
    /// Magic rules generated across applied rewrites.
    pub const MAGIC_RULES: &str = "magic.rules";
    /// Seed demand facts generated across applied rewrites.
    pub const MAGIC_DEMAND_FACTS: &str = "magic.demand_facts";

    /// Incremental steps that ran as explicit bootstraps.
    pub const INC_BOOTSTRAP: &str = "incremental.outcome.bootstrap";
    /// Incremental steps that took the semi-naive fast path.
    pub const INC_INCREMENTAL: &str = "incremental.outcome.incremental";
    /// Incremental steps that fell back to a full re-derivation.
    pub const INC_FALLBACK: &str = "incremental.outcome.full_fallback";
    /// Per-reason fallback tally: `incremental.fallback.<slug>`.
    pub const INC_FALLBACK_PREFIX: &str = "incremental.fallback.";

    /// Full (from-scratch) mapping executions.
    pub const MAP_FULL: &str = "map.execute.full";
    /// Stand-alone mapping refreshes answered by the mapping's incremental
    /// session from the journal's row events, not by an engine run.
    pub const MAP_INCREMENTAL: &str = "map.execute.incremental";
    /// Mapping executions answered from the stored materialisation: the
    /// journal proved no source changed since it was built.
    pub const MAP_REUSED: &str = "map.execute.reused";
    /// Union mappings assembled from their parts' stored results instead
    /// of being run as one program.
    pub const MAP_ASSEMBLED: &str = "map.execute.assembled";
    /// Mapping executions that stored the whole result: the first, and any
    /// run the diff's conditions do not hold for.
    pub const MAP_RESULT_WHOLE: &str = "map.result.whole";
    /// Mapping executions that wrote the result as a diff of their previous
    /// output: the blocks the edit reached, removed and inserted row by row.
    pub const MAP_RESULT_DIFFED: &str = "map.result.diffed";
    /// Result rows those diffs removed or inserted.
    pub const MAP_RESULT_DIFF_ROWS: &str = "map.result.diff_rows";
    /// Source execution inputs the result store built: once per version of
    /// a source some mapping executes against.
    pub const MAP_INPUT_BUILT: &str = "map.input.built";
    /// Executions that loaded a source's kept input: the journal proved
    /// the source unchanged since the input was built.
    pub const MAP_INPUT_REUSED: &str = "map.input.reused";

    /// Sources instance matching matched against the context side: every
    /// source after the context side was rebuilt, otherwise only those an
    /// edit reached before their sample frontier.
    pub const MATCH_INSTANCE_MATCHED: &str = "match.instance.matched";
    /// Sources whose kept instance matches a run wrote again: the journal
    /// proved the source unchanged, or edited only at or past its sample
    /// frontier.
    pub const MATCH_INSTANCE_REUSED: &str = "match.instance.reused";

    /// Reference-derived state a quality transducer built afresh: reference
    /// populations, a fuzzy repair index, learned CFDs — once per version
    /// of the context relations it reads.
    pub const QUALITY_REF_PREPARED: &str = "quality.reference.prepared";
    /// Runs that reused that state: the journal proved its relations
    /// unchanged since it was built.
    pub const QUALITY_REF_REUSED: &str = "quality.reference.reused";
    /// Candidate parts whose metric tallies mapping quality counted over
    /// all their rows: once per version of a part's result that has no
    /// kept parent tally to follow.
    pub const QUALITY_METRICS_COMPUTED: &str = "quality.metrics.computed";
    /// Candidate parts whose kept tallies mapping quality used again — a
    /// part read by a union, or one no edit touched.
    pub const QUALITY_METRICS_REUSED: &str = "quality.metrics.reused";
    /// Candidate parts whose tallies mapping quality derived from their
    /// parent version's: the removed rows' tally taken away, the inserted
    /// rows' added — once per version a session step made.
    pub const QUALITY_METRICS_FOLLOWED: &str = "quality.metrics.followed";
    /// Result rows the repair transducer chased: every row after a
    /// relation-level change to the result or a change to what repair reads
    /// beside it, otherwise only the rows edited or inserted since its last
    /// run.
    pub const REPAIR_ROWS_CHASED: &str = "quality.repair.rows_chased";
    /// Blocks of two or more result rows duplicate detection scored: every
    /// block after a relation-level change to the result, otherwise only
    /// the blocks a row entered or left since its last run.
    pub const FUSION_BLOCKS_SCORED: &str = "fusion.blocks.scored";

}

/// Lock a mutex, recovering from poisoning (a panic caught by a stage
/// guard must not take the whole registry down — counters are monotone
/// `u64`s, so the state is valid regardless of where the panic hit).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Reduce a free-form reason string to a stable counter-name suffix:
/// lowercase, alphanumerics kept, every other run collapsed to `_`,
/// truncated so registry keys stay bounded.
pub fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len().min(48));
    let mut gap = false;
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            if gap && !out.is_empty() {
                out.push('_');
            }
            gap = false;
            out.push(c.to_ascii_lowercase());
            if out.len() >= 48 {
                break;
            }
        } else {
            gap = true;
        }
    }
    if out.is_empty() {
        out.push_str("unknown");
    }
    out
}

// ---------------------------------------------------------------------
// collector
// ---------------------------------------------------------------------

/// One recorded span: a named stage with structural attributes and the
/// wall-clock time it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// 1-based id; 0 is the implicit root.
    pub id: u64,
    /// Parent span id (0 = top level).
    pub parent: u64,
    /// Stage name, e.g. `orchestrator/step`.
    pub name: String,
    /// Structural attributes in insertion order.
    pub attrs: Vec<(String, String)>,
    /// Elapsed microseconds between open and close (`None` while open).
    /// Not an attribute: [`span_shape`] never renders it.
    pub micros: Option<u64>,
}

struct SpanState {
    records: Vec<SpanRecord>,
    /// Open spans on the coordinating thread, innermost last.
    stack: Vec<u64>,
}

/// The shared collection state behind an enabled [`Obs`] handle.
pub struct ObsCollector {
    counters: Mutex<BTreeMap<String, u64>>,
    spans: Mutex<SpanState>,
}

impl ObsCollector {
    fn new() -> ObsCollector {
        ObsCollector {
            counters: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(SpanState { records: Vec::new(), stack: Vec::new() }),
        }
    }
}

/// A cheap clonable observability handle: either a shared collector or
/// the disabled no-op stub. Cloning shares the underlying registry.
#[derive(Clone)]
pub struct Obs {
    inner: Option<Arc<ObsCollector>>,
}

impl Default for Obs {
    /// Disabled. Collection is opt-in: the owning knowledge base attaches
    /// a live registry through `KnowledgeBase::set_obs`.
    fn default() -> Obs {
        Obs::disabled()
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "Obs(disabled)"),
            Some(c) => write!(f, "Obs(enabled, {} counters)", lock(&c.counters).len()),
        }
    }
}

impl Obs {
    /// The no-op stub: every operation is a single branch, nothing is
    /// recorded, nothing allocates.
    pub const fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// An enabled in-memory collector.
    pub fn enabled() -> Obs {
        Obs { inner: Some(Arc::new(ObsCollector::new())) }
    }

    /// Whether collection is live.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether `name` belongs to the structural class — the counters the
    /// determinism contract pins byte-identical in memory and durable.
    pub fn is_structural(name: &str) -> bool {
        name.starts_with("pipeline.")
    }

    /// Add `n` to the named monotone counter. No-op when disabled.
    pub fn add(&self, name: &str, n: u64) {
        let Some(c) = &self.inner else { return };
        let mut map = lock(&c.counters);
        match map.get_mut(name) {
            Some(v) => *v += n,
            None => {
                map.insert(name.to_string(), n);
            }
        }
    }

    /// Increment the named counter by one. No-op when disabled.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (0 if never touched or disabled).
    pub fn get(&self, name: &str) -> u64 {
        match &self.inner {
            None => 0,
            Some(c) => lock(&c.counters).get(name).copied().unwrap_or(0),
        }
    }

    /// Snapshot of every counter, sorted by name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        match &self.inner {
            None => BTreeMap::new(),
            Some(c) => lock(&c.counters).clone(),
        }
    }

    /// Open a span. Spans are opened on coordinating threads only — worker
    /// closures never call this — so the stack discipline (and hence the
    /// recorded tree) is deterministic. Disabled handles elide the span
    /// entirely.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let Some(c) = &self.inner else {
            return SpanGuard { obs: self, id: 0, started: None };
        };
        let id = {
            let mut spans = lock(&c.spans);
            let id = spans.records.len() as u64 + 1;
            let parent = spans.stack.last().copied().unwrap_or(0);
            spans.records.push(SpanRecord {
                id,
                parent,
                name: name.to_string(),
                attrs: Vec::new(),
                micros: None,
            });
            spans.stack.push(id);
            id
        };
        SpanGuard { obs: self, id, started: Some(Instant::now()) }
    }

    /// All recorded spans (closed and still open), in open order.
    pub fn span_records(&self) -> Vec<SpanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(c) => lock(&c.spans).records.clone(),
        }
    }

    /// Number of spans currently open on the coordinating thread. A
    /// well-formed run — including one unwound by a panic, since
    /// [`SpanGuard`] closes on drop — ends at zero.
    pub fn open_span_count(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(c) => lock(&c.spans).stack.len(),
        }
    }

    /// A full programmatic report: counters and the span tree.
    pub fn report(&self) -> ObsReport {
        ObsReport {
            enabled: self.is_enabled(),
            counters: self.counters(),
            spans: self.span_records(),
        }
    }

    /// Close span `id`: record its duration and pop it from the open stack.
    fn close_span(&self, id: u64, started: Instant) {
        let Some(c) = &self.inner else { return };
        let micros = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let mut spans = lock(&c.spans);
        if let Some(r) = spans.records.get_mut(id as usize - 1) {
            r.micros = Some(micros);
        }
        if let Some(pos) = spans.stack.iter().rposition(|&s| s == id) {
            spans.stack.truncate(pos);
        }
    }

    fn set_attr(&self, id: u64, name: &str, value: String) {
        let Some(c) = &self.inner else { return };
        let mut spans = lock(&c.spans);
        if let Some(r) = spans.records.get_mut(id as usize - 1) {
            r.attrs.push((name.to_string(), value));
        }
    }
}

/// Canonical structural rendering of the spans `keep` selects: one line
/// per span, `<id> <parent> <name> k=v;k=v` — ids, parent edges, names and
/// structural attributes only, never durations. Kept spans are renumbered
/// densely in open order and each parent edge is lifted to the nearest kept
/// ancestor, so a slice renders the same across modes even though the
/// spans left out shift the absolute ids; keeping every span renders the
/// tree as recorded. Two trees are byte-comparable exactly when their
/// shapes match, which is what the equivalence suites and the bench
/// `--check` gate compare.
pub fn span_shape(spans: &[SpanRecord], keep: impl Fn(&SpanRecord) -> bool) -> Vec<String> {
    let parent_of: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let kept: Vec<&SpanRecord> = spans.iter().filter(|s| keep(s)).collect();
    let renum: BTreeMap<u64, u64> =
        kept.iter().enumerate().map(|(i, s)| (s.id, i as u64 + 1)).collect();
    kept.iter()
        .map(|s| {
            let mut p = s.parent;
            while p != 0 && !renum.contains_key(&p) {
                p = parent_of.get(&p).copied().unwrap_or(0);
            }
            let mut line = format!("{} {} {}", renum[&s.id], renum.get(&p).unwrap_or(&0), s.name);
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                line.push(if i == 0 { ' ' } else { ';' });
                line.push_str(k);
                line.push('=');
                line.push_str(v);
            }
            line
        })
        .collect()
}

fn span_json(r: &SpanRecord) -> String {
    let mut line = format!(
        "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"attrs\":{{",
        r.id,
        r.parent,
        json_escape(&r.name)
    );
    let mut first = true;
    for (k, v) in &r.attrs {
        if !first {
            line.push(',');
        }
        first = false;
        line.push('"');
        line.push_str(&json_escape(k));
        line.push_str("\":\"");
        line.push_str(&json_escape(v));
        line.push('"');
    }
    line.push_str("},\"micros\":");
    line.push_str(&r.micros.map_or("null".to_string(), |m| m.to_string()));
    line.push('}');
    line
}

/// RAII handle for an open span: attach structural attributes while the
/// stage runs; the drop closes the span and records its duration on it.
/// The disabled stub's guard does nothing.
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    /// 0 when the span was elided (disabled handle).
    id: u64,
    started: Option<Instant>,
}

impl SpanGuard<'_> {
    /// Attach one structural attribute (insertion order preserved).
    pub fn attr(&self, name: &str, value: impl fmt::Display) {
        if self.id != 0 {
            self.obs.set_attr(self.id, name, value.to_string());
        }
    }

    /// The span id (0 when elided).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (true, Some(started)) = (self.id != 0, self.started) {
            self.obs.close_span(self.id, started);
        }
    }
}

// ---------------------------------------------------------------------
// report
// ---------------------------------------------------------------------

/// A point-in-time snapshot of everything a collector holds.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Whether collection was live (a disabled handle reports empty).
    pub enabled: bool,
    /// Every counter, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// The span tree in open order, each span with its duration.
    pub spans: Vec<SpanRecord>,
}

impl ObsReport {
    /// The structural (storage-invariant) counter subset.
    pub fn structural(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter(|(k, _)| Obs::is_structural(k))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Human-readable summary: counters and span count, durations
    /// deliberately omitted so the rendering is structural.
    pub fn render(&self) -> String {
        if !self.enabled {
            return "observability disabled (attach a registry with `set_obs` to collect)".to_string();
        }
        let mut out = format!("observability: {} spans\n", self.spans.len());
        for (k, v) in &self.counters {
            out.push_str(&format!("  {k} = {v}\n"));
        }
        out
    }

    /// Lossless JSON object: counters, and spans with their `micros`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"enabled\":");
        out.push_str(if self.enabled { "true" } else { "false" });
        out.push_str(",\"counters\":{");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(&json_escape(k));
            out.push_str("\":");
            out.push_str(&v.to_string());
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&span_json(s));
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------
// JSON (emit + parse)
// ---------------------------------------------------------------------

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value — the reading half of [`ObsReport::to_json`]'s
/// format. The workspace is dependency-free by design, so its readers
/// (tests, and `repro bench --check` reading its baseline) parse with this
/// instead of a vendored serde.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (counters are integral and < 2^53, so `f64` is exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, entries in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value (rejects trailing garbage).
    pub fn parse(s: &str) -> Result<Json> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(VadaError::Parse(format!("trailing JSON at byte {pos}")));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(e) => Some(e),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Integral view of a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<()> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(VadaError::Parse(format!("expected `{lit}` at byte {pos}", pos = *pos)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(VadaError::Parse("unexpected end of JSON".into())),
        Some(b'n') => expect(b, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(VadaError::Parse(format!("bad array at byte {}", *pos))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let val = parse_value(b, pos)?;
                entries.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(VadaError::Parse(format!("bad object at byte {}", *pos))),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(VadaError::Parse(format!("expected string at byte {}", *pos)));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(VadaError::Parse("unterminated JSON string".into())),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| VadaError::Parse("truncated \\u escape".into()))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| VadaError::Parse("bad \\u escape".into()))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| VadaError::Parse("bad \\u escape".into()))?;
                        // surrogate pairs are not emitted by this format;
                        // lone surrogates decode to the replacement char
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(VadaError::Parse("bad escape in JSON string".into())),
                }
                *pos += 1;
            }
            Some(_) => {
                // advance one UTF-8 scalar
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                let s = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| VadaError::Parse("invalid UTF-8 in JSON".into()))?;
                out.push_str(s);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos])
        .map_err(|_| VadaError::Parse("invalid number".into()))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| VadaError::Parse(format!("bad JSON number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn disabled_is_observably_free() {
        let obs = Obs::disabled();
        obs.incr("anything");
        obs.add("anything", 41);
        {
            let span = obs.span("stage");
            span.attr("k", "v");
            assert_eq!(span.id(), 0);
        }
        assert!(!obs.is_enabled());
        assert_eq!(obs.get("anything"), 0);
        assert!(obs.counters().is_empty());
        assert_eq!(obs.span_records().len(), 0);
        let report = obs.report();
        assert!(!report.enabled);
        assert!(report.counters.is_empty() && report.spans.is_empty());
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let obs = Obs::enabled();
        obs.incr("b.two");
        obs.add("a.one", 3);
        obs.incr("b.two");
        assert_eq!(obs.get("a.one"), 3);
        assert_eq!(obs.get("b.two"), 2);
        let keys: Vec<String> = obs.counters().into_keys().collect();
        assert_eq!(keys, vec!["a.one".to_string(), "b.two".to_string()]);
    }

    #[test]
    fn clones_share_the_registry() {
        let obs = Obs::enabled();
        let other = obs.clone();
        other.incr("x");
        assert_eq!(obs.get("x"), 1);
    }

    #[test]
    fn structural_classification_by_prefix() {
        assert!(Obs::is_structural(key::ORCH_STEPS));
        assert!(Obs::is_structural(key::KB_EVENTS));
        assert!(!Obs::is_structural(key::WAL_APPENDS));
        assert!(!Obs::is_structural(key::MAP_FULL));
        let obs = Obs::enabled();
        obs.incr(key::ORCH_STEPS);
        obs.incr(key::WAL_APPENDS);
        let structural = obs.report().structural();
        assert_eq!(structural.len(), 1);
        assert!(structural.contains_key(key::ORCH_STEPS));
    }

    #[test]
    fn span_tree_records_hierarchy_and_attrs() {
        let obs = Obs::enabled();
        {
            let outer = obs.span("orchestrator/run");
            outer.attr("steps", 2);
            {
                let inner = obs.span("orchestrator/step");
                inner.attr("transducer", "mapping");
            }
            let sibling = obs.span("orchestrator/step");
            sibling.attr("transducer", "fusion");
        }
        let spans = obs.span_records();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[0].id);
        assert_eq!(spans[1].attrs, vec![("transducer".into(), "mapping".into())]);
        // every closed span carries its duration, never as an attribute
        assert!(spans.iter().all(|s| s.micros.is_some()));
        assert!(spans.iter().all(|s| s.attrs.iter().all(|(k, _)| k != "micros")));
    }

    #[test]
    fn report_json_is_lossless_and_parseable() {
        let obs = Obs::enabled();
        obs.add(key::ORCH_WRITES, 4);
        {
            let s = obs.span("step");
            s.attr("transducer", "mapping");
        }
        let report = obs.report();
        let parsed = Json::parse(&report.to_json()).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get(key::ORCH_WRITES))
                .and_then(Json::as_u64),
            Some(4)
        );
        let spans = parsed.get("spans").unwrap();
        match spans {
            Json::Arr(items) => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].get("micros").and_then(Json::as_u64), report.spans[0].micros);
            }
            other => panic!("spans not an array: {other:?}"),
        }
        assert!(report.render().contains("pipeline.orchestrator.writes = 4"));
    }

    #[test]
    fn slug_is_stable_and_bounded() {
        assert_eq!(slug("recursive predicate `tc` in delta"), "recursive_predicate_tc_in_delta");
        assert_eq!(slug("***"), "unknown");
        assert!(slug(&"x y ".repeat(100)).len() <= 64);
    }

    #[test]
    fn span_guard_closes_on_unwind() {
        let obs = Obs::enabled();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let outer = obs.span("orchestrator/run");
            outer.attr("mode", "fault");
            let _inner = obs.span("datalog/stratum");
            panic!("injected fault");
        }));
        assert!(result.is_err());
        // both guards closed on the way out: no dangling open spans, and
        // each closed span recorded its duration
        assert_eq!(obs.open_span_count(), 0, "unwind must close every span");
        assert_eq!(obs.span_records().len(), 2);
        assert!(obs.span_records().iter().all(|s| s.micros.is_some()));
        // a span opened after the panic is a clean top-level root, not a
        // child of a zombie
        {
            let after = obs.span("orchestrator/run");
            assert_ne!(after.id(), 0);
        }
        let spans = obs.span_records();
        assert_eq!(spans[2].parent, 0, "post-panic span must not dangle off the dead tree");
    }

    #[test]
    fn span_shape_is_structural_only() {
        let obs = Obs::enabled();
        {
            let run = obs.span("orchestrator/run");
            run.attr("steps", 1);
            {
                let _deep = obs.span("datalog/stratum");
                let step = obs.span("orchestrator/step");
                step.attr("transducer", "mapping");
            }
        }
        let spans = obs.span_records();
        let full = span_shape(&spans, |_| true);
        assert_eq!(
            full,
            vec![
                "1 0 orchestrator/run steps=1",
                "2 1 datalog/stratum",
                "3 2 orchestrator/step transducer=mapping",
            ]
        );
        // structural view renumbers densely and lifts parents over the
        // mode-scoped span in the middle
        let structural = span_shape(&spans, |s| s.name.starts_with("orchestrator/"));
        assert_eq!(
            structural,
            vec!["1 0 orchestrator/run steps=1", "2 1 orchestrator/step transducer=mapping"]
        );
    }

    #[test]
    fn json_parser_handles_the_corners() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(
            Json::parse("\"a\\n\\\"b\\\"\\u0041\"").unwrap(),
            Json::Str("a\n\"b\"A".into())
        );
        assert_eq!(
            Json::parse("[1,[],{}]").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![]), Json::Obj(vec![])])
        );
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("").is_err());
        // non-ASCII round-trips through escape + parse
        let s = "héllo → wörld";
        let line = format!("\"{}\"", json_escape(s));
        assert_eq!(Json::parse(&line).unwrap(), Json::Str(s.into()));
    }
}
