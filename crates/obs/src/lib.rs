//! `sgs-obs`: structured tracing + metrics for the sparsification pipeline.
//!
//! The workspace's determinism discipline is that *outputs* are a pure function of
//! the input stream while *timings* are measurements. This crate follows the same
//! split: every [`Event`] carries a name, a kind, and a list of deterministic
//! fields (counts, sizes, residuals), plus a timestamp and thread id that are
//! explicitly excluded from the structure fingerprint. Event counts and field
//! values must be identical across thread widths and batch chops; only `ts_us`
//! and `tid` may differ between runs.
//!
//! Recording is globally off by default. [`install`] sets a `'static` [`Sink`]
//! behind a single atomic pointer; the emission macros check [`enabled`] first,
//! so the disabled path is one relaxed-load branch with no allocation and no
//! field evaluation. Engines therefore instrument their orchestration loops
//! unconditionally and pay nothing in production runs.
//!
//! Two exporters are provided: a JSONL event log ([`export_jsonl`]) and a Chrome
//! `trace_event` JSON ([`export_chrome_trace`]) that loads in `chrome://tracing`
//! or Perfetto with spans on per-thread tracks. [`json::parse`] is a minimal
//! JSON parser back into the vendored `serde::Value` model so exported traces
//! round-trip without any crates.io dependency.

#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod export;
pub mod json;

pub use export::{export_chrome_trace, export_jsonl};

/// A single deterministic field value attached to an event.
///
/// Only bit-stable scalar payloads are representable on purpose: if a value is
/// deterministic enough to be an output it fits here, and if it is a measurement
/// it belongs in the timestamp, not in a field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Unsigned counter/size.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point value (fingerprinted by bit pattern).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Static string label.
    Str(&'static str),
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $cast:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue {
                FieldValue::$variant(v as $cast)
            }
        }
    )*};
}

impl_field_from!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// What an [`Event`] marks: span boundaries, an instant point, or a counter sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Start of a span (paired with [`EventKind::SpanEnd`] by name + nesting).
    SpanBegin,
    /// End of the most recent span with the same name on this thread.
    SpanEnd,
    /// An instant event.
    Point,
    /// A counter sample (rendered as a Chrome `C` event). No engine emits one; the
    /// variant stays while the benchmark's trace reader matches on it.
    Counter,
}

impl EventKind {
    /// Short stable label used by the JSONL exporter and the fingerprint.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "begin",
            EventKind::SpanEnd => "end",
            EventKind::Point => "point",
            EventKind::Counter => "counter",
        }
    }
}

/// A single trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Dotted event name, e.g. `"spanner.round"`.
    pub name: &'static str,
    /// Event kind.
    pub kind: EventKind,
    /// Deterministic payload fields, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Microseconds since the process trace epoch. A measurement — excluded from
    /// the structure fingerprint.
    pub ts_us: u64,
    /// Small dense per-process thread id. Excluded from the fingerprint.
    pub tid: u64,
}

/// Receives events while installed. Implementations must be `Sync`: engines may
/// emit from whichever thread runs the sequential orchestration frame.
pub trait Sink: Sync {
    /// Records one event.
    fn record(&self, event: Event);
}

struct Holder(&'static dyn Sink);

static SINK: AtomicPtr<Holder> = AtomicPtr::new(ptr::null_mut());

/// Returns true if a sink is installed. This is the one branch the clean path
/// pays; keep it first in every emission helper so fields are never evaluated
/// while disabled.
#[inline]
pub fn enabled() -> bool {
    !SINK.load(Ordering::Acquire).is_null()
}

#[inline]
fn sink() -> Option<&'static dyn Sink> {
    let p = SINK.load(Ordering::Acquire);
    if p.is_null() {
        None
    } else {
        // Install leaks the holder, so the pointee lives for the process.
        Some(unsafe { (*p).0 })
    }
}

/// Installs a global sink. The holder is intentionally leaked (install happens a
/// handful of times per process — bench bins once, tests per-case under a lock).
pub fn install(s: &'static dyn Sink) {
    let holder = Box::into_raw(Box::new(Holder(s)));
    // A racing emitter may still be dereferencing the previous holder, so it is
    // never freed. Holders are two words and installs are O(1) per process.
    let _old = SINK.swap(holder, Ordering::AcqRel);
}

/// Uninstalls the global sink; emission becomes a no-op again.
pub fn clear() {
    SINK.store(ptr::null_mut(), Ordering::Release);
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the first trace use in this process.
#[inline]
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static SCOPE_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Small dense id of the calling thread (1-based, assigned on first use).
#[inline]
pub fn thread_id() -> u64 {
    TID.with(|t| *t)
}

/// Emits a point event. Prefer the [`point!`] macro, which skips field
/// evaluation entirely while disabled.
pub fn point(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if let Some(s) = sink() {
        s.record(Event {
            name,
            kind: EventKind::Point,
            fields: fields.to_vec(),
            ts_us: now_us(),
            tid: thread_id(),
        });
    }
}

/// RAII span guard. Emits `SpanBegin` on creation (when enabled) and the paired
/// `SpanEnd` on drop. Inactive guards (disabled at creation) never emit the end
/// even if a sink appears mid-span, so begins and ends always pair.
#[must_use = "a span closes when the guard drops"]
pub struct Span {
    name: &'static str,
    active: bool,
}

impl Span {
    /// Starts a span. Prefer the [`span!`] macro.
    pub fn begin(name: &'static str, fields: &[(&'static str, FieldValue)]) -> Span {
        match sink() {
            Some(s) => {
                s.record(Event {
                    name,
                    kind: EventKind::SpanBegin,
                    fields: fields.to_vec(),
                    ts_us: now_us(),
                    tid: thread_id(),
                });
                Span { name, active: true }
            }
            None => Span {
                name,
                active: false,
            },
        }
    }

    /// A guard that never emits (used by the macro on the disabled path).
    pub fn inactive(name: &'static str) -> Span {
        Span {
            name,
            active: false,
        }
    }

    /// Closes the span now, attaching `fields` to its end event — for values known
    /// only when the work is done, such as an iteration count.
    pub fn end_with(mut self, fields: &[(&'static str, FieldValue)]) {
        if std::mem::take(&mut self.active) {
            if let Some(s) = sink() {
                s.record(Event {
                    name: self.name,
                    kind: EventKind::SpanEnd,
                    fields: fields.to_vec(),
                    ts_us: now_us(),
                    tid: thread_id(),
                });
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            if let Some(s) = sink() {
                s.record(Event {
                    name: self.name,
                    kind: EventKind::SpanEnd,
                    fields: Vec::new(),
                    ts_us: now_us(),
                    tid: thread_id(),
                });
            }
        }
    }
}

/// Emits a point event with named fields, evaluating nothing while disabled.
///
/// ```
/// sgs_obs::point!("spanner.round", round = 3usize, work = 128u64);
/// ```
#[macro_export]
macro_rules! point {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::point($name, &[$((stringify!($k), $crate::FieldValue::from($v))),*]);
        }
    };
}

/// Opens a span guard with named fields, evaluating nothing while disabled.
///
/// ```
/// let _s = sgs_obs::span!("solver.solve", n = 100usize);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::Span::begin($name, &[$((stringify!($k), $crate::FieldValue::from($v))),*])
        } else {
            $crate::Span::inactive($name)
        }
    };
}

/// Thread-local trace scope guard.
///
/// Some instrumented inner loops (PCG iterations) also run inside *parallel*
/// callers — the exact effective-resistance computation solves one system per
/// edge under `par_iter`. Emitting per-iteration events there would interleave
/// events nondeterministically. Sequential top-level callers (e.g.
/// `SddSolver::solve`) enter a [`TraceScope`]; the inner loop emits only when
/// [`in_scope`] is true on its thread, so parallel workers stay silent and event
/// order stays a pure function of the input.
#[must_use = "the scope closes when the guard drops"]
pub struct TraceScope(());

/// Enters a trace scope on the current thread (see [`TraceScope`]).
pub fn trace_scope() -> TraceScope {
    SCOPE_DEPTH.with(|d| d.set(d.get() + 1));
    TraceScope(())
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        SCOPE_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// True if the current thread is inside a [`TraceScope`].
#[inline]
pub fn in_scope() -> bool {
    enabled() && SCOPE_DEPTH.with(|d| d.get() > 0)
}

/// An in-memory sink collecting events behind a mutex; the workhorse for tests
/// and for the bench bins' exporters.
#[derive(Debug, Default)]
pub struct RecordingSink {
    events: Mutex<Vec<Event>>,
}

impl RecordingSink {
    /// Creates an empty recording sink.
    pub fn new() -> RecordingSink {
        RecordingSink::default()
    }

    /// Takes all recorded events, leaving the sink empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap())
    }

    /// Clones the current event list without draining it.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for RecordingSink {
    fn record(&self, event: Event) {
        self.events.lock().unwrap().push(event);
    }
}

/// Leaks a fresh [`RecordingSink`], installs it globally, and returns it. The
/// returned reference stays readable after [`clear`].
pub fn install_recording() -> &'static RecordingSink {
    let s: &'static RecordingSink = Box::leak(Box::new(RecordingSink::new()));
    install(s);
    s
}

/// Count and summed wall clock of every span that shares one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Closed spans of this name.
    pub count: u64,
    /// Summed duration, in milliseconds.
    pub total_ms: f64,
}

/// Sums the spans of `events` by name. Begins pair with ends per thread: an end
/// closes the innermost open span of the same name on its thread, so nested
/// same-name spans each count once. An end with no open begin is ignored, and so is
/// a begin that never ends.
pub fn span_totals(events: &[Event]) -> BTreeMap<&'static str, SpanTotal> {
    let mut open: BTreeMap<u64, Vec<(&'static str, u64)>> = BTreeMap::new();
    let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
    for ev in events {
        let stack = open.entry(ev.tid).or_default();
        match ev.kind {
            EventKind::SpanBegin => stack.push((ev.name, ev.ts_us)),
            EventKind::SpanEnd => {
                if let Some(pos) = stack.iter().rposition(|&(name, _)| name == ev.name) {
                    let (_, start_us) = stack.remove(pos);
                    let total = totals.entry(ev.name).or_default();
                    total.count += 1;
                    total.total_ms += ev.ts_us.saturating_sub(start_us) as f64 / 1e3;
                }
            }
            EventKind::Point | EventKind::Counter => {}
        }
    }
    totals
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a fingerprint of the event *structure*: names, kinds, field names and
/// field value bits, in order. Timestamps and thread ids are excluded — they are
/// measurements. Two runs of the same input must produce the same fingerprint
/// regardless of thread width or batch chop.
pub fn structure_fingerprint(events: &[Event]) -> u64 {
    let mut h = FNV_BASIS;
    for ev in events {
        h = fnv_bytes(h, ev.name.as_bytes());
        h = fnv_bytes(h, ev.kind.label().as_bytes());
        for (k, v) in &ev.fields {
            h = fnv_bytes(h, k.as_bytes());
            let (tag, bits): (u8, u64) = match *v {
                FieldValue::U64(x) => (0, x),
                FieldValue::I64(x) => (1, x as u64),
                FieldValue::F64(x) => (2, x.to_bits()),
                FieldValue::Bool(x) => (3, x as u64),
                FieldValue::Str(s) => (4, fnv_bytes(FNV_BASIS, s.as_bytes())),
            };
            h = fnv_bytes(h, &[tag]);
            h = fnv_bytes(h, &bits.to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> Event {
        Event {
            name,
            kind: EventKind::Point,
            fields,
            ts_us: 0,
            tid: 0,
        }
    }

    #[test]
    fn fingerprint_ignores_ts_and_tid() {
        let mut a = ev("x", vec![("n", FieldValue::U64(3))]);
        let mut b = a.clone();
        a.ts_us = 10;
        a.tid = 1;
        b.ts_us = 99;
        b.tid = 7;
        assert_eq!(
            structure_fingerprint(&[a]),
            structure_fingerprint(&[b.clone()])
        );
        let c = ev("x", vec![("n", FieldValue::U64(4))]);
        assert_ne!(structure_fingerprint(&[b]), structure_fingerprint(&[c]));
    }

    #[test]
    fn span_totals_pair_per_thread_and_skip_stray_ends() {
        let at = |name, kind, ts_us, tid| Event {
            name,
            kind,
            fields: Vec::new(),
            ts_us,
            tid,
        };
        use EventKind::{SpanBegin as B, SpanEnd as E};
        let events = [
            at("a", E, 0, 1), // stray end: nothing open yet
            at("a", B, 0, 1),
            at("a", B, 1000, 2), // other thread, interleaved
            at("a", B, 2000, 1), // nested same name
            at("a", E, 3000, 1), // closes the inner one (1 ms)
            at("b", B, 3500, 1),
            at("a", E, 4000, 2), // thread 2: 3 ms
            at("a", E, 6000, 1), // closes the outer one (6 ms)
            at("b", E, 6500, 1),
            at("c", B, 7000, 1), // never ends
        ];
        let t = span_totals(&events);
        assert_eq!(
            t["a"],
            SpanTotal {
                count: 3,
                total_ms: 10.0
            }
        );
        assert_eq!(
            t["b"],
            SpanTotal {
                count: 1,
                total_ms: 3.0
            }
        );
        assert!(!t.contains_key("c"));
    }

    #[test]
    fn disabled_macros_do_not_evaluate_fields() {
        clear();
        let mut hits = 0u32;
        let mut bump = || {
            hits += 1;
            1u64
        };
        point!("never", n = bump());
        assert_eq!(hits, 0);
        assert!(!enabled());
    }

    #[test]
    fn scope_depth_nests() {
        assert!(!in_scope());
        {
            let _a = trace_scope();
            let _b = trace_scope();
            // in_scope also requires a sink; depth alone is not enough.
            assert!(!in_scope() || enabled());
            SCOPE_DEPTH.with(|d| assert_eq!(d.get(), 2));
        }
        SCOPE_DEPTH.with(|d| assert_eq!(d.get(), 0));
    }
}
