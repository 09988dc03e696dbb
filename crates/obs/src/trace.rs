//! Structured tracing: per-worker ring-buffered span events with a
//! deterministic export order.
//!
//! Every instrumented site opens a [`Span`] (or emits an [`instant`] marker)
//! carrying a `'static` name and a caller-supplied *logical key* — the tick
//! index, sweep grid index, journal segment index, whatever identifies the
//! unit of work independently of which worker happened to execute it. Wall
//! clock timestamps are recorded too (they are what a trace viewer renders),
//! but ordering and identity never depend on them: [`collect`] sorts by
//! `(name, key)`, so for the same seed/spec the exported event sequence and
//! the per-name span counts are identical at any `--jobs`.
//!
//! Buffering is per-thread: each worker owns a fixed-capacity ring (no locks
//! on the record path, no allocation after the ring's one-time warmup
//! allocation). Worker threads call [`flush`] before their closure returns
//! to drain the ring into the global collector — scoped joins can return
//! before TLS destructors run, so the `Drop`-based flush alone is not
//! reliable (it remains as a backstop for plain `spawn`/`join` threads).
//! [`collect`] also drains the calling thread's ring, so the usual flow —
//! scoped workers flush, join, then export from the coordinating thread —
//! loses nothing. If a ring wraps, the oldest events are overwritten and
//! counted in [`dropped`].
//!
//! # Trace context
//!
//! Spans form a *tree*: every span gets a process-unique id, and opening a
//! span while another's context is pushed records the parent edge. Context
//! lives in a per-thread cell — a `(trace, parent span)` pair — that
//! [`Span::push`] / [`push_context`] set and their guard restores on drop.
//! Crossing a thread boundary is explicit: capture [`current_context`]
//! before spawning and [`push_context`] it inside the worker closure, the
//! same place the worker already calls [`flush`]. The `trace` component is
//! a caller-chosen 64-bit id (the serve daemon derives one per task; CLI
//! campaigns run under a single root span), letting one process carry many
//! interleaved trees and a collector group events by tree afterwards.
//!
//! Span *ids* are allocated from a global counter, so they differ run to
//! run — but the tree's shape doesn't: the multiset of
//! `(child name, parent name)` edges is as jobs-invariant as the
//! per-name span counts, and the determinism suite pins both.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (events). 64Ki events × 72 B (the size
/// of a [`TraceEvent`]) ≈ 4.5 MiB per worker at the default — plenty for
/// smoke runs, bounded for long ones.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One completed span or instant marker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static site name, e.g. `"tick"`, `"solve"`, `"sweep_point"`.
    pub name: &'static str,
    /// Deterministic logical key (tick index, grid index, …).
    pub key: u64,
    /// Worker ordinal of the recording thread (arrival order, not
    /// deterministic — carried for trace-viewer lanes only).
    pub worker: u32,
    /// Start timestamp, microseconds since the tracer was enabled.
    pub start_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// True for zero-duration instant markers (supervisor degrade/re-arm).
    pub instant: bool,
    /// Tree this event belongs to (0 = unassigned). Caller-chosen; the
    /// serve daemon derives one per task, CLI campaigns use one root.
    pub trace: u64,
    /// Process-unique span id (0 for instants and pre-context events).
    pub span: u64,
    /// Span id of the enclosing span when one was pushed (0 = root).
    pub parent: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_WORKER: AtomicU32 = AtomicU32::new(0);
/// Span ids start at 1 so 0 can mean "none" in `parent`/`span` fields.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The calling thread's `(trace, parent span id)` context.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A `(trace, span)` pair that child spans opened under it inherit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Tree id (0 = unassigned).
    pub trace: u64,
    /// Span id new children record as their parent (0 = root).
    pub span: u64,
}

/// The calling thread's current context — capture this before spawning
/// workers and [`push_context`] it inside each worker closure.
#[inline]
#[must_use]
pub fn current_context() -> TraceContext {
    let (trace, span) = CONTEXT.try_with(Cell::get).unwrap_or((0, 0));
    TraceContext { trace, span }
}

/// Make `ctx` the calling thread's context until the returned guard
/// drops (which restores the previous context). Allocation-free.
#[inline]
#[must_use = "dropping the guard immediately restores the previous context"]
pub fn push_context(ctx: TraceContext) -> ContextGuard {
    let prev = CONTEXT
        .try_with(|c| c.replace((ctx.trace, ctx.span)))
        .unwrap_or((0, 0));
    ContextGuard { prev }
}

/// Restores the previously pushed context on drop.
pub struct ContextGuard {
    prev: (u64, u64),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let _ = CONTEXT.try_with(|c| c.set(self.prev));
    }
}

fn collected() -> &'static Mutex<Vec<TraceEvent>> {
    static COLLECTED: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    COLLECTED.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the tracer's epoch (first use).
fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Enable span recording with the default ring capacity.
pub fn enable() {
    enable_with_capacity(DEFAULT_RING_CAPACITY);
}

/// Enable span recording; new per-thread rings allocate `capacity` slots.
pub fn enable_with_capacity(capacity: usize) {
    CAPACITY.store(capacity.max(1), Ordering::Relaxed);
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording. Buffered events stay put until [`collect`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether spans are currently recorded.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of events lost to ring wrap-around since the last [`collect`].
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

struct Ring {
    events: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    oldest: usize,
    worker: u32,
}

impl Ring {
    fn push(&mut self, e: TraceEvent) {
        let cap = self.events.capacity();
        if self.events.len() < cap {
            self.events.push(e);
        } else {
            self.events[self.oldest] = e;
            self.oldest = (self.oldest + 1) % cap;
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn drain_into(&mut self, out: &mut Vec<TraceEvent>) {
        out.extend(self.events.drain(self.oldest..));
        out.append(&mut self.events);
        self.oldest = 0;
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        if !self.events.is_empty() {
            let mut out = collected().lock().unwrap_or_else(|e| e.into_inner());
            let mut buf = std::mem::take(&mut *out);
            self.drain_into(&mut buf);
            *out = buf;
        }
    }
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring {
        events: Vec::new(),
        oldest: 0,
        worker: NEXT_WORKER.fetch_add(1, Ordering::Relaxed),
    });
}

fn record(mut event: TraceEvent) {
    let _ = RING.try_with(|cell| {
        let mut ring = cell.borrow_mut();
        if ring.events.capacity() == 0 {
            let cap = CAPACITY.load(Ordering::Relaxed);
            ring.events.reserve_exact(cap);
        }
        event.worker = ring.worker;
        ring.push(event);
    });
}

/// An open span; records its event when dropped. When tracing is disabled
/// this is an inert zero-cost guard.
#[must_use = "a span records on drop; binding it to `_span` keeps it open for the scope"]
pub struct Span {
    name: &'static str,
    key: u64,
    start_us: u64,
    armed: bool,
    id: u64,
    trace: u64,
    parent: u64,
}

impl Span {
    /// Mutate the logical key after opening (useful when the key is only
    /// known once work completes, e.g. an iteration count).
    pub fn set_key(&mut self, key: u64) {
        self.key = key;
    }

    /// Assign this span to tree `trace` (overriding whatever context it
    /// inherited). Children pushed via [`Span::push`] inherit the new id.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    /// Override the recorded parent span id — for edges that cross a
    /// queue rather than a call stack (a scheduler linking its work back
    /// to the accept span that enqueued it).
    pub fn set_parent(&mut self, parent: u64) {
        self.parent = parent;
    }

    /// This span's process-unique id (0 when tracing was disabled at
    /// open).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Make this span the calling thread's context: spans opened while
    /// the guard lives record it as their parent and inherit its trace.
    #[inline]
    #[must_use = "dropping the guard immediately restores the previous context"]
    pub fn push(&self) -> ContextGuard {
        push_context(TraceContext {
            trace: self.trace,
            span: self.id,
        })
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed && is_enabled() {
            let end = now_us();
            record(TraceEvent {
                name: self.name,
                key: self.key,
                worker: 0,
                start_us: self.start_us,
                dur_us: end.saturating_sub(self.start_us),
                instant: false,
                trace: self.trace,
                span: self.id,
                parent: self.parent,
            });
        }
    }
}

/// Open a span. `key` is the deterministic logical identity of this unit of
/// work (tick index, grid index, segment index, …). The span inherits the
/// thread's current [`TraceContext`] as its tree and parent.
#[inline]
pub fn span(name: &'static str, key: u64) -> Span {
    if !is_enabled() {
        return Span {
            name,
            key,
            start_us: 0,
            armed: false,
            id: 0,
            trace: 0,
            parent: 0,
        };
    }
    let ctx = current_context();
    Span {
        name,
        key,
        start_us: now_us(),
        armed: true,
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        trace: ctx.trace,
        parent: ctx.span,
    }
}

/// Emit a zero-duration instant marker (e.g. supervisor degrade/re-arm).
/// Instants carry the thread's current context as their tree/parent but
/// allocate no span id of their own.
#[inline]
pub fn instant(name: &'static str, key: u64) {
    if is_enabled() {
        let t = now_us();
        let ctx = current_context();
        record(TraceEvent {
            name,
            key,
            worker: 0,
            start_us: t,
            dur_us: 0,
            instant: true,
            trace: ctx.trace,
            span: 0,
            parent: ctx.span,
        });
    }
}

/// Drains the calling thread's ring into the global collector.
///
/// Worker threads MUST call this as the last thing their closure does:
/// `std::thread::scope` can return to the spawner before a finished
/// thread's TLS destructors have run, so the `Drop`-based flush races
/// with a [`collect`] performed right after the scope — events would be
/// silently (and nondeterministically) lost. The `Drop` flush remains as
/// a backstop for plain spawned threads, whose `join` waits for full
/// thread exit.
pub fn flush() {
    let _ = RING.try_with(|cell| {
        let mut ring = cell.borrow_mut();
        if !ring.events.is_empty() {
            let mut out = collected().lock().unwrap_or_else(|e| e.into_inner());
            let mut buf = std::mem::take(&mut *out);
            ring.drain_into(&mut buf);
            *out = buf;
        }
    });
}

/// Drain every buffered event (the calling thread's ring plus everything
/// flushed by exited worker threads) sorted by `(name, key, start, worker)`.
/// The primary `(name, key)` ordering is what makes traces comparable
/// across `--jobs`; the trailing wall-clock/worker components only break
/// ties between genuinely concurrent duplicates.
pub fn collect() -> Vec<TraceEvent> {
    let mut out: Vec<TraceEvent> = {
        let mut locked = collected().lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *locked)
    };
    let _ = RING.try_with(|cell| cell.borrow_mut().drain_into(&mut out));
    DROPPED.store(0, Ordering::Relaxed);
    out.sort_by(|a, b| {
        (a.name, a.key, a.start_us, a.worker).cmp(&(b.name, b.key, b.start_us, b.worker))
    });
    out
}

/// Render events as Chrome `trace_event` JSON (the
/// `{"traceEvents": [...]}` object form understood by `chrome://tracing`
/// and Perfetto). Spans become complete (`"ph":"X"`) events; instants
/// become `"ph":"i"` with thread scope. Tree identity rides in `args`:
/// `span`/`parent` ids as integers when assigned, the 64-bit trace id as
/// a hex string (JSON numbers above 2^53 lose precision in JS viewers).
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut args = format!("\"key\":{}", e.key);
        if e.span != 0 {
            args.push_str(&format!(",\"span\":{}", e.span));
        }
        if e.parent != 0 {
            args.push_str(&format!(",\"parent\":{}", e.parent));
        }
        if e.trace != 0 {
            args.push_str(&format!(",\"trace\":\"{:016x}\"", e.trace));
        }
        if e.instant {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"ags\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{{args}}}}}",
                escape_json(e.name),
                e.start_us,
                e.worker,
            ));
        } else {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"ags\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{{args}}}}}",
                escape_json(e.name),
                e.start_us,
                e.dur_us,
                e.worker,
            ));
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer is process-global; tests that enable it serialize here.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The ring-size arithmetic on [`DEFAULT_RING_CAPACITY`] rests on it.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn trace_event_is_72_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 72);
    }

    #[test]
    fn spans_record_and_collect_sorted() {
        let _g = lock();
        let _ = collect();
        enable();
        {
            let _b = span("beta", 2);
            let _a = span("alpha", 7);
        }
        instant("alpha", 1);
        disable();
        let events = collect();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| (e.name, e.key)).collect::<Vec<_>>(),
            vec![("alpha", 1), ("alpha", 7), ("beta", 2)],
            "collect orders by (name, key), not record order"
        );
        assert!(events[0].instant);
        assert!(!events[1].instant);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        let _ = collect();
        disable();
        {
            let _s = span("quiet", 0);
        }
        instant("quiet", 1);
        assert!(collect().is_empty());
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let _g = lock();
        let _ = collect();
        enable_with_capacity(4);
        for k in 0..10u64 {
            instant("wrap", k);
        }
        disable();
        assert_eq!(dropped(), 6);
        let events = collect();
        assert_eq!(
            events.len(),
            4,
            "ring keeps only the newest capacity events"
        );
        assert_eq!(
            events.iter().map(|e| e.key).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "oldest events are the ones overwritten"
        );
        assert_eq!(dropped(), 0, "collect resets the dropped counter");
        // Restore the default so later tests in this binary are unaffected.
        CAPACITY.store(DEFAULT_RING_CAPACITY, Ordering::Relaxed);
    }

    #[test]
    fn worker_threads_flush_on_join() {
        let _g = lock();
        let _ = collect();
        enable();
        // Plain spawned threads: `join` waits for full thread exit, so the
        // Drop-based backstop flush is reliable here.
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let _sp = span("worker_span", t);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let events = collect();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.key).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn scoped_workers_flush_explicitly() {
        let _g = lock();
        let _ = collect();
        enable();
        // Scoped threads can outlive the scope's join as far as TLS
        // destructors are concerned, so workers flush before returning;
        // every event must be visible to the collect right after.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..16u64 {
                        instant("scoped", t * 100 + i);
                    }
                    flush();
                });
            }
        });
        disable();
        let events = collect();
        assert_eq!(events.len(), 64, "no scoped worker's events may be lost");
    }

    #[test]
    fn chrome_trace_shape() {
        let events = vec![
            TraceEvent {
                name: "tick",
                key: 3,
                worker: 1,
                start_us: 10,
                dur_us: 4,
                instant: false,
                ..TraceEvent::default()
            },
            TraceEvent {
                name: "degrade",
                key: 0,
                worker: 0,
                start_us: 11,
                dur_us: 0,
                instant: true,
                ..TraceEvent::default()
            },
        ];
        let json = render_chrome_trace(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"dur\":4"));
        assert!(json.contains("\"args\":{\"key\":3}"));
    }

    #[test]
    fn chrome_trace_carries_tree_identity() {
        let events = vec![TraceEvent {
            name: "task_solve",
            key: 1,
            span: 12,
            parent: 4,
            trace: 0xdead_beef,
            dur_us: 9,
            ..TraceEvent::default()
        }];
        let json = render_chrome_trace(&events);
        assert!(json.contains("\"span\":12"), "{json}");
        assert!(json.contains("\"parent\":4"), "{json}");
        assert!(json.contains("\"trace\":\"00000000deadbeef\""), "{json}");
    }

    #[test]
    fn spans_inherit_pushed_context() {
        let _g = lock();
        let _ = collect();
        enable();
        let root_id;
        {
            let mut root = span("root", 0);
            root.set_trace(0x77);
            root_id = root.id();
            assert_ne!(root_id, 0);
            let _ctx = root.push();
            {
                let child = span("child", 1);
                let _c2 = child.push();
                let _grand = span("grand", 2);
                instant("mark", 3);
            }
            let sibling = span("sibling", 4);
            drop(sibling);
        }
        // Context restored after all guards dropped.
        assert_eq!(current_context(), TraceContext::default());
        disable();
        let events = collect();
        let by_name = |n: &str| events.iter().find(|e| e.name == n).unwrap().clone();
        let root = by_name("root");
        let child = by_name("child");
        let grand = by_name("grand");
        let mark = by_name("mark");
        let sibling = by_name("sibling");
        assert_eq!(root.parent, 0);
        assert_eq!(root.trace, 0x77);
        assert_eq!(child.parent, root.span);
        assert_eq!(child.trace, 0x77, "children inherit the pushed trace");
        assert_eq!(grand.parent, child.span);
        assert_eq!(mark.parent, child.span);
        assert_eq!(mark.span, 0, "instants allocate no span id");
        assert_eq!(sibling.parent, root.span, "inner guard was restored");
    }

    #[test]
    fn context_crosses_threads_explicitly() {
        let _g = lock();
        let _ = collect();
        enable();
        let parent = span("xthread_parent", 0);
        let ctx = {
            let _p = parent.push();
            current_context()
        };
        std::thread::scope(|s| {
            s.spawn(move || {
                let _c = push_context(ctx);
                let _w = span("xthread_child", 1);
                flush();
            });
        });
        drop(parent);
        disable();
        let events = collect();
        let p = events.iter().find(|e| e.name == "xthread_parent").unwrap();
        let c = events.iter().find(|e| e.name == "xthread_child").unwrap();
        assert_eq!(c.parent, p.span);
    }

    #[test]
    fn disabled_spans_have_no_ids_and_push_is_inert() {
        let _g = lock();
        let _ = collect();
        disable();
        let s = span("quiet", 0);
        assert_eq!(s.id(), 0);
        {
            let _c = s.push();
            assert_eq!(current_context(), TraceContext::default());
        }
        assert!(collect().is_empty());
    }
}
