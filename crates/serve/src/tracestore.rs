//! Per-task trace retention for the daemon.
//!
//! The `p7_obs::trace` ring is a process-global firehose: every span
//! from every thread lands in one buffer, and `collect()` drains it.
//! The daemon needs something narrower — "give me the span tree of
//! task 7" long after the scheduler moved on — so this module keeps a
//! bounded, process-global side table of completed events grouped by
//! trace id.
//!
//! Why process-global rather than per-daemon: `trace::collect()` is
//! destructive, and several daemons can share one test process. If
//! each daemon kept its own table, whichever thread drained the ring
//! first would steal the other daemon's events. Instead every drain
//! feeds the same store, and each daemon namespaces its trace ids with
//! [`p7_types::fnv64`] over its journal directory, so ids never collide and
//! lookups stay per-daemon.
//!
//! Retention is bounded: once more than [`TraceStore::DEFAULT_CAPACITY`]
//! distinct traces are held, the oldest-started trace is evicted whole.
//! A trace is telemetry, not task state — eviction loses nothing a
//! restart would not.
//!
//! Retained events are packed, not kept as 72-byte [`TraceEvent`]s: each
//! trace is one append-only byte buffer of LEB128 varints, seven per
//! event (see `PackedTrace`), about 8 bytes per event on real served
//! traces. One cold task's trace is ~800 events, so a full store holds
//! a few hundred KiB rather than several MiB. [`TraceStore::events_for`]
//! decodes the same events in the same order they were absorbed.

use p7_obs::trace::TraceEvent;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Appends `value` to `buf` as an unsigned LEB128 varint.
fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        buf.push((value as u8) | 0x80);
        value >>= 7;
    }
    buf.push(value as u8);
}

/// Reads the varint at `*pos` and advances past it.
fn take_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0;
    let mut shift = 0;
    loop {
        let byte = buf[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return value;
        }
        shift += 7;
    }
}

/// Zig-zag maps a wrapping difference read as signed onto small
/// unsigned values for small magnitudes of either sign.
fn zigzag(delta: u64) -> u64 {
    let delta = delta as i64;
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(value: u64) -> u64 {
    (value >> 1) ^ (value & 1).wrapping_neg()
}

/// One trace's events as an append-only varint stream. Per event, in
/// order: the interned name index shifted left one with the instant
/// flag in bit 0, `key`, `worker`, the zig-zag start delta from the
/// trace's previous event (`collect()` sorts by name, not time, so
/// starts go backwards), `dur_us`, the zig-zag span-id delta from the
/// previous event, and zig-zag `parent − span`. All differences wrap,
/// so every `u64` round-trips; `trace` is the map key and not stored.
#[derive(Default)]
struct PackedTrace {
    bytes: Vec<u8>,
    /// The last appended event's start and span id: the next deltas'
    /// bases (both 0 before the first event).
    prev_start: u64,
    prev_span: u64,
}

impl PackedTrace {
    fn push(&mut self, name: u64, event: &TraceEvent) {
        let buf = &mut self.bytes;
        put_varint(buf, name << 1 | u64::from(event.instant));
        put_varint(buf, event.key);
        put_varint(buf, u64::from(event.worker));
        put_varint(buf, zigzag(event.start_us.wrapping_sub(self.prev_start)));
        put_varint(buf, event.dur_us);
        put_varint(buf, zigzag(event.span.wrapping_sub(self.prev_span)));
        put_varint(buf, zigzag(event.parent.wrapping_sub(event.span)));
        self.prev_start = event.start_us;
        self.prev_span = event.span;
    }

    fn decode(&self, trace: u64, names: &[&'static str]) -> Vec<TraceEvent> {
        let buf = &self.bytes;
        let (mut pos, mut start_us, mut span) = (0, 0u64, 0u64);
        let mut events = Vec::new();
        while pos < buf.len() {
            let tag = take_varint(buf, &mut pos);
            let key = take_varint(buf, &mut pos);
            let worker = take_varint(buf, &mut pos) as u32;
            start_us = start_us.wrapping_add(unzigzag(take_varint(buf, &mut pos)));
            let dur_us = take_varint(buf, &mut pos);
            span = span.wrapping_add(unzigzag(take_varint(buf, &mut pos)));
            let parent = span.wrapping_add(unzigzag(take_varint(buf, &mut pos)));
            events.push(TraceEvent {
                name: names[(tag >> 1) as usize],
                key,
                worker,
                start_us,
                dur_us,
                instant: tag & 1 == 1,
                trace,
                span,
                parent,
            });
        }
        events
    }
}

struct Inner {
    /// Completed events per trace id, packed in absorb order.
    traces: HashMap<u64, PackedTrace>,
    /// Span names seen so far (a few dozen static sites at most); a
    /// packed event stores its index here.
    names: Vec<&'static str>,
    /// Trace ids in first-seen order, for whole-trace eviction.
    order: VecDeque<u64>,
    /// The accept-span id of each trace, so scheduler-side spans can
    /// parent themselves onto the root across the queue boundary.
    roots: HashMap<u64, u64>,
    /// Tombstones of evicted trace ids: a straggler span from a
    /// dropped trace must not resurrect a one-event tree. Bounded FIFO
    /// (`dead_order`) so the set cannot grow without limit.
    dead: HashSet<u64>,
    dead_order: VecDeque<u64>,
    /// Whole traces evicted since process start.
    evicted: u64,
}

impl Inner {
    /// The index of `name` in `names`, appending it on first sight.
    fn intern(&mut self, name: &'static str) -> u64 {
        let index = self.names.iter().position(|n| *n == name);
        let index = index.unwrap_or_else(|| {
            self.names.push(name);
            self.names.len() - 1
        });
        index as u64
    }
}

/// A bounded map `trace id → completed events`, shared by every daemon
/// in the process.
pub struct TraceStore {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl TraceStore {
    /// Distinct traces retained before the oldest is evicted whole.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A store retaining at most `capacity` distinct traces (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                traces: HashMap::new(),
                names: Vec::new(),
                order: VecDeque::new(),
                roots: HashMap::new(),
                dead: HashSet::new(),
                dead_order: VecDeque::new(),
                evicted: 0,
            }),
        }
    }

    /// The process-wide store every daemon absorbs into.
    pub fn global() -> &'static TraceStore {
        static GLOBAL: OnceLock<TraceStore> = OnceLock::new();
        GLOBAL.get_or_init(|| TraceStore::new(TraceStore::DEFAULT_CAPACITY))
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admit `trace` into the bounded id set, evicting the oldest trace
    /// whole when over capacity. Returns `false` for a tombstoned
    /// (already-evicted) trace. Caller holds the lock.
    fn admit(&self, inner: &mut Inner, trace: u64) -> bool {
        if inner.traces.contains_key(&trace) || inner.roots.contains_key(&trace) {
            return true;
        }
        if inner.dead.contains(&trace) {
            return false;
        }
        inner.order.push_back(trace);
        // The new trace sits at the back, so eviction (from the front)
        // can never drop what was just admitted.
        while inner.order.len() > self.capacity {
            if let Some(old) = inner.order.pop_front() {
                inner.traces.remove(&old);
                inner.roots.remove(&old);
                inner.evicted += 1;
                if inner.dead.insert(old) {
                    inner.dead_order.push_back(old);
                }
                while inner.dead_order.len() > self.capacity * 4 {
                    if let Some(expired) = inner.dead_order.pop_front() {
                        inner.dead.remove(&expired);
                    }
                }
            }
        }
        true
    }

    /// Files a batch of drained events under their trace ids. Events
    /// with no trace id (`trace == 0` — spans recorded outside any
    /// task, e.g. another subsystem's instrumentation) are dropped.
    pub fn absorb(&self, events: Vec<TraceEvent>) {
        let mut inner = self.lock();
        for event in events {
            if event.trace == 0 {
                continue;
            }
            // An evicted trace stays evicted: a straggler span from a
            // dropped trace must not resurrect a one-event tree.
            if !self.admit(&mut inner, event.trace) {
                continue;
            }
            let name = inner.intern(event.name);
            inner
                .traces
                .entry(event.trace)
                .or_default()
                .push(name, &event);
        }
    }

    /// Registers the root (accept) span of `trace`, so spans recorded
    /// on the far side of the queue can parent onto it.
    pub fn set_root(&self, trace: u64, span: u64) {
        let mut inner = self.lock();
        if self.admit(&mut inner, trace) {
            inner.roots.insert(trace, span);
        }
    }

    /// The root span id of `trace`, if registered and not evicted.
    #[must_use]
    pub fn root_of(&self, trace: u64) -> Option<u64> {
        self.lock().roots.get(&trace).copied()
    }

    /// Every completed event of `trace` in absorb order, if any were
    /// absorbed.
    #[must_use]
    pub fn events_for(&self, trace: u64) -> Option<Vec<TraceEvent>> {
        let inner = self.lock();
        let packed = inner.traces.get(&trace)?;
        Some(packed.decode(trace, &inner.names))
    }

    /// Whole traces evicted since process start.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.lock().evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn event(trace: u64, span: u64, name: &'static str) -> TraceEvent {
        TraceEvent {
            name,
            trace,
            span,
            ..TraceEvent::default()
        }
    }

    #[test]
    fn absorb_groups_by_trace_and_drops_untraced() {
        let store = TraceStore::new(8);
        store.absorb(vec![
            event(1, 10, "a"),
            event(2, 20, "b"),
            event(0, 30, "untraced"),
            event(1, 11, "c"),
        ]);
        let one = store.events_for(1).unwrap();
        assert_eq!(one.len(), 2);
        assert_eq!(store.events_for(2).unwrap().len(), 1);
        assert!(store.events_for(0).is_none());
        assert!(store.events_for(99).is_none());
    }

    #[test]
    fn eviction_drops_whole_oldest_trace_and_blocks_stragglers() {
        let store = TraceStore::new(2);
        store.set_root(1, 100);
        store.absorb(vec![event(1, 100, "root")]);
        store.absorb(vec![event(2, 200, "root")]);
        store.absorb(vec![event(3, 300, "root")]); // evicts trace 1
        assert!(store.events_for(1).is_none());
        assert!(store.root_of(1).is_none());
        assert_eq!(store.evicted(), 1);
        // A straggler from the evicted trace must not resurrect it.
        store.absorb(vec![event(1, 101, "late")]);
        assert!(store.events_for(1).is_none());
        // The survivors are intact.
        assert!(store.events_for(2).is_some());
        assert!(store.events_for(3).is_some());
    }

    #[test]
    fn roots_cross_the_queue_boundary() {
        let store = TraceStore::new(8);
        store.set_root(7, 42);
        assert_eq!(store.root_of(7), Some(42));
        assert_eq!(store.root_of(8), None);
    }

    const NAMES: [&str; 5] = ["task_accept", "task_solve", "tick", "solve", "degrade"];

    /// A `u64` that is often one of the varint edge cases.
    fn edgy_u64() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0), Just(u64::MAX), 0u64..300, 0..=u64::MAX]
    }

    /// A random event: a span, or (one time in three) an instant with
    /// span 0 and no duration. Starts are drawn independently, so they
    /// go backwards about half the time.
    fn arbitrary_event() -> impl Strategy<Value = TraceEvent> {
        (
            0..NAMES.len(),
            prop_oneof![Just(0), Just(u64::MAX), 1..=4u64],
            edgy_u64(),
            0..=u32::MAX,
            edgy_u64(),
            edgy_u64(),
            (0u8..3, edgy_u64()),
            edgy_u64(),
        )
            .prop_map(
                |(name, trace, key, worker, start_us, dur_us, (kind, span), parent)| {
                    let instant = kind == 0;
                    TraceEvent {
                        name: NAMES[name],
                        key,
                        worker,
                        start_us,
                        dur_us: if instant { 0 } else { dur_us },
                        instant,
                        trace,
                        span: if instant { 0 } else { span },
                        parent,
                    }
                },
            )
    }

    proptest! {
        #[test]
        fn packed_traces_round_trip_in_absorb_order(
            events in prop::collection::vec(arbitrary_event(), 0..80),
            chunks in prop::collection::vec(1usize..12, 1..8),
        ) {
            let store = TraceStore::new(16);
            let mut rest = events.as_slice();
            for &len in chunks.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (batch, tail) = rest.split_at(len.min(rest.len()));
                store.absorb(batch.to_vec());
                rest = tail;
            }
            for trace in [0, 1, 2, 3, 4, u64::MAX] {
                let expected: Vec<TraceEvent> = events
                    .iter()
                    .filter(|e| trace != 0 && e.trace == trace)
                    .cloned()
                    .collect();
                let got = store.events_for(trace);
                if expected.is_empty() {
                    prop_assert!(got.is_none(), "trace {trace}: {got:?}");
                } else {
                    prop_assert_eq!(got, Some(expected));
                }
            }
        }
    }
}
