//! Spans recorded from outside the program, around each call into a layer.
//!
//! A [`Tracer`] keeps spans in a preallocated `Vec` — name, start, end, the
//! span that caused it, and a request id — and aggregates them to *self
//! time* per name when the pump ends: a span's duration minus what its
//! children cover. Switched off it is one predictable branch per call,
//! which is how the same pump code yields the untraced time that
//! `pump.trace_overhead_share` is measured against.

use crate::json::Value;
use std::time::Instant;

/// The span names: one per call the pump makes into a layer, plus the two
/// roots that cause them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Name {
    /// One main-loop turn of one host (root).
    Turn,
    /// The wire delivering due frames (root).
    Wire,
    RxBurst,
    InputBuf,
    FreeMbuf,
    /// The application step of a turn (parent of the `ff_*` spans).
    App,
    FfWrite,
    FfRead,
    Connect,
    Close,
    ServerStep,
    PollTx,
    TxBurst,
    Deliver,
}

impl Name {
    pub const ALL: [Name; 14] = [
        Name::Turn,
        Name::Wire,
        Name::RxBurst,
        Name::InputBuf,
        Name::FreeMbuf,
        Name::App,
        Name::FfWrite,
        Name::FfRead,
        Name::Connect,
        Name::Close,
        Name::ServerStep,
        Name::PollTx,
        Name::TxBurst,
        Name::Deliver,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Turn => "pump.turn",
            Name::Wire => "pump.wire",
            Name::RxBurst => "updk.rx_burst",
            Name::InputBuf => "fstack.input_buf",
            Name::FreeMbuf => "updk.free_mbuf",
            Name::App => "pump.app",
            Name::FfWrite => "fstack.ff_write",
            Name::FfRead => "fstack.ff_read",
            Name::Connect => "fstack.connect",
            Name::Close => "fstack.close",
            Name::ServerStep => "httpd.server_step",
            Name::PollTx => "fstack.poll_tx",
            Name::TxBurst => "updk.tx_burst",
            Name::Deliver => "updk.deliver",
        }
    }
}

/// Index of the root "no parent".
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    /// Request (or connection) the span belongs to; 0 when the call serves
    /// no single request (a burst poll).
    req: u32,
    start_ns: u64,
    end_ns: u64,
}

/// An open span, handed back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an entered span must be exited"]
pub struct Open(u32);

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    /// Duration minus children, summed.
    pub self_ns: u64,
    /// Full duration, summed.
    pub total_ns: u64,
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Index of the innermost open span.
    current: u32,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// A recorder with room for `capacity` spans, or one that records
    /// nothing when `enabled` is false.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            current: NO_PARENT,
            capacity,
            dropped: 0,
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: Name, req: u32) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        if self.spans.len() >= self.capacity {
            // Never reallocate mid-measurement; count what did not fit.
            self.dropped += 1;
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.current,
            req,
            start_ns,
            end_ns: start_ns,
        });
        self.current = idx;
        Open(idx)
    }

    /// Closes `open` (spans close innermost-first).
    #[inline]
    pub fn exit(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let end = self.now_ns();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end;
        debug_assert_eq!(self.current, open.0, "spans close innermost-first");
        self.current = span.parent;
    }

    /// Spans recorded.
    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    /// Spans that did not fit the preallocated buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The first `limit` spans as recorded — name, start, end, parent index
    /// (`null` for a root) and request id — for the results file: enough
    /// to see the nesting a shape produces without writing a million rows.
    pub fn head_json(&self, limit: usize) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .take(limit)
                .map(|s| {
                    Value::obj([
                        ("name", Value::str(s.name.label())),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            match s.parent {
                                NO_PARENT => Value::Null,
                                p => Value::Num(f64::from(p)),
                            },
                        ),
                        ("req", Value::Num(f64::from(s.req))),
                    ])
                })
                .collect(),
        )
    }

    /// Per-name call counts, self time and total time, indexed like
    /// [`Name::ALL`].
    pub fn totals(&self) -> [NameTotals; Name::ALL.len()] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = [NameTotals::default(); Name::ALL.len()];
        for (s, kids) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = &mut out[s.name as usize];
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(*kids);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true, 16);
        let turn = tr.enter(Name::Turn, 0);
        spin(200_000);
        let rx = tr.enter(Name::RxBurst, 0);
        spin(400_000);
        tr.exit(rx);
        let app = tr.enter(Name::App, 7);
        let w = tr.enter(Name::FfWrite, 7);
        spin(300_000);
        tr.exit(w);
        tr.exit(app);
        tr.exit(turn);
        let t = tr.totals();
        let (turn, rx, app, w) = (
            t[Name::Turn as usize],
            t[Name::RxBurst as usize],
            t[Name::App as usize],
            t[Name::FfWrite as usize],
        );
        assert_eq!((turn.calls, rx.calls, app.calls, w.calls), (1, 1, 1, 1));
        assert!(turn.total_ns >= 900_000, "the root spans everything");
        assert!(rx.self_ns >= 400_000 && w.self_ns >= 300_000);
        // Self times partition the root's duration exactly.
        assert_eq!(
            turn.self_ns + rx.self_ns + app.self_ns + w.self_ns,
            turn.total_ns
        );
        assert!(turn.self_ns < turn.total_ns - 700_000 + 100_000);
        assert_eq!(tr.recorded(), 4);
        // The written-out form keeps the causal links and request ids.
        let Value::Arr(head) = tr.head_json(3) else {
            panic!("head is an array");
        };
        assert_eq!(head.len(), 3);
        assert_eq!(head[0].get("parent"), Some(&Value::Null));
        assert_eq!(head[2].get("parent"), Some(&Value::Num(0.0)));
        assert_eq!(head[2].get("req"), Some(&Value::Num(7.0)));
        assert_eq!(
            head[2].get("name").and_then(Value::as_str),
            Some("pump.app")
        );
    }

    #[test]
    fn disabled_records_nothing_and_full_buffers_count_drops() {
        let mut off = Tracer::new(false, 16);
        let o = off.enter(Name::Turn, 0);
        off.exit(o);
        assert_eq!((off.recorded(), off.dropped()), (0, 0));

        let mut tiny = Tracer::new(true, 1);
        let a = tiny.enter(Name::Turn, 0);
        let b = tiny.enter(Name::RxBurst, 0);
        tiny.exit(b);
        tiny.exit(a);
        assert_eq!((tiny.recorded(), tiny.dropped()), (1, 1));
        assert_eq!(tiny.totals()[Name::Turn as usize].calls, 1);
    }

    #[test]
    fn labels_are_unique_and_indexable() {
        for (i, n) in Name::ALL.iter().enumerate() {
            assert_eq!(*n as usize, i);
        }
        let mut labels: Vec<_> = Name::ALL.iter().map(|n| n.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Name::ALL.len());
    }
}
