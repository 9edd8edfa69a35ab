//! Publish operations and the timed phases that drive them.
//!
//! Every published event carries a `seq` attribute naming its operation.
//! An operation knows how many copies each generator connection must
//! receive; it completes when the publish is acknowledged and every
//! expected copy has arrived. Copies beyond the expectation, copies that
//! differ from what was published, and copies still missing after the
//! drain are failures.

use crate::net::{Net, Sent};
use crate::rig::PROBE_ATTR;
use crate::sched::{lag_us, Schedule};
use crate::stats::Windowed;
use crate::trace::{SpanId, Tracer};
use reef_pubsub::Event;
use reef_wire::{Request, Response};
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// Event attribute carrying the operation index.
pub const SEQ_ATTR: &str = "seq";

/// Generator connections an operation can expect copies on.
pub const CONNS: usize = 2;

/// Events kept after their operation completes (the traced run replays
/// them); later ones are dropped to bound the generator's memory.
const KEEP_EVENTS: usize = 2048;

/// At most this many operations are traced in one run; with more, every
/// n-th is traced so the span file stays small.
const TRACED_OPS: usize = 2000;

/// How long the drain after a phase waits for stragglers.
pub const DRAIN: Duration = Duration::from_secs(3);

/// What one published event should produce.
#[derive(Debug, Clone)]
pub struct Expect {
    /// Copies per generator connection.
    pub copies: [u32; CONNS],
    /// The `delivered` count the publish reply must carry, when known.
    pub acked_delivered: Option<u64>,
    /// Whether the operation's latency joins the deliver samples.
    pub sampled: bool,
}

/// One publish operation.
#[derive(Debug)]
struct PubOp {
    event: Event,
    expect: Expect,
    due: Instant,
    sent: Instant,
    ack: Option<Instant>,
    got: [u32; CONNS],
    last: [Option<Instant>; CONNS],
    window: usize,
    span: Option<SpanId>,
    failed: bool,
    done: bool,
}

impl PubOp {
    fn complete(&self) -> bool {
        self.ack.is_some() && self.got == self.expect.copies
    }

    fn finished_at(&self) -> Option<Instant> {
        self.complete()
            .then(|| self.last.iter().flatten().copied().chain(self.ack).max())
            .flatten()
    }
}

/// Latency samples gathered by a [`Flow`], in µs.
#[derive(Debug, Default)]
pub struct FlowSamples {
    /// Due → last copy on each connection, for ops expecting copies there.
    pub deliver: [Windowed; CONNS],
    /// Send → publish reply.
    pub ack_us: Vec<f64>,
    /// Send lateness relative to the due time.
    pub lag_us: Vec<f64>,
}

/// The publish operations of one run, sent on one connection.
pub struct Flow {
    publisher: usize,
    ops: Vec<PubOp>,
    acks: HashMap<u64, usize>,
    windows: usize,
    window_len: Duration,
    origin: Instant,
    /// Window of the first operation due at `origin`, and how many
    /// windows follow from there.
    window_base: usize,
    window_span: usize,
    /// Operations that completed, in completion order.
    completed: Vec<usize>,
    /// Deliveries that named no operation of this flow.
    pub stray: u64,
    /// Samples for the operations fired so far.
    pub samples: FlowSamples,
    /// While the tracer is on, trace every n-th operation.
    trace_every: usize,
}

impl Flow {
    /// A flow publishing on connection `publisher`, whose latency samples
    /// fall into `windows` windows of `window_len` from `origin`.
    pub fn new(publisher: usize, origin: Instant, windows: usize, window_len: Duration) -> Flow {
        Flow {
            publisher,
            ops: Vec::new(),
            acks: HashMap::new(),
            windows,
            window_len,
            origin,
            window_base: 0,
            window_span: windows,
            completed: Vec::new(),
            stray: 0,
            samples: FlowSamples {
                deliver: [Windowed::new(windows), Windowed::new(windows)],
                ..FlowSamples::default()
            },
            trace_every: 1,
        }
    }

    /// Number the windows of operations due from `origin` on from
    /// `base`, using `span` windows.
    pub fn begin_windows(&mut self, origin: Instant, base: usize, span: usize) {
        self.origin = origin;
        self.window_base = base;
        self.window_span = span.max(1);
    }

    /// Trace about [`TRACED_OPS`] of the `ops` operations fired while the
    /// tracer is on. Untraced operations fired meanwhile join no samples,
    /// so traced latencies are compared with untraced ones from before.
    pub fn sample_traces(&mut self, ops: usize) {
        self.trace_every = ops.div_ceil(TRACED_OPS).max(1);
    }

    /// Operations fired.
    pub fn attempted(&self) -> usize {
        self.ops.len()
    }

    /// Operations fired but not complete.
    pub fn outstanding(&self) -> usize {
        self.ops.len() - self.completed.len()
    }

    /// Events published so far, in order.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ops.iter().map(|op| &op.event)
    }

    /// When the last copy of operation `index` reached slot `slot`.
    pub fn last_copy(&self, index: usize, slot: usize) -> Option<Instant> {
        self.ops.get(index).and_then(|op| op.last[slot])
    }

    /// Publish `event` (its `seq` is set here), due at `due`.
    pub fn fire(
        &mut self,
        net: &mut Net,
        mut event: Event,
        mut expect: Expect,
        due: Instant,
        tracer: &mut Tracer,
    ) -> io::Result<usize> {
        let index = self.ops.len();
        event.set(SEQ_ATTR, index as i64);
        let op = index as u64;
        let span = if tracer.enabled() && index.is_multiple_of(self.trace_every) {
            tracer.open("e2e.publish_deliver", due, None, op)
        } else {
            expect.sampled &= !tracer.enabled();
            None
        };
        let sent: Sent = net.send(
            self.publisher,
            Request::Publish {
                event: event.clone(),
            },
        )?;
        if span.is_some() {
            tracer.record("bench.loadgen.lag", due, sent.start, span, op);
            tracer.record(
                "wire.codec.encode_publish",
                sent.start,
                sent.encoded,
                span,
                op,
            );
            tracer.record("wire.client.write", sent.encoded, sent.written, span, op);
        }
        if expect.sampled {
            self.samples.lag_us.push(lag_us(due, sent.start));
        }
        let offset = (due.saturating_duration_since(self.origin).as_nanos()
            / self.window_len.as_nanos().max(1)) as usize;
        let window = self.window_base + offset.min(self.window_span - 1);
        self.acks.insert(sent.corr, index);
        self.ops.push(PubOp {
            event,
            expect,
            due,
            sent: sent.start,
            ack: None,
            got: [0; CONNS],
            last: [None; CONNS],
            window: window.min(self.windows.saturating_sub(1)),
            span,
            failed: false,
            done: false,
        });
        Ok(index)
    }

    /// Take this flow's replies and deliveries off the connections in
    /// `conns` (generator connection slot → net index). Returns the ops
    /// that completed.
    pub fn absorb(
        &mut self,
        net: &mut Net,
        conns: [Option<usize>; CONNS],
        tracer: &mut Tracer,
    ) -> Vec<usize> {
        let mut touched = Vec::new();
        let publisher = net.conn(self.publisher);
        let corrs: Vec<u64> = publisher
            .replies
            .keys()
            .filter(|corr| self.acks.contains_key(corr))
            .copied()
            .collect();
        for corr in corrs {
            let (at, response) = publisher.replies.remove(&corr).expect("listed above");
            let index = self.acks.remove(&corr).expect("listed above");
            let op = &mut self.ops[index];
            op.ack = Some(at);
            if op.expect.sampled {
                self.samples
                    .ack_us
                    .push(at.saturating_duration_since(op.sent).as_secs_f64() * 1e6);
            }
            let ok = match response {
                Response::Published { delivered, .. } => op
                    .expect
                    .acked_delivered
                    .is_none_or(|want| want == delivered),
                _ => false,
            };
            op.failed |= !ok;
            touched.push(index);
        }
        for (slot, net_index) in conns.iter().enumerate() {
            let Some(net_index) = *net_index else {
                continue;
            };
            let conn = net.conn(net_index);
            while let Some(arrival) = conn.deliveries.pop_front() {
                if arrival.event.event.get(PROBE_ATTR).is_some() {
                    continue;
                }
                let seq = arrival
                    .event
                    .event
                    .get(SEQ_ATTR)
                    .and_then(|v| v.as_i64())
                    .and_then(|s| usize::try_from(s).ok());
                let Some(op) = seq.and_then(|s| self.ops.get_mut(s)) else {
                    self.stray += 1;
                    continue;
                };
                op.got[slot] += 1;
                op.last[slot] = Some(arrival.at);
                // A completed operation's event may have been dropped; any
                // copy after completion is a duplicate anyway.
                op.failed |= op.done
                    || op.got[slot] > op.expect.copies[slot]
                    || arrival.event.event != op.event;
                if op.span.is_some() {
                    tracer.record(
                        "wire.codec.decode_deliver",
                        arrival.decode_start,
                        arrival.decoded,
                        op.span,
                        seq.unwrap_or(0) as u64,
                    );
                }
                touched.push(seq.expect("matched an op"));
            }
        }
        let mut done = Vec::new();
        for index in touched {
            let op = &mut self.ops[index];
            if op.done || !op.complete() {
                continue;
            }
            op.done = true;
            let finished = op.finished_at().expect("complete");
            tracer.close(op.span, finished);
            for slot in 0..CONNS {
                if op.expect.sampled && op.expect.copies[slot] > 0 {
                    let last = op.last[slot].expect("copies arrived");
                    self.samples.deliver[slot].push(
                        op.window,
                        last.saturating_duration_since(op.due).as_secs_f64() * 1e6,
                    );
                }
            }
            if index >= KEEP_EVENTS {
                op.event = Event::new();
            }
            self.completed.push(index);
            done.push(index);
        }
        done
    }

    /// Wait up to [`DRAIN`] for the outstanding operations to complete.
    pub fn drain(
        &mut self,
        net: &mut Net,
        conns: [Option<usize>; CONNS],
        tracer: &mut Tracer,
    ) -> io::Result<()> {
        let deadline = Instant::now() + DRAIN;
        while self.outstanding() > 0 && Instant::now() < deadline {
            net.poll(Some(
                deadline.min(Instant::now() + Duration::from_millis(20)),
            ))?;
            self.absorb(net, conns, tracer);
        }
        Ok(())
    }

    /// [`Flow::drain`], then count every operation that is still
    /// incomplete or failed.
    pub fn finish(
        &mut self,
        net: &mut Net,
        conns: [Option<usize>; CONNS],
        tracer: &mut Tracer,
    ) -> io::Result<usize> {
        self.drain(net, conns, tracer)?;
        // Late duplicates land after completion; give them a moment.
        let settle = Instant::now() + Duration::from_millis(50);
        while Instant::now() < settle {
            net.poll(Some(settle))?;
            self.absorb(net, conns, tracer);
        }
        Ok(self.ops.iter().filter(|op| op.failed || !op.done).count())
    }
}

/// Result of an open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Operations published.
    pub sent: usize,
    /// Published minus fully delivered when the phase ended.
    pub backlog: usize,
}

/// Publish on `schedule` from `start` until the schedule is exhausted,
/// absorbing replies and deliveries between sends.
pub fn open_loop(
    net: &mut Net,
    flow: &mut Flow,
    conns: [Option<usize>; CONNS],
    mut schedule: Schedule,
    start: Instant,
    mut next_event: impl FnMut(usize) -> (Event, Expect),
    tracer: &mut Tracer,
) -> io::Result<OpenLoop> {
    let mut sent = 0;
    loop {
        let now = Instant::now();
        while let Some((i, due)) = schedule.take_due(start, now) {
            let (event, expect) = next_event(i);
            flow.fire(net, event, expect, due, tracer)?;
            sent += 1;
        }
        let Some(next) = schedule.next_due(start) else {
            break;
        };
        net.poll_before(next)?;
        flow.absorb(net, conns, tracer);
    }
    flow.absorb(net, conns, tracer);
    Ok(OpenLoop {
        sent,
        backlog: flow.outstanding(),
    })
}

/// Length of one measurement window. Short bursts of host noise then
/// move a few windows, and the median over windows ignores them.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Latency windows for an open-loop phase of `span` at `rate`: one per
/// [`WINDOW`], but never fewer than 150 samples each, so every window
/// can report its own p90.
pub fn window_count(span: Duration, rate: f64) -> usize {
    let by_time = (span.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
    let by_samples = (rate * span.as_secs_f64() / 150.0) as usize;
    by_time.min(by_samples).max(1)
}

/// Closed loop: keep `window` publishes outstanding for `span`. Returns
/// the events per second that completed in each [`WINDOW`].
pub fn closed_loop(
    net: &mut Net,
    flow: &mut Flow,
    conns: [Option<usize>; CONNS],
    window: usize,
    span: Duration,
    mut next_event: impl FnMut(usize) -> (Event, Expect),
    tracer: &mut Tracer,
) -> io::Result<Vec<f64>> {
    let start = Instant::now();
    let end = start + span;
    let first = flow.attempted();
    let mut in_flight = 0usize;
    let mut issued = 0usize;
    let windows = ((span.as_secs_f64() / WINDOW.as_secs_f64()) as usize).max(1);
    let mut per_window = vec![0usize; windows];
    while Instant::now() < end {
        while in_flight < window {
            // Saturation latencies measure queueing, not the system at a
            // stated rate: keep them out of the open-loop samples.
            let (event, mut expect) = next_event(issued);
            expect.sampled = false;
            flow.fire(net, event, expect, Instant::now(), tracer)?;
            issued += 1;
            in_flight += 1;
        }
        net.poll(Some(end))?;
        let done = flow
            .absorb(net, conns, tracer)
            .into_iter()
            .filter(|&index| index >= first)
            .count();
        in_flight -= done;
        let slot = (start.elapsed().as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if let Some(count) = per_window.get_mut(slot) {
            *count += done;
        }
    }
    Ok(per_window
        .iter()
        .map(|&n| n as f64 / WINDOW.as_secs_f64())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_seconds_unless_samples_run_short() {
        assert_eq!(window_count(Duration::from_secs(14), 500.0), 28);
        // 200/s over 14 s is 2800 samples: at most 18 windows of 150.
        assert_eq!(window_count(Duration::from_secs(14), 200.0), 18);
        assert_eq!(window_count(Duration::from_millis(100), 10.0), 1);
    }
}
