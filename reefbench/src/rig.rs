//! A workload's running daemons and generator connections, and the
//! set-up steps the workloads share.

use crate::daemon::{Daemon, DaemonSpec};
use crate::net::Net;
use crate::report::Report;
use reef_pubsub::{Event, Filter};
use reef_wire::{Request, Response, ServerStats};
use std::io;
use std::time::{Duration, Instant};

/// Event attribute marking a set-up probe (not a timed operation).
pub const PROBE_ATTR: &str = "probe";

/// How long set-up waits for probes to arrive.
const PROBE_TIMEOUT: Duration = Duration::from_secs(20);

/// A probe not back within this is published again (a fresh round):
/// subscriptions may still be advertising across peer links, and a short
/// retry keeps that wait from rounding `setup_s` up.
const PROBE_RETRY: Duration = Duration::from_millis(2);

/// Generator connection slots: where subscriptions live and where
/// publishes go.
pub const SUB: usize = 0;
/// See [`SUB`].
pub const PUB: usize = 1;

/// Daemons plus the generator's two connections.
pub struct Rig {
    /// Daemons in start order.
    pub daemons: Vec<Daemon>,
    /// The generator's connections; `conns[SUB]`, `conns[PUB]` index it.
    pub net: Net,
    /// Net index of each generator slot.
    pub conns: [usize; 2],
    /// Net index of the connection that reads each daemon's `Stats`.
    pub stats_conn: Vec<usize>,
}

impl Rig {
    /// Start `specs` in order, each peered with its predecessor when
    /// `chain` is set; connect the subscriber to the last daemon and the
    /// publisher to the first.
    pub fn start(specs: &[DaemonSpec], chain: bool) -> io::Result<Rig> {
        let mut daemons: Vec<Daemon> = Vec::new();
        for spec in specs {
            let mut spec = spec.clone();
            if chain {
                spec.peer = daemons.last().map(|d| d.addr);
            }
            daemons.push(Daemon::spawn(&spec)?);
        }
        let mut net = Net::new()?;
        let last = daemons.last().expect("at least one daemon").addr;
        let first = daemons[0].addr;
        let sub = net.connect(last, "reefbench-sub")?;
        let publ = net.connect(first, "reefbench-pub")?;
        let stats_conn = if daemons.len() == 1 {
            vec![publ]
        } else {
            vec![publ, sub]
        };
        Ok(Rig {
            daemons,
            net,
            conns: [sub, publ],
            stats_conn,
        })
    }

    /// Place every filter on slot `slot`, pipelined; fails unless each
    /// is acknowledged.
    pub fn subscribe_all(&mut self, slot: usize, filters: &[Filter]) -> io::Result<()> {
        let index = self.conns[slot];
        let corrs = filters
            .iter()
            .map(|filter| {
                self.net
                    .send(
                        index,
                        Request::Subscribe {
                            filter: filter.clone(),
                        },
                    )
                    .map(|sent| sent.corr)
            })
            .collect::<io::Result<Vec<u64>>>()?;
        for corr in corrs {
            match self.wait_reply(index, corr)? {
                Response::Subscribed { .. } => {}
                other => return Err(io::Error::other(format!("subscribe refused: {other:?}"))),
            }
        }
        Ok(())
    }

    /// Wait for the reply to `corr` on net connection `index`.
    pub fn wait_reply(&mut self, index: usize, corr: u64) -> io::Result<Response> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some((_, response)) = self.net.conn(index).replies.remove(&corr) {
                return Ok(response);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "reply timed out"));
            }
            self.net.poll(Some(deadline))?;
        }
    }

    /// Publish each probe until every expected copy of it has arrived
    /// (`copies[slot]` per probe), re-publishing while subscriptions are
    /// still propagating. Returns when the last probe arrived, and leaves
    /// no probe traffic behind.
    pub fn probe(&mut self, probes: &[(Event, [u32; 2])]) -> io::Result<Instant> {
        let deadline = Instant::now() + PROBE_TIMEOUT;
        for (k, (event, copies)) in probes.iter().enumerate() {
            let mut event = event.clone();
            event.set(PROBE_ATTR, k as i64);
            event.set(crate::load::SEQ_ATTR, -1i64);
            let mut round = 0i64;
            'resend: loop {
                event.set("round", round);
                self.net.send(
                    self.conns[PUB],
                    Request::Publish {
                        event: event.clone(),
                    },
                )?;
                let mut got = [0u32; 2];
                let retry = Instant::now() + PROBE_RETRY;
                loop {
                    for slot in [SUB, PUB] {
                        let conn = self.net.conn(self.conns[slot]);
                        conn.deliveries.retain(|arrival| {
                            let e = &arrival.event.event;
                            let this = e.get(PROBE_ATTR).and_then(|v| v.as_i64()) == Some(k as i64)
                                && e.get("round").and_then(|v| v.as_i64()) == Some(round);
                            if this {
                                got[slot] += 1;
                            }
                            !this
                        });
                    }
                    if got == *copies {
                        break 'resend;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "set-up probe never arrived",
                        ));
                    }
                    if now >= retry {
                        round += 1;
                        continue 'resend;
                    }
                    self.net.poll(Some(
                        retry.max(now + Duration::from_millis(1)).min(deadline),
                    ))?;
                }
            }
        }
        let arrived = Instant::now();
        // Earlier rounds that were only slow, not lost, still arrive;
        // let them land, then discard every probe copy and reply.
        let settle = Instant::now() + Duration::from_millis(100);
        while Instant::now() < settle {
            self.net.poll(Some(settle))?;
        }
        for slot in [SUB, PUB] {
            let conn = self.net.conn(self.conns[slot]);
            conn.deliveries
                .retain(|arrival| arrival.event.event.get(PROBE_ATTR).is_none());
        }
        self.net.conn(self.conns[PUB]).replies.clear();
        Ok(arrived)
    }

    /// `Stats` of every daemon, in start order.
    pub fn stats(&mut self) -> io::Result<Vec<ServerStats>> {
        let conns = self.stats_conn.clone();
        conns
            .into_iter()
            .map(|index| match self.net.call(index, Request::Stats)? {
                Response::Stats {
                    broker,
                    wire,
                    federation,
                } => Ok(ServerStats {
                    broker,
                    wire,
                    federation,
                }),
                other => Err(io::Error::other(format!(
                    "unexpected Stats reply: {other:?}"
                ))),
            })
            .collect()
    }

    /// Sum of the daemons' peak resident sets, MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        self.daemons.iter().map(Daemon::peak_rss_mib).sum()
    }

    /// CPU seconds all daemons have used so far.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        self.daemons.iter().map(Daemon::cpu_seconds).sum()
    }

    /// Close the connections and stop every daemon; a daemon that does
    /// not exit cleanly fails the run.
    pub fn stop(self, report: &mut Report) {
        drop(self.net);
        for (i, daemon) in self.daemons.into_iter().enumerate().rev() {
            let stopped = daemon.stop();
            report.check(format!("daemon {i} exits cleanly"), stopped.is_ok());
        }
    }
}

/// Transport counters over a timed phase, from `Stats` before and after.
pub fn counter_metrics(
    before: &[ServerStats],
    after: &[ServerStats],
    events: usize,
    report: &mut Report,
) {
    let delta = |f: fn(&ServerStats) -> u64| -> f64 {
        before
            .iter()
            .zip(after)
            .map(|(b, a)| f(a).saturating_sub(f(b)) as f64)
            .sum()
    };
    let lifetime = |f: fn(&ServerStats) -> u64| -> f64 { after.iter().map(|a| f(a) as f64).sum() };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let deliveries = delta(|s| s.wire.deliveries);
    let events = events as f64;
    report.metric(
        "wire.server.bytes_out_per_delivery",
        "B",
        ratio(delta(|s| s.wire.bytes_out), deliveries),
        None,
    );
    report.metric(
        "wire.server.wakeups_per_event",
        "count",
        ratio(delta(|s| s.wire.loop_wakeups), events),
        None,
    );
    report.metric(
        "wire.server.write_events_per_delivery",
        "count",
        ratio(delta(|s| s.wire.loop_write_events), deliveries),
        None,
    );
    report.metric(
        "wire.server.coalesced_ratio",
        "ratio",
        ratio(
            delta(|s| s.wire.writes_coalesced),
            delta(|s| s.wire.frames_out),
        ),
        None,
    );
    report.metric(
        "wire.server.delivery_drops",
        "count",
        delta(|s| s.wire.delivery_drops),
        None,
    );
    report.metric(
        "wire.server.errors",
        "count",
        delta(|s| s.wire.errors),
        None,
    );
    // Over the daemons' lifetime: most workloads change no subscription
    // while timed, and the ratio is a property of the index, not the phase.
    report.metric(
        "pubsub.broker.matcher_swaps_per_sub_change",
        "ratio",
        ratio(
            lifetime(|s| s.wire.matcher_swaps),
            lifetime(|s| s.broker.subscribes + s.broker.unsubscribes),
        ),
        None,
    );
    report.metric(
        "wire.autosub.installs",
        "count",
        delta(|s| s.wire.autosub_derived),
        None,
    );
    report.metric(
        "wire.autosub.retires",
        "count",
        delta(|s| s.wire.autosub_retired),
        None,
    );
    report.metric(
        "attention.persist.snapshots",
        "count",
        delta(|s| s.wire.wal_snapshots),
        None,
    );
}
