//! The three publish-shaped workloads — `topic_fanout`, `range_match`
//! and `chain_hop` — and the run they share: repeated set-up, a timed
//! phase alternating open-loop (latency) and closed-loop (saturation)
//! chunks, then the output checks. The traced run is open loop only,
//! untraced then traced, and replays the inputs layer by layer.

use crate::daemon::DaemonSpec;
use crate::load::{closed_loop, open_loop, window_count, Expect, Flow, CONNS};
use crate::replay;
use crate::report::Report;
use crate::rig::{counter_metrics, Rig, PUB, SUB};
use crate::rng::Rng;
use crate::sched::Schedule;
use crate::stats::{median, percentile, Windowed};
use crate::trace::Tracer;
use crate::Ctx;
use reef_pubsub::{Event, Filter, MatchEngine, NaiveMatcher, Op, SubscriptionId};
use std::io;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Share of the timed phase run open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.7;

/// The untraced timed phase alternates open and closed loop in chunks
/// of about this length.
const CHUNK: Duration = Duration::from_secs(5);

/// Most events replayed per layer in the traced run.
const REPLAY_EVENTS: usize = 2000;

/// Generated inputs of one publish-shaped workload.
pub struct PubWorkload {
    /// Open-loop publish rate, events/s.
    pub rate: f64,
    /// Closed-loop publishes kept outstanding.
    pub window: usize,
    /// Daemons peered in a line (else one daemon).
    pub daemons: usize,
    /// Subscriptions held by the subscriber connection.
    pub sub_filters: Vec<Filter>,
    /// Subscriptions held by the publisher connection.
    pub pub_filters: Vec<Filter>,
    /// Events published in turn, with what each must produce.
    pub pool: Vec<(Event, Expect)>,
    /// Set-up probes: events and the copies each must produce per slot.
    pub probes: Vec<(Event, [u32; CONNS])>,
}

fn expect(copies: [u32; CONNS], acked: Option<u64>) -> Expect {
    Expect {
        copies,
        acked_delivered: acked,
        sampled: true,
    }
}

/// One subscriber connection holding a few topics × many identical topic
/// filters: each event fans out to dozens of copies and the matcher does
/// almost nothing.
pub fn topic_fanout(seed: u64) -> PubWorkload {
    const TOPICS: usize = 4;
    const COPIES: u32 = 32;
    let mut rng = Rng::new(seed, 1);
    let topics: Vec<String> = (0..TOPICS)
        .map(|t| format!("fan.{}.{t}", rng.below(1 << 20)))
        .collect();
    let sub_filters = topics
        .iter()
        .flat_map(|t| std::iter::repeat_n(Filter::topic(t), COPIES as usize))
        .collect();
    let pool = (0..512)
        .map(|_| {
            let topic = &topics[rng.below(TOPICS as u64) as usize];
            let body = format!("item {:016x}", rng.next_u64());
            (
                Event::topical(topic, &body),
                expect([COPIES, 0], Some(COPIES.into())),
            )
        })
        .collect();
    let probes = topics
        .iter()
        .map(|t| (Event::topical(t, "probe"), [COPIES, 0]))
        .collect();
    PubWorkload {
        rate: 2500.0,
        window: 8,
        daemons: 1,
        sub_filters,
        pub_filters: Vec::new(),
        pool,
        probes,
    }
}

/// Attribute names and value domain of the range workload.
const RANGE_ATTRS: [&str; 4] = ["x0", "x1", "x2", "x3"];
const RANGE_DOMAIN: i64 = 1000;
const RANGE_FILTERS: usize = 10_000;

/// One range-heavy filter: two ordered ranges, an equality plus a wide
/// range, or two ranges plus an inequality. Each matches a uniform event
/// with probability about 4e-4, so an event matches about four of 10k.
fn range_filter(rng: &mut Rng) -> Filter {
    let i = rng.below(4) as usize;
    let j = (i + 1 + rng.below(3) as usize) % 4;
    let k = (0..4).find(|&k| k != i && k != j).expect("four attributes");
    let range = |rng: &mut Rng, f: Filter, attr: &str, width: i64| {
        let lo = rng.below((RANGE_DOMAIN - width) as u64) as i64;
        f.and(attr, Op::Gt, lo - 1).and(attr, Op::Lt, lo + width)
    };
    match rng.below(10) {
        0..=5 => {
            let f = range(rng, Filter::new(), RANGE_ATTRS[i], 20);
            range(rng, f, RANGE_ATTRS[j], 20)
        }
        6 | 7 => {
            let f = Filter::new().and(
                RANGE_ATTRS[i],
                Op::Eq,
                rng.below(RANGE_DOMAIN as u64) as i64,
            );
            range(rng, f, RANGE_ATTRS[j], 400)
        }
        _ => {
            let f = range(rng, Filter::new(), RANGE_ATTRS[i], 20);
            let f = range(rng, f, RANGE_ATTRS[j], 20);
            f.and(
                RANGE_ATTRS[k],
                Op::Ne,
                rng.below(RANGE_DOMAIN as u64) as i64,
            )
        }
    }
}

/// One connection holding 10k range filters over four numeric
/// attributes; every expected copy count comes from a `NaiveMatcher`
/// oracle over the same filters.
pub fn range_match(seed: u64) -> PubWorkload {
    let mut rng = Rng::new(seed, 2);
    let sub_filters: Vec<Filter> = (0..RANGE_FILTERS).map(|_| range_filter(&mut rng)).collect();
    let mut oracle = NaiveMatcher::new();
    for (i, f) in sub_filters.iter().enumerate() {
        oracle.insert(SubscriptionId(i as u64), f.clone());
    }
    let pool: Vec<(Event, Expect)> = (0..1024)
        .map(|_| {
            let mut b = Event::builder();
            for attr in RANGE_ATTRS {
                b = b.attr(attr, rng.below(RANGE_DOMAIN as u64) as i64);
            }
            let event = b.build();
            let n = oracle.matches(&event).len() as u32;
            (event, expect([n, 0], Some(n.into())))
        })
        .collect();
    let probes = pool
        .iter()
        .find(|(_, e)| e.copies[SUB] > 0)
        .map(|(event, e)| vec![(event.clone(), e.copies)])
        .unwrap_or_default();
    PubWorkload {
        rate: 100.0,
        window: 8,
        daemons: 1,
        sub_filters,
        pub_filters: Vec::new(),
        pool,
        probes,
    }
}

/// Daemons A–B–C in a line. The subscriber on C holds one filter per
/// matching topic; the publisher on A holds a control subscription that
/// matches every event. Half the events use topics nobody at C wants.
pub fn chain_hop(seed: u64) -> PubWorkload {
    const TOPICS: usize = 16;
    let mut rng = Rng::new(seed, 4);
    let tag = rng.below(1 << 20);
    let wanted: Vec<String> = (0..TOPICS).map(|k| format!("chain.{tag}.m{k}")).collect();
    let unwanted: Vec<String> = (0..TOPICS).map(|k| format!("chain.{tag}.x{k}")).collect();
    let pool = (0..512)
        .map(|_| {
            let hit = rng.below(2) == 0;
            let topics = if hit { &wanted } else { &unwanted };
            let topic = &topics[rng.below(TOPICS as u64) as usize];
            let body = format!("item {:016x}", rng.next_u64());
            (
                Event::topical(topic, &body),
                expect([u32::from(hit), 1], None),
            )
        })
        .collect();
    let probes = wanted
        .iter()
        .map(|t| (Event::topical(t, "probe"), [1, 1]))
        .collect();
    PubWorkload {
        rate: 5000.0,
        window: 8,
        daemons: 3,
        sub_filters: wanted.iter().map(|t| Filter::topic(t)).collect(),
        pub_filters: vec![Filter::new().and_exists(crate::load::SEQ_ATTR)],
        pool,
        probes,
    }
}

fn specs(n: usize) -> Vec<DaemonSpec> {
    (0..n)
        .map(|i| DaemonSpec {
            name: format!("reefbench-{}", (b'a' + i as u8) as char),
            ..DaemonSpec::default()
        })
        .collect()
}

/// Start the daemons, install the subscriptions and wait for the probes;
/// returns the rig and the set-up time in seconds.
fn set_up(w: &PubWorkload) -> io::Result<(Rig, f64)> {
    let t0 = Instant::now();
    let mut rig = Rig::start(&specs(w.daemons), w.daemons > 1)?;
    rig.subscribe_all(SUB, &w.sub_filters)?;
    rig.subscribe_all(PUB, &w.pub_filters)?;
    let arrived = rig.probe(&w.probes)?;
    Ok((rig, (arrived - t0).as_secs_f64()))
}

/// Report latency, lag and backlog figures of `flow`'s open-loop phase.
pub fn loadgen_metrics(flow: &Flow, backlog: usize, sent: usize, report: &mut Report) {
    let mut lag = flow.samples.lag_us.clone();
    lag.sort_by(f64::total_cmp);
    let lag_p99 = percentile(&lag, 0.99).unwrap_or(0.0);
    report.metric("bench.loadgen.lag_p99_us", "us", lag_p99, Some(lag.len()));
    report.metric("bench.loadgen.backlog", "count", backlog as f64, None);
    let mut ack = flow.samples.ack_us.clone();
    ack.sort_by(f64::total_cmp);
    report.metric(
        "wire.client.publish_ack_p50_us",
        "us",
        percentile(&ack, 0.5).unwrap_or(0.0),
        Some(ack.len()),
    );
    if lag_p99 > 1000.0 || backlog > (sent / 100).max(10) {
        report.notes.push(format!(
            "GENERATOR BEHIND: lag p99 {lag_p99:.0} us, backlog {backlog} of {sent}"
        ));
    }
}

/// Deliver percentiles of one slot's samples: p50 and p90 as medians
/// over windows, p99 over the pooled samples.
pub fn deliver_metrics(samples: &Windowed, report: &mut Report) {
    let n = samples.len();
    for (name, q) in [
        ("deliver_p50_us", 0.5),
        ("deliver_p90_us", 0.9),
        ("deliver_p99_us", 0.99),
    ] {
        match samples.tail(q) {
            Some(v) => report.metric(name, "us", v, Some(n)),
            None => report
                .notes
                .push(format!("{name} not reported: {n} samples are too few")),
        }
    }
}

/// Run a publish-shaped workload.
pub fn run(name: &str, w: &PubWorkload, ctx: &Ctx, tracer: &mut Tracer) -> io::Result<Report> {
    let mut report = Report::default();
    let setups = if ctx.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut rig = None;
    for _ in 0..setups {
        // One rig at a time: the generator never holds more than two
        // connections, and an idle rig does not share the CPUs.
        if let Some(previous) = rig.take() {
            Rig::stop(previous, &mut report);
        }
        let (r, secs) = set_up(w)?;
        setup_s.push(secs);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");
    if !ctx.trace {
        report.metric(
            "setup_s",
            "s",
            median(&setup_s).expect("set-ups ran"),
            Some(setup_s.len()),
        );
    }

    let conns = [Some(rig.conns[SUB]), Some(rig.conns[PUB])];
    let open_span = Duration::from_secs_f64(ctx.seconds * if ctx.trace { 1.0 } else { OPEN_SHARE });
    let before = rig.stats()?;
    let start = Instant::now() + Duration::from_millis(5);
    let mut next = 0usize;
    let mut next_event = |_: usize| {
        let item = w.pool[next % w.pool.len()].clone();
        next += 1;
        item
    };
    let (flow, open_sent, backlog, sat) = if ctx.trace {
        // Untraced first half, traced second half: window 0 vs window 1.
        let half = open_span / 2;
        let mut flow = Flow::new(rig.conns[PUB], start, 2, half);
        tracer.set_enabled(false);
        let a = open_loop(
            &mut rig.net,
            &mut flow,
            conns,
            Schedule::fixed_rate(w.rate, half),
            start,
            &mut next_event,
            tracer,
        )?;
        tracer.set_enabled(true);
        flow.sample_traces((w.rate * half.as_secs_f64()) as usize);
        let b = open_loop(
            &mut rig.net,
            &mut flow,
            conns,
            Schedule::fixed_rate(w.rate, half),
            start + half,
            &mut next_event,
            tracer,
        )?;
        (flow, a.sent + b.sent, b.backlog, None)
    } else {
        // Alternate open-loop and closed-loop chunks, so both metrics
        // sample the whole run rather than one contiguous stretch of a
        // host whose speed drifts.
        let chunks = ((ctx.seconds / CHUNK.as_secs_f64()) as usize).max(1);
        let open_chunk = open_span / chunks as u32;
        let closed_chunk = Duration::from_secs_f64(ctx.seconds) / chunks as u32 - open_chunk;
        let per_chunk = window_count(open_chunk, w.rate);
        let mut flow = Flow::new(
            rig.conns[PUB],
            start,
            chunks * per_chunk,
            open_chunk / per_chunk as u32,
        );
        let (mut sent, mut backlog, mut rates) = (0, 0, Vec::new());
        let (mut open_cpu, mut closed_cpu, mut closed_events) = (0.0, 0.0, 0usize);
        for chunk in 0..chunks {
            let origin = if chunk == 0 {
                start
            } else {
                Instant::now() + Duration::from_millis(1)
            };
            flow.begin_windows(origin, chunk * per_chunk, per_chunk);
            let sched = Schedule::fixed_rate(w.rate, open_chunk);
            let cpu = rig.cpu_seconds()?;
            let ol = open_loop(
                &mut rig.net,
                &mut flow,
                conns,
                sched,
                origin,
                &mut next_event,
                tracer,
            )?;
            open_cpu += rig.cpu_seconds()? - cpu;
            sent += ol.sent;
            backlog = backlog.max(ol.backlog);
            // Let the open loop's last operations land before saturating.
            flow.drain(&mut rig.net, conns, tracer)?;
            let (cpu, done) = (rig.cpu_seconds()?, flow.attempted());
            rates.extend(closed_loop(
                &mut rig.net,
                &mut flow,
                conns,
                w.window,
                closed_chunk,
                &mut next_event,
                tracer,
            )?);
            closed_cpu += rig.cpu_seconds()? - cpu;
            closed_events += flow.attempted() - done;
        }
        report.metric(
            "cpu_us_per_event",
            "us",
            closed_cpu * 1e6 / closed_events.max(1) as f64,
            Some(closed_events),
        );
        report.metric(
            "cpu_us_per_event_open",
            "us",
            open_cpu * 1e6 / sent.max(1) as f64,
            Some(sent),
        );
        (flow, sent, backlog, median(&rates))
    };
    let mut flow = flow;
    let failed = flow.finish(&mut rig.net, conns, tracer)?;
    tracer.set_enabled(false);
    let after = rig.stats()?;
    report.attempted += flow.attempted() as u64;
    report.failed += failed as u64;
    report.check(
        "no operation failed, went missing or was duplicated",
        failed == 0,
    );
    report.check("no delivery named an unknown operation", flow.stray == 0);

    let deliver = &flow.samples.deliver[SUB];
    if ctx.trace {
        let p50 = |w: &[f64]| median(w).unwrap_or(f64::NAN);
        let (plain, traced) = (p50(deliver.window(0)), p50(deliver.window(1)));
        report.metric("deliver_p50_us", "us", plain, Some(deliver.window(0).len()));
        report.metric(
            "bench.trace.overhead_pct",
            "%",
            (traced - plain) / plain * 100.0,
            Some(deliver.window(1).len()),
        );
    } else {
        deliver_metrics(deliver, &mut report);
    }
    if let Some(sat) = sat {
        report.metric("sat_eps", "1/s", sat, None);
    }
    loadgen_metrics(&flow, backlog, open_sent, &mut report);
    report.metric("daemon_rss_mb", "MiB", rig.peak_rss_mib()?, None);
    counter_metrics(&before, &after, flow.attempted(), &mut report);
    if w.daemons > 1 {
        federation_metrics(&flow, &before, &after, &mut report);
    }
    if ctx.trace {
        tracer.set_enabled(true);
        let events: Vec<Event> = flow.events().take(REPLAY_EVENTS).cloned().collect();
        let filters: Vec<Filter> = w
            .sub_filters
            .iter()
            .chain(&w.pub_filters)
            .cloned()
            .collect();
        replay::pubsub_and_codec(&filters, &events, tracer, &mut report);
        crate::breakdown(name, tracer, &mut report);
    }
    rig.stop(&mut report);
    Ok(report)
}

/// Federation figures of the chain, measured from outside: the hop cost
/// from the two subscribers' latencies, forwarding counts from A's stats.
fn federation_metrics(
    flow: &Flow,
    before: &[reef_wire::ServerStats],
    after: &[reef_wire::ServerStats],
    report: &mut Report,
) {
    let (a0, a1) = (&before[0].federation, &after[0].federation);
    let (c0, c1) = (&before[1].wire, &after[1].wire);
    let events = flow.attempted().max(1) as f64;
    let forwarded = a1.events_forwarded.saturating_sub(a0.events_forwarded) as f64;
    let peer_bytes = (a1.binary.bytes_out + a1.json.bytes_out)
        .saturating_sub(a0.binary.bytes_out + a0.json.bytes_out) as f64;
    let at_c = c1.deliveries.saturating_sub(c0.deliveries) as f64;
    let p50 = |slot: usize| median(&flow.samples.deliver[slot].all_sorted()).unwrap_or(f64::NAN);
    report.metric(
        "wire.federation.hop_us",
        "us",
        (p50(SUB) - p50(PUB)) / 2.0,
        None,
    );
    report.metric(
        "wire.federation.fwd_per_event",
        "count",
        forwarded / events,
        None,
    );
    report.metric(
        "wire.federation.useful_fwd_ratio",
        "ratio",
        if forwarded > 0.0 {
            at_c / forwarded
        } else {
            0.0
        },
        None,
    );
    report.metric(
        "wire.federation.peer_bytes_per_event",
        "B",
        peer_bytes / events,
        None,
    );
}
