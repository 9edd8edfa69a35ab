//! `autosub_churn`: the paper's own loop. Simulated users upload their
//! click histories and enroll; while a publisher feeds their derived
//! feeds, the timed phase runs click uploads, re-enrollments and
//! novel-interest bursts that make the daemon install, displace and
//! retire derived filters. Afterwards the click store is reopened from
//! the daemon's data directory and must hold exactly the acked clicks.

use crate::daemon::DaemonSpec;
use crate::load::{closed_loop, window_count, Expect, Flow, DRAIN};
use crate::pubflow::{deliver_metrics, loadgen_metrics, SETUPS};
use crate::replay;
use crate::report::Report;
use crate::rig::{counter_metrics, Rig, PUB, SUB};
use crate::rng::Rng;
use crate::sched::Schedule;
use crate::stats::{beyond, median, percentile, MIN_BEYOND};
use crate::trace::Tracer;
use crate::Ctx;
use reef_attention::{Click, ClickBatch, DurableClickStore, PersistConfig};
use reef_core::{AutoSubConfig, AutoSubMode};
use reef_pubsub::{Event, Filter, TOPIC_ATTR};
use reef_simweb::{browse::generate_history, BrowseConfig, UserId, WebConfig, WebUniverse};
use reef_wire::{AutoSubEntry, AutoSubPolicy, Request, Response};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Users whose derived feeds the publisher serves; never decay.
const STEADY: usize = 6;
/// Users re-enrolled during the timed phase (hosts renamed so their
/// feeds are disjoint from everyone else's).
const ENROLLERS: usize = 6;
/// Users whose histories stream in as uploads during the timed phase.
const UPLOADERS: usize = 6;
/// Users driven only by novel-interest bursts.
const CHURNERS: usize = 32;
/// Clicks per novel-interest burst: score 6 against a floor of 2.
const BURST_CLICKS: usize = 6;
/// Clicks per timed-phase upload.
const UPLOAD_CLICKS: usize = 8;
/// Daemon autosub refresh cadence.
const REFRESH: Duration = Duration::from_millis(50);
/// Open-loop rates, per second.
const PUBLISH_RATE: f64 = 2000.0;
const UPLOAD_RATE: f64 = 200.0;
const ENROLL_RATE: f64 = 20.0;
/// Gap between one churner's bursts, uniform in this range (seconds):
/// short gaps displace the older feed, long ones let it decay away.
const BURST_GAP: (f64, f64) = (0.3, 2.0);
/// Share of the timed phase run open loop.
const OPEN_SHARE: f64 = 0.7;
/// Set-up uploads carry at most this many clicks each.
const SETUP_CHUNK: usize = 500;

fn steady_policy() -> AutoSubPolicy {
    AutoSubPolicy {
        recommender: AutoSubMode::Topic,
        max_filters: 4,
        half_life_secs: 0.0,
        min_score: 2.0,
    }
}

fn churn_policy() -> AutoSubPolicy {
    AutoSubPolicy {
        recommender: AutoSubMode::Topic,
        max_filters: 2,
        half_life_secs: 1.0,
        min_score: 2.0,
    }
}

fn engine_config(policy: &AutoSubPolicy) -> AutoSubConfig {
    AutoSubConfig {
        mode: policy.recommender,
        max_filters: policy.max_filters as usize,
        half_life_secs: policy.half_life_secs,
        min_score: policy.min_score,
        ..AutoSubConfig::default()
    }
}

/// Generated inputs.
pub struct ChurnInputs {
    tag: u64,
    steady: Vec<(UserId, Vec<Click>)>,
    enrollers: Vec<(UserId, Vec<Click>)>,
    uploads: Vec<ClickBatch>,
    churners: Vec<UserId>,
    /// (offset into the open-loop phase, churner index), by time.
    bursts: Vec<(Duration, usize)>,
}

/// Simulated browsing histories for every user class, from the seed.
pub fn inputs(seed: u64, open_span: Duration) -> ChurnInputs {
    let universe = WebUniverse::generate(WebConfig::default(), seed);
    let users = STEADY + ENROLLERS + UPLOADERS;
    let config = BrowseConfig {
        users,
        days: 3,
        mean_page_views_per_day: 40.0,
        favourites_per_user: 30,
        ..BrowseConfig::default()
    };
    let history = generate_history(&universe, &config, seed);
    let mut per_user: BTreeMap<u32, Vec<Click>> = BTreeMap::new();
    for request in &history.requests {
        per_user
            .entry(request.user.0)
            .or_default()
            .push(Click::from_request(request));
    }
    let mut all: Vec<(UserId, Vec<Click>)> =
        per_user.into_iter().map(|(u, c)| (UserId(u), c)).collect();
    assert!(all.len() >= users, "every simulated user browsed");
    let uploaders: Vec<(UserId, Vec<Click>)> = all.split_off(STEADY + ENROLLERS);
    let mut enrollers = all.split_off(STEADY);
    for (_, clicks) in &mut enrollers {
        for click in clicks {
            click.url = click.url.replacen("://", "://ep.", 1);
        }
    }
    let uploads = uploaders
        .iter()
        .flat_map(|(user, clicks)| {
            clicks.chunks(UPLOAD_CLICKS).map(|chunk| ClickBatch {
                user: *user,
                clicks: chunk.to_vec(),
            })
        })
        .collect();
    let mut rng = Rng::new(seed, 3);
    let first_churner = 100_000 + users as u32;
    let churners = (0..CHURNERS as u32)
        .map(|i| UserId(first_churner + i))
        .collect();
    let last = open_span
        .saturating_sub(Duration::from_secs(1))
        .as_secs_f64();
    let mut bursts = Vec::new();
    for churner in 0..CHURNERS {
        let mut t = rng.unit() * BURST_GAP.0;
        while t < last {
            bursts.push((Duration::from_secs_f64(t), churner));
            t += BURST_GAP.0 + rng.unit() * (BURST_GAP.1 - BURST_GAP.0);
        }
    }
    bursts.sort();
    ChurnInputs {
        tag: rng.below(1 << 20),
        steady: all,
        enrollers,
        uploads,
        churners,
        bursts,
    }
}

/// The single topic of a derived topic filter.
fn feed_of(filter: &Filter) -> Option<String> {
    filter
        .eq_attrs()
        .find(|(attr, _)| *attr == TOPIC_ATTR)
        .and_then(|(_, v)| v.as_str().map(str::to_owned))
}

/// A running churn rig plus what set-up learned.
struct Setup {
    rig: Rig,
    data_dir: PathBuf,
    /// Steady feed → steady users deriving it.
    feeds: BTreeMap<String, u32>,
    /// Each enroller's first receipt.
    enrolled: HashMap<u32, Vec<AutoSubEntry>>,
    /// Acked clicks per user.
    acked: HashMap<u32, u64>,
    setup_s: f64,
}

fn set_up(inputs: &ChurnInputs, data_dir: PathBuf) -> io::Result<Setup> {
    let t0 = Instant::now();
    let spec = DaemonSpec {
        name: "reefbench-churn".into(),
        data_dir: Some(data_dir.clone()),
        autosub_refresh: Some(REFRESH),
        ..DaemonSpec::default()
    };
    let mut rig = Rig::start(&[spec], false)?;
    let mut acked: HashMap<u32, u64> = HashMap::new();
    let publ = rig.conns[PUB];
    let mut corrs = Vec::new();
    for (user, clicks) in inputs.steady.iter().chain(&inputs.enrollers) {
        for chunk in clicks.chunks(SETUP_CHUNK) {
            let batch = ClickBatch {
                user: *user,
                clicks: chunk.to_vec(),
            };
            corrs.push(rig.net.send(publ, Request::UploadClicks { batch })?.corr);
        }
    }
    for corr in corrs {
        match rig.wait_reply(publ, corr)? {
            Response::ClicksAccepted { receipt } if receipt.rejected == 0 => {
                *acked.entry(receipt.user.0).or_default() += receipt.accepted;
            }
            other => {
                return Err(io::Error::other(format!(
                    "set-up upload refused: {other:?}"
                )))
            }
        }
    }
    let mut feeds: BTreeMap<String, u32> = BTreeMap::new();
    let mut enrolled = HashMap::new();
    let enrollments = inputs
        .steady
        .iter()
        .map(|(u, _)| (*u, steady_policy(), true))
        .chain(
            inputs
                .enrollers
                .iter()
                .map(|(u, _)| (*u, steady_policy(), false)),
        )
        .chain(inputs.churners.iter().map(|u| (*u, churn_policy(), false)));
    for (user, policy, steady) in enrollments {
        let request = Request::AutoSubscribe {
            user,
            policy: Some(policy),
        };
        let reply = rig.net.call(rig.conns[SUB], request)?;
        let Response::AutoSubscribed { receipt } = reply else {
            return Err(io::Error::other(format!("enrollment refused: {reply:?}")));
        };
        if steady {
            for entry in &receipt.entries {
                let feed = feed_of(&entry.filter)
                    .ok_or_else(|| io::Error::other("steady user derived a non-topic filter"))?;
                *feeds.entry(feed).or_default() += 1;
            }
        } else {
            enrolled.insert(user.0, receipt.entries);
        }
    }
    if feeds.is_empty() {
        return Err(io::Error::other("steady users derived no feeds"));
    }
    let (feed, copies) = feeds.iter().next().expect("checked non-empty");
    let arrived = rig.probe(&[(Event::topical(feed, "probe"), [*copies, 0])])?;
    Ok(Setup {
        rig,
        data_dir,
        feeds,
        enrolled,
        acked,
        setup_s: (arrived - t0).as_secs_f64(),
    })
}

/// A request of the timed phase awaiting its reply.
enum Pending {
    Upload {
        due: Instant,
        user: u32,
        clicks: u64,
    },
    Enroll {
        due: Instant,
        user: u32,
    },
    Burst,
    Stats,
}

/// One novel-interest burst's progress.
struct Burst {
    due: Instant,
    feed: String,
    installed: Option<Instant>,
    probe: Option<usize>,
}

/// Run the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> io::Result<Report> {
    let mut report = Report::default();
    let open_span = Duration::from_secs_f64(ctx.seconds * if ctx.trace { 1.0 } else { OPEN_SHARE });
    let inputs = inputs(ctx.seed, open_span);
    let setups = if ctx.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut setup = None;
    for k in 0..setups {
        if let Some(Setup { rig, data_dir, .. }) = setup.take() {
            rig.stop(&mut report);
            let _ = std::fs::remove_dir_all(data_dir);
        }
        let dir = ctx.scratch.join(format!("churn-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        let s = set_up(&inputs, dir)?;
        setup_s.push(s.setup_s);
        setup = Some(s);
    }
    let mut s = setup.expect("at least one set-up");
    if !ctx.trace {
        report.metric(
            "setup_s",
            "s",
            median(&setup_s).expect("set-ups ran"),
            Some(setup_s.len()),
        );
    }

    let steady_feeds: Vec<(String, u32)> = s.feeds.iter().map(|(f, n)| (f.clone(), *n)).collect();
    let mut rng = Rng::new(ctx.seed, 5);
    let mut steady_event = move |_: usize| {
        let (feed, copies) = &steady_feeds[rng.below(steady_feeds.len() as u64) as usize];
        let body = format!("item {:016x}", rng.next_u64());
        (
            Event::topical(feed, &body),
            Expect {
                copies: [*copies, 0],
                acked_delivered: Some(u64::from(*copies)),
                sampled: true,
            },
        )
    };

    let conns = [Some(s.rig.conns[SUB]), Some(s.rig.conns[PUB])];
    let (sub, publ) = (s.rig.conns[SUB], s.rig.conns[PUB]);
    let before = s.rig.stats()?;
    let start = Instant::now() + Duration::from_millis(5);
    let half = open_span / 2;
    let windows = if ctx.trace {
        2
    } else {
        window_count(open_span, PUBLISH_RATE)
    };
    let window_len = if ctx.trace {
        half
    } else {
        open_span / windows as u32
    };
    let mut flow = Flow::new(publ, start, windows, window_len);

    let mut publishes = Schedule::fixed_rate(PUBLISH_RATE, open_span);
    let mut uploads = Schedule::fixed_rate(UPLOAD_RATE, open_span);
    let mut enrolls = Schedule::fixed_rate(ENROLL_RATE, open_span);
    let mut stats_ticks = Schedule::fixed_rate(4.0, open_span);
    let mut burst_sched = Schedule::from_offsets(inputs.bursts.iter().map(|(t, _)| *t).collect());
    let mut pending: HashMap<(usize, u64), Pending> = HashMap::new();
    let mut bursts: Vec<Burst> = Vec::new();
    let mut burst_of_feed: HashMap<String, usize> = HashMap::new();
    let mut upload_us = Vec::new();
    let mut enroll_ms = Vec::new();
    let mut refresh_us = Vec::new();
    let mut uploaded: Vec<ClickBatch> = Vec::new();
    let mut bad_replies = 0u64;
    let mut steady_changes = 0u64;
    let mut unexpected_installs = 0u64;
    let mut retires = 0u64;
    let mut attempted = 0u64;
    let end = start + open_span;
    tracer.set_enabled(false);

    // One pass of reply and notice handling, shared by every wait below.
    let mut pump = |net: &mut crate::net::Net,
                    flow: &mut Flow,
                    tracer: &mut Tracer,
                    pending: &mut HashMap<(usize, u64), Pending>,
                    bursts: &mut Vec<Burst>,
                    burst_of_feed: &HashMap<String, usize>|
     -> io::Result<()> {
        flow.absorb(net, conns, tracer);
        for index in [sub, publ] {
            let corrs: Vec<u64> = net
                .conn(index)
                .replies
                .keys()
                .filter(|c| pending.contains_key(&(index, **c)))
                .copied()
                .collect();
            for corr in corrs {
                let (at, response) = net.conn(index).replies.remove(&corr).expect("listed");
                match (pending.remove(&(index, corr)).expect("listed"), response) {
                    (
                        Pending::Upload { due, user, clicks },
                        Response::ClicksAccepted { receipt },
                    ) if receipt.accepted == clicks && receipt.rejected == 0 => {
                        upload_us.push((at - due).as_secs_f64() * 1e6);
                        *s.acked.entry(user).or_default() += clicks;
                    }
                    (Pending::Burst, Response::ClicksAccepted { receipt })
                        if receipt.accepted == BURST_CLICKS as u64 && receipt.rejected == 0 =>
                    {
                        *s.acked.entry(receipt.user.0).or_default() += receipt.accepted;
                    }
                    (Pending::Enroll { due, user }, Response::AutoSubscribed { receipt })
                        if s.enrolled.get(&user) == Some(&receipt.entries) =>
                    {
                        enroll_ms.push((at - due).as_secs_f64() * 1e3);
                    }
                    (Pending::Stats, Response::Stats { wire, .. }) => {
                        refresh_us.push(wire.autosub_last_refresh_us as f64);
                    }
                    _ => bad_replies += 1,
                }
            }
        }
        while let Some((at, change)) = net.conn(sub).feed_changes.pop_front() {
            let churner = inputs.churners.contains(&change.user);
            if !churner {
                steady_changes += 1;
            }
            retires += change.retired.len() as u64;
            for entry in &change.installed {
                let burst = feed_of(&entry.filter).and_then(|f| burst_of_feed.get(&f).copied());
                let Some(b) = burst.filter(|&b| churner && bursts[b].installed.is_none()) else {
                    unexpected_installs += 1;
                    continue;
                };
                bursts[b].installed = Some(at);
                let event = Event::topical(&bursts[b].feed, "probe");
                let expect = Expect {
                    copies: [1, 0],
                    acked_delivered: Some(1),
                    sampled: false,
                };
                bursts[b].probe = Some(flow.fire(net, event, expect, at, tracer)?);
            }
        }
        Ok(())
    };

    // Open loop: four streams on their own schedules, plus Stats samples
    // of the refresh gauge.
    loop {
        let now = Instant::now();
        if ctx.trace && now >= start + half && !tracer.enabled() {
            tracer.set_enabled(true);
            flow.sample_traces((PUBLISH_RATE * half.as_secs_f64()) as usize);
        }
        while let Some((i, due)) = publishes.take_due(start, now) {
            let (event, expect) = steady_event(i);
            flow.fire(&mut s.rig.net, event, expect, due, tracer)?;
        }
        while let Some((i, due)) = uploads.take_due(start, now) {
            let batch = inputs.uploads[i % inputs.uploads.len()].clone();
            let (user, clicks) = (batch.user.0, batch.clicks.len() as u64);
            uploaded.push(batch.clone());
            let corr = s.rig.net.send(publ, Request::UploadClicks { batch })?.corr;
            pending.insert((publ, corr), Pending::Upload { due, user, clicks });
            attempted += 1;
        }
        while let Some((i, due)) = enrolls.take_due(start, now) {
            let user = inputs.enrollers[i % inputs.enrollers.len()].0;
            let request = Request::AutoSubscribe {
                user,
                policy: Some(steady_policy()),
            };
            let corr = s.rig.net.send(sub, request)?.corr;
            pending.insert((sub, corr), Pending::Enroll { due, user: user.0 });
            attempted += 1;
        }
        while let Some((i, due)) = burst_sched.take_due(start, now) {
            let user = inputs.churners[inputs.bursts[i].1];
            let host = format!("nov{i}-{}.example", inputs.tag);
            let clicks = (0..BURST_CLICKS)
                .map(|c| Click {
                    user,
                    day: 0,
                    tick: (i * BURST_CLICKS + c) as u64,
                    url: format!("http://{host}/item-{c}"),
                    referrer: None,
                })
                .collect();
            let feed = format!("http://{host}/feed.xml");
            burst_of_feed.insert(feed.clone(), bursts.len());
            bursts.push(Burst {
                due,
                feed,
                installed: None,
                probe: None,
            });
            let corr = s
                .rig
                .net
                .send(
                    publ,
                    Request::UploadClicks {
                        batch: ClickBatch { user, clicks },
                    },
                )?
                .corr;
            pending.insert((publ, corr), Pending::Burst);
            attempted += 1;
        }
        while stats_ticks.take_due(start, now).is_some() {
            let corr = s.rig.net.send(publ, Request::Stats)?.corr;
            pending.insert((publ, corr), Pending::Stats);
        }
        let next = [
            publishes.next_due(start),
            uploads.next_due(start),
            enrolls.next_due(start),
            burst_sched.next_due(start),
            stats_ticks.next_due(start),
        ]
        .into_iter()
        .flatten()
        .min();
        let Some(next) = next else { break };
        s.rig.net.poll_before(next.min(end))?;
        pump(
            &mut s.rig.net,
            &mut flow,
            tracer,
            &mut pending,
            &mut bursts,
            &burst_of_feed,
        )?;
    }
    let backlog = flow.outstanding() + pending.len();
    let open_sent = flow.attempted();

    // Let every burst install and its probe land before saturating.
    let drain = Instant::now() + DRAIN;
    while Instant::now() < drain
        && (flow.outstanding() > 0
            || !pending.is_empty()
            || bursts.iter().any(|b| b.probe.is_none()))
    {
        s.rig
            .net
            .poll(Some(drain.min(Instant::now() + Duration::from_millis(20))))?;
        pump(
            &mut s.rig.net,
            &mut flow,
            tracer,
            &mut pending,
            &mut bursts,
            &burst_of_feed,
        )?;
    }
    let sat = if ctx.trace {
        None
    } else {
        let closed = Duration::from_secs_f64(ctx.seconds) - open_span;
        let (cpu, fired) = (s.rig.cpu_seconds()?, flow.attempted());
        let rates = closed_loop(
            &mut s.rig.net,
            &mut flow,
            conns,
            8,
            closed,
            &mut steady_event,
            tracer,
        )?;
        let events = (flow.attempted() - fired).max(1) as f64;
        report.metric(
            "cpu_us_per_event",
            "us",
            (s.rig.cpu_seconds()? - cpu) * 1e6 / events,
            Some(events as usize),
        );
        median(&rates)
    };
    let failed_ops = flow.finish(&mut s.rig.net, conns, tracer)?;
    pump(
        &mut s.rig.net,
        &mut flow,
        tracer,
        &mut pending,
        &mut bursts,
        &burst_of_feed,
    )?;
    tracer.set_enabled(false);
    let after = s.rig.stats()?;

    let mut feed_ms = Vec::new();
    let mut install_ms = Vec::new();
    let mut bursts_lost = 0u64;
    for b in &bursts {
        match (b.installed, b.probe.and_then(|p| flow.last_copy(p, SUB))) {
            (Some(installed), Some(delivered)) => {
                install_ms.push((installed - b.due).as_secs_f64() * 1e3);
                feed_ms.push((delivered - b.due).as_secs_f64() * 1e3);
            }
            _ => bursts_lost += 1,
        }
    }
    let missing_replies = pending.len() as u64;
    report.attempted += attempted + flow.attempted() as u64;
    report.failed += failed_ops as u64 + bad_replies + missing_replies + bursts_lost;
    report.check(
        "no publish or probe failed, went missing or was duplicated",
        failed_ops == 0,
    );
    report.check(
        "every upload, enrollment and burst was acked correctly",
        bad_replies + missing_replies == 0,
    );
    report.check(
        "every burst installed its feed and the probe arrived once",
        bursts_lost == 0,
    );
    report.check("steady users' feeds never changed", steady_changes == 0);
    report.check(
        "no install outside a novel-interest burst",
        unexpected_installs == 0,
    );
    report.check("no delivery named an unknown operation", flow.stray == 0);

    let deliver = &flow.samples.deliver[SUB];
    if ctx.trace {
        let (plain, traced) = (
            median(deliver.window(0)).unwrap_or(f64::NAN),
            median(deliver.window(1)).unwrap_or(f64::NAN),
        );
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
    for v in [
        &mut upload_us,
        &mut enroll_ms,
        &mut feed_ms,
        &mut install_ms,
        &mut refresh_us,
    ] {
        v.sort_by(f64::total_cmp);
    }
    for (name, unit, values, q) in [
        ("upload_p50_us", "us", &upload_us, 0.5),
        ("upload_p99_us", "us", &upload_us, 0.99),
        ("enroll_p50_ms", "ms", &enroll_ms, 0.5),
        ("enroll_p90_ms", "ms", &enroll_ms, 0.9),
        ("feed_p50_ms", "ms", &feed_ms, 0.5),
        ("feed_p90_ms", "ms", &feed_ms, 0.9),
        ("install_p50_ms", "ms", &install_ms, 0.5),
        ("wire.autosub.refresh_us_p50", "us", &refresh_us, 0.5),
    ] {
        match percentile(values, q) {
            Some(v) if beyond(values.len(), q) >= MIN_BEYOND => {
                report.metric(name, unit, v, Some(values.len()))
            }
            _ => report.notes.push(format!(
                "{name} not reported: {} samples are too few",
                values.len()
            )),
        }
    }
    report.notes.push(format!(
        "bursts {} installed-and-delivered {} retires seen {retires}",
        bursts.len(),
        feed_ms.len()
    ));
    loadgen_metrics(&flow, backlog, open_sent, &mut report);
    report.metric("daemon_rss_mb", "MiB", s.rig.peak_rss_mib()?, None);
    counter_metrics(&before, &after, flow.attempted(), &mut report);

    if ctx.trace {
        tracer.set_enabled(true);
        let events: Vec<Event> = flow.events().take(2000).cloned().collect();
        let filters: Vec<Filter> = s.feeds.keys().map(|f| Filter::topic(f)).collect();
        replay::pubsub_and_codec(&filters, &events, tracer, &mut report);
        let histories: Vec<Vec<Click>> = inputs.enrollers.iter().map(|(_, c)| c.clone()).collect();
        let burst_clicks: Vec<Vec<Click>> = (0..bursts.len().min(200))
            .map(|i| {
                (0..BURST_CLICKS)
                    .map(|c| Click {
                        user: histories[0].first().map_or(UserId(0), |k| k.user),
                        day: 0,
                        tick: c as u64,
                        url: format!("http://nov{i}-replay.example/item-{c}"),
                        referrer: None,
                    })
                    .collect()
            })
            .collect();
        let dir = ctx.scratch.join("replay-wal");
        let _ = std::fs::remove_dir_all(&dir);
        replay::persist_and_autosub(
            &uploaded,
            &histories,
            &burst_clicks,
            &engine_config(&churn_policy()),
            &dir,
            tracer,
            &mut report,
        )?;
        let _ = std::fs::remove_dir_all(&dir);
        crate::breakdown("autosub_churn", tracer, &mut report);
    }

    let Setup {
        rig,
        data_dir,
        acked,
        ..
    } = s;
    rig.stop(&mut report);
    report.check(
        "the reopened click store holds exactly the acked clicks",
        recovered_matches(&data_dir, &acked),
    );
    let _ = std::fs::remove_dir_all(&data_dir);
    Ok(report)
}

/// Reopen the daemon's click store and compare per-user counts with what
/// the daemon acknowledged.
fn recovered_matches(dir: &Path, acked: &HashMap<u32, u64>) -> bool {
    let Ok(store) = DurableClickStore::open(PersistConfig::new(dir)) else {
        return false;
    };
    let store = store.store();
    let stored: u64 = store.len();
    let want: u64 = acked.values().sum();
    stored == want
        && acked
            .iter()
            .all(|(user, n)| store.clicks_of(UserId(*user)).len() as u64 == *n)
}
