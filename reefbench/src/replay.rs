//! The traced run's per-layer timings: the benchmark's own calls into
//! each layer's public functions, replaying the inputs the workload
//! generated. Every call is a root span; a layer's figure is the median
//! span duration.

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use reef_attention::{Click, ClickBatch, DurableClickStore, PersistConfig};
use reef_core::{AutoSubConfig, AutoSubEngine};
use reef_pubsub::{
    Broker, Event, EventId, Filter, IndexMatcher, MatchEngine, PublishedEvent, SubscriptionId,
};
use reef_simweb::UserId;
use reef_wire::codec::BinaryCodec;
use reef_wire::{ClientFrame, Frame, FrameDecoder, Request, WireCodec};
use std::io;
use std::path::Path;

/// Median duration in ns of the spans named `name` recorded since span
/// index `from` (0 when there are none). Medians, not means: a host
/// stall during one call should not move a layer's figure.
fn median_ns(tracer: &Tracer, from: usize, name: &str) -> f64 {
    let durations: Vec<f64> = tracer.spans()[from..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64)
        .collect();
    median(&durations).unwrap_or(0.0)
}

/// Matcher, broker, codec and framing over the workload's filters and
/// published events.
pub fn pubsub_and_codec(
    filters: &[Filter],
    events: &[Event],
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let from = tracer.spans().len();

    let mut matcher = IndexMatcher::new();
    for (i, filter) in filters.iter().enumerate() {
        let filter = filter.clone();
        tracer.time("pubsub.matcher.insert", i as u64, || {
            matcher.insert(SubscriptionId(i as u64), filter)
        });
    }
    let mut matched = 0usize;
    for (i, event) in events.iter().enumerate() {
        matched += tracer
            .time("pubsub.matcher.matches", i as u64, || {
                std::hint::black_box(matcher.matches(std::hint::black_box(event)))
            })
            .len();
    }
    for i in 0..filters.len() {
        tracer.time("pubsub.matcher.remove", i as u64, || {
            std::hint::black_box(matcher.remove(SubscriptionId(i as u64)))
        });
    }

    let broker = Broker::new();
    let (subscriber, handle) = broker.register();
    for (i, filter) in filters.iter().enumerate() {
        let filter = filter.clone();
        tracer
            .time("pubsub.broker.subscribe", i as u64, || {
                broker.subscribe(subscriber, filter)
            })
            .expect("a registered subscriber accepts every filter");
    }
    for (i, event) in events.iter().enumerate() {
        let event = event.clone();
        tracer
            .time("pubsub.broker.publish", i as u64, || broker.publish(event))
            .expect("an unbounded queue accepts every publish");
        handle.drain();
    }

    let codec = BinaryCodec;
    let mut stream = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let published = PublishedEvent {
            id: EventId(i as u64),
            published_at: i as u64,
            event: event.clone(),
        };
        let frame = tracer
            .time("wire.codec.encode_deliver", i as u64, || {
                codec.encode_deliver(&published)
            })
            .expect("events encode");
        tracer
            .time("wire.codec.decode_deliver", i as u64, || {
                codec.decode_server(&frame)
            })
            .expect("an encoded delivery decodes");
        frame
            .write_to(&mut stream)
            .expect("writing to a Vec cannot fail");
        let publish = codec
            .encode_client(&ClientFrame {
                corr: i as u64,
                request: Request::Publish {
                    event: event.clone(),
                },
            })
            .expect("events encode");
        tracer
            .time("wire.codec.decode_publish", i as u64, || {
                codec.decode_client(&publish)
            })
            .expect("an encoded publish decodes");
    }
    let mut decoder = FrameDecoder::new();
    decoder.extend(&stream);
    let mut frames = 0usize;
    loop {
        let frame: Option<Frame> = tracer
            .time("wire.frame.decode", frames as u64, || decoder.next_frame())
            .expect("a well-formed stream decodes");
        if frame.is_none() {
            break;
        }
        frames += 1;
    }
    report.check(
        "replayed frame stream decodes whole",
        frames == events.len(),
    );

    let match_ns = median_ns(tracer, from, "pubsub.matcher.matches");
    let publish_ns = median_ns(tracer, from, "pubsub.broker.publish");
    report.metric(
        "pubsub.matcher.match_ns",
        "ns",
        match_ns,
        Some(events.len()),
    );
    report.metric(
        "pubsub.matcher.matches_per_event",
        "count",
        matched as f64 / events.len().max(1) as f64,
        None,
    );
    for (metric, span, n) in [
        (
            "pubsub.matcher.insert_ns",
            "pubsub.matcher.insert",
            filters.len(),
        ),
        (
            "pubsub.matcher.remove_ns",
            "pubsub.matcher.remove",
            filters.len(),
        ),
        (
            "pubsub.broker.subscribe_ns",
            "pubsub.broker.subscribe",
            filters.len(),
        ),
        (
            "pubsub.broker.publish_ns",
            "pubsub.broker.publish",
            events.len(),
        ),
        (
            "wire.codec.encode_deliver_ns",
            "wire.codec.encode_deliver",
            events.len(),
        ),
        (
            "wire.codec.decode_deliver_ns",
            "wire.codec.decode_deliver",
            events.len(),
        ),
        (
            "wire.codec.decode_publish_ns",
            "wire.codec.decode_publish",
            events.len(),
        ),
        ("wire.frame.decode_ns", "wire.frame.decode", frames),
    ] {
        report.metric(metric, "ns", median_ns(tracer, from, span), Some(n));
    }
    report.metric(
        "pubsub.broker.offer_ns",
        "ns",
        publish_ns - match_ns,
        Some(events.len()),
    );
}

/// Click persistence and the autosub engine over the workload's uploads,
/// enrollment histories and novel-interest bursts.
pub fn persist_and_autosub(
    uploads: &[ClickBatch],
    histories: &[Vec<Click>],
    bursts: &[Vec<Click>],
    config: &AutoSubConfig,
    dir: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> io::Result<()> {
    let from = tracer.spans().len();
    let codec = BinaryCodec;
    for (i, batch) in uploads.iter().enumerate() {
        let frame = codec
            .encode_client(&ClientFrame {
                corr: i as u64,
                request: Request::UploadClicks {
                    batch: batch.clone(),
                },
            })
            .map_err(|e| io::Error::other(e.to_string()))?;
        tracer
            .time("wire.codec.decode_upload", i as u64, || {
                codec.decode_client(&frame)
            })
            .map_err(|e| io::Error::other(e.to_string()))?;
    }

    let mut cfg = PersistConfig::new(dir);
    cfg.snapshot_every = 0;
    let mut store = DurableClickStore::open(cfg)?;
    let mut clicks = 0usize;
    for (i, batch) in uploads.iter().enumerate() {
        clicks += batch.clicks.len();
        let batch = batch.clone();
        tracer.time("attention.persist.append", i as u64, || {
            store.ingest_upload(batch)
        })?;
    }
    let wal_bytes = store.persist_stats().wal_bytes;
    tracer.time("attention.persist.snapshot", 0, || store.snapshot_now())?;
    drop(store);

    let now = 1.0e6;
    for (i, history) in histories.iter().enumerate() {
        let user = history.first().map_or(UserId(0), |c| c.user);
        tracer.time("core.autosub.observe_full", i as u64, || {
            let mut engine = AutoSubEngine::new(user, config.clone());
            std::hint::black_box(engine.observe(history, now))
        });
    }
    if let Some(history) = histories.first() {
        let user = history.first().map_or(UserId(0), |c| c.user);
        let mut engine = AutoSubEngine::new(user, config.clone());
        engine.observe(history, now);
        let mut all = history.clone();
        for (i, burst) in bursts.iter().enumerate() {
            all.extend(burst.iter().cloned());
            tracer.time("core.autosub.observe_delta", i as u64, || {
                std::hint::black_box(engine.observe(&all, now + 1.0 + i as f64))
            });
        }
    }

    report.metric(
        "wire.codec.decode_upload_ns",
        "ns",
        median_ns(tracer, from, "wire.codec.decode_upload"),
        Some(uploads.len()),
    );
    report.metric(
        "attention.persist.append_us",
        "us",
        median_ns(tracer, from, "attention.persist.append") / 1e3,
        Some(uploads.len()),
    );
    report.metric(
        "attention.persist.wal_bytes_per_click",
        "B",
        wal_bytes as f64 / clicks.max(1) as f64,
        None,
    );
    report.metric(
        "attention.persist.snapshot_ms",
        "ms",
        median_ns(tracer, from, "attention.persist.snapshot") / 1e6,
        Some(1),
    );
    report.metric(
        "core.autosub.observe_full_ms",
        "ms",
        median_ns(tracer, from, "core.autosub.observe_full") / 1e6,
        Some(histories.len()),
    );
    report.metric(
        "core.autosub.observe_delta_us",
        "us",
        median_ns(tracer, from, "core.autosub.observe_delta") / 1e3,
        Some(bursts.len()),
    );
    Ok(())
}
