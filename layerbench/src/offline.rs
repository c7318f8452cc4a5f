//! The closed-loop offline workloads: one thread feeds STB bytes into
//! engine sessions back to back, and the traced run replays the same bytes
//! one layer at a time.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use smarttrack_detect::{
    analyze, AnalysisConfig, Detector, Engine, FootprintSampler, RaceNotice, Session, StreamHint,
};
use smarttrack_trace::binary::{StbReader, DEFAULT_CHUNK_EVENTS};
use smarttrack_trace::{Event, EventId, StreamValidator};

use crate::checks::{check_session, Checks, Expected, LaneResult};
use crate::spans::{SpanId, Tracer, NO_SPAN};
use crate::stats::{median, quantile};
use crate::workloads::{configs, Input, WorkloadDef, ALL_LANES};
use crate::Metrics;

/// Events per STB chunk: the encoder's default, so chunk `i` holds events
/// `[i * CHUNK, (i + 1) * CHUNK)`.
pub const CHUNK: usize = DEFAULT_CHUNK_EVENTS;

/// Events a SyncP or OSR lane replays on workloads whose sessions are
/// longer: both rows' cost grows with session length, so they are measured
/// on a bounded prefix of such traces (one STB chunk).
pub const SYNC_PREFIX_EVENTS: usize = CHUNK;

/// A lane's name in metric and span names: its parseable config string
/// (`fto-hb`, `st-wcp`, …, `syncp`, `osr`).
pub fn lane_key(config: &AnalysisConfig) -> String {
    config.to_string().to_lowercase()
}

/// The inputs and engine of one offline run.
pub struct Rig {
    pub inputs: Vec<Input>,
    pub lanes: Vec<AnalysisConfig>,
    pub engine: Engine,
    pub names: Rc<Vec<String>>,
}

/// Generates the input pool and builds the engine (the timed set-up).
pub fn setup(def: &WorkloadDef, seed: u64) -> Rig {
    let inputs = def.generate(seed);
    let lanes = configs(def.lanes);
    let engine = Engine::builder()
        .fanout(lanes.iter().copied())
        .build()
        .expect("workload lanes are available analyses");
    let names = engine
        .open()
        .snapshot()
        .lanes
        .iter()
        .map(|l| l.name.clone())
        .collect();
    Rig {
        inputs,
        lanes,
        engine,
        names: Rc::new(names),
    }
}

/// The in-memory `analyze` reference of every input, per lane.
pub fn references(rig: &Rig, checks: &mut Checks) -> Vec<Expected> {
    rig.inputs
        .iter()
        .map(|input| {
            // Chunk boundaries are what latency is measured from.
            let mut reader = StbReader::new(&input.stb[..]).expect("self-encoded STB");
            let mut sizes = Vec::new();
            while let Ok(Some(n)) = reader.skip_chunk() {
                sizes.push(n as usize);
            }
            let last = sizes.len().saturating_sub(1);
            checks.check(
                sizes
                    .iter()
                    .enumerate()
                    .all(|(i, &n)| n == CHUNK || i == last),
                || {
                    format!(
                        "{}: STB chunks are not {CHUNK} events: {sizes:?}",
                        input.label
                    )
                },
            );
            Expected {
                table1_static: input.table1_static,
                reference: rig
                    .lanes
                    .iter()
                    .map(|&c| LaneResult::of_report(&analyze(&input.trace, c).report))
                    .collect(),
            }
        })
        .collect()
}

/// One engine session over one input's STB bytes.
pub struct SessionRun {
    pub ns: f64,
    pub events: usize,
    pub lanes: Vec<LaneResult>,
    pub peak_bytes: usize,
    /// Race notice time minus the start of feeding the detecting event's
    /// STB chunk, in ns.
    pub push_latency_ns: Vec<f64>,
    /// `finish` return time minus the start of feeding the last chunk.
    pub report_latency_ns: f64,
    pub pushed: Vec<(usize, u32)>,
}

/// Decodes `input`'s STB bytes into a fresh session (with the header's
/// stream hint, as the batch pool does), finishes it, and times it. With a
/// tracer, every chunk's feed is a `session.chunk` span under `parent`.
pub fn run_session(
    rig: &Rig,
    input: &Input,
    mut tracer: Option<&mut Tracer>,
    parent: SpanId,
) -> Result<SessionRun, String> {
    type Notices = Rc<RefCell<Vec<(usize, u32, Instant)>>>;
    let notices: Notices = Rc::default();
    let mut chunk_starts: Vec<Instant> = Vec::with_capacity(input.trace.len() / CHUNK + 2);
    let start = Instant::now();
    let mut reader = StbReader::new(&input.stb[..]).map_err(|e| format!("stb header: {e}"))?;
    let mut session = rig
        .engine
        .open_with_hint(StreamHint::of_stb_header(reader.header()));
    let sink = Rc::clone(&notices);
    let names = Rc::clone(&rig.names);
    session.set_sink(move |n: &RaceNotice<'_>| {
        let lane = names
            .iter()
            .position(|x| x == n.analysis)
            .unwrap_or(usize::MAX);
        sink.borrow_mut()
            .push((lane, n.race.event.raw(), Instant::now()));
    });
    let (mut events, mut chunk_from, mut span) = (0usize, 0usize, NO_SPAN);
    loop {
        if events % CHUNK == 0 {
            if let Some(t) = tracer.as_deref_mut() {
                t.end(span, (events - chunk_from) as u64);
                span = t.begin("session.chunk", parent);
                chunk_from = events;
            }
            chunk_starts.push(Instant::now());
        }
        let Some(event) = reader.next() else { break };
        let event = event.map_err(|e| format!("stb decode: {e}"))?;
        session
            .feed(event)
            .map_err(|e| format!("event {events}: {e}"))?;
        events += 1;
    }
    let outcomes = session.finish();
    let end = Instant::now();
    if let Some(t) = tracer {
        t.end(span, (events - chunk_from) as u64);
    }
    let since_chunk = |event: usize| chunk_starts[event / CHUNK];
    let notices = notices.borrow();
    Ok(SessionRun {
        ns: (end - start).as_nanos() as f64,
        events,
        lanes: outcomes
            .iter()
            .map(|o| LaneResult::of_report(&o.report))
            .collect(),
        peak_bytes: outcomes
            .iter()
            .map(|o| o.summary.peak_footprint_bytes)
            .sum(),
        push_latency_ns: notices
            .iter()
            .map(|&(_, e, t)| (t - since_chunk(e as usize)).as_nanos() as f64)
            .collect(),
        report_latency_ns: (end - since_chunk(events.saturating_sub(1))).as_nanos() as f64,
        pushed: notices.iter().map(|&(l, e, _)| (l, e)).collect(),
    })
}

/// The benchmark's null pass: reads every event of the in-memory trace and
/// folds it into a checksum, the uninstrumented baseline of `slowdown_x`.
pub fn null_pass(events: &[Event]) -> u64 {
    let mut acc = 0u64;
    for e in events {
        let e = black_box(e);
        let target = e.op.access_var().map_or(0, |v| u64::from(v.raw()));
        acc = acc.rotate_left(7) ^ u64::from(e.tid.raw()) ^ (u64::from(e.loc.raw()) << 16) ^ target;
    }
    acc
}

/// Null-pass time of `events` in ns: the fastest of three passes.
pub fn time_null_pass(events: &[Event]) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(null_pass(events));
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn checked_session(
    rig: &Rig,
    expected: &[Expected],
    i: usize,
    tracer: Option<&mut Tracer>,
    parent: SpanId,
    checks: &mut Checks,
) -> Option<SessionRun> {
    let input = &rig.inputs[i];
    match run_session(rig, input, tracer, parent) {
        Ok(run) => {
            check_session(
                checks,
                &input.label,
                &rig.lanes,
                &expected[i],
                &run.lanes,
                &run.pushed,
            );
            Some(run)
        }
        Err(e) => {
            checks.check(false, || format!("{}: session failed: {e}", input.label));
            None
        }
    }
}

/// A round is quiet when its null pass ran within this share of the run's
/// fastest: the medians use quiet rounds only, so stretches where other
/// load on the host slowed everything are left out. Any slowdown of the
/// analysis itself still shows, because the null pass does not run it.
const QUIET_TOLERANCE: f64 = 0.10;

/// With fewer quiet rounds than this, every round is used.
const MIN_QUIET_ROUNDS: usize = 5;

/// One round of the untraced loop: one set-up plus one session per input.
#[derive(Default)]
struct Round {
    null_ns: f64,
    null_events: usize,
    session_ns: f64,
    events: usize,
    push_ns: Vec<f64>,
    report_ns: Vec<f64>,
    setup_s: f64,
}

/// The untraced closed loop: rounds over the input pool for `seconds`,
/// after one warm-up round. Each round also times one set-up, so `setup_s`
/// is sampled across the whole run like everything else.
pub fn measure(
    def: &WorkloadDef,
    seed: u64,
    rig: &Rig,
    expected: &[Expected],
    seconds: f64,
    checks: &mut Checks,
    metrics: &mut Metrics,
) {
    for i in 0..rig.inputs.len() {
        checked_session(rig, expected, i, None, NO_SPAN, checks);
    }
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || rounds.len() < 3 {
        let start = Instant::now();
        drop(black_box(setup(def, seed)));
        let mut round = Round {
            setup_s: start.elapsed().as_secs_f64(),
            ..Round::default()
        };
        for i in 0..rig.inputs.len() {
            round.null_ns += time_null_pass(rig.inputs[i].trace.events());
            round.null_events += rig.inputs[i].trace.len();
            let Some(run) = checked_session(rig, expected, i, None, NO_SPAN, checks) else {
                continue;
            };
            round.session_ns += run.ns;
            round.events += run.events;
            round.push_ns.extend(run.push_latency_ns);
            round.report_ns.push(run.report_latency_ns);
            peak = peak.max(run.peak_bytes);
        }
        rounds.push(round);
    }
    let fastest = rounds
        .iter()
        .map(|r| r.null_ns)
        .fold(f64::INFINITY, f64::min);
    let mut kept: Vec<&Round> = rounds
        .iter()
        .filter(|r| r.null_ns <= fastest * (1.0 + QUIET_TOLERANCE))
        .collect();
    if kept.len() < MIN_QUIET_ROUNDS {
        kept = rounds.iter().collect();
    }
    let each = |f: fn(&Round) -> f64| kept.iter().map(|r| f(r)).collect::<Vec<f64>>();
    // Latencies in units of the same round's null pass over one chunk.
    let chunk_null = |r: &Round| r.null_ns / r.null_events as f64 * CHUNK as f64;
    let scaled = |f: fn(&Round) -> &[f64]| -> (Vec<f64>, Vec<f64>) {
        let raw = kept.iter().flat_map(|r| f(r).iter().copied()).collect();
        let x = kept
            .iter()
            .flat_map(|r| f(r).iter().map(move |ns| ns / chunk_null(r)))
            .collect();
        (raw, x)
    };
    let (push, push_x) = scaled(|r| &r.push_ns);
    let (report, report_x) = scaled(|r| &r.report_ns);
    metrics.push(
        "slowdown_x",
        median(&each(|r| r.session_ns / r.null_ns)),
        "x",
    );
    metrics.push("peak_footprint_mb", peak as f64 / 1e6, "MB");
    metrics.push("push_latency_x.p50", median(&push_x), "x");
    metrics.push("push_latency_x.p99", quantile(&push_x, 0.99), "x");
    metrics.push("report_latency_x.p50", median(&report_x), "x");
    metrics.push("setup_s", median(&each(|r| r.setup_s)), "s");
    metrics.raw(
        "mevents_per_s",
        median(&each(|r| r.events as f64 / r.session_ns * 1e3)),
        "Mevents/s",
    );
    metrics.raw("push_latency_ms.p50", median(&push) / 1e6, "ms");
    metrics.raw("push_latency_ms.p99", quantile(&push, 0.99) / 1e6, "ms");
    metrics.raw("report_latency_ms.p50", median(&report) / 1e6, "ms");
    metrics.note(format!(
        "{} of {} rounds quiet (null pass within {:.0}% of the fastest round) x {} sessions, \
         {} race notices",
        kept.len(),
        rounds.len(),
        QUIET_TOLERANCE * 100.0,
        rig.inputs.len(),
        rounds.iter().map(|r| r.push_ns.len()).sum::<usize>()
    ));
}

/// Per-lane counters accumulated over the traced replays.
#[derive(Default, Clone)]
struct LaneTally {
    fast: u64,
    slow: u64,
    peak_bytes: usize,
}

/// The traced run: for `seconds`, each round times every input's session
/// untraced and traced, then replays it one layer at a time.
pub fn measure_layers(
    rig: &Rig,
    expected: &[Expected],
    seconds: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> LayerTotals {
    let all = configs(&ALL_LANES);
    let mut tallies = vec![LaneTally::default(); all.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = 0;
    while Instant::now() < deadline || rounds < 2 {
        let round = tracer.begin("round", NO_SPAN);
        for i in 0..rig.inputs.len() {
            let span = tracer.begin("session.e2e", round);
            let run = checked_session(rig, expected, i, None, NO_SPAN, checks);
            tracer.end(span, run.map_or(0, |r| r.events as u64));
            let span = tracer.begin("session.traced", round);
            let run = checked_session(rig, expected, i, Some(&mut *tracer), span, checks);
            tracer.end(span, run.map_or(0, |r| r.events as u64));
            replay_layers(
                rig,
                &rig.inputs[i],
                &all,
                &mut tallies,
                tracer,
                round,
                checks,
            );
        }
        tracer.end(round, 0);
        rounds += 1;
    }
    LayerTotals {
        lanes: all
            .iter()
            .zip(tallies)
            .map(|(c, t)| {
                let fast_frac = if t.fast + t.slow == 0 {
                    0.0
                } else {
                    t.fast as f64 / (t.fast + t.slow) as f64
                };
                (lane_key(c), fast_frac, t.peak_bytes)
            })
            .collect(),
        rounds,
    }
}

/// What the spans alone do not carry.
pub struct LayerTotals {
    /// `(config, fast fraction, peak bytes)` per replayed lane.
    pub lanes: Vec<(String, f64, usize)>,
    pub rounds: usize,
}

/// Replays one input through each layer in isolation, one STB chunk per
/// span: decode, admit, each lane's bare `process` loop, the same loop with
/// footprint sampling, then an interned engine session against an
/// un-interned `Session::from_detectors` session over the same lanes.
fn replay_layers(
    rig: &Rig,
    input: &Input,
    all: &[AnalysisConfig],
    tallies: &mut [LaneTally],
    tracer: &mut Tracer,
    parent: SpanId,
    checks: &mut Checks,
) {
    let events = input.trace.events();
    let len = events.len();

    let mut reader = StbReader::new(&input.stb[..]).expect("self-encoded STB");
    let mut buf: Vec<Event> = Vec::with_capacity(CHUNK);
    let mut decoded = 0;
    loop {
        let span = tracer.begin("decode", parent);
        for event in reader.by_ref().take(CHUNK) {
            buf.push(event.expect("self-encoded STB"));
        }
        tracer.end(span, buf.len() as u64);
        decoded += buf.len();
        if buf.len() < CHUNK {
            break;
        }
        black_box(&buf);
        buf.clear();
    }
    checks.check(decoded == len, || {
        format!("{}: decoded {decoded} of {len} events", input.label)
    });

    let mut validator = StreamValidator::new();
    let mut admitted = true;
    for chunk in events.chunks(CHUNK) {
        let span = tracer.begin("validate", parent);
        for event in chunk {
            admitted &= validator.admit(event).is_ok();
        }
        tracer.end(span, chunk.len() as u64);
    }
    checks.check(admitted, || {
        format!("{}: validator rejected an event", input.label)
    });

    for (lane, config) in all.iter().enumerate() {
        let name = lane_key(config);
        let own = rig.lanes.contains(config);
        let sync_row = matches!(name.as_str(), "syncp" | "osr");
        let limit = if sync_row && !own {
            len.min(SYNC_PREFIX_EVENTS)
        } else {
            len
        };
        let hint = StreamHint {
            events: Some(limit),
            ..StreamHint::of_trace(&input.trace)
        };
        let mut det = config.detector().expect("available lane");
        det.begin_stream(hint);
        let bare = format!("lane.{name}");
        for (c, chunk) in events[..limit].chunks(CHUNK).enumerate() {
            let span = tracer.begin(&bare, parent);
            for (k, event) in chunk.iter().enumerate() {
                det.process(EventId::new((c * CHUNK + k) as u32), event);
            }
            tracer.end(span, chunk.len() as u64);
        }
        det.finish_stream();
        let stats = det.hot_path_stats();
        tallies[lane].fast += stats.fast_hits;
        tallies[lane].slow += stats.slow_hits;

        let mut det = config.detector().expect("available lane");
        det.begin_stream(hint);
        let mut sampler = FootprintSampler::for_len(limit);
        let sampled = format!("sampled.{name}");
        for (c, chunk) in events[..limit].chunks(CHUNK).enumerate() {
            let span = tracer.begin(&sampled, parent);
            for (k, event) in chunk.iter().enumerate() {
                det.process(EventId::new((c * CHUNK + k) as u32), event);
                sampler.observe(|| det.state_bytes());
            }
            tracer.end(span, chunk.len() as u64);
        }
        det.finish_stream();
        let peak = sampler.finish(det.footprint_bytes());
        tallies[lane].peak_bytes = tallies[lane].peak_bytes.max(peak);
    }

    let span = tracer.begin("session.interned", parent);
    let mut session = rig.engine.open();
    let fed = session.feed_trace(&input.trace).is_ok();
    black_box(session.finish());
    tracer.end(span, len as u64);
    let span = tracer.begin("session.plain", parent);
    let detectors: Vec<Box<dyn Detector>> = rig
        .lanes
        .iter()
        .map(|c| c.detector().expect("available lane"))
        .collect();
    let mut session = Session::from_detectors(detectors);
    let fed = fed && session.feed_trace(&input.trace).is_ok();
    black_box(session.finish());
    tracer.end(span, len as u64);
    checks.check(fed, || {
        format!("{}: in-memory session rejected the trace", input.label)
    });
}

/// Share of the session cost the measured layers may leave unexplained
/// before the reconciliation names the gap.
const GAP_LIMIT: f64 = 0.10;

/// Turns the traced run's spans into per-layer metrics, and reconciles the
/// layer sum against the session cost.
pub fn layer_metrics(rig: &Rig, tracer: &Tracer, totals: &LayerTotals, metrics: &mut Metrics) {
    let per = |name: &str| tracer.ns_per_work(name);
    let session = per("session.e2e");
    let decode = per("decode");
    let validate = per("validate");
    let lanes: Vec<(String, f64)> = rig
        .lanes
        .iter()
        .map(|c| (lane_key(c), per(&format!("lane.{}", lane_key(c)))))
        .collect();
    let lane_sum: f64 = lanes.iter().map(|(_, ns)| ns).sum();
    let sample: f64 = rig
        .lanes
        .iter()
        .map(|c| per(&format!("sampled.{}", lane_key(c))) - per(&format!("lane.{}", lane_key(c))))
        .sum();
    let intern = per("session.interned") - per("session.plain");
    let layers = decode + validate + lane_sum + sample + intern;
    let gap = session - layers;

    metrics.push("session.ns_per_event", session, "ns/event");
    metrics.push("decode.ns_per_event", decode, "ns/event");
    metrics.push("validate.ns_per_event", validate, "ns/event");
    for (name, fast_frac, peak) in &totals.lanes {
        metrics.push(
            &format!("lane.{name}.ns_per_event"),
            per(&format!("lane.{name}")),
            "ns/event",
        );
        metrics.push(&format!("lane.{name}.fast_frac"), *fast_frac, "ratio");
        metrics.push(
            &format!("lane.{name}.peak_footprint_mb"),
            *peak as f64 / 1e6,
            "MB",
        );
    }
    metrics.push("sample.ns_per_event", sample, "ns/event");
    metrics.push("intern.ns_per_event", intern, "ns/event");
    metrics.push("engine.gap_ns_per_event", gap, "ns/event");
    metrics.push("engine.gap_frac", gap / session, "ratio");
    metrics.push(
        "trace.overhead_frac",
        per("session.traced") / session - 1.0,
        "ratio",
    );

    let lane_list: Vec<String> = lanes
        .iter()
        .map(|(name, ns)| format!("{name} {ns:.1}"))
        .collect();
    metrics.note(format!(
        "reconcile: session {session:.1} ns/event vs layers {layers:.1} ns/event = decode {decode:.1} \
         + validate {validate:.1} + lanes {lane_sum:.1} [{}] + sample {sample:.1} + intern {intern:.1}",
        lane_list.join(", ")
    ));
    let share = gap / session;
    if share.abs() > GAP_LIMIT {
        metrics.note(format!(
            "reconcile: GAP engine.gap_ns_per_event = {gap:.1} ns/event ({:.0}% of the session) \
             exceeds {:.0}%: Session::feed's fan-out loop, per-lane race drain and finish are \
             not covered by any measured layer",
            share * 100.0,
            GAP_LIMIT * 100.0
        ));
    } else {
        metrics.note(format!(
            "reconcile: layers explain the session within {:.0}% (gap {:.1}%)",
            GAP_LIMIT * 100.0,
            share * 100.0
        ));
    }
    metrics.note(format!(
        "traced run: {} rounds, {} spans",
        totals.rounds,
        tracer.len()
    ));
}
