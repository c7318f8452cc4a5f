//! The open-loop serve load generator, written on the public `serve::protocol`
//! functions, plus isolated replays of the daemon's framing and STB
//! reassembly.
//!
//! Each connection has a sender thread that sends pre-encoded frames on a
//! fixed schedule, waiting only for each data frame's `Ack`, and a reader
//! thread that timestamps every frame the server sends — so race pushes
//! are timed when they arrive, not when the sender next looks.

use std::hint::black_box;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use smarttrack_detect::AnalysisConfig;
use smarttrack_serve::protocol::{encode_frame, read_frame, write_frame, FrameBuf};
use smarttrack_serve::{Frame, QueryKind, Server, ServerConfig, WireRace, PROTOCOL_VERSION};
use smarttrack_trace::binary::StbAssembler;

use crate::checks::{check_session, Checks, Expected, LaneResult};
use crate::offline::CHUNK;
use crate::spans::{SpanId, Tracer, NO_SPAN};
use crate::stats::{max, median, windowed};
use crate::workloads::Input;
use crate::Metrics;

/// STB bytes per data frame: a recorder flushing every 4 KiB.
pub const FRAME_BYTES: usize = 16384;

/// Connections, each fed by one sender thread.
pub const CONNECTIONS: usize = 2;

/// Analysis workers of the loopback server.
pub const WORKERS: usize = 2;

/// Sessions starting earlier than this are checked but not measured:
/// they pay for the server's lazy start (thread wake-ups, first
/// allocations).
const WARMUP: Duration = Duration::from_millis(500);

/// Latency percentiles are taken per window of sessions (by start time),
/// then the median across windows is reported.
const WINDOW: Duration = Duration::from_millis(250);

/// How long the sender waits for one `Ack`, and the run for its last
/// `Report`, before declaring the server stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One input cut into data frames.
pub struct Framed {
    /// Each frame fully encoded (header + `Data` payload).
    pub encoded: Vec<Vec<u8>>,
    /// STB payload of each frame.
    pub payloads: Vec<Vec<u8>>,
    /// Stream bytes through the end of each frame.
    pub end_bytes: Vec<u64>,
    /// Events decodable once each frame has arrived (an STB chunk decodes
    /// only when its last byte is in).
    pub ready: Vec<u64>,
    pub events: u64,
}

impl Framed {
    pub fn of(input: &Input) -> Framed {
        let payloads: Vec<Vec<u8>> = input.stb.chunks(FRAME_BYTES).map(<[u8]>::to_vec).collect();
        let mut asm = StbAssembler::new();
        let (mut ready, mut end_bytes) = (Vec::new(), Vec::new());
        let (mut decoded, mut bytes) = (0u64, 0u64);
        for p in &payloads {
            asm.push(p).expect("self-encoded STB");
            while asm.next_event().is_some() {
                decoded += 1;
            }
            bytes += p.len() as u64;
            ready.push(decoded);
            end_bytes.push(bytes);
        }
        Framed {
            encoded: payloads
                .iter()
                .map(|p| encode_frame(&Frame::Data(p.clone())))
                .collect(),
            payloads,
            end_bytes,
            ready,
            events: input.trace.len() as u64,
        }
    }
}

/// A loopback daemon running the workload's lanes.
pub fn bind(lanes: &[AnalysisConfig]) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            analyses: lanes.to_vec(),
            workers: Some(WORKERS),
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback server")
}

/// One session on one connection's schedule.
struct Planned {
    input: usize,
    /// Offsets from the run's origin.
    start: Duration,
    length: Duration,
}

enum Action {
    Hello,
    Data(usize),
    /// `Query(Snapshot)` for the peak footprint, then `Finish`.
    End,
}

struct Slot {
    due: Duration,
    session: usize,
    action: Action,
}

/// One connection's sessions and the frames due for them.
struct Schedule {
    plans: Vec<Planned>,
    slots: Vec<Slot>,
}

fn due_of_frame(plan: &Planned, framed: &Framed, f: usize) -> Duration {
    let total = *framed.end_bytes.last().expect("non-empty stream") as f64;
    plan.start + plan.length.mul_f64(framed.end_bytes[f] as f64 / total)
}

/// Sessions follow each other on a connection in fixed slots, one slot
/// being the longest input's stream time at `rate` events per second; the
/// connections' slots are staggered evenly, so hellos alternate between
/// connections. Within its slot a session's frames are due as a recorder
/// producing `rate` events per second would fill them.
fn schedule(conn: usize, framed: &[Framed], rate: f64, run: Duration) -> Schedule {
    let longest = framed.iter().map(|f| f.events).max().unwrap_or(1);
    let slot = Duration::from_secs_f64(longest as f64 / rate);
    let stagger = slot.mul_f64(conn as f64 / CONNECTIONS as f64);
    let (mut plans, mut slots) = (Vec::new(), Vec::new());
    for k in 0.. {
        let start = stagger + slot * k as u32;
        if start + slot > run && k > 0 {
            break;
        }
        let input = (conn + k) % framed.len();
        let plan = Planned {
            input,
            start,
            length: Duration::from_secs_f64(framed[input].events as f64 / rate),
        };
        slots.push(Slot {
            due: start,
            session: k,
            action: Action::Hello,
        });
        for f in 0..framed[input].encoded.len() {
            slots.push(Slot {
                due: due_of_frame(&plan, &framed[input], f),
                session: k,
                action: Action::Data(f),
            });
        }
        slots.push(Slot {
            due: start + plan.length,
            session: k,
            action: Action::End,
        });
        plans.push(plan);
    }
    Schedule { plans, slots }
}

enum Reply {
    Ack(Instant),
    Busy,
    Failed,
}

/// What a connection's reader saw, per session.
#[derive(Default)]
struct Received {
    races: Vec<Vec<(WireRace, Instant)>>,
    reports: Vec<Option<(smarttrack_serve::WireReport, Instant)>>,
    peaks: Vec<u64>,
    errors: Vec<String>,
}

fn read_replies(stream: TcpStream, sessions: usize, replies: mpsc::Sender<Reply>) -> Received {
    let mut got = Received {
        races: vec![Vec::new(); sessions],
        reports: vec![None; sessions],
        peaks: vec![0; sessions],
        errors: Vec::new(),
    };
    let mut r = BufReader::new(stream);
    let mut cur = 0;
    loop {
        let frame = match read_frame(&mut r) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                got.errors.push(format!("read: {e}"));
                break;
            }
        };
        let now = Instant::now();
        match frame {
            Frame::Ack { .. } => {
                let _ = replies.send(Reply::Ack(now));
            }
            Frame::Busy { .. } => {
                let _ = replies.send(Reply::Busy);
            }
            Frame::Race(race) if cur < sessions => got.races[cur].push((race, now)),
            Frame::Snapshot(s) if cur < sessions => {
                got.peaks[cur] = s.lanes.iter().map(|l| l.peak_footprint_bytes).sum();
            }
            Frame::Report(report) if cur < sessions => {
                got.reports[cur] = Some((report, now));
                cur += 1;
            }
            Frame::Welcome { .. } | Frame::Goodbye { .. } => {}
            Frame::Error { code, message } => {
                got.errors
                    .push(format!("session {cur}: {code:?}: {message}"));
                let _ = replies.send(Reply::Failed);
            }
            other => got.errors.push(format!("unexpected frame {other:?}")),
        }
    }
    let _ = replies.send(Reply::Failed);
    got
}

/// What a connection's sender measured.
#[derive(Default)]
struct Sent {
    ack_rtt_ns: Vec<f64>,
    busy_retries: u64,
    max_lag_ns: f64,
    error: Option<String>,
}

fn send_schedule(
    mut stream: &TcpStream,
    conn: usize,
    schedule: &Schedule,
    framed: &[Framed],
    origin: Instant,
    replies: &mpsc::Receiver<Reply>,
    tracer: &mut Tracer,
) -> Sent {
    let mut out = Sent::default();
    let mut session_span = NO_SPAN;
    let plans = &schedule.plans;
    for slot in &schedule.slots {
        let due = origin + slot.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        out.max_lag_ns = out
            .max_lag_ns
            .max(Instant::now().saturating_duration_since(due).as_nanos() as f64);
        let sent = match slot.action {
            Action::Hello => {
                session_span = tracer.begin("serve.session", NO_SPAN);
                write_frame(
                    &mut stream,
                    &Frame::Hello {
                        version: PROTOCOL_VERSION,
                        resume: false,
                        tenant: "layerbench".to_string(),
                        session: format!("c{conn}-s{}", slot.session),
                    },
                )
            }
            Action::Data(f) => {
                let bytes = &framed[plans[slot.session].input].encoded[f];
                let span = tracer.begin("serve.send", session_span);
                let result = send_data(stream, bytes, replies, &mut out);
                tracer.end(span, bytes.len() as u64);
                result
            }
            Action::End => {
                let result = write_frame(&mut stream, &Frame::Query(QueryKind::Snapshot))
                    .and_then(|()| write_frame(&mut stream, &Frame::Finish));
                tracer.end(session_span, framed[plans[slot.session].input].events);
                result
            }
        };
        if let Err(e) = sent {
            out.error = Some(format!("connection {conn}: {e}"));
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
    out
}

/// Sends one data frame and waits for its `Ack`, resending after `Busy`.
fn send_data(
    mut stream: &TcpStream,
    bytes: &[u8],
    replies: &mpsc::Receiver<Reply>,
    out: &mut Sent,
) -> std::io::Result<()> {
    loop {
        let sent = Instant::now();
        stream.write_all(bytes)?;
        match replies.recv_timeout(REPLY_TIMEOUT) {
            Ok(Reply::Ack(at)) => {
                out.ack_rtt_ns.push((at - sent).as_nanos() as f64);
                return Ok(());
            }
            Ok(Reply::Busy) => {
                out.busy_retries += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(Reply::Failed) | Err(_) => {
                return Err(std::io::Error::other("no Ack for a data frame"));
            }
        }
    }
}

/// The measured outcome of one open-loop run.
#[derive(Default)]
pub struct Live {
    /// Per [`WINDOW`] of session starts.
    pub push_latency_ns: Vec<Vec<f64>>,
    pub report_latency_ns: Vec<Vec<f64>>,
    pub slowdown: Vec<f64>,
    pub peak_bytes: Vec<f64>,
    pub served_events: u64,
    pub served_ns: f64,
    pub ack_rtt_ns: Vec<f64>,
    pub busy_retries: u64,
    pub max_lag_ns: f64,
    pub pushes: u64,
    pub final_races: u64,
    /// Sessions measured (after the warm-up).
    pub sessions: usize,
}

/// Streams the inputs to `server` open-loop at `rate` events per second
/// (over all connections) for `run`, then waits for every report.
#[allow(clippy::too_many_arguments)]
pub fn run_live(
    server: &Server,
    lanes: &[AnalysisConfig],
    inputs: &[Input],
    framed: &[Framed],
    expected: &[Expected],
    rate: f64,
    run: Duration,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Live {
    let addr: SocketAddr = server.local_addr();
    let per_conn = rate / CONNECTIONS as f64;
    let schedules: Vec<Schedule> = (0..CONNECTIONS)
        .map(|c| schedule(c, framed, per_conn, run))
        .collect();
    let streams: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect to the loopback server");
            s.set_nodelay(true).expect("set TCP_NODELAY");
            s
        })
        .collect();
    // Threads start before the first frame is due.
    let origin = Instant::now() + Duration::from_millis(20);
    let mut results = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, schedule) in schedules.iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            let read_half = streams[c].try_clone().expect("clone the socket");
            let sessions = schedule.plans.len();
            let reader = scope.spawn(move || read_replies(read_half, sessions, tx));
            let stream = &streams[c];
            let mut thread_tracer = tracer.fork(&format!("sender-{c}"));
            let sender = scope.spawn(move || {
                let sender_out =
                    send_schedule(stream, c, schedule, framed, origin, &rx, &mut thread_tracer);
                (sender_out, thread_tracer)
            });
            handles.push((reader, sender));
        }
        // A stuck server must not hang the run: after the schedule plus
        // the reply timeout, cut the connections.
        let last_due = schedules
            .iter()
            .filter_map(|s| s.slots.last().map(|slot| slot.due))
            .max()
            .unwrap_or_default();
        let cutoff = origin + last_due + REPLY_TIMEOUT;
        while handles
            .iter()
            .any(|(r, d)| !r.is_finished() || !d.is_finished())
        {
            if Instant::now() > cutoff {
                for s in &streams {
                    let _ = s.shutdown(Shutdown::Both);
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        for (reader, sender) in handles {
            let got = reader.join().expect("reader thread");
            let (sender_out, thread_tracer) = sender.join().expect("sender thread");
            results.push((got, sender_out, thread_tracer));
        }
    });

    let mut live = Live::default();
    let mut last_report = origin;
    for (c, (got, sender_out, thread_tracer)) in results.into_iter().enumerate() {
        tracer.absorb(thread_tracer);
        let plans = &schedules[c].plans;
        checks.check(sender_out.error.is_none() && got.errors.is_empty(), || {
            format!(
                "connection {c}: {} {}",
                sender_out.error.clone().unwrap_or_default(),
                got.errors.join("; ")
            )
        });
        live.ack_rtt_ns.extend(sender_out.ack_rtt_ns);
        live.busy_retries += sender_out.busy_retries;
        live.max_lag_ns = live.max_lag_ns.max(sender_out.max_lag_ns);
        for (k, plan) in plans.iter().enumerate() {
            let label = format!("{} (connection {c}, session {k})", inputs[plan.input].label);
            let Some((report, at)) = &got.reports[k] else {
                checks.check(false, || format!("{label}: no Report arrived"));
                continue;
            };
            let f = &framed[plan.input];
            let lanes_got: Vec<LaneResult> = report.lanes.iter().map(LaneResult::of_wire).collect();
            let pushed: Vec<(usize, u32)> = got.races[k]
                .iter()
                .map(|(r, _)| (r.lane as usize, r.event))
                .collect();
            checks.check(report.events == f.events, || {
                format!(
                    "{label}: report covers {} of {} events",
                    report.events, f.events
                )
            });
            check_session(
                checks,
                &label,
                lanes,
                &expected[plan.input],
                &lanes_got,
                &pushed,
            );
            live.served_events += report.events;
            live.pushes += pushed.len() as u64;
            live.final_races += lanes_got.iter().map(|l| l.races.len() as u64).sum::<u64>();
            last_report = last_report.max(*at);
            if plan.start < WARMUP {
                continue;
            }
            live.sessions += 1;
            let window = (plan.start.as_nanos() / WINDOW.as_nanos()) as usize;
            if live.push_latency_ns.len() <= window {
                live.push_latency_ns.resize(window + 1, Vec::new());
                live.report_latency_ns.resize(window + 1, Vec::new());
            }
            for (race, t) in &got.races[k] {
                let frame = f.ready.partition_point(|&r| r <= u64::from(race.event));
                let due = origin + due_of_frame(plan, f, frame.min(f.ready.len() - 1));
                live.push_latency_ns[window]
                    .push(t.saturating_duration_since(due).as_nanos() as f64);
            }
            let end_due = origin + plan.start + plan.length;
            live.report_latency_ns[window]
                .push(at.saturating_duration_since(end_due).as_nanos() as f64);
            live.slowdown.push(
                at.saturating_duration_since(origin + plan.start)
                    .as_secs_f64()
                    / plan.length.as_secs_f64(),
            );
            live.peak_bytes.push(got.peaks[k] as f64);
        }
    }
    // The first frame of every connection is due at the origin.
    live.served_ns = last_report.saturating_duration_since(origin).as_nanos() as f64;
    live
}

impl Live {
    /// The end-to-end metrics of an open-loop run. Latencies are scaled,
    /// as on the closed loop, by the null pass's time over one STB chunk
    /// (`null_ns` per event, timed before and after the run).
    pub fn end_to_end(&self, null_ns: f64, metrics: &mut Metrics) {
        let chunk_null = null_ns * CHUNK as f64;
        let push_p50 = windowed(&self.push_latency_ns, 0.5);
        let push_p99 = windowed(&self.push_latency_ns, 0.99);
        let report_p50 = windowed(&self.report_latency_ns, 0.5);
        metrics.push("slowdown_x", median(&self.slowdown), "x");
        metrics.push("peak_footprint_mb", max(&self.peak_bytes) / 1e6, "MB");
        metrics.push("push_latency_x.p50", push_p50 / chunk_null, "x");
        metrics.push("push_latency_x.p99", push_p99 / chunk_null, "x");
        metrics.push("report_latency_x.p50", report_p50 / chunk_null, "x");
        metrics.raw(
            "mevents_per_s",
            self.served_events as f64 / self.served_ns * 1e3,
            "Mevents/s",
        );
        metrics.raw("push_latency_ms.p50", push_p50 / 1e6, "ms");
        metrics.raw("push_latency_ms.p99", push_p99 / 1e6, "ms");
        metrics.raw("report_latency_ms.p50", report_p50 / 1e6, "ms");
        metrics.note(format!(
            "{} sessions, {} pushes over {} final races, {} busy retries, generator max lag {:.3} ms",
            self.sessions,
            self.pushes,
            self.final_races,
            self.busy_retries,
            self.max_lag_ns / 1e6
        ));
    }

    /// The serve layer's live counters.
    pub fn per_layer(&self, metrics: &mut Metrics) {
        metrics.push("serve.ack_rtt_us.p50", median(&self.ack_rtt_ns) / 1e3, "us");
        metrics.push("serve.busy_retries", self.busy_retries as f64, "count");
        let pushed_frac = if self.final_races == 0 {
            0.0
        } else {
            self.pushes as f64 / self.final_races as f64
        };
        metrics.push("serve.pushed_frac", pushed_frac, "ratio");
        metrics.push("serve.generator_lag_ms.max", self.max_lag_ns / 1e6, "ms");
    }
}

/// Replays one input's data frames through `FrameBuf` (as the server's
/// connection loop does) and its payloads through `StbAssembler` (as its
/// workers do), each in isolation under its own span.
pub fn replay_serve_layers(
    framed: &Framed,
    tracer: &mut Tracer,
    parent: SpanId,
    checks: &mut Checks,
) {
    let span = tracer.begin("serve.framebuf", parent);
    let mut frames = FrameBuf::new();
    let (mut bytes, mut decoded) = (0u64, 0usize);
    for encoded in &framed.encoded {
        frames.push(encoded);
        while let Ok(Some(frame)) = frames.next_frame() {
            black_box(frame);
            decoded += 1;
        }
        bytes += encoded.len() as u64;
    }
    tracer.end(span, bytes);
    checks.check(decoded == framed.encoded.len(), || {
        format!(
            "FrameBuf decoded {decoded} of {} frames",
            framed.encoded.len()
        )
    });

    let span = tracer.begin("serve.assemble", parent);
    let mut asm = StbAssembler::new();
    let mut events = 0u64;
    for payload in &framed.payloads {
        if asm.push(payload).is_err() {
            break;
        }
        while let Some(event) = asm.next_event() {
            black_box(event);
            events += 1;
        }
    }
    let closed = asm.close();
    tracer.end(span, events);
    checks.check(closed.is_ok() && events == framed.events, || {
        format!(
            "StbAssembler decoded {events} of {} events ({closed:?})",
            framed.events
        )
    });
}

/// Per-layer metrics of the isolated serve replays.
pub fn replay_metrics(tracer: &Tracer, metrics: &mut Metrics) {
    metrics.push(
        "serve.framebuf.ns_per_byte",
        tracer.ns_per_work("serve.framebuf"),
        "ns/byte",
    );
    metrics.push(
        "serve.assemble.ns_per_event",
        tracer.ns_per_work("serve.assemble"),
        "ns/event",
    );
}
