//! Layer-attributed benchmark of the SmartTrack workspace.
//!
//! ```text
//! layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics; with
//! `--trace 1` it runs the traced layer replays instead, prints the
//! per-layer metrics and the reconciliation, and writes its spans to
//! `layerbench-out/`. Either way every session's output is checked, and the
//! last line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` (known-answer checks) and `metrics`. See README.md.

mod checks;
mod offline;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use checks::Checks;
use spans::{Tracer, NO_SPAN};
use workloads::{Loop, WorkloadDef};

const USAGE: &str = "usage: layerbench --workload <lockheavy|epochheavy|syncp-osr|serve-open> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Share of a traced offline run spent on the layer replays; the rest
/// streams the same inputs through a loopback server for the serve-layer
/// counters.
const LAYER_SHARE: f64 = 0.75;

/// Share of a traced `serve-open` run spent streaming; the rest replays
/// its inputs layer by layer.
const LIVE_SHARE: f64 = 0.6;

/// Offered load of the serve replay in a traced offline run, as a share of
/// the single-thread closed-loop rate that run measured.
const PROBE_LOAD: f64 = 0.5;

/// Where the traced run writes its spans.
const SPAN_DIR: &str = "layerbench-out";

/// Named metrics plus free-form lines for the human-readable report.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, String)>,
    /// Raw figures printed in the report but not in the result line.
    raw: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.items.push((name.to_string(), value, unit.to_string()));
    }

    pub fn raw(&mut self, name: &str, value: f64, unit: &str) {
        self.raw.push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .items
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

struct Args {
    workload: &'static WorkloadDef,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workloads::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs `setup` [`SETUP_REPS`] times; returns the last result and the
/// median time in seconds. `discard` disposes of the others untimed.
fn timed_setup<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let made = setup();
        times.push(start.elapsed().as_secs_f64());
        if let Some(previous) = last.replace(made) {
            discard(previous);
        }
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

fn run_offline(
    args: &Args,
    tracer: &mut Tracer,
    checks: &mut Checks,
    metrics: &mut Metrics,
) -> f64 {
    let def = args.workload;
    let rig = offline::setup(def, args.seed);
    let expected = offline::references(&rig, checks);
    if !args.trace {
        offline::measure(
            def,
            args.seed,
            &rig,
            &expected,
            args.seconds,
            checks,
            metrics,
        );
        return null_ns_per_event(&rig);
    }
    let framed: Vec<serve::Framed> = rig.inputs.iter().map(serve::Framed::of).collect();
    let seconds = args.seconds * LAYER_SHARE;
    replay_layers(&rig, &expected, &framed, seconds, tracer, checks, metrics);
    let closed_loop = 1e9 / tracer.ns_per_work("session.e2e");
    let server = serve::bind(&rig.lanes);
    let live = serve::run_live(
        &server,
        &rig.lanes,
        &rig.inputs,
        &framed,
        &expected,
        PROBE_LOAD * closed_loop,
        Duration::from_secs_f64(args.seconds * (1.0 - LAYER_SHARE)),
        tracer,
        checks,
    );
    server.shutdown();
    live.per_layer(metrics);
    metrics.note(format!(
        "serve replay at {:.3} Mevents/s offered: {} sessions",
        PROBE_LOAD * closed_loop / 1e6,
        live.sessions
    ));
    null_ns_per_event(&rig)
}

/// The traced run's layer-by-layer replays of the input pool, then their
/// per-layer metrics and reconciliation.
fn replay_layers(
    rig: &offline::Rig,
    expected: &[checks::Expected],
    framed: &[serve::Framed],
    seconds: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
    metrics: &mut Metrics,
) {
    let totals = offline::measure_layers(rig, expected, seconds, tracer, checks);
    for _ in 0..totals.rounds {
        for f in framed {
            serve::replay_serve_layers(f, tracer, NO_SPAN, checks);
        }
    }
    offline::layer_metrics(rig, tracer, &totals, metrics);
    serve::replay_metrics(tracer, metrics);
}

fn run_serve(
    args: &Args,
    offered: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
    metrics: &mut Metrics,
) -> f64 {
    let def = args.workload;
    let ((rig, framed, server), setup_s) = timed_setup(
        || {
            let rig = offline::setup(def, args.seed);
            let framed: Vec<serve::Framed> = rig.inputs.iter().map(serve::Framed::of).collect();
            let server = serve::bind(&rig.lanes);
            (rig, framed, server)
        },
        |(_, _, server)| server.shutdown(),
    );
    let expected = offline::references(&rig, checks);
    let null_before = null_ns_per_event(&rig);
    let live_secs = if args.trace {
        args.seconds * LIVE_SHARE
    } else {
        args.seconds
    };
    let live = serve::run_live(
        &server,
        &rig.lanes,
        &rig.inputs,
        &framed,
        &expected,
        offered,
        Duration::from_secs_f64(live_secs),
        tracer,
        checks,
    );
    server.shutdown();
    let null_ns = (null_before + null_ns_per_event(&rig)) / 2.0;
    if !args.trace {
        live.end_to_end(null_ns, metrics);
        metrics.push("setup_s", setup_s, "s");
        return null_ns;
    }
    live.per_layer(metrics);
    let seconds = args.seconds * (1.0 - LIVE_SHARE);
    replay_layers(&rig, &expected, &framed, seconds, tracer, checks, metrics);
    null_ns_per_event(&rig)
}

/// The null pass's cost per event over the whole input pool, median of
/// five passes.
fn null_ns_per_event(rig: &offline::Rig) -> f64 {
    let events: usize = rig.inputs.iter().map(|i| i.trace.len()).sum();
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let ns: f64 = rig
                .inputs
                .iter()
                .map(|i| offline::time_null_pass(i.trace.events()))
                .sum();
            ns / events as f64
        })
        .collect();
    stats::median(&passes)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("layerbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let def = args.workload;
    let unix_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let session = format!(
        "{}-seed{}-trace{}-{:x}{:x}",
        def.name,
        args.seed,
        u8::from(args.trace),
        std::process::id(),
        unix_ns
    );
    let mut tracer = Tracer::new(args.trace, "main", Instant::now());
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let null_ns = match def.feed {
        Loop::Closed => run_offline(&args, &mut tracer, &mut checks, &mut metrics),
        Loop::Open {
            offered_events_per_s,
        } => run_serve(
            &args,
            offered_events_per_s,
            &mut tracer,
            &mut checks,
            &mut metrics,
        ),
    };

    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let host = format!(
        "{{\"cores\": {cores}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"null_pass_ns_per_event\": {null_ns}}}",
        env!("LAYERBENCH_CPU"),
        env!("LAYERBENCH_RUSTC")
    );
    println!("layerbench {} seed {} ({})", def.name, args.seed, def.why);
    println!("host: {host}");
    for line in &metrics.notes {
        println!("  {line}");
    }
    for (name, value, unit) in &metrics.items {
        println!("  {name:<34} {value:>14.6} {unit}");
    }
    for (name, value, unit) in &metrics.raw {
        println!("  raw {name:<30} {value:>14.6} {unit}");
    }
    println!(
        "  checks: {} attempted, {} failed (failed_frac {})",
        checks.attempted,
        checks.failed,
        checks.failed_frac()
    );
    for failure in &checks.failures {
        println!("  FAILED: {failure}");
    }
    if args.trace {
        let header = format!(
            "{{\"session\": \"{session}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"host\": {host}}}",
            def.name, args.seed, args.seconds
        );
        match tracer.write(Path::new(SPAN_DIR), &session, &header) {
            Ok(path) => println!("  spans: {} written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("layerbench: writing spans: {e}"),
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.json()
    );
}
