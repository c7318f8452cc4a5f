//! The benchmark's workloads and the inputs each one generates from a seed.

use smarttrack_detect::AnalysisConfig;
use smarttrack_trace::binary::to_stb_bytes;
use smarttrack_trace::Trace;
use smarttrack_workloads::{profiles, Workload};

/// The CLI-default fan-out: the HB baseline plus SmartTrack WCP, DC, WDC.
pub const DEFAULT_LANES: [&str; 4] = ["fto-hb", "st-wcp", "st-dc", "st-wdc"];

/// Every lane the traced run replays on every workload.
pub const ALL_LANES: [&str; 6] = ["fto-hb", "st-wcp", "st-dc", "st-wdc", "syncp", "osr"];

/// How the workload offers its input.
#[derive(Clone, Copy, Debug)]
pub enum Loop {
    /// One thread feeds STB bytes into sessions back to back.
    Closed,
    /// A loopback `Server` receives STB data frames on a fixed schedule.
    Open {
        /// Offered load over all connections, in events per second.
        offered_events_per_s: f64,
    },
}

/// A profile and the scale its traces are generated at.
pub type Profile = (fn() -> Workload, f64);

/// One workload definition.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Profiles cycled through the input pool, each with its trace scale
    /// (events ≈ the profile's paper event count × scale).
    pub profiles: &'static [Profile],
    pub lanes: &'static [&'static str],
    /// Traces generated per seed; sessions cycle through them. Tail
    /// latencies depend on where races fall within STB chunks, so the two
    /// 4-lane offline workloads pool 8 traces to average over more of them.
    pub pool: usize,
    pub feed: Loop,
}

/// Open-loop offered load of `serve-open`: about half of what two workers
/// on a two-core host sustain on this input (see README.md).
pub const SERVE_OFFERED_EVENTS_PER_S: f64 = 500_000.0;

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "lockheavy",
        why: "xalan: nearly every access holds a lock, so the CCS slow path and per-event session overhead dominate",
        profiles: &[(profiles::xalan, 2e-5)],
        lanes: &DEFAULT_LANES,
        pool: 8,
        feed: Loop::Closed,
    },
    WorkloadDef {
        name: "epochheavy",
        why: "avrora: same-epoch accesses dominate, so decode, validation and session overhead dominate",
        profiles: &[(profiles::avrora, 3e-5)],
        lanes: &DEFAULT_LANES,
        pool: 8,
        feed: Loop::Closed,
    },
    WorkloadDef {
        name: "syncp-osr",
        why: "short fixed-length xalan sessions through SyncP and OSR, whose cost and footprint grow with session length",
        profiles: &[(profiles::xalan, 1e-5)],
        lanes: &["syncp", "osr"],
        pool: 4,
        feed: Loop::Closed,
    },
    WorkloadDef {
        name: "serve-open",
        why: "rwmix and condsync streamed open-loop to a 2-worker loopback server over 2 connections",
        // Scaled to sessions of about 14k events each, so every session
        // fills the same schedule slot.
        profiles: &[(profiles::rwmix, 1e-4), (profiles::condsync, 4e-4)],
        lanes: &DEFAULT_LANES,
        pool: 4,
        feed: Loop::Open {
            offered_events_per_s: SERVE_OFFERED_EVENTS_PER_S,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn configs(names: &[&str]) -> Vec<AnalysisConfig> {
    names
        .iter()
        .map(|n| n.parse().expect("lane names are valid analysis configs"))
        .collect()
}

/// One generated trace, in memory and STB-encoded.
pub struct Input {
    pub label: String,
    pub trace: Trace,
    pub stb: Vec<u8>,
    /// `(HB, WCP, DC, WDC)` statically distinct races of the profile's mix.
    pub table1_static: (u32, u32, u32, u32),
}

impl WorkloadDef {
    /// The input pool for `seed`: the same seed gives the same traces.
    pub fn generate(&self, seed: u64) -> Vec<Input> {
        (0..self.pool)
            .map(|i| {
                let (profile, scale) = self.profiles[i % self.profiles.len()];
                let profile = profile();
                let trace_seed = seed.wrapping_mul(1_000).wrapping_add(i as u64);
                let trace = profile.trace(scale, trace_seed);
                let stb = to_stb_bytes(&trace);
                Input {
                    label: format!("{}-{trace_seed}", profile.name),
                    trace,
                    stb,
                    table1_static: profile.races.expected_static(),
                }
            })
            .collect()
    }
}
