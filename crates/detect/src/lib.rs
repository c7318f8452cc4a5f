#![warn(missing_docs)]

//! The eleven race-detection analyses evaluated by the SmartTrack paper.
//!
//! This crate implements every cell of the paper's Table 1:
//!
//! | relation | Unopt (w/ or w/o graph) | Epochs | + Ownership | + CCS optimizations |
//! |----------|------------------------|--------|-------------|---------------------|
//! | HB       | [`UnoptHb`]            | [`Ft2`]| [`FtoHb`]   | N/A                 |
//! | WCP      | [`UnoptWcp`]           | —      | [`FtoWcp`]  | [`SmartTrackWcp`]   |
//! | DC       | [`UnoptDc`]            | —      | [`FtoDc`]   | [`SmartTrackDc`]    |
//! | WDC      | [`UnoptWdc`]           | —      | [`FtoWdc`]  | [`SmartTrackWdc`]   |
//!
//! Plus two extension rows beyond the paper's matrix: [`SyncP`], the
//! sync-preserving race predictor of Mathur, Pavlogiannis & Viswanathan
//! (arXiv 2010.16385) — sound by construction (every reported race carries
//! a witness reordering that keeps lock acquisitions in observed order)
//! and strictly more predictive than HB — and [`Osr`], the optimistic
//! synchronization-reversal predictor of Shi, Mathur & Pavlogiannis
//! (arXiv 2401.05642), which additionally permits bounded critical-section
//! reversals (SyncP ⊆ OSR; every report carries a replay-scheduled
//! witness). They are configured as
//! `AnalysisConfig::new(Relation::SyncP, OptLevel::Unopt)` / parsed from
//! `"syncp"` (resp. `Relation::Osr` / `"osr"`), and listed by
//! [`AnalysisConfig::extended`].
//!
//! All detectors implement the incremental [`Detector`] trait. The one
//! event-ingestion code path is the streaming [`Engine`]/[`Session`] API
//! ([`engine`] module): sessions validate the stream, fan any number of
//! analyses out over a single pass, sample peak metadata footprint (the
//! paper's memory-usage metric), and surface races as they are detected
//! (via [`RaceSink`]) rather than only at end-of-stream. [`analyze`] /
//! [`analyze_all`] are one-shot wrappers over it, and [`run_detector`] the
//! low-level whole-trace driver for a single borrowed detector. Races are
//! collected in a [`Report`] that counts both *dynamic* races (one per
//! access event that fails at least one race check, §5.1) and *statically
//! distinct* races (distinct program locations, §5.6).
//!
//! Above the single-stream API sits the corpus layer ([`pool`] module): an
//! [`EnginePool`] schedules many [`BatchJob`]s over a fixed worker pool,
//! one streaming session per job, and aggregates a deterministic
//! [`CorpusReport`] with statically distinct races deduplicated across the
//! whole corpus.
//!
//! # Examples
//!
//! Detect the predictable race of the paper's Figure 1, which HB analysis
//! misses:
//!
//! ```
//! use smarttrack_detect::{run_detector, Detector, FtoHb, SmartTrackDc};
//! use smarttrack_trace::paper;
//!
//! let trace = paper::figure1();
//! let mut hb = FtoHb::new();
//! run_detector(&mut hb, &trace);
//! assert_eq!(hb.report().dynamic_count(), 0);
//!
//! let mut dc = SmartTrackDc::new();
//! run_detector(&mut dc, &trace);
//! assert_eq!(dc.report().dynamic_count(), 1);
//! ```
//!
//! Or stream events through a fan-out [`Session`] — see the [`engine`]
//! module for the full lifecycle.

mod api;
mod common;
mod config;
mod counters;
pub mod engine;
mod graph;
mod intern;
pub mod pool;
mod queues;
mod report;

mod ccs;
mod dc;
mod hb;
mod lockset;
mod osr;
mod syncp;
mod wcp;

pub use api::{
    run_detector, Detector, FootprintSampler, OptLevel, Relation, RunSummary, StreamHint,
};
pub use ccs::{CcsFidelity, CsEntry, CsList};
pub use common::{BarrierRendezvous, LTime, LockVarTable};
pub use config::{analyze, analyze_all, AnalysisConfig, AnalysisOutcome, ParseAnalysisConfigError};
pub use counters::{FtoCase, FtoCaseCounters, HotPathStats};
pub use dc::{FtoDc, FtoWdc, SmartTrackDc, SmartTrackWdc, UnoptDc, UnoptWdc};
pub use engine::{
    Engine, EngineBuilder, EngineError, LaneSnapshot, RaceNotice, RaceSink, Session,
    SessionSnapshot,
};
pub use graph::{ConstraintGraph, EdgeKind};
pub use hb::{Ft2, FtoHb, RoadRunnerFt2, UnoptHb};
pub use lockset::EraserLockset;
pub use osr::osr_pair_witness;
pub use pool::{
    worker_count, BatchJob, CorpusAnalysisTotal, CorpusRace, CorpusReport, EnginePool, JobError,
    JobOutcome, JobSuccess, PoolStats,
};
pub use report::{AccessKind, RaceReport, Report};
#[doc(hidden)]
pub use syncp::ClosureCounters;
pub use syncp::{syncp_pair_ideal, Osr, SyncP, SyncPreserving};
pub use wcp::{FtoWcp, SmartTrackWcp, UnoptWcp};

/// Constructs a boxed detector for a (relation, optimization level) pair.
///
/// Returns `None` for the paper's N/A cells (SmartTrack-HB does not exist —
/// HB analysis has no conflicting critical sections to optimize — and "Epochs"
/// without ownership exists only for HB as FastTrack2).
///
/// `with_graph` selects the Unopt "w/ G" variants that additionally build a
/// constraint graph for vindication (only available for DC and WDC, per
/// Table 1).
pub fn make_detector(
    relation: Relation,
    level: OptLevel,
    with_graph: bool,
) -> Option<Box<dyn Detector>> {
    use {OptLevel::*, Relation::*};
    match (relation, level, with_graph) {
        (Hb, Unopt, false) => Some(Box::new(UnoptHb::new())),
        (Hb, Epochs, false) => Some(Box::new(Ft2::new())),
        (Hb, Fto, false) => Some(Box::new(FtoHb::new())),
        (Wcp, Unopt, false) => Some(Box::new(UnoptWcp::new())),
        (Wcp, Fto, false) => Some(Box::new(FtoWcp::new())),
        (Wcp, SmartTrack, false) => Some(Box::new(SmartTrackWcp::new())),
        (Dc, Unopt, g) => Some(Box::new(UnoptDc::with_graph_recording(g))),
        (Dc, Fto, false) => Some(Box::new(FtoDc::new())),
        (Dc, SmartTrack, false) => Some(Box::new(SmartTrackDc::new())),
        (Wdc, Unopt, g) => Some(Box::new(UnoptWdc::with_graph_recording(g))),
        (Wdc, Fto, false) => Some(Box::new(FtoWdc::new())),
        (Wdc, SmartTrack, false) => Some(Box::new(SmartTrackWdc::new())),
        // The sync-preserving row (a repro extension, not a Table 1 cell)
        // has a single implementation; it is addressed as (SyncP, Unopt)
        // and ignores the Table 1 opt columns. Same for its optimistic
        // synchronization-reversal refinement, (Osr, Unopt).
        (SyncP, Unopt, false) => Some(Box::new(syncp::SyncP::new())),
        (Osr, Unopt, false) => Some(Box::new(syncp::Osr::new())),
        _ => None,
    }
}

/// All valid `(relation, level, with_graph)` combinations of Table 1, in the
/// paper's presentation order.
pub fn table1_configs() -> Vec<(Relation, OptLevel, bool)> {
    use {OptLevel::*, Relation::*};
    vec![
        (Hb, Unopt, false),
        (Hb, Epochs, false),
        (Hb, Fto, false),
        (Wcp, Unopt, false),
        (Wcp, Fto, false),
        (Wcp, SmartTrack, false),
        (Dc, Unopt, true),
        (Dc, Unopt, false),
        (Dc, Fto, false),
        (Dc, SmartTrack, false),
        (Wdc, Unopt, true),
        (Wdc, Unopt, false),
        (Wdc, Fto, false),
        (Wdc, SmartTrack, false),
    ]
}
