//! Differential battery for the `SyncP` sync-preserving analysis row
//! (Mathur, Pavlogiannis & Viswanathan, arXiv 2010.16385).
//!
//! Four property families:
//!
//! 1. **Path equivalence.** `run_detector`, per-event `feed`, whole-stream
//!    `feed_batch`, and the legacy `analyze` wrapper produce bit-identical
//!    reports for the `syncp` config — the same contract every Table 1
//!    cell honors — including through an STB round trip, the `EnginePool`
//!    corpus scheduler, and a fan-out session with an `OnlineLane`.
//! 2. **HB ⊆ SyncP.** Sync-preserving races strictly include HB races, so
//!    on every trace an HB first race implies a SyncP race at the same
//!    event or earlier — checked on proptest traces mixing every op
//!    (locks, rwlocks, failed trylocks, condvars, barriers, fork/join) and
//!    on the calibrated workload profiles, incl. `rwmix` and `condsync`.
//! 3. **Known answers.** The paper figures (Figure 1 and Figure 2 *are*
//!    sync-preserving races; Figure 3 and Figure 4(a–d) are not
//!    predictable, so SyncP — sound by construction — must stay silent)
//!    and the workload race-mix patterns, whose SyncP static counts equal
//!    the predictable (DC-column) expectation on every calibrated profile.
//! 4. **Soundness (the headline).** Every SyncP-reported race on
//!    oracle-sized traces is vindicated end to end: the closure ideal from
//!    `syncp_pair_ideal` passes the §2.2 witness validator as-is, and the
//!    exhaustive reordering oracle confirms the pair is a predictable race.

#[path = "support/sync_preserving.rs"]
mod sync_preserving;

use proptest::prelude::*;
use smarttrack::{
    analyze, run_detector, syncp_pair_ideal, AnalysisConfig, BatchJob, Engine, EnginePool,
    OptLevel, Relation, Report,
};
use smarttrack_trace::gen::RandomTraceSpec;
use smarttrack_trace::{paper, EventId, Trace};
use smarttrack_vindicate::validate_witness;

use sync_preserving::{arb_full_spec, assert_witnessed};

fn syncp() -> AnalysisConfig {
    "syncp".parse().expect("syncp parses")
}

/// Family 1: runs `syncp` through every ingestion path and asserts the
/// reports are bit-identical.
fn pinned_syncp_report(trace: &Trace, label: &str) -> Report {
    let config = syncp();
    let mut det = config.detector().expect("syncp is available");
    run_detector(det.as_mut(), trace);
    let direct = det.report().clone();

    let legacy = analyze(trace, config);
    assert_eq!(
        legacy.report, direct,
        "{label}: analyze() diverged from run_detector()"
    );

    let engine = Engine::for_config(config).expect("syncp engine");
    let mut session = engine.open();
    for &event in trace.events() {
        session.feed(event).expect("well-formed event");
    }
    let fed = session.finish_one().report;
    assert_eq!(fed, direct, "{label}: per-event feed diverged");

    let mut session = engine.open();
    session.feed_batch(trace.events()).expect("well-formed");
    let batched = session.finish_one().report;
    assert_eq!(batched, direct, "{label}: feed_batch diverged");
    direct
}

/// Family 2: an HB race implies a SyncP race at the same event or earlier.
fn assert_hb_subset_syncp(trace: &Trace, label: &str) -> Report {
    let report = pinned_syncp_report(trace, label);
    let hb = analyze(trace, AnalysisConfig::new(Relation::Hb, OptLevel::Unopt)).report;
    if let Some(h) = hb.first_race_event() {
        let s = report
            .first_race_event()
            .unwrap_or_else(|| panic!("{label}: HB-race at {h:?} without a SyncP-race"));
        assert!(
            s <= h,
            "{label}: SyncP first race after HB's ({s:?} > {h:?})"
        );
    }
    report
}

/// Family 4: every reported race carries a witness that passes the §2.2
/// validator as-is and is confirmed by the exhaustive oracle (on
/// oracle-sized traces).
fn assert_vindicated(trace: &Trace, report: &Report, label: &str) {
    sync_preserving::assert_vindicated(trace, report, label, syncp_pair_ideal, validate_witness);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Families 1 + 2 on randomized full-op traces.
    #[test]
    fn hb_subset_syncp_on_random_traces((spec, seed) in arb_full_spec()) {
        let trace = spec.generate(seed);
        assert_hb_subset_syncp(&trace, "random-full");
    }

    /// Family 1 through the STB codec: a binary round trip must not change
    /// the syncp report.
    #[test]
    fn stb_round_trip_preserves_syncp_report((spec, seed) in arb_full_spec()) {
        let trace = spec.generate(seed);
        let bytes = smarttrack_trace::binary::to_stb_bytes(&trace);
        let decoded = smarttrack_trace::binary::from_stb_bytes(&bytes).expect("round trip");
        let a = analyze(&trace, syncp()).report;
        let b = analyze(&decoded, syncp()).report;
        prop_assert_eq!(a, b, "syncp diverged across the STB round trip");
    }
}

/// Family 4 on oracle-sized traces, across the three tiny spec families
/// (plain, condvar/barrier, rwlock/trylock) — the headline soundness check.
#[test]
fn every_syncp_race_on_tiny_traces_is_vindicated() {
    let mut vindicated = 0usize;
    for (name, spec) in [
        ("tiny", RandomTraceSpec::tiny()),
        ("tiny_sync", RandomTraceSpec::tiny_sync()),
        ("tiny_rw", RandomTraceSpec::tiny_rw()),
    ] {
        for seed in 0..60u64 {
            let trace = spec.generate(seed);
            let label = format!("{name}/{seed}");
            let report = assert_hb_subset_syncp(&trace, &label);
            vindicated += report.dynamic_count();
            assert_vindicated(&trace, &report, &label);
        }
    }
    assert!(
        vindicated > 20,
        "battery too weak: only {vindicated} races vindicated"
    );
}

/// Family 3: the paper figures. SyncP is exactly the set of
/// sync-preserving races: Figures 1 and 2 have one (their predictable race
/// needs only critical-section *dropping*, never acquisition reordering),
/// Figure 3's WDC race is not predictable, and Figure 4(a–d) are race-free.
#[test]
fn paper_figures_known_answers() {
    let fig1 = pinned_syncp_report(&paper::figure1(), "figure1");
    assert_eq!(fig1.dynamic_count(), 1, "figure 1 races under SyncP");
    assert_eq!(fig1.first_race_event(), Some(EventId::new(7)));
    assert_vindicated(&paper::figure1(), &fig1, "figure1");

    let fig2 = pinned_syncp_report(&paper::figure2(), "figure2");
    assert_eq!(fig2.dynamic_count(), 1, "figure 2 races under SyncP");
    assert_eq!(fig2.first_race_event(), Some(EventId::new(11)));
    assert_vindicated(&paper::figure2(), &fig2, "figure2");

    for (name, trace) in [
        ("figure3", paper::figure3()),
        ("figure4a", paper::figure4a()),
        ("figure4b", paper::figure4b()),
        ("figure4c", paper::figure4c()),
        ("figure4d", paper::figure4d()),
    ] {
        let report = pinned_syncp_report(&trace, name);
        assert!(
            report.is_empty(),
            "{name} has no predictable race, but SyncP reported: {report}"
        );
    }
}

/// Figure 1's witness must be the paper's Figure 1(b) reordering: T2's
/// whole critical section, then the racing pair with T1's section dropped.
#[test]
fn figure1_witness_is_the_paper_reordering() {
    let trace = paper::figure1();
    let order = syncp_pair_ideal(&trace, EventId::new(0), EventId::new(7)).expect("races");
    let ids: Vec<usize> = order.iter().map(|e| e.index()).collect();
    assert_eq!(ids, vec![4, 5, 6, 0, 7]);
    validate_witness(&trace, &order, (EventId::new(0), EventId::new(7))).expect("valid");
}

/// Family 2 + 4 on the thread-disjoint consecutive-barrier-round shape: an
/// unconditional enter → previous-round-exits closure edge would order
/// rounds that share no threads, silently dropping the HB race here (the
/// shape the proptest generator emits only occasionally — pinned so the
/// battery catches a regression deterministically).
#[test]
fn disjoint_barrier_rounds_keep_the_hb_race() {
    use smarttrack_trace::{BarrierId, Op, ThreadId, TraceBuilder, VarId};
    let (bar, x) = (BarrierId::new(0), VarId::new(0));
    let t = ThreadId::new;
    let mut b = TraceBuilder::new();
    b.push(t(0), Op::Write(x)).unwrap();
    b.push(t(0), Op::BarrierEnter(bar)).unwrap();
    b.push(t(1), Op::BarrierEnter(bar)).unwrap();
    b.push(t(0), Op::BarrierExit(bar)).unwrap();
    b.push(t(1), Op::BarrierExit(bar)).unwrap();
    b.push(t(2), Op::BarrierEnter(bar)).unwrap();
    b.push(t(3), Op::BarrierEnter(bar)).unwrap();
    b.push(t(2), Op::BarrierExit(bar)).unwrap();
    b.push(t(3), Op::BarrierExit(bar)).unwrap();
    b.push(t(2), Op::Read(x)).unwrap();
    let trace = b.finish();
    let report = assert_hb_subset_syncp(&trace, "disjoint-rounds");
    assert_eq!(report.first_race_event(), Some(EventId::new(9)));
    assert_vindicated(&trace, &report, "disjoint-rounds");
}

/// The conditional half of the barrier rule: round 0 rendezvouses t0/t1,
/// round 1 rendezvouses t1/t2, and t0's post-round-0 write races t2's
/// post-round-1 write (t0 sits out round 1, so no HB path). Round 0 is
/// partially in the ideal through t1, so its exits must finish draining
/// before round 1's enter — a witness missing t0's exit is rejected by
/// the replay validator (no gathering while a round drains).
#[test]
fn partially_kept_barrier_round_yields_a_valid_witness() {
    use smarttrack_trace::{BarrierId, Op, ThreadId, TraceBuilder, VarId};
    let (bar, x) = (BarrierId::new(0), VarId::new(0));
    let t = ThreadId::new;
    let mut b = TraceBuilder::new();
    b.push(t(0), Op::BarrierEnter(bar)).unwrap();
    b.push(t(1), Op::BarrierEnter(bar)).unwrap();
    b.push(t(1), Op::BarrierExit(bar)).unwrap();
    b.push(t(0), Op::BarrierExit(bar)).unwrap();
    b.push(t(0), Op::Write(x)).unwrap();
    b.push(t(1), Op::BarrierEnter(bar)).unwrap();
    b.push(t(2), Op::BarrierEnter(bar)).unwrap();
    b.push(t(1), Op::BarrierExit(bar)).unwrap();
    b.push(t(2), Op::BarrierExit(bar)).unwrap();
    b.push(t(2), Op::Write(x)).unwrap();
    let trace = b.finish();
    let report = assert_hb_subset_syncp(&trace, "partial-round");
    assert_eq!(report.first_race_event(), Some(EventId::new(9)));
    assert_vindicated(&trace, &report, "partial-round");
}

/// Family 2 + 4 on the epoch-fast-path shape: t0's second wr(x) repeats
/// under an unchanged sync context (fast path), while the wr(y) in between
/// publishes a reads-from edge t1 later absorbs. A fast path that does not
/// advance the per-variable candidate leaves t1's wr(x) checked against
/// t0's *first* write — strong-ordered via the rf edge — and silently
/// drops the race on the latest one.
#[test]
fn fast_path_candidate_shape_keeps_the_hb_race() {
    use smarttrack_trace::{Op, ThreadId, TraceBuilder, VarId};
    let (x, y) = (VarId::new(0), VarId::new(1));
    let t = ThreadId::new;
    let mut b = TraceBuilder::new();
    b.push(t(0), Op::Write(x)).unwrap();
    b.push(t(0), Op::Write(y)).unwrap();
    b.push(t(0), Op::Write(x)).unwrap(); // epoch fast path
    b.push(t(1), Op::Read(y)).unwrap(); // rf: covers t0 through wr(y)
    b.push(t(1), Op::Write(x)).unwrap(); // races with t0's second wr(x)
    let trace = b.finish();
    let report = assert_hb_subset_syncp(&trace, "fast-path-candidate");
    assert!(
        report
            .races()
            .iter()
            .any(|r| r.event == EventId::new(4) && r.var == x),
        "t1's wr(x) must race with t0's latest wr(x): {report}"
    );
    assert_vindicated(&trace, &report, "fast-path-candidate");
}

/// Family 2 + 3 on the calibrated profiles: HB ⊆ SyncP everywhere, and the
/// statically distinct SyncP count equals the predictable (DC-column)
/// expectation — every injected predictable race site is sync-preserving,
/// and the WDC-only false-race sites stay silent.
#[test]
fn calibrated_profiles_match_the_predictable_race_mix() {
    for w in smarttrack_workloads::profiles::extended() {
        let trace = w.trace(2e-6, 7);
        let label = format!("profile/{}", w.name);
        let report = assert_hb_subset_syncp(&trace, &label);
        let (_, _, expected_dc, _) = w.races.expected_static();
        assert_eq!(
            report.static_count(),
            expected_dc as usize,
            "{label}: SyncP static count != predictable expectation"
        );
    }
}

/// The condvar/barrier-heavy and rwlock-heavy profiles at a larger scale,
/// with every reported race vindicated (these traces are oracle-checkable
/// only pair-by-pair via the witness validator; the oracle gets a budget).
#[test]
fn sync_heavy_profiles_are_sound_end_to_end() {
    for w in [
        smarttrack_workloads::profiles::condsync(),
        smarttrack_workloads::profiles::rwmix(),
    ] {
        let trace = w.trace(1e-5, 13);
        let label = format!("sound/{}", w.name);
        let report = assert_hb_subset_syncp(&trace, &label);
        assert!(!report.is_empty(), "{label}: expected injected races");
        assert_witnessed(&trace, &report, &label, syncp_pair_ideal, validate_witness);
    }
}

/// Family 1 at the corpus layer: an `EnginePool` running the syncp lane
/// over a small corpus agrees with per-trace offline analysis.
#[test]
fn engine_pool_syncp_lane_matches_offline() {
    let corpus: Vec<(String, Trace)> = (0..6u64)
        .map(|seed| {
            (
                format!("job{seed}"),
                RandomTraceSpec::tiny_sync().generate(seed),
            )
        })
        .collect();
    let engine = Engine::builder()
        .config(syncp())
        .config(AnalysisConfig::new(Relation::Hb, OptLevel::Fto))
        .build()
        .expect("syncp + fto-hb fan-out");
    let pool = EnginePool::new(engine).with_workers(3);
    let jobs = corpus
        .iter()
        .map(|(label, trace)| BatchJob::from_trace(label.clone(), trace.clone()))
        .collect();
    let corpus_report = pool.run(jobs);
    assert_eq!(corpus_report.failed(), 0);
    for outcome in corpus_report.jobs() {
        let success = outcome
            .result
            .as_ref()
            .unwrap_or_else(|err| panic!("{} failed: {err}", outcome.label));
        let trace = &corpus
            .iter()
            .find(|(label, _)| *label == outcome.label)
            .expect("job label")
            .1;
        let offline = analyze(trace, syncp()).report;
        assert_eq!(
            success.outcomes[0].report, offline,
            "{}: pool syncp lane diverged from offline",
            outcome.label
        );
    }
}

/// A SyncP lane rides a fan-out session next to an `OnlineLane`-bridged
/// concurrent analysis without disturbing either (the mixed
/// sequential/concurrent session the parallel pipeline uses).
#[test]
fn syncp_beside_an_online_lane_in_one_session() {
    use smarttrack::{Detector, Session, SyncP};
    use smarttrack_parallel::{ConcurrentFtoHb, OnlineAnalysis, OnlineLane, WorldSpec};

    let trace = RandomTraceSpec::tiny_sync().generate(42);
    let analysis = ConcurrentFtoHb::new(WorldSpec::of_trace(&trace));
    let lane = OnlineLane::new(&analysis);
    let mut session = Session::from_detectors(vec![
        Box::new(SyncP::new()) as Box<dyn Detector>,
        Box::new(lane),
    ]);
    session.feed_trace(&trace).expect("well-formed");
    // Detector-borrowed sessions carry no engine config rows, so read the
    // lane reports from the snapshot rather than finish()'s outcomes.
    let snapshot = session.snapshot();
    assert_eq!(snapshot.lanes.len(), 2);
    assert_eq!(snapshot.lanes[0].name, "SyncP");
    assert_eq!(
        snapshot.lanes[0].report,
        analyze(&trace, syncp()).report,
        "fan-out SyncP lane diverged from offline"
    );
    session.finish();
    assert_eq!(
        analysis.report(),
        analyze(&trace, AnalysisConfig::new(Relation::Hb, OptLevel::Fto)).report,
        "OnlineLane HB lane diverged from sequential FTO-HB"
    );
}

/// The CLI-facing config plumbing: parse, display, availability, listing.
#[test]
fn syncp_config_round_trips() {
    let config = syncp();
    assert_eq!(
        config,
        AnalysisConfig::new(Relation::SyncP, OptLevel::Unopt)
    );
    assert_eq!(config.to_string(), "SyncP");
    assert_eq!("SyncP".parse::<AnalysisConfig>().unwrap(), config);
    assert_eq!("sync-preserving".parse::<AnalysisConfig>().unwrap(), config);
    assert!(config.is_available());
    assert!(
        !AnalysisConfig::table1().contains(&config),
        "SyncP is not a Table 1 cell"
    );
    assert!(
        AnalysisConfig::extended().contains(&config),
        "extended listing carries the SyncP row"
    );
    assert!(
        "syncp+g".parse::<AnalysisConfig>().is_err(),
        "no graph variant"
    );
}

/// `copies` back-to-back copies of a racy two-thread pattern: each copy
/// writes a fresh variable on both threads, around one section each on a
/// shared lock, so every copy runs one closure check on the same thread
/// pair.
fn back_to_back(copies: u32) -> Trace {
    use smarttrack_trace::{LockId, Op, ThreadId, TraceBuilder, VarId};
    let (t0, t1, m) = (ThreadId::new(0), ThreadId::new(1), LockId::new(0));
    let mut b = TraceBuilder::new();
    for i in 0..copies {
        let x = VarId::new(i);
        for (t, op) in [
            (t0, Op::Write(x)),
            (t0, Op::Acquire(m)),
            (t0, Op::Release(m)),
            (t1, Op::Acquire(m)),
            (t1, Op::Release(m)),
            (t1, Op::Write(x)),
        ] {
            b.push(t, op).expect("well-formed");
        }
    }
    b.finish()
}

/// Each check resumes the thread pair's closure, so closure work grows
/// linearly with the trace: a closure rebuilt for every check walks
/// O(copies²) events here.
#[test]
fn resumed_closure_work_is_linear_in_back_to_back_copies() {
    use smarttrack::detect::{Detector, Osr, SyncP};
    for copies in [50u32, 100, 200] {
        let trace = back_to_back(copies);
        let n = u64::from(copies);
        let mut syncp = SyncP::new();
        run_detector(&mut syncp, &trace);
        let mut osr = Osr::new();
        run_detector(&mut osr, &trace);
        let mut fresh = SyncP::with_fresh_closures();
        run_detector(&mut fresh, &trace);
        for (label, report, c) in [
            ("SyncP", syncp.report(), syncp.closure_counters()),
            ("OSR", osr.report(), osr.closure_counters()),
        ] {
            assert_eq!(
                report.dynamic_count(),
                copies as usize,
                "{label}: every copy races"
            );
            assert_eq!((c.runs, c.resumed), (n, n - 1), "{label}: {c:?}");
            assert!(c.walked <= 8 * n, "{label}: {copies} copies walked {c:?}");
        }
        assert_eq!(fresh.report(), syncp.report());
        let walked = fresh.closure_counters().walked;
        assert!(
            walked > n * n,
            "fresh closures walk quadratically: {walked}"
        );
    }
}

/// Resumed and fresh closures agree on random traces mixing locks,
/// rwlocks, condvars, barriers and fork/join — in release builds too,
/// where the per-check debug comparison is compiled out.
#[test]
fn resumed_and_fresh_closures_report_alike_on_random_traces() {
    use smarttrack::detect::{Detector, SyncP};
    let mut resumed_runs = 0;
    for seed in 0..400u64 {
        let n = seed as u32;
        let trace = RandomTraceSpec {
            threads: 2 + n % 4,
            events: 80 + (seed as usize % 5) * 60,
            vars: 2 + n % 5,
            locks: 1 + n % 3,
            condvars: n % 2,
            condvar_prob: 0.06 * f64::from(n % 2),
            barriers: (n / 2) % 2,
            barrier_prob: 0.03 * f64::from((n / 2) % 2),
            rwlocks: (n / 4) % 2,
            rw_read_prob: 0.1,
            rw_write_prob: 0.04,
            rw_release_prob: 0.2,
            try_fail_prob: 0.02,
            acquire_prob: 0.15,
            release_prob: 0.2,
            fork_join: (n / 8) % 2 == 1,
            ..RandomTraceSpec::default()
        }
        .generate(seed);
        let mut resumed = SyncP::new();
        run_detector(&mut resumed, &trace);
        let mut fresh = SyncP::with_fresh_closures();
        run_detector(&mut fresh, &trace);
        assert_eq!(resumed.report(), fresh.report(), "seed {seed}");
        resumed_runs += resumed.closure_counters().resumed;
    }
    assert!(resumed_runs > 0, "the sweep must resume closures");
}

/// On the four `syncp-osr` benchmark traces of seed 1 (xalan at 1e-5,
/// trace seeds 1000–1003), resuming pair closures at least halves the
/// events walked, and every report is the fresh-closure one.
#[test]
fn resumed_closures_halve_the_walk_on_the_syncp_osr_traces() {
    use smarttrack::detect::{Detector, SyncP};
    let (mut resumed_walk, mut fresh_walk) = (0, 0);
    for seed in 1000..1004u64 {
        let trace = smarttrack_workloads::profiles::xalan().trace(1e-5, seed);
        let mut resumed = SyncP::new();
        run_detector(&mut resumed, &trace);
        let mut fresh = SyncP::with_fresh_closures();
        run_detector(&mut fresh, &trace);
        assert_eq!(resumed.report(), fresh.report(), "seed {seed}");
        let (r, f) = (resumed.closure_counters(), fresh.closure_counters());
        assert_eq!(r.runs, f.runs, "seed {seed}");
        assert!(
            r.resumed > 0 && f.resumed == 0,
            "seed {seed}: {r:?} vs {f:?}"
        );
        resumed_walk += r.walked;
        fresh_walk += f.walked;
    }
    assert!(
        2 * resumed_walk <= fresh_walk,
        "resumed closures walked {resumed_walk} events, fresh ones {fresh_walk}"
    );
}
