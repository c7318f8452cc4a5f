//! Hot-path accounting battery: the epoch fast paths must actually be
//! taken, the dense metadata layout must actually be smaller than the
//! HashMap layout it replaced, the new `RunSummary` accounting must be
//! consistent across ingestion paths, and session interning must be
//! invisible in every output — including mid-stream snapshots.

use smarttrack::{
    analyze, run_detector, AnalysisConfig, Engine, FtoCase, LockVarTable, OptLevel, Relation,
};
use smarttrack_trace::{Event, LockId, Op, ThreadId, Trace, TraceBuilder, VarId};

fn access_count(trace: &Trace) -> u64 {
    trace
        .events()
        .iter()
        .filter(|e| e.op.is_read() || e.op.is_write())
        .count() as u64
}

fn read_count(trace: &Trace) -> u64 {
    trace.events().iter().filter(|e| e.op.is_read()).count() as u64
}

/// The paper's fast-path story (§4.1, Table 12): on epoch-friendly
/// workloads like avrora, the overwhelming majority of reads are same-epoch
/// and never touch a clock. The counters must show that regime.
#[test]
fn avrora_reads_hit_the_epoch_fast_path() {
    let trace = smarttrack_workloads::profiles::avrora().trace(1e-5, 11);
    let reads = read_count(&trace);
    for name in ["fto-hb", "st-wcp", "st-dc", "st-wdc"] {
        let config: AnalysisConfig = name.parse().unwrap();
        let outcome = analyze(&trace, config);
        let cases = outcome.cases.as_ref().expect("FTO/ST detectors count");
        let fast_reads =
            cases.count(FtoCase::ReadSameEpoch) + cases.count(FtoCase::SharedSameEpoch);
        let pct = 100.0 * fast_reads as f64 / reads as f64;
        assert!(
            pct > 80.0,
            "{name}: only {pct:.1}% of avrora reads took a same-epoch fast path"
        );
    }
}

/// Every access is accounted exactly once: fast + slow = reads + writes,
/// for every Table 1 cell (detectors without FTO cases included).
#[test]
fn fast_plus_slow_covers_every_access() {
    for (label, trace) in [
        (
            "xalan",
            smarttrack_workloads::profiles::xalan().trace(2e-6, 5),
        ),
        (
            "avrora",
            smarttrack_workloads::profiles::avrora().trace(2e-6, 5),
        ),
    ] {
        let accesses = access_count(&trace);
        for config in AnalysisConfig::table1() {
            let outcome = analyze(&trace, config);
            assert_eq!(
                outcome.summary.fast_path_hits + outcome.summary.slow_path_hits,
                accesses,
                "{label}: {config} mis-accounts accesses"
            );
        }
    }
}

/// The dense per-(lock, variable) tables must undercut what the same
/// occupancy would cost in the pre-overhaul per-lock `HashMap<VarId, _>`
/// layout — replayed over the real xalan access pattern.
#[test]
fn dense_lockvar_layout_beats_hashmap_equivalent_on_xalan() {
    let trace = smarttrack_workloads::profiles::xalan().trace(1e-5, 11);
    let mut table = LockVarTable::new(false);
    let mut clock = smarttrack_clock::VectorClock::new();
    let mut held: Vec<Vec<LockId>> = Vec::new();
    for (id, event) in trace.iter() {
        let t = event.tid.index();
        if held.len() <= t {
            held.resize_with(t + 1, Vec::new);
        }
        match event.op {
            Op::Acquire(m) => held[t].push(m),
            Op::Release(m) => {
                held[t].retain(|&l| l != m);
                clock.increment(event.tid);
                let snap = clock.clone();
                table.on_release(event.tid, m, &snap, id);
            }
            Op::Read(x) => {
                for &m in &held[t] {
                    table.mark_read(m, x);
                }
            }
            Op::Write(x) => {
                for &m in &held[t] {
                    table.mark_read(m, x);
                    table.mark_write(m, x);
                }
            }
            _ => {}
        }
    }
    let dense = table.footprint_bytes();
    let hashmap = table.hashmap_equivalent_bytes();
    assert!(dense > 0 && hashmap > 0, "both layouts hold state");
    assert!(
        dense < hashmap,
        "dense layout ({dense} B) must undercut the HashMap layout ({hashmap} B)"
    );
}

/// `RunSummary` hit accounting is identical whichever ingestion path ran
/// the analysis; byte accounting is internally consistent, and the
/// interned session path never holds *more* state than the raw-id driver
/// (the calibrated workloads use sparse first-use ids, which the interner
/// compacts — that difference is the feature, so bytes are compared by
/// inequality, not equality).
#[test]
fn run_summary_accounting_is_path_independent() {
    let trace = smarttrack_workloads::profiles::xalan().trace(2e-6, 9);
    for config in AnalysisConfig::table1() {
        let via_analyze = analyze(&trace, config).summary;
        let mut det = config.detector().unwrap();
        let via_driver = run_detector(det.as_mut(), &trace);
        assert_eq!(via_analyze.events, via_driver.events, "{config}");
        assert_eq!(
            (via_analyze.fast_path_hits, via_analyze.slow_path_hits),
            (via_driver.fast_path_hits, via_driver.slow_path_hits),
            "{config}: hit accounting diverges across paths"
        );
        assert!(via_analyze.final_state_bytes > 0, "{config}");
        assert!(
            via_analyze.peak_footprint_bytes >= via_analyze.final_state_bytes,
            "{config}: peak folds in the final exact walk"
        );
        assert!(
            via_analyze.final_state_bytes <= via_driver.final_state_bytes,
            "{config}: interned session state ({}) must not exceed raw-id driver state ({})",
            via_analyze.final_state_bytes,
            via_driver.final_state_bytes
        );
        assert_eq!(
            via_analyze.events,
            trace.len(),
            "{config}: every event counted"
        );
    }
}

/// A trace whose ids are sparse: session interning must be invisible —
/// reports carry the *original* ids and match the un-interned
/// `run_detector` path bit-for-bit.
fn sparse_trace() -> Trace {
    let t0 = ThreadId::new(0);
    let t1 = ThreadId::new(1);
    let (x, y) = (VarId::new(70_000), VarId::new(13));
    let m = LockId::new(9_999);
    let v = VarId::new(55_555);
    let mut b = TraceBuilder::new();
    b.push(t0, Op::Acquire(m)).unwrap();
    b.push(t0, Op::Write(x)).unwrap();
    b.push(t0, Op::Release(m)).unwrap();
    b.push(t0, Op::VolatileWrite(v)).unwrap();
    b.push(t1, Op::VolatileRead(v)).unwrap();
    b.push(t1, Op::Read(x)).unwrap(); // ordered via the volatile
    b.push(t1, Op::Write(y)).unwrap();
    b.push(t0, Op::Write(y)).unwrap(); // races with T1's write
    b.push(t1, Op::Read(x)).unwrap();
    b.finish()
}

#[test]
fn interned_sessions_report_original_sparse_ids() {
    let trace = sparse_trace();
    for config in AnalysisConfig::table1() {
        let mut det = config.detector().unwrap();
        run_detector(det.as_mut(), &trace);
        let direct = det.report().clone();

        let engine = Engine::for_config(config).unwrap();
        let mut session = engine.open();
        for &event in trace.events() {
            session.feed(event).unwrap();
        }
        // Mid-ingest, races() must already restore original ids.
        for notice in session.races() {
            assert_eq!(notice.race.var, VarId::new(13), "{config}: y restored");
        }
        let outcome = session.finish_one();
        assert_eq!(
            outcome.report, direct,
            "{config}: interned session diverged from direct driver"
        );
    }
    // The race is on y = x13 with its original id.
    let report = analyze(&trace, AnalysisConfig::new(Relation::Hb, OptLevel::Fto)).report;
    assert_eq!(report.dynamic_count(), 1);
    assert_eq!(report.races()[0].var, VarId::new(13));
}

/// A *recorded trace* holding a huge sparse id announces a huge
/// cardinality hint (`num_vars` is max index + 1) — pre-sizing must clamp
/// it (`StreamHint::MAX_PRESIZE`) instead of aborting on a multi-gigabyte
/// `Vec::reserve` before the first event.
#[test]
fn huge_hinted_cardinalities_are_clamped() {
    let t0 = ThreadId::new(0);
    let t1 = ThreadId::new(1);
    let huge = VarId::new(u32::MAX - 7);
    let mut b = TraceBuilder::new();
    b.push(t0, Op::Write(huge)).unwrap();
    b.push(t1, Op::Write(huge)).unwrap();
    let trace = b.finish();
    assert!(trace.num_vars() > smarttrack::StreamHint::MAX_PRESIZE);
    // analyze() routes through a session: full-knowledge hint, interned ids.
    let outcome = analyze(&trace, AnalysisConfig::new(Relation::Hb, OptLevel::Fto));
    assert_eq!(outcome.report.dynamic_count(), 1);
    assert_eq!(outcome.report.races()[0].var, huge);
    assert!(
        outcome.summary.final_state_bytes < 16 << 20,
        "hinted pre-sizing stayed clamped: {} bytes",
        outcome.summary.final_state_bytes
    );
}

/// A hostile id near `u32::MAX` must not blow up session memory (the
/// direct-map interner spills to a hash map; detectors only ever see the
/// compact slot).
#[test]
fn huge_ids_do_not_explode_session_tables() {
    let t0 = ThreadId::new(0);
    let t1 = ThreadId::new(1);
    let huge = VarId::new(u32::MAX - 7);
    let engine = Engine::builder().relation(Relation::Hb).build().unwrap();
    let mut session = engine.open();
    session.feed(Event::new(t0, Op::Write(huge))).unwrap();
    session.feed(Event::new(t1, Op::Write(huge))).unwrap();
    let snap = session.snapshot();
    assert!(
        snap.lanes[0].footprint_bytes < 1 << 20,
        "detector tables stay compact: {} bytes",
        snap.lanes[0].footprint_bytes
    );
    let outcome = session.finish_one();
    assert_eq!(outcome.report.dynamic_count(), 1);
    assert_eq!(outcome.report.races()[0].var, huge, "original id restored");
}

/// Mid-stream snapshots are prefix-exact: after k events, each lane's
/// snapshot report equals analyzing the k-event prefix as its own trace —
/// generation-stamped tables and interned ids included.
#[test]
fn snapshots_are_prefix_exact() {
    let traces = [
        ("sparse", sparse_trace()),
        (
            "xalan",
            smarttrack_workloads::profiles::xalan().trace(2e-6, 3),
        ),
    ];
    for (label, trace) in traces {
        let engine = Engine::builder().table1().build().unwrap();
        let mut session = engine.open();
        let cut = trace.len() / 2;
        session.feed_batch(&trace.events()[..cut]).unwrap();
        let snap = session.snapshot();
        assert_eq!(snap.events, cut);

        let mut prefix = TraceBuilder::new();
        for &event in &trace.events()[..cut] {
            prefix.push_event(event).unwrap();
        }
        let prefix = prefix.finish();
        for (lane, config) in snap.lanes.iter().zip(AnalysisConfig::table1()) {
            let expected = analyze(&prefix, config).report;
            assert_eq!(
                lane.report, expected,
                "{label}: {config} snapshot is not prefix-exact"
            );
            assert_eq!(
                lane.hot_path.fast_hits + lane.hot_path.slow_hits,
                access_count(&prefix),
                "{label}: {config} snapshot accounting"
            );
            assert!(lane.hot_path.state_bytes > 0, "{label}: {config}");
        }
        // Feeding the rest still works and the final report matches the
        // whole trace (snapshots do not disturb generation-stamped state).
        session.feed_batch(&trace.events()[cut..]).unwrap();
        for (outcome, config) in session.finish().iter().zip(AnalysisConfig::table1()) {
            let expected = analyze(&trace, config).report;
            assert_eq!(outcome.report, expected, "{label}: {config} after resume");
        }
    }
}

/// The per-event sampled estimate never exceeds the exact walk (the
/// estimate is table capacities only; the exact walk adds per-clock heap
/// spill and Rc-shared CCS structures on top of the same capacities). The
/// extension rows are covered too: SyncP's and OSR's estimate counts their
/// pair closures by a running byte counter.
#[test]
fn state_estimate_never_exceeds_exact_walk() {
    for (label, trace) in [
        (
            "xalan",
            smarttrack_workloads::profiles::xalan().trace(2e-6, 4),
        ),
        (
            "avrora",
            smarttrack_workloads::profiles::avrora().trace(2e-6, 4),
        ),
    ] {
        for config in AnalysisConfig::extended() {
            let mut det = config.detector().unwrap();
            run_detector(det.as_mut(), &trace);
            assert!(
                det.state_bytes() <= det.footprint_bytes(),
                "{label}: {config} estimate exceeds the exact walk"
            );
        }
    }
}

/// The rule (b) queues keep a running byte counter instead of walking
/// their per-(lock, thread) logs. After every event, every Table-1 cell
/// that owns rule (b) queues must report the `state_bytes` that walk would
/// give: through rwlock read sections (peeks that never drain),
/// `set_thread_bound` compaction, and a mid-stream `clone()`, whose
/// `Vec`s shrink to their lengths.
#[test]
fn rule_b_queue_counters_match_the_capacity_walk() {
    use smarttrack::detect::{
        FtoDc, FtoWcp, FtoWdc, SmartTrackDc, SmartTrackWcp, SmartTrackWdc, UnoptDc, UnoptWcp,
        UnoptWdc,
    };
    use smarttrack::{Detector, StreamHint};
    use smarttrack_trace::gen::RandomTraceSpec;
    use smarttrack_trace::EventId;

    fn assert_walk<D: Detector>(det: &D, label: &str, at: usize) {
        assert_eq!(
            det.state_bytes(),
            det.state_bytes_walk(),
            "{label}: {} counter drifted from the walk after event {at}",
            det.name()
        );
    }

    fn check<D: Detector + Clone>(make: impl Fn() -> D) {
        let spec = RandomTraceSpec {
            threads: 3,
            events: 3_000,
            vars: 8,
            locks: 2,
            acquire_prob: 0.35,
            release_prob: 0.3,
            max_nesting: 2,
            rwlocks: 1,
            rw_read_prob: 0.2,
            rw_write_prob: 0.1,
            rw_release_prob: 0.3,
            try_fail_prob: 0.05,
            ..RandomTraceSpec::default()
        };
        for seed in 0..4u64 {
            let trace = spec.generate(seed);
            // Odd seeds announce the thread count, which lets the DC
            // queues compact consumed log prefixes.
            let bounded = seed % 2 == 1;
            let label = format!("seed {seed}, thread bound {bounded}");
            let mut det = make();
            if bounded {
                det.begin_stream(StreamHint::of_trace(&trace));
            }
            let events = trace.events();
            let mid = events.len() / 2;
            for (i, event) in events[..mid].iter().enumerate() {
                det.process(EventId::new(i as u32), event);
                assert_walk(&det, &label, i);
            }
            let mut twin = det.clone();
            assert_walk(&twin, &format!("{label}, clone"), mid);
            for (i, event) in events.iter().enumerate().skip(mid) {
                det.process(EventId::new(i as u32), event);
                twin.process(EventId::new(i as u32), event);
                assert_walk(&det, &label, i);
                assert_walk(&twin, &format!("{label}, clone"), i);
            }
            assert_eq!(det.report(), twin.report(), "{label}: clone diverged");
        }
    }

    check(UnoptWcp::new);
    check(FtoWcp::new);
    check(SmartTrackWcp::new);
    check(UnoptDc::new);
    check(|| UnoptDc::with_graph_recording(true));
    check(FtoDc::new);
    check(SmartTrackDc::new);
    check(UnoptWdc::new);
    check(FtoWdc::new);
    check(SmartTrackWdc::new);
}
