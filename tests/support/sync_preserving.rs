//! Helpers shared by the sync-preserving batteries (`syncp_differential`,
//! `osr_differential`). The rows differ only in their witness builder and
//! the validator that must accept its witnesses, so both come in as
//! parameters.

use proptest::prelude::*;
use smarttrack::Report;
use smarttrack_trace::gen::RandomTraceSpec;
use smarttrack_trace::{Event, EventId, Op, Trace};
use smarttrack_vindicate::{OracleResult, PredictableRaceOracle, WitnessError};

/// A row's offline witness builder (`syncp_pair_ideal`, `osr_pair_witness`).
pub type Witness = fn(&Trace, EventId, EventId) -> Option<Vec<EventId>>;

/// The validator a row's witnesses must pass.
pub type Validator = fn(&Trace, &[EventId], (EventId, EventId)) -> Result<(), WitnessError>;

/// Recovers the racing pairs behind one reported race. The detector
/// checks, per prior thread, that thread's latest *write* and latest
/// *read* candidates — and the latest conflicting access alone can be
/// synchronization-ordered while the older opposite-kind candidate races
/// (e.g. a lock-protected latest write over an unprotected earlier read),
/// so the recovery mirrors the candidate scheme and keeps whichever pair
/// the offline `witness` confirms.
pub fn racing_pairs(trace: &Trace, report: &Report, witness: Witness) -> Vec<(EventId, EventId)> {
    let mut pairs = Vec::new();
    for race in report.races() {
        let e2 = race.event;
        let later: &Event = trace.event(e2);
        for &prior in &race.prior_threads {
            let (mut latest_write, mut latest_read) = (None, None);
            for (id, e) in trace.iter() {
                if id.index() < e2.index() && e.tid == prior && e.conflicts_with(later) {
                    match e.op {
                        Op::Write(_) | Op::VolatileWrite(_) => latest_write = Some(id),
                        _ => latest_read = Some(id),
                    }
                }
            }
            let e1 = [latest_write, latest_read]
                .into_iter()
                .flatten()
                .find(|&e1| witness(trace, e1, e2).is_some())
                .unwrap_or_else(|| {
                    panic!("no candidate pair by {prior:?} at {e2:?} reproduces offline")
                });
            pairs.push((e1, e2));
        }
    }
    pairs
}

/// Every racing pair of `report` has a witness that `validate` accepts.
pub fn assert_witnessed(
    trace: &Trace,
    report: &Report,
    label: &str,
    witness: Witness,
    validate: Validator,
) -> Vec<(EventId, EventId)> {
    let pairs = racing_pairs(trace, report, witness);
    for &(e1, e2) in &pairs {
        let order = witness(trace, e1, e2).unwrap_or_else(|| {
            panic!("{label}: reported race ({e1:?},{e2:?}) not reproduced offline")
        });
        validate(trace, &order, (e1, e2))
            .unwrap_or_else(|err| panic!("{label}: witness for ({e1:?},{e2:?}) rejected: {err}"));
    }
    pairs
}

/// Every reported race carries a witness that `validate` accepts and is
/// confirmed by the exhaustive oracle (on oracle-sized traces).
pub fn assert_vindicated(
    trace: &Trace,
    report: &Report,
    label: &str,
    witness: Witness,
    validate: Validator,
) {
    let oracle = PredictableRaceOracle::new(trace).with_budget(400_000);
    for (e1, e2) in assert_witnessed(trace, report, label, witness, validate) {
        match oracle.is_predictable_race(e1, e2) {
            OracleResult::Race(..) => {}
            OracleResult::NoRace => {
                panic!("{label}: oracle refutes the reported race ({e1:?},{e2:?}) — unsound!")
            }
            // Budget exhaustion is acceptable: the validated witness is
            // itself a constructive proof of the race.
            OracleResult::Unknown => {}
        }
    }
}

/// Randomized traces mixing every op the event model has.
pub fn arb_full_spec() -> impl Strategy<Value = (RandomTraceSpec, u64)> {
    (
        (2u32..5, 40usize..220, 2u32..6, 1u32..4), // threads, events, vars, locks
        (0u32..2, 0u32..2, 0u32..2),               // condvars, barriers, rwlocks
        any::<u64>(),                              // seed
        any::<bool>(),                             // fork_join
    )
        .prop_map(
            |((threads, events, vars, locks), (condvars, barriers, rwlocks), seed, fork_join)| {
                (
                    RandomTraceSpec {
                        threads,
                        events,
                        vars,
                        locks,
                        condvars,
                        condvar_prob: if condvars > 0 { 0.08 } else { 0.0 },
                        barriers,
                        barrier_prob: if barriers > 0 { 0.04 } else { 0.0 },
                        rwlocks,
                        rw_read_prob: if rwlocks > 0 { 0.1 } else { 0.0 },
                        rw_write_prob: if rwlocks > 0 { 0.04 } else { 0.0 },
                        rw_release_prob: 0.2,
                        try_fail_prob: if rwlocks > 0 { 0.02 } else { 0.0 },
                        acquire_prob: 0.15,
                        release_prob: 0.2,
                        fork_join,
                        ..RandomTraceSpec::default()
                    },
                    seed,
                )
            },
        )
}
