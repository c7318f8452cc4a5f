//! Known-answer checks, counted per session.
//!
//! Every session's per-lane result is reduced to a [`LaneResult`] — whether
//! it came from an in-process session or from a serve `Report` frame — and
//! checked against:
//! - the in-memory `analyze` reference of the same trace (path equivalence);
//! - for Table-1 lanes, the workload's `RaceMix::expected_static()`;
//! - for a SyncP + OSR pair, SyncP ⊆ OSR race for race, and SyncP's static
//!   count ≥ the HB expectation;
//! - every race pushed mid-stream appears in the session's final report.

use std::collections::HashSet;

use smarttrack_detect::{AccessKind, AnalysisConfig, Relation, Report};
use smarttrack_serve::WireLane;

/// One dynamic race, flattened to raw ids (the wire shape).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RaceKey {
    pub event: u32,
    pub loc: u32,
    pub tid: u32,
    pub var: u32,
    pub write: bool,
    pub prior: Vec<u32>,
}

/// One lane's final result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneResult {
    pub races: Vec<RaceKey>,
    pub static_count: usize,
}

impl LaneResult {
    pub fn of_report(report: &Report) -> Self {
        LaneResult {
            races: report
                .races()
                .iter()
                .map(|r| RaceKey {
                    event: r.event.raw(),
                    loc: r.loc.raw(),
                    tid: r.tid.raw(),
                    var: r.var.raw(),
                    write: matches!(r.kind, AccessKind::Write),
                    prior: r.prior_threads.iter().map(|t| t.raw()).collect(),
                })
                .collect(),
            static_count: report.static_count(),
        }
    }

    pub fn of_wire(lane: &WireLane) -> Self {
        LaneResult {
            races: lane
                .races
                .iter()
                .map(|r| RaceKey {
                    event: r.event,
                    loc: r.loc,
                    tid: r.tid,
                    var: r.var,
                    write: r.write,
                    prior: r.prior_tids.clone(),
                })
                .collect(),
            static_count: lane.static_count as usize,
        }
    }
}

/// Check counts plus the first few failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What one trace's sessions must report.
pub struct Expected {
    /// `(HB, WCP, DC, WDC)` statically distinct races, from the race mix.
    pub table1_static: (u32, u32, u32, u32),
    /// The in-memory `analyze` result per lane, in lane order.
    pub reference: Vec<LaneResult>,
}

/// Runs every known-answer check on one finished session. `pushed` lists
/// `(lane index, event)` for every race delivered mid-stream.
pub fn check_session(
    checks: &mut Checks,
    label: &str,
    lanes: &[AnalysisConfig],
    expected: &Expected,
    got: &[LaneResult],
    pushed: &[(usize, u32)],
) {
    checks.check(got.len() == lanes.len(), || {
        format!(
            "{label}: {} lanes reported, {} expected",
            got.len(),
            lanes.len()
        )
    });
    if got.len() != lanes.len() {
        return;
    }
    let (hb, wcp, dc, wdc) = expected.table1_static;
    for (i, (config, result)) in lanes.iter().zip(got).enumerate() {
        checks.check(*result == expected.reference[i], || {
            format!(
                "{label}: {config} differs from in-memory analyze \
                 ({} vs {} dynamic races)",
                result.races.len(),
                expected.reference[i].races.len()
            )
        });
        let want = match config.relation {
            Relation::Hb => Some(hb),
            Relation::Wcp => Some(wcp),
            Relation::Dc => Some(dc),
            Relation::Wdc => Some(wdc),
            Relation::SyncP | Relation::Osr => None,
        };
        if let Some(want) = want {
            checks.check(result.static_count == want as usize, || {
                format!(
                    "{label}: {config} found {} static races, the race mix expects {want}",
                    result.static_count
                )
            });
        }
    }
    let find = |relation: Relation| lanes.iter().position(|c| c.relation == relation);
    if let Some(s) = find(Relation::SyncP) {
        checks.check(got[s].static_count >= hb as usize, || {
            format!(
                "{label}: SyncP found {} static races, below the HB expectation {hb}",
                got[s].static_count
            )
        });
        if let Some(o) = find(Relation::Osr) {
            let lost = got[s].races.iter().find(|race| {
                !got[o].races.iter().any(|r| {
                    r.event == race.event
                        && r.var == race.var
                        && race.prior.iter().all(|t| r.prior.contains(t))
                })
            });
            checks.check(lost.is_none(), || {
                format!("{label}: SyncP race {lost:?} is missing from OSR")
            });
        }
    }
    let finals: HashSet<(usize, u32)> = got
        .iter()
        .enumerate()
        .flat_map(|(i, lane)| lane.races.iter().map(move |r| (i, r.event)))
        .collect();
    let stray = pushed.iter().find(|p| !finals.contains(p));
    checks.check(stray.is_none(), || {
        format!("{label}: pushed race {stray:?} is not in the final report")
    });
}
