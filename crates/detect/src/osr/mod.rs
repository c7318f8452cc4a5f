//! Optimistic synchronization-reversal race prediction (Shi, Mathur &
//! Pavlogiannis, arXiv 2401.05642): the `OSR` analysis row.
//!
//! OSR is SyncP's closure with one rule relaxed. A *sync-preserving*
//! reordering may drop whole critical sections but never commutes two
//! acquisitions of one lock; OSR additionally permits a bounded number of
//! critical-section *reversals* — the later section of a same-lock pair
//! completes before the earlier one starts — which predicts strictly more
//! true races at near-SyncP cost (see [the fast path](#the-fast-path)).
//! Every report stays sound by construction: a reversal-carrying closure
//! is only believed once a concrete replay schedule of its ideal has been
//! found, and that schedule *is* the witness ([`osr_pair_witness`] exposes
//! it; the vindication layer's reversal-tolerant validator replays it).
//!
//! # The abort-and-commit check
//!
//! For a candidate pair, run the sync-preserving closure (the exact rule
//! table of [`crate::syncp`]) under a set `R` of reversal *directives* —
//! section pairs `(early, late)` on one lock whose scheduled order is
//! flipped, so rule 3 demands the **later** section's release instead of
//! the earlier's. The search starts from `R = ∅`:
//!
//! 1. **Commit.** If the closure stabilizes without forcing either
//!    endpoint and `R = ∅`, the run was exactly the SyncP closure and the
//!    ideal in trace order is a witness (hence SyncP ⊆ OSR, structurally).
//!    With `R ≠ ∅` the ideal has no trace-order schedule, so a bounded
//!    DFS replay scheduler searches for a concrete linearization obeying
//!    program order, mutual exclusion, exact reads-from, wait/notify
//!    prerequisites, and the barrier gather/drain protocol; the pair is
//!    reported only if one is found.
//! 2. **Abort.** If a rule-3 release pull forced an endpoint, the culprit
//!    section pair is *reversed* (added to `R`) and the closure restarts —
//!    at most [`MAX_ATTEMPTS`] times. An abort with no lock culprit (the
//!    endpoint was forced by reads-from, program order, fork/join, or a
//!    barrier round) is final: no reversal can help, the pair is ordered.
//!
//! # The fast path
//!
//! Attempt `R = ∅` does not run the journaling closure at all: it runs
//! SyncP's own [`SyncPCore::check_pair`], whose rule 3 keeps only the
//! latest included acquisitions and the unreleased sections per lock, so
//! it is linear in the ideal — and it resumes the thread pair's closure
//! from the last check ([`PairClosures`]), so it walks only what the ideal
//! gained since. The journaling closure applies rule 3
//! pairwise over every included section — O(S²) per lock — because the
//! abort handler needs each pull's pair identity. Both compute the same
//! least fixpoint, so they agree on the verdict and, on commit, on the
//! ideal. A pair that commits at `R = ∅` — every SyncP race — therefore
//! costs what it costs SyncP, and the detector builds no ideal for it;
//! only [`osr_pair_witness`] reads the ideal back. Only an aborted pair
//! reruns `R = ∅` through the journaling closure to mine its pulls, before
//! the directive search proceeds as above.
//!
//! The strong-clock and common-lock prefilters and the epoch cache carry
//! over from SyncP unchanged, because both remain sound under reversals:
//! the strong clock tracks only edges no correct reordering of any kind
//! can break (it has no lock edges), and mutual exclusion holds whatever
//! order two same-lock sections run in.
//!
//! Like SyncP, OSR buffers the stream — state is O(events) — so bound the
//! lifetime of `serve` sessions carrying an `osr` lane, or run it offline.

use std::collections::HashSet;

use smarttrack_clock::ThreadId;
use smarttrack_trace::{Event, EventId, Op, Trace, VarId};

use crate::common::slot;
use crate::counters::PathCounters;
use crate::report::{AccessKind, RaceReport, Report};
use crate::syncp::strong::StrongState;
use crate::syncp::{lw_slot, Candidate, ClosureCounters, PairClosures, SyncPCore, VarState, NONE};
use crate::{Detector, HotPathStats, OptLevel, Relation};

/// Maximum closure restarts per pair. Each restart commits one more
/// reversal directive, so this bounds both the search and `|R|`.
const MAX_ATTEMPTS: usize = 16;

/// Maximum distinct replay states the DFS scheduler explores per pair
/// before giving up (giving up means *not* reporting — sound).
const DFS_STATE_BUDGET: usize = 1 << 17;

/// One reversal directive: the same-lock section pair `(early, late)` (by
/// acquisition trace order) is scheduled in reverse — `late` completes
/// before `early` starts.
type Directive = (u32, u32);

#[derive(Clone, Debug, Default)]
struct OsrLockScratch {
    gen: u32,
    /// Sections of this lock whose acquisition is in the ideal, this
    /// attempt.
    sections: Vec<u32>,
}

/// Per-barrier scratch for the conditional cross-round rule (identical to
/// SyncP's: a partially-kept round must finish draining before the next
/// round's enter).
#[derive(Clone, Debug, Default)]
struct OsrBarrierScratch {
    touched: Vec<u32>,
    enter_next: Vec<u32>,
}

/// Reusable scratch for one abort-and-commit check.
#[derive(Clone, Debug, Default)]
struct OsrScratch {
    /// Per thread: number of events included in the ideal.
    frontier: Vec<u32>,
    /// Per thread: how many included events have been rule-processed.
    processed: Vec<u32>,
    /// Threads with `processed < frontier`.
    dirty: Vec<u32>,
    gen: u32,
    locks: Vec<OsrLockScratch>,
    barriers: Vec<OsrBarrierScratch>,
    /// Rule-3 pulls executed this attempt: `(early, late, reversed)`.
    /// The abort handler mines these for the next directive.
    pulls: Vec<(u32, u32, bool)>,
}

/// Runs one closure attempt under `directives`. Returns `true` when the
/// closure stabilized without forcing either endpoint (the frontier then
/// describes the ideal); `false` on abort, with `scratch.pulls` holding
/// this attempt's rule-3 pulls.
fn osr_close(
    core: &SyncPCore,
    scratch: &mut OsrScratch,
    directives: &[Directive],
    a: u32,
    b: u32,
) -> bool {
    let (ma, mb) = (core.meta[a as usize], core.meta[b as usize]);
    debug_assert_ne!(ma.tid, mb.tid);
    scratch.gen = scratch.gen.wrapping_add(1);
    let nthreads = core.threads.len();
    let OsrScratch {
        frontier,
        processed,
        dirty,
        gen,
        locks,
        barriers,
        pulls,
    } = scratch;
    let gen = *gen;
    frontier.clear();
    frontier.resize(nthreads, 0);
    processed.clear();
    processed.resize(nthreads, 0);
    dirty.clear();
    pulls.clear();

    // `raise` returns `true` as soon as a rule forces either endpoint into
    // the ideal.
    let raise = |frontier: &mut [u32], dirty: &mut Vec<u32>, t: u32, upto: u32| -> bool {
        if upto > frontier[t as usize] {
            if (t == ma.tid && upto > ma.tpos) || (t == mb.tid && upto > mb.tpos) {
                return true;
            }
            frontier[t as usize] = upto;
            dirty.push(t);
        }
        false
    };
    let mut ordered =
        raise(frontier, dirty, ma.tid, ma.tpos) || raise(frontier, dirty, mb.tid, mb.tpos);
    for m in [ma, mb] {
        if m.tpos == 0 {
            let f = core.threads[m.tid as usize].fork;
            if f != NONE {
                let fm = core.meta[f as usize];
                ordered |= raise(frontier, dirty, fm.tid, fm.tpos + 1);
            }
        }
    }
    if ordered {
        return false;
    }

    'outer: while let Some(t) = dirty.pop() {
        while processed[t as usize] < frontier[t as usize] {
            if ordered {
                break 'outer;
            }
            let pos = processed[t as usize];
            processed[t as usize] = pos + 1;
            let idx = core.threads[t as usize].proj[pos as usize];
            let m = core.meta[idx as usize];
            if m.tpos == 0 {
                let f = core.threads[t as usize].fork;
                if f != NONE {
                    let fm = core.meta[f as usize];
                    ordered |= raise(frontier, dirty, fm.tid, fm.tpos + 1);
                }
            }
            match m.op {
                Op::Read(_) | Op::VolatileRead(_) if m.aux != NONE => {
                    let lw = core.meta[m.aux as usize];
                    ordered |= raise(frontier, dirty, lw.tid, lw.tpos + 1);
                }
                Op::Wait(..) if m.aux != NONE => {
                    for &p in &core.prereqs[m.aux as usize] {
                        let pm = core.meta[p as usize];
                        ordered |= raise(frontier, dirty, pm.tid, pm.tpos + 1);
                    }
                }
                Op::BarrierEnter(bar) | Op::BarrierExit(bar) => {
                    let rounds = &core.barriers[bar.index()].rounds;
                    let r = m.aux as usize;
                    let mut pull = |pool: u32| {
                        for &p in &core.prereqs[pool as usize] {
                            let pm = core.meta[p as usize];
                            ordered |= raise(frontier, dirty, pm.tid, pm.tpos + 1);
                        }
                    };
                    let bsc = slot(barriers, bar.index());
                    if bsc.touched.len() < rounds.len() {
                        bsc.touched.resize(rounds.len(), 0);
                        bsc.enter_next.resize(rounds.len(), 0);
                    }
                    if matches!(m.op, Op::BarrierExit(_)) {
                        pull(rounds[r].0);
                    }
                    if r < rounds.len() {
                        bsc.touched[r] = gen;
                        if bsc.enter_next[r] == gen {
                            pull(rounds[r].1);
                        }
                    }
                    if matches!(m.op, Op::BarrierEnter(_)) && r > 0 {
                        bsc.enter_next[r - 1] = gen;
                        if bsc.touched[r - 1] == gen {
                            pull(rounds[r - 1].1);
                        }
                    }
                }
                Op::Join(u) => {
                    ordered |= raise(frontier, dirty, u.raw(), m.aux);
                }
                Op::Acquire(_) | Op::AcqWrite(_) | Op::AcqRead(_) if m.aux != NONE => {
                    let s_idx = m.aux;
                    let s = core.sections[s_idx as usize];
                    let ls = slot(locks, s.lock as usize);
                    if ls.gen != gen {
                        ls.gen = gen;
                        ls.sections.clear();
                    }
                    // Rule 3, pairwise against every included section of
                    // this lock. Unlike SyncP's max/pending encoding the
                    // full pair identity is needed here, because directive
                    // membership is per pair.
                    for &p_idx in &ls.sections {
                        let ps = core.sections[p_idx as usize];
                        if !(ps.write || s.write) {
                            continue; // two read-mode sections: unordered
                        }
                        let (early, late) = if ps.acq < s.acq {
                            (p_idx, s_idx)
                        } else {
                            (s_idx, p_idx)
                        };
                        let reversed = directives.contains(&(early, late));
                        pulls.push((early, late, reversed));
                        let rel = core.sections[if reversed { late } else { early } as usize].rel;
                        if rel == NONE {
                            // A demanded release that never happened (open
                            // section): not schedulable either way.
                            ordered = true;
                        } else {
                            let rm = core.meta[rel as usize];
                            ordered |= raise(frontier, dirty, rm.tid, rm.tpos + 1);
                        }
                    }
                    ls.sections.push(s_idx);
                }
                _ => {}
            }
        }
    }
    !ordered
}

#[derive(Clone, Debug, Default)]
struct LockRep {
    write_held: bool,
    readers: u32,
}

#[derive(Clone, Debug, Default)]
struct BarRep {
    gathered: u32,
    draining: u32,
}

/// Undo record for one replayed event (the DFS backtracks through these).
enum Undo {
    Nothing,
    Lw { x: usize, prev: u32 },
    VolLw { v: usize, prev: u32 },
    LockW { l: usize },
    LockR { l: usize },
    RelW { l: usize },
    RelR { l: usize },
    Enter { b: usize },
    Exit { b: usize, sealed_from: Option<u32> },
}

/// The bounded DFS replay scheduler: searches for a linearization of the
/// ideal that a real execution could take — program order, exact
/// reads-from (plain and volatile), lock mutual exclusion (read-mode
/// sections may overlap), wait-after-notify, the barrier gather/drain
/// protocol, and fork/join gating. Mirrors the enabledness model of the
/// vindication oracle, with the trace model's stricter barrier rule (no
/// gathering while a round drains).
struct Replay<'c> {
    core: &'c SyncPCore,
    /// The ideal, split per thread (each list in trace = program order).
    per_thread: Vec<Vec<u32>>,
    positions: Vec<u32>,
    executed: Vec<bool>,
    lw: Vec<u32>,
    vol_lw: Vec<u32>,
    locks: Vec<LockRep>,
    bars: Vec<BarRep>,
    visited: HashSet<Vec<u32>>,
    states: usize,
    out: Vec<u32>,
    remaining: usize,
}

impl<'c> Replay<'c> {
    /// Replays the ideal a committed [`osr_close`] left in `frontier`.
    fn new(core: &'c SyncPCore, frontier: &[u32]) -> Self {
        let nthreads = core.threads.len();
        let per_thread: Vec<Vec<u32>> = core
            .threads
            .iter()
            .zip(frontier)
            .map(|(ts, &upto)| ts.proj[..upto as usize].to_vec())
            .collect();
        let remaining = per_thread.iter().map(Vec::len).sum();
        Replay {
            core,
            per_thread,
            positions: vec![0; nthreads],
            executed: vec![false; core.meta.len()],
            lw: Vec::new(),
            vol_lw: Vec::new(),
            locks: Vec::new(),
            bars: Vec::new(),
            visited: HashSet::new(),
            states: 0,
            out: Vec::with_capacity(remaining),
            remaining,
        }
    }

    fn enabled(&self, e: u32) -> bool {
        let m = self.core.meta[e as usize];
        if m.tpos == 0 {
            let f = self.core.threads[m.tid as usize].fork;
            if f != NONE && !self.executed[f as usize] {
                return false;
            }
        }
        match m.op {
            Op::Read(x) => self.lw.get(x.index()).copied().unwrap_or(NONE) == m.aux,
            Op::VolatileRead(v) => self.vol_lw.get(v.index()).copied().unwrap_or(NONE) == m.aux,
            Op::Acquire(l) | Op::AcqWrite(l) => self
                .locks
                .get(l.index())
                .is_none_or(|st| !st.write_held && st.readers == 0),
            Op::AcqRead(l) => self.locks.get(l.index()).is_none_or(|st| !st.write_held),
            Op::Wait(..) if m.aux != NONE => self.core.prereqs[m.aux as usize]
                .iter()
                .all(|&p| self.executed[p as usize]),
            Op::Join(u) => {
                let u = u.index();
                self.positions.get(u).copied().unwrap_or(0) as usize
                    == self.per_thread.get(u).map_or(0, Vec::len)
            }
            Op::BarrierEnter(bar) => self.bars.get(bar.index()).is_none_or(|st| st.draining == 0),
            Op::BarrierExit(bar) => {
                let st = self.bars.get(bar.index());
                let live = st.is_some_and(|st| st.draining > 0 || st.gathered > 0);
                let r = m.aux as usize;
                live && self.core.prereqs
                    [self.core.barriers[bar.index()].rounds[r].0 as usize]
                    .iter()
                    .all(|&p| self.executed[p as usize])
            }
            _ => true,
        }
    }

    fn step(&mut self, e: u32) -> Undo {
        let m = self.core.meta[e as usize];
        self.executed[e as usize] = true;
        self.positions[m.tid as usize] += 1;
        self.remaining -= 1;
        self.out.push(e);
        match m.op {
            Op::Write(x) => {
                let cell = lw_slot(&mut self.lw, x.index());
                let prev = *cell;
                *cell = e;
                Undo::Lw {
                    x: x.index(),
                    prev,
                }
            }
            Op::VolatileWrite(v) => {
                let cell = lw_slot(&mut self.vol_lw, v.index());
                let prev = *cell;
                *cell = e;
                Undo::VolLw {
                    v: v.index(),
                    prev,
                }
            }
            Op::Acquire(l) | Op::AcqWrite(l) => {
                slot(&mut self.locks, l.index()).write_held = true;
                Undo::LockW { l: l.index() }
            }
            Op::AcqRead(l) => {
                slot(&mut self.locks, l.index()).readers += 1;
                Undo::LockR { l: l.index() }
            }
            Op::Release(l) if m.aux != NONE => {
                let write = self.core.sections[m.aux as usize].write;
                let st = slot(&mut self.locks, l.index());
                if write {
                    st.write_held = false;
                    Undo::RelW { l: l.index() }
                } else {
                    st.readers -= 1;
                    Undo::RelR { l: l.index() }
                }
            }
            Op::BarrierEnter(bar) => {
                slot(&mut self.bars, bar.index()).gathered += 1;
                Undo::Enter { b: bar.index() }
            }
            Op::BarrierExit(bar) => {
                let st = slot(&mut self.bars, bar.index());
                let sealed_from = if st.draining == 0 {
                    let g = st.gathered;
                    st.draining = g;
                    st.gathered = 0;
                    Some(g)
                } else {
                    None
                };
                st.draining -= 1;
                Undo::Exit {
                    b: bar.index(),
                    sealed_from,
                }
            }
            _ => Undo::Nothing,
        }
    }

    fn unstep(&mut self, e: u32, undo: Undo) {
        let m = self.core.meta[e as usize];
        self.executed[e as usize] = false;
        self.positions[m.tid as usize] -= 1;
        self.remaining += 1;
        self.out.pop();
        match undo {
            Undo::Nothing => {}
            Undo::Lw { x, prev } => self.lw[x] = prev,
            Undo::VolLw { v, prev } => self.vol_lw[v] = prev,
            Undo::LockW { l } => self.locks[l].write_held = false,
            Undo::LockR { l } => self.locks[l].readers -= 1,
            Undo::RelW { l } => self.locks[l].write_held = true,
            Undo::RelR { l } => self.locks[l].readers += 1,
            Undo::Enter { b } => self.bars[b].gathered -= 1,
            Undo::Exit { b, sealed_from } => {
                let st = &mut self.bars[b];
                st.draining += 1;
                if let Some(g) = sealed_from {
                    st.gathered = g;
                    st.draining = 0;
                }
            }
        }
    }

    fn dfs(&mut self) -> bool {
        if self.remaining == 0 {
            return true;
        }
        if self.states >= DFS_STATE_BUDGET || !self.visited.insert(self.positions.clone()) {
            return false;
        }
        self.states += 1;
        // Deterministic order: lowest event index first.
        let mut cands: Vec<u32> = (0..self.per_thread.len())
            .filter_map(|t| {
                self.per_thread[t]
                    .get(self.positions[t] as usize)
                    .copied()
                    .filter(|&e| self.enabled(e))
            })
            .collect();
        cands.sort_unstable();
        for e in cands {
            let undo = self.step(e);
            if self.dfs() {
                return true;
            }
            self.unstep(e, undo);
        }
        false
    }
}

/// How [`osr_check`] committed a racing pair.
enum Commit {
    /// Attempt `R = ∅` committed: SyncP's closure left the ideal in the
    /// pair's [`PairClosures`] frontier, and in trace order it is the
    /// witness.
    SyncP,
    /// A reversal-carrying attempt committed and the DFS scheduler found
    /// this linearization of its ideal.
    Replayed(Vec<u32>),
}

/// The full abort-and-commit check for one conflicting pair `a < b`.
/// Returns how the pair committed when it is an OSR race, `None`
/// otherwise. Attempt `R = ∅` runs SyncP's linear closure; only when it
/// aborts does the journaling closure rerun to mine reversal directives.
fn osr_check(
    core: &SyncPCore,
    closures: &mut PairClosures,
    scratch: &mut OsrScratch,
    a: u32,
    b: u32,
) -> Option<Commit> {
    if closures.check(core, a, b) {
        return Some(Commit::SyncP);
    }
    // Same least fixpoint, so the journaling closure aborts too; it is
    // rerun only for its pull journal.
    let committed = osr_close(core, scratch, &[], a, b);
    debug_assert!(!committed, "osr_close(R = ∅) must agree with check_pair");
    let mut directives: Vec<Directive> = Vec::new();
    for _ in 1..MAX_ATTEMPTS {
        // Reverse the most recent lock culprit not yet reversed; if the
        // abort had no reversible lock pull, no reversal can help.
        let next = scratch.pulls.iter().rev().find(|&&(e, l, rev)| {
            !rev && core.sections[e as usize].rel != NONE && core.sections[l as usize].rel != NONE
        });
        let &(e, l, _) = next?;
        directives.push((e, l));
        if osr_close(core, scratch, &directives, a, b) {
            let mut replay = Replay::new(core, &scratch.frontier);
            return replay
                .dfs()
                .then(|| Commit::Replayed(std::mem::take(&mut replay.out)));
        }
    }
    None
}

/// The optimistic synchronization-reversal race predictor (`OSR`) — see
/// the module docs for the relation and the abort-and-commit check.
///
/// # Examples
///
/// OSR detects a race hidden behind a same-lock section reversal, which
/// SyncP provably cannot report:
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, Osr, SyncP};
/// use smarttrack_trace::{LockId, Op, ThreadId, TraceBuilder, VarId};
///
/// let (t1, t2) = (ThreadId::new(0), ThreadId::new(1));
/// let (l, x, y) = (LockId::new(0), VarId::new(0), VarId::new(1));
/// let mut b = TraceBuilder::new();
/// b.push(t1, Op::Acquire(l)).unwrap();
/// b.push(t1, Op::Write(y)).unwrap();
/// b.push(t1, Op::Write(x)).unwrap(); // e1
/// b.push(t1, Op::Release(l)).unwrap();
/// b.push(t2, Op::Acquire(l)).unwrap();
/// b.push(t2, Op::Write(y)).unwrap();
/// b.push(t2, Op::Release(l)).unwrap();
/// b.push(t2, Op::Write(x)).unwrap(); // e2: races with e1 under OSR only
/// let trace = b.finish();
///
/// let mut syncp = SyncP::new();
/// run_detector(&mut syncp, &trace);
/// assert_eq!(syncp.report().dynamic_count(), 0);
///
/// let mut osr = Osr::new();
/// run_detector(&mut osr, &trace);
/// assert_eq!(osr.report().dynamic_count(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Osr {
    core: SyncPCore,
    strong: StrongState,
    vars: Vec<VarState>,
    closures: PairClosures,
    scratch: OsrScratch,
    report: Report,
    paths: PathCounters,
}

impl Osr {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        Osr::default()
    }

    /// Closure runs, resumed runs and events walked so far by the `R = ∅`
    /// attempts (the journaling closure of aborted pairs is not counted).
    #[doc(hidden)]
    pub fn closure_counters(&self) -> ClosureCounters {
        self.closures.counters()
    }

    /// Strong-clock order test: is the access at `idx` ordered before the
    /// current point of thread `t`?
    #[inline]
    fn strong_ordered(&self, t: usize, idx: u32) -> bool {
        let m = self.core.meta[idx as usize];
        self.strong.ordered_before(t, ThreadId::new(m.tid), m.tpos)
    }

    /// Common-lock prefilter: both endpoints hold `l` and at least one
    /// hold is write-mode ⇒ mutual exclusion orders them under *any*
    /// section order, reversed or not.
    #[inline]
    fn common_lock(cur: &[(u32, bool, u32)], cand: &[(u32, bool)]) -> bool {
        cur.iter()
            .any(|&(l, w, _)| cand.iter().any(|&(cl, cw)| cl == l && (w || cw)))
    }

    fn access(&mut self, id: EventId, event: &Event, x: VarId, is_write: bool) {
        let idx = (self.core.meta.len() - 1) as u32; // ingest() already ran
        let t = event.tid.index();
        let vs = slot(&mut self.vars, x.index());
        let key = (t as u32, self.core.threads[t].ctx, vs.version);
        let cached = if is_write {
            vs.write_check
        } else {
            vs.read_check
        };
        if cached == key {
            // Epoch fast path, exactly as in SyncP: skip the checks but
            // still advance the candidate (plain writes publish reads-from
            // edges without bumping `ctx`).
            self.paths.fast += 1;
            let vs = &mut self.vars[x.index()];
            let list = if is_write {
                &mut vs.writes
            } else {
                &mut vs.reads
            };
            let c = list
                .iter_mut()
                .find(|c| c.tid == t as u32)
                .expect("a matching cache key implies a stored candidate");
            c.idx = idx;
            vs.version += 1;
            let key = (t as u32, self.core.threads[t].ctx, vs.version);
            if is_write {
                vs.write_check = key;
            } else {
                vs.read_check = key;
            }
            return;
        }
        self.paths.slow += 1;

        let mut prior: Vec<ThreadId> = Vec::new();
        let cur_holds = &self.core.threads[t].held;
        let vs = &self.vars[x.index()];
        let reads: &[Candidate] = if is_write { &vs.reads } else { &[] };
        for c in vs.writes.iter().chain(reads) {
            let tid = ThreadId::new(c.tid);
            if c.tid == t as u32 || prior.contains(&tid) {
                continue;
            }
            if self.strong_ordered(t, c.idx) || Self::common_lock(cur_holds, &c.holds) {
                continue;
            }
            // The verdict path: no ideal is built for a SyncP commit.
            if osr_check(
                &self.core,
                &mut self.closures,
                &mut self.scratch,
                c.idx,
                idx,
            )
            .is_some()
            {
                prior.push(tid);
            }
        }
        if !prior.is_empty() {
            self.report.push(RaceReport {
                event: id,
                loc: event.loc,
                tid: event.tid,
                var: x,
                kind: if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                prior_threads: prior,
            });
        }

        let vs = &mut self.vars[x.index()];
        let list = if is_write {
            &mut vs.writes
        } else {
            &mut vs.reads
        };
        let c = match list.iter_mut().find(|c| c.tid == t as u32) {
            Some(c) => c,
            None => {
                list.push(Candidate {
                    tid: t as u32,
                    ..Candidate::default()
                });
                list.last_mut().expect("just pushed")
            }
        };
        c.idx = idx;
        c.holds.clear();
        c.holds.extend(cur_holds.iter().map(|&(l, w, _)| (l, w)));
        vs.version += 1;
        let key = (t as u32, self.core.threads[t].ctx, vs.version);
        if is_write {
            vs.write_check = key;
        } else {
            vs.read_check = key;
        }
    }
}

impl Detector for Osr {
    fn name(&self) -> &'static str {
        "OSR"
    }

    fn relation(&self) -> Relation {
        Relation::Osr
    }

    fn opt_level(&self) -> OptLevel {
        OptLevel::Unopt
    }

    fn begin_stream(&mut self, hint: crate::StreamHint) {
        use crate::StreamHint;
        self.core
            .meta
            .reserve(StreamHint::presize(hint.events, self.core.meta.len()));
        self.vars
            .reserve(StreamHint::presize(hint.vars, self.vars.len()));
        self.strong.reserve_threads(StreamHint::presize(
            hint.threads,
            self.strong.thread_count(),
        ));
    }

    fn process(&mut self, id: EventId, event: &Event) {
        let t = event.tid;
        self.core.ingest(self.core.meta.len() as u32, event);
        let tpos = self.core.meta.last().expect("just ingested").tpos;
        // Identical per-op strong-clock and sync-context bookkeeping to
        // SyncP — the relations differ only in the pair check.
        self.strong.stamp(t, tpos);
        match event.op {
            Op::Read(x) => {
                self.access(id, event, x, false);
                let m = self.core.meta.last().expect("present");
                if m.aux != NONE {
                    self.strong.absorb_read_from(t, x.index());
                }
            }
            Op::Write(x) => {
                self.access(id, event, x, true);
                self.strong.stamp_last_write(t, x.index());
            }
            Op::VolatileRead(v) => {
                self.strong.absorb_volatile(t, v.index());
                self.core.thread(t.index()).ctx += 1;
            }
            Op::VolatileWrite(v) => {
                self.strong.stamp_volatile(t, v.index());
                self.core.thread(t.index()).ctx += 1;
            }
            Op::Fork(u) => {
                self.strong.fork(t, u);
                self.core.thread(t.index()).ctx += 1;
            }
            Op::Join(u) => {
                self.strong.join_child(t, u);
                self.core.thread(t.index()).ctx += 1;
            }
            Op::Wait(c, _) => {
                self.strong.absorb_notifies(t, c.index());
                self.core.thread(t.index()).ctx += 1;
            }
            Op::Notify(c) | Op::NotifyAll(c) => {
                self.strong.publish_notify(t, c.index());
                self.core.thread(t.index()).ctx += 1;
            }
            Op::BarrierEnter(b) => {
                self.strong.barrier_enter(t, b.index());
                self.core.thread(t.index()).ctx += 1;
            }
            Op::BarrierExit(b) => {
                self.strong.barrier_exit(t, b.index());
                self.core.thread(t.index()).ctx += 1;
            }
            Op::Acquire(_)
            | Op::AcqRead(_)
            | Op::AcqWrite(_)
            | Op::Release(_)
            | Op::TryAcqFail(_) => {
                self.core.thread(t.index()).ctx += 1;
            }
        }
    }

    fn report(&self) -> &Report {
        &self.report
    }

    fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.core.footprint_bytes()
            + self.strong.footprint_bytes()
            + self.vars.capacity() * size_of::<VarState>()
            + self
                .vars
                .iter()
                .map(|vs| {
                    vs.writes
                        .iter()
                        .chain(vs.reads.iter())
                        .map(|c| c.holds.capacity() * size_of::<(u32, bool)>())
                        .sum::<usize>()
                        + (vs.writes.capacity() + vs.reads.capacity()) * size_of::<Candidate>()
                })
                .sum::<usize>()
            + self.closures.walk_bytes()
            + self.report.footprint_bytes()
    }

    fn state_bytes(&self) -> usize {
        // The buffered event log dominates, exactly as for SyncP.
        self.core.resident_bytes()
            + self.strong.resident_bytes()
            + self.vars.capacity() * std::mem::size_of::<VarState>()
            + self.closures.resident_bytes()
            + self.report.footprint_bytes()
    }

    fn state_bytes_walk(&self) -> usize {
        self.state_bytes() - self.closures.resident_bytes() + self.closures.walk_bytes()
    }

    fn hot_path_stats(&self) -> HotPathStats {
        HotPathStats {
            fast_hits: self.paths.fast,
            slow_hits: self.paths.slow,
            state_bytes: self.state_bytes(),
        }
    }
}

/// Offline pair check exposing the witness: replays `trace` up to the
/// later of `(e1, e2)`, runs the abort-and-commit check, and — when the
/// pair races — returns the full witness reordering in *schedule* order
/// (trace order for a directive-free closure, the DFS scheduler's
/// linearization when sections were reversed), followed by the pair
/// itself. The returned order passes the vindication layer's
/// reversal-tolerant validator by construction; `None` means no
/// reversal-permitting witness exists within the search bounds.
///
/// # Panics
///
/// Panics if either id is out of bounds or the events do not conflict.
pub fn osr_pair_witness(trace: &Trace, e1: EventId, e2: EventId) -> Option<Vec<EventId>> {
    let (a, b) = if e1.index() <= e2.index() {
        (e1, e2)
    } else {
        (e2, e1)
    };
    assert!(
        trace.event(a).conflicts_with(trace.event(b)),
        "osr_pair_witness wants a conflicting pair"
    );
    let mut core = SyncPCore::default();
    for (id, event) in trace.iter() {
        if id.index() > b.index() {
            break;
        }
        core.ingest(id.index() as u32, event);
    }
    let (a, b) = (a.index() as u32, b.index() as u32);
    let mut closures = PairClosures::default();
    let commit = osr_check(&core, &mut closures, &mut OsrScratch::default(), a, b)?;
    let mut order = match commit {
        Commit::SyncP => core.ideal(closures.frontier(&core, a, b)),
        Commit::Replayed(order) => order,
    };
    order.extend([a, b]);
    Some(order.into_iter().map(EventId::new).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_detector;
    use smarttrack_trace::{paper, LockId, ThreadId, TraceBuilder};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    fn run(b: TraceBuilder) -> Report {
        let mut det = Osr::new();
        run_detector(&mut det, &b.finish());
        det.report().clone()
    }

    /// The canonical reversal trace: t1's section writes y then x (inside
    /// the section), t2's section writes y, then t2 writes x *outside*.
    /// Reversing the sections schedules t2's section first and makes the
    /// two x-writes adjacent.
    fn reversal_trace() -> smarttrack_trace::Trace {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap(); // 0
        b.push(t(0), Op::Write(x(1))).unwrap(); // 1: w(y)
        b.push(t(0), Op::Write(x(0))).unwrap(); // 2: e1 = w(x)
        b.push(t(0), Op::Release(m(0))).unwrap(); // 3
        b.push(t(1), Op::Acquire(m(0))).unwrap(); // 4
        b.push(t(1), Op::Write(x(1))).unwrap(); // 5: w(y)
        b.push(t(1), Op::Release(m(0))).unwrap(); // 6
        b.push(t(1), Op::Write(x(0))).unwrap(); // 7: e2 = w(x)
        b.finish()
    }

    #[test]
    fn detects_unsynchronized_write_write() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        let r = run(b);
        assert_eq!(r.dynamic_count(), 1);
        assert_eq!(r.races()[0].prior_threads, vec![t(0)]);
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        let mut b = TraceBuilder::new();
        for i in 0..2 {
            b.push(t(i), Op::Acquire(m(0))).unwrap();
            b.push(t(i), Op::Write(x(0))).unwrap();
            b.push(t(i), Op::Release(m(0))).unwrap();
        }
        assert!(run(b).is_empty(), "mutual exclusion survives reversal");
    }

    #[test]
    fn detects_the_reversal_race_syncp_misses() {
        let tr = reversal_trace();
        let mut syncp = crate::SyncP::new();
        run_detector(&mut syncp, &tr);
        assert!(syncp.report().is_empty(), "SyncP is forced by rule 3");

        let mut osr = Osr::new();
        run_detector(&mut osr, &tr);
        assert_eq!(osr.report().dynamic_count(), 1);
        assert_eq!(osr.report().races()[0].event, EventId::new(7));
    }

    #[test]
    fn reversal_witness_schedules_the_later_section_first() {
        let tr = reversal_trace();
        let order = osr_pair_witness(&tr, EventId::new(2), EventId::new(7))
            .expect("the reversal pair races");
        let ids: Vec<usize> = order.iter().map(|e| e.index()).collect();
        // t2's whole section must run before t1's acquire; the pair comes
        // last, adjacent.
        assert_eq!(ids, vec![4, 5, 6, 0, 1, 2, 7]);
        let acq_t2 = ids.iter().position(|&i| i == 4).unwrap();
        let acq_t1 = ids.iter().position(|&i| i == 0).unwrap();
        assert!(acq_t2 < acq_t1, "sections reversed in the schedule");
    }

    /// The fast path's premise: SyncP's linear closure and the journaling
    /// closure at `R = ∅` compute the same least fixpoint. For every
    /// cross-thread conflicting pair of random traces mixing locks,
    /// rwlocks, waits, barriers and forks — each checked against the
    /// prefix the streaming detector would hold — they must agree on the
    /// verdict, and on commit on the frontier.
    #[test]
    fn syncp_closure_matches_the_journaling_closure_at_empty_r() {
        use smarttrack_trace::gen::RandomTraceSpec;
        let (mut commits, mut aborts) = (0usize, 0usize);
        for seed in 0..160u64 {
            let n = seed as u32;
            let tr = RandomTraceSpec {
                threads: 2 + n % 3,
                events: 60 + (seed as usize % 4) * 40,
                vars: 2 + n % 4,
                locks: 1 + n % 3,
                condvars: n % 2,
                condvar_prob: 0.08 * f64::from(n % 2),
                barriers: (n / 2) % 2,
                barrier_prob: 0.04 * f64::from((n / 2) % 2),
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
            let mut core = SyncPCore::default();
            let mut closures = PairClosures::default();
            let mut scratch = OsrScratch::default();
            for (id, event) in tr.iter() {
                let b = id.index() as u32;
                core.ingest(b, event);
                for (prev, earlier) in tr.iter().take(id.index()) {
                    if !earlier.conflicts_with(event) {
                        continue;
                    }
                    let a = prev.index() as u32;
                    let fast = closures.check(&core, a, b);
                    let slow = osr_close(&core, &mut scratch, &[], a, b);
                    assert_eq!(fast, slow, "seed {seed}: verdicts differ on ({a}, {b})");
                    if fast {
                        commits += 1;
                        assert_eq!(
                            closures.frontier(&core, a, b),
                            scratch.frontier,
                            "seed {seed}: committed ideals differ on ({a}, {b})"
                        );
                    } else {
                        aborts += 1;
                    }
                }
            }
        }
        assert!(
            commits > 0 && aborts > 0,
            "the sweep must exercise both verdicts ({commits} commits, {aborts} aborts)"
        );
    }

    #[test]
    fn figure1_still_races_with_the_syncp_witness() {
        let tr = paper::figure1();
        let mut det = Osr::new();
        run_detector(&mut det, &tr);
        assert_eq!(det.report().dynamic_count(), 1);
        let order = osr_pair_witness(&tr, EventId::new(0), EventId::new(7)).expect("races");
        let ids: Vec<usize> = order.iter().map(|e| e.index()).collect();
        assert_eq!(ids, vec![4, 5, 6, 0, 7], "R = ∅ keeps the SyncP ideal");
    }

    #[test]
    fn stays_silent_on_figure3() {
        let mut det = Osr::new();
        run_detector(&mut det, &paper::figure3());
        assert!(
            det.report().is_empty(),
            "figure 3 has no predictable race; sound OSR must stay silent"
        );
    }

    #[test]
    fn observation_chain_across_sections_still_orders() {
        // t2's section *reads* what t1's section wrote: reversing the
        // sections would break reads-from, and keeping order runs into
        // rule 3 — the pair stays ordered under OSR too.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Write(x(1))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Read(x(1))).unwrap(); // observes t0's w(x1)
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert!(run(b).is_empty(), "observation pins the section order");
    }

    #[test]
    fn reversal_blocked_by_reads_from_inside_sections() {
        // Like the canonical trace, but t1's section *reads* y and t2's
        // writes it: in trace order rule 3 forces the endpoint; reversed,
        // t2's w(y) would become the read's last writer, breaking the
        // observed reads-from (the read saw no writer). The DFS finds no
        // schedule; OSR must not report.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Read(x(1))).unwrap(); // observed last writer: none
        b.push(t(0), Op::Write(x(0))).unwrap(); // e1
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Write(x(1))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap(); // e2
        assert!(run(b).is_empty(), "reversal would re-target the read");
    }

    #[test]
    fn common_lock_still_excludes_under_reversal() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        assert!(run(b).is_empty());
    }

    #[test]
    fn state_accounting_is_nonzero() {
        let mut det = Osr::new();
        run_detector(&mut det, &paper::figure1());
        assert!(det.state_bytes() > 0);
        assert!(det.footprint_bytes() >= det.core.resident_bytes());
        let stats = det.hot_path_stats();
        assert!(stats.fast_hits + stats.slow_hits > 0);
    }
}
