//! Hardware-style performance counters for the label stack modifier.
//!
//! Real switch pipelines expose per-stage activity counters that external
//! telemetry scrapes; [`CorePerf`] is that register file for the modifier:
//! one cycle counter per control-unit state (all four FSMs) plus a
//! search-depth histogram over information-base lookups. The block is
//! optional — the modifier carries an `Option<Box<CorePerf>>` and pays a
//! single branch per clock when disabled — and purely observational: it
//! never changes cycle counts or outcomes.
//!
//! A model that does not clock the modifier (the embedded router's
//! transaction-level modifier) fills the same block in closed form with
//! the `count_*` methods, one call per retired operation.

use crate::datapath::LEVEL_CAPACITY;
use crate::fsm::{IbState, LblState, MainState, SearchState};
use mpls_telemetry::Histogram;
use serde::Serialize;

/// Snake-case names of [`MainState`] variants, indexed by discriminant.
pub const MAIN_STATE_NAMES: [&str; 3] = ["idle", "lbl_interface_active", "ib_interface_active"];

/// Snake-case names of [`LblState`] variants, indexed by discriminant.
pub const LBL_STATE_NAMES: [&str; 13] = [
    "idle",
    "user_push",
    "user_pop",
    "search_enable",
    "remove_top",
    "update_ttl",
    "verify_info",
    "update_top",
    "push_old",
    "push_new",
    "save_entry",
    "discard_packet",
    "done",
];

/// Snake-case names of [`IbState`] variants, indexed by discriminant.
pub const IB_STATE_NAMES: [&str; 3] = ["idle", "write_pair", "search_enable"];

/// Snake-case names of [`SearchState`] variants, indexed by discriminant.
pub const SEARCH_STATE_NAMES: [&str; 8] = [
    "idle",
    "read",
    "wait_info",
    "compare",
    "found_wait",
    "done_hit",
    "miss_wait",
    "done_miss",
];

/// How a stack update ends once its search retires: the label-stack
/// states (Fig. 9) it walks, one cycle each, up to and including `DONE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateEnd {
    /// The search missed.
    Miss,
    /// `VERIFY INFO` found an expired TTL or an inconsistent operation.
    Discard,
    /// A swap, or a push onto an empty stack.
    Rewrite,
    /// A pop.
    Pop,
    /// A push onto a non-empty stack.
    Push,
}

impl UpdateEnd {
    /// The label-stack states walked after the search.
    fn states(self) -> &'static [LblState] {
        use LblState::*;
        match self {
            Self::Miss => &[DiscardPacket, Done],
            Self::Discard => &[RemoveTop, UpdateTtl, VerifyInfo, DiscardPacket, Done],
            Self::Rewrite => &[RemoveTop, UpdateTtl, VerifyInfo, PushNew, SaveEntry, Done],
            Self::Pop => &[RemoveTop, UpdateTtl, VerifyInfo, UpdateTop, SaveEntry, Done],
            Self::Push => &[
                RemoveTop, UpdateTtl, VerifyInfo, PushOld, PushNew, SaveEntry, Done,
            ],
        }
    }
}

/// Per-FSM-state cycle counters and search statistics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CorePerf {
    /// Cycles spent in each [`MainState`].
    pub main_cycles: [u64; MAIN_STATE_NAMES.len()],
    /// Cycles spent in each [`LblState`].
    pub lbl_cycles: [u64; LBL_STATE_NAMES.len()],
    /// Cycles spent in each [`IbState`].
    pub ib_cycles: [u64; IB_STATE_NAMES.len()],
    /// Cycles spent in each [`SearchState`].
    pub search_cycles: [u64; SEARCH_STATE_NAMES.len()],
    /// Entries examined per information-base search (0 for an empty level).
    pub search_depth: Histogram,
    /// Searches that found their key.
    pub search_hits: u64,
    /// Searches that exhausted the level (or found it empty).
    pub search_misses: u64,
}

impl Default for CorePerf {
    fn default() -> Self {
        Self {
            main_cycles: Default::default(),
            lbl_cycles: Default::default(),
            ib_cycles: Default::default(),
            search_cycles: Default::default(),
            search_depth: Self::depth_histogram(),
            search_hits: 0,
            search_misses: 0,
        }
    }
}

impl CorePerf {
    /// The bucket layout every search-depth histogram uses: powers of two
    /// up to the level capacity, so depths from per-flow tables (a handful
    /// of entries) to a full level (1024) all resolve.
    pub fn depth_histogram() -> Histogram {
        let buckets = (LEVEL_CAPACITY as u64).ilog2() as usize + 1;
        Histogram::exponential(1, 2, buckets)
    }

    /// Attributes one clock cycle to the current state of each FSM.
    #[inline]
    pub fn tick(&mut self, main: MainState, lbl: LblState, ib: IbState, search: SearchState) {
        self.ticks(main, lbl, ib, search, 1);
    }

    /// Attributes `n` clock cycles to one combination of FSM states.
    #[inline]
    fn ticks(&mut self, main: MainState, lbl: LblState, ib: IbState, search: SearchState, n: u64) {
        self.main_cycles[main as usize] += n;
        self.lbl_cycles[lbl as usize] += n;
        self.ib_cycles[ib as usize] += n;
        self.search_cycles[search as usize] += n;
    }

    // ---- closed-form counts ----------------------------------------------
    //
    // What the clocked modifier's `tick`s add up to over one retired
    // operation, without clocking it: each operation walks a fixed state
    // sequence (Figs. 8–11), and a search adds one read/wait/compare loop
    // per examined entry.

    /// Counts `n` user pushes: dispatch, enable, `USER PUSH` (3 cycles
    /// each).
    pub fn count_user_pushes(&mut self, n: u64) {
        self.count_user_ops(LblState::UserPush, n);
    }

    /// Counts `n` user pops: dispatch, enable, `USER POP` (3 cycles each).
    pub fn count_user_pops(&mut self, n: u64) {
        self.count_user_ops(LblState::UserPop, n);
    }

    fn count_user_ops(&mut self, op: LblState, n: u64) {
        use {IbState as I, LblState as L, MainState as M, SearchState as S};
        self.ticks(M::Idle, L::Idle, I::Idle, S::Idle, n);
        self.ticks(M::LblInterfaceActive, L::Idle, I::Idle, S::Idle, n);
        self.ticks(M::LblInterfaceActive, op, I::Idle, S::Idle, n);
    }

    /// Counts one `write label pair` (3 cycles), accepted or rejected.
    pub fn count_write_pair(&mut self) {
        use {IbState as I, LblState as L, MainState as M, SearchState as S};
        self.ticks(M::Idle, L::Idle, I::Idle, S::Idle, 1);
        self.ticks(M::IbInterfaceActive, L::Idle, I::Idle, S::Idle, 1);
        self.ticks(M::IbInterfaceActive, L::Idle, I::WritePair, S::Idle, 1);
    }

    /// Counts one `update stack` whose search examined `probes` entries
    /// and which ended as `end`: `3·probes + 5` cycles of search, then one
    /// cycle per label-stack state of `end`. Records the search too.
    pub fn count_update(&mut self, probes: u64, end: UpdateEnd) {
        use {IbState as I, LblState as L, MainState as M, SearchState as S};
        let hit = end != UpdateEnd::Miss;
        let active = M::LblInterfaceActive;
        self.ticks(M::Idle, L::Idle, I::Idle, S::Idle, 1);
        self.ticks(active, L::Idle, I::Idle, S::Idle, 1);
        self.ticks(active, L::SearchEnable, I::Idle, S::Idle, 1);
        for s in [S::Read, S::WaitInfo, S::Compare] {
            self.ticks(active, L::SearchEnable, I::Idle, s, probes);
        }
        let (wait, done) = if hit {
            (S::FoundWait, S::DoneHit)
        } else {
            (S::MissWait, S::DoneMiss)
        };
        self.ticks(active, L::SearchEnable, I::Idle, wait, 1);
        self.ticks(active, L::SearchEnable, I::Idle, done, 1);
        for &lbl in end.states() {
            self.ticks(active, lbl, I::Idle, S::Idle, 1);
        }
        self.record_search(probes, hit);
    }

    /// Records one retired search: `depth` entries examined, hit or miss.
    #[inline]
    pub fn record_search(&mut self, depth: u64, hit: bool) {
        self.search_depth.record(depth);
        if hit {
            self.search_hits += 1;
        } else {
            self.search_misses += 1;
        }
    }

    /// Total cycles attributed (identical for all four FSMs: one tick
    /// advances each).
    pub fn total_cycles(&self) -> u64 {
        self.main_cycles.iter().sum()
    }

    /// Cycles the control unit spent outside every idle state — a busy
    /// fraction numerator for utilization-style gauges.
    pub fn busy_cycles(&self) -> u64 {
        self.total_cycles() - self.main_cycles[MainState::Idle as usize]
    }

    /// Flattens every per-state counter into `(name, cycles)` rows with
    /// `fsm.state` names, the shape telemetry scrapes.
    pub fn state_cycles(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let groups: [(&str, &[&str], &[u64]); 4] = [
            ("main", &MAIN_STATE_NAMES, &self.main_cycles),
            ("lbl", &LBL_STATE_NAMES, &self.lbl_cycles),
            ("ib", &IB_STATE_NAMES, &self.ib_cycles),
            ("search", &SEARCH_STATE_NAMES, &self.search_cycles),
        ];
        for (fsm, names, cycles) in groups {
            for (name, &c) in names.iter().zip(cycles) {
                out.push((format!("{fsm}.{name}"), c));
            }
        }
        out
    }

    /// Merges another counter block into this one (multi-router aggregation).
    pub fn merge(&mut self, other: &CorePerf) {
        for (a, b) in self.main_cycles.iter_mut().zip(&other.main_cycles) {
            *a += b;
        }
        for (a, b) in self.lbl_cycles.iter_mut().zip(&other.lbl_cycles) {
            *a += b;
        }
        for (a, b) in self.ib_cycles.iter_mut().zip(&other.ib_cycles) {
            *a += b;
        }
        for (a, b) in self.search_cycles.iter_mut().zip(&other.search_cycles) {
            *a += b;
        }
        self.search_depth.merge(&other.search_depth);
        self.search_hits += other.search_hits;
        self.search_misses += other.search_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_cover_every_variant() {
        // The arrays are indexed by `state as usize`; spot-check the ends.
        assert_eq!(MAIN_STATE_NAMES[MainState::Idle as usize], "idle");
        assert_eq!(
            MAIN_STATE_NAMES[MainState::IbInterfaceActive as usize],
            "ib_interface_active"
        );
        assert_eq!(LBL_STATE_NAMES[LblState::Done as usize], "done");
        assert_eq!(
            LBL_STATE_NAMES[LblState::DiscardPacket as usize],
            "discard_packet"
        );
        assert_eq!(
            IB_STATE_NAMES[IbState::SearchEnable as usize],
            "search_enable"
        );
        assert_eq!(
            SEARCH_STATE_NAMES[SearchState::DoneMiss as usize],
            "done_miss"
        );
    }

    #[test]
    fn tick_attributes_one_cycle_per_fsm() {
        let mut p = CorePerf::default();
        p.tick(
            MainState::Idle,
            LblState::Idle,
            IbState::Idle,
            SearchState::Idle,
        );
        p.tick(
            MainState::LblInterfaceActive,
            LblState::VerifyInfo,
            IbState::Idle,
            SearchState::Compare,
        );
        assert_eq!(p.total_cycles(), 2);
        assert_eq!(p.busy_cycles(), 1);
        assert_eq!(p.lbl_cycles[LblState::VerifyInfo as usize], 1);
        assert_eq!(p.search_cycles[SearchState::Compare as usize], 1);
    }

    #[test]
    fn state_cycles_flattens_all_fsms() {
        let p = CorePerf::default();
        let rows = p.state_cycles();
        assert_eq!(rows.len(), 3 + 13 + 3 + 8);
        assert!(rows.iter().any(|(n, _)| n == "lbl.verify_info"));
        assert!(rows.iter().any(|(n, _)| n == "search.done_miss"));
    }

    #[test]
    fn depth_histogram_spans_level_capacity() {
        let h = CorePerf::depth_histogram();
        assert_eq!(*h.bounds().last().unwrap(), LEVEL_CAPACITY as u64);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = CorePerf::default();
        let mut b = CorePerf::default();
        a.record_search(3, true);
        b.record_search(10, false);
        b.tick(
            MainState::Idle,
            LblState::Idle,
            IbState::Idle,
            SearchState::Idle,
        );
        a.merge(&b);
        assert_eq!(a.search_hits, 1);
        assert_eq!(a.search_misses, 1);
        assert_eq!(a.search_depth.total(), 2);
        assert_eq!(a.total_cycles(), 1);
    }
}
