//! One partition of a window join's sliding-window state.

use super::marks::{
    build_cells, in_unit, sorted_in_unit, MarkTerms, SortedMarks, TickSortScratch,
    FILTER_BUILD_CELLS_PER_MARK, FILTER_MIN_MARKS,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// One partition of a window-join operator's sliding-window state: the
/// resident partner tuples of *one shard's share* of the partner stream
/// (partitioned by key hash), plus an incrementally maintained probe
/// snapshot of their finite marks.
///
/// Marks enter and leave in tick order, so the state is a FIFO of per-tick
/// sorted runs and the snapshot a short list of *groups of consecutive
/// ticks*, each one sorted run — a time-tiered (LSM-style) layout with
/// nothing to cancel, no tuning constant and no negative term:
///
/// * **New end — a binary counter.** A tick's run enters as a group of one
///   tick; while the two newest groups cover equally many ticks they merge
///   (`merge_runs`). A mark is merged once per doubling, and the new end
///   holds one group per set bit of its tick count.
/// * **Old end — pieces.** A merged group keeps the groups it was merged
///   from as its oldest-first *pieces*, covering 1, 1, 2, 4, … ticks. When
///   the oldest group starts to expire it is replaced by its pieces — no
///   merge, they are already allocated — so expiring a whole tick is a
///   `pop_front`. The pieces stay out of the binary counter, which
///   therefore never re-merges what is about to leave.
///
/// The snapshot has at most `2·⌈log2(resident ticks)⌉ + 2` terms. A probe
/// visits them all, but each term answers through its own read path
/// ([`SortedMarks`]: occupancy bitmap, then fence-bracketed searches), so it
/// reads marks only in the terms its match interval is occupied in. The
/// filters compose under merge on a common grid, which is why every tick run
/// of a partition is built at the same *sticky* cell count: tick sizes are
/// Poisson, and sizing each run by its own length would put neighbours on
/// different grids whenever the mean sits near a power of two — a rebuild at
/// every level of the counter instead of one per ~3 doublings. All windows of
/// a query carry on the same ticks, so the largest
/// merges land together; keeping the pieces is what keeps that tick from
/// also paying for the old end (re-merging them from the per-tick runs
/// instead raised the p99 batch latency of nine 60-tick windows by 21%). The
/// price is memory: a group of `2^k` ticks holds about `k/2` further copies
/// of its marks in its pieces. Because probe counts are exact integers,
/// summing them over disjoint partitions equals the count over their union
/// bit for bit, so *how* the stream is partitioned (including not at all) —
/// and how the ticks are grouped — can never change a probe result.
///
/// What a mark costs to write, from `profile_shard q2 5` (nine 60-tick
/// windows, ~418 marks per window per tick; medians of five alternating runs
/// on a 2-core x86-64 box): 25.8 ns in all — tick sort 10.6, new-end merges
/// 15.1, old-end expiry 0.4 — where a one-ended merge and a `sort_unstable`
/// tick sort took 38.0 (15.7 and 21.9 of it) at the same 5.3 terms per
/// snapshot. The counting tick sort (`sorted_in_unit`) and the two-ended
/// merge (`merge_runs`) make up the difference.
///
/// What a *thin* tick costs, from `profile_shard q2 0.05` (~4 marks per
/// window per tick, same box): ~470 ns per window per tick — tick sort ~107,
/// new-end merges ~225, expiry ~54, snapshot ~83 — fixed costs that a
/// handful of marks cannot amortize, so they are kept to the allocations
/// the runs themselves need. A resident tick holds its rows in one
/// exact-size `(timestamp, mark)` buffer, not one per column, and a
/// snapshot allocates its term list once. One `VecDeque` of rows per
/// partition, or recycling the expired tick's buffers, would save more
/// allocations but raised `peak_rss_mb` on `run-window-q2`: power-of-two
/// capacity slack over a 25k-row window, and amortized growth ratcheting
/// every recycled buffer toward twice the tick size.
#[derive(Debug, Clone)]
pub(crate) struct WindowPartition {
    window_ms: u64,
    /// Resident tuples grouped by the [`WindowPartition::advance`] call that
    /// inserted them, oldest first.
    runs: VecDeque<TickRun>,
    /// Total resident tuples across runs (finite-marked or not).
    resident: usize,
    /// The snapshot: groups of consecutive runs, oldest first, covering
    /// `runs` exactly. The first `old` of them are pieces of a group taken
    /// apart for expiry; the rest are the binary counter.
    pub(super) groups: VecDeque<Group>,
    old: usize,
    /// Buffers of the tick sort, reused across ticks.
    sort_scratch: TickSortScratch,
    /// Filter resolution of the tick runs: re-picked only when a tick's
    /// length leaves it under half or over twice the `[8, 16)` cells per mark
    /// a fresh build has.
    tick_cells: usize,
}

/// One insert batch resident in a [`WindowPartition`]: its rows
/// (`(timestamp, mark)`, in arrival order, in one exact-size buffer), of
/// which `[start..]` have not expired.
#[derive(Debug, Clone)]
struct TickRun {
    rows: Vec<(u64, f64)>,
    start: usize,
    /// Largest row timestamp — when it falls behind the cutoff the whole
    /// batch expires at once.
    max_ts: u64,
}

/// The sorted finite marks of one or more consecutive [`TickRun`]s.
#[derive(Debug, Clone)]
pub(super) struct Group {
    pub(super) marks: Arc<SortedMarks>,
    /// The groups this one was merged from, oldest first, covering
    /// 1, 1, 2, 4, … runs; empty for a single run.
    pub(super) pieces: Vec<Group>,
}

impl Group {
    fn single(marks: SortedMarks) -> Self {
        Self {
            marks: Arc::new(marks),
            pieces: Vec::new(),
        }
    }

    /// Runs covered: `pieces` of 1, 1, 2, …, 2^(k−1) runs make 2^k.
    fn ticks(&self) -> usize {
        match self.pieces.len() {
            0 => 1,
            n => 1 << (n - 1),
        }
    }

    /// `older` and `newer` (adjacent, equally many runs) as one group.
    fn merged(older: Group, newer: Group) -> Self {
        let marks = SortedMarks::merged(&older.marks, &newer.marks);
        let mut pieces = older.pieces;
        if pieces.is_empty() {
            pieces.push(Group {
                marks: older.marks,
                pieces: Vec::new(),
            });
        }
        pieces.push(newer);
        Self {
            marks: Arc::new(marks),
            pieces,
        }
    }
}

impl WindowPartition {
    /// An empty partition of a sliding window of `window_ms` milliseconds.
    pub(crate) fn new(window_ms: u64) -> Self {
        Self {
            window_ms,
            runs: VecDeque::new(),
            resident: 0,
            groups: VecDeque::new(),
            old: 0,
            sort_scratch: TickSortScratch::default(),
            tick_cells: 0,
        }
    }

    /// Number of resident partner tuples (finite-marked or not).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.resident
    }

    /// Whether the partition holds no partner tuples.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// The current probe snapshot (cheap `Arc` clones of the groups' runs),
    /// in one allocation: a filtered `collect` would start at capacity 4 and
    /// grow on the fifth term, and a steady Q2 window has ~5.3.
    pub(crate) fn snapshot(&self) -> MarkTerms {
        let mut terms = Vec::with_capacity(self.groups.len());
        terms.extend(
            self.groups
                .iter()
                .filter(|g| !g.marks.is_empty())
                .map(|g| Arc::clone(&g.marks)),
        );
        MarkTerms::new(terms)
    }

    /// One tick of window maintenance: insert this partition's share of the
    /// tick's partner arrivals (`ts_ms`/`marks`, parallel slices in
    /// timestamp order), then evict entries older than the window at
    /// `now_ms`, in that order. Returns whether the contents (and hence the
    /// snapshot) changed. A mark outside `[0, 1)` — non-finite or merely out
    /// of range — means "never match": such entries stay resident but never
    /// reach the snapshot.
    pub(crate) fn advance(&mut self, now_ms: u64, ts_ms: &[u64], marks: &[f64]) -> bool {
        debug_assert_eq!(ts_ms.len(), marks.len());
        if !ts_ms.is_empty() {
            let run = self.tick_run(marks);
            self.push_group(Group::single(run));
            self.runs.push_back(TickRun {
                rows: ts_ms.iter().copied().zip(marks.iter().copied()).collect(),
                start: 0,
                max_ts: ts_ms.iter().copied().max().unwrap_or(0),
            });
            self.resident += ts_ms.len();
        }

        let cutoff = now_ms.saturating_sub(self.window_ms);
        let mut expired_rows = 0;
        // Whole batches behind the cutoff leave with their one-run group.
        while let Some(run) = self.runs.front() {
            if run.max_ts >= cutoff {
                break;
            }
            expired_rows += run.rows.len() - run.start;
            self.runs.pop_front();
            self.split_front();
            self.groups.pop_front();
            self.old = self.old.saturating_sub(1);
        }
        // The batch straddling the cutoff (ticks that do not divide the
        // window): evict its expired prefix — expiry stops at the first
        // still-live row — and re-sort what is left as the front group.
        if let Some(run) = self.runs.front_mut() {
            let live = &run.rows[run.start..];
            let gone = live
                .iter()
                .position(|&(ts, _)| ts >= cutoff)
                .unwrap_or(live.len());
            if gone > 0 {
                let live_gone = live[..gone].iter().any(|(_, m)| in_unit(m));
                run.start += gone;
                expired_rows += gone;
                if live_gone {
                    // Rare (only ticks that do not divide the window), so the
                    // live marks are gathered here rather than stored apart.
                    let marks: Vec<f64> = run.rows[run.start..].iter().map(|&(_, m)| m).collect();
                    let rest = sorted_in_unit(&marks, &mut self.sort_scratch);
                    let rest = SortedMarks::from_sorted(rest, Some(self.tick_cells));
                    self.split_front();
                    if let Some(front) = self.groups.front_mut() {
                        *front = Group::single(rest);
                    }
                }
            }
        }
        self.resident -= expired_rows;
        debug_assert_eq!(
            self.groups.iter().map(Group::ticks).sum::<usize>(),
            self.runs.len(),
            "the groups cover the resident runs exactly"
        );
        ts_ms.len() + expired_rows > 0
    }

    /// One tick's arrivals as a sorted run on the partition's tick grid.
    fn tick_run(&mut self, marks: &[f64]) -> SortedMarks {
        let run = sorted_in_unit(marks, &mut self.sort_scratch);
        let fitting = FILTER_BUILD_CELLS_PER_MARK / 2 * run.len()
            ..=FILTER_BUILD_CELLS_PER_MARK * 4 * run.len();
        if run.len() >= FILTER_MIN_MARKS && !fitting.contains(&self.tick_cells) {
            self.tick_cells = build_cells(run.len());
        }
        SortedMarks::from_sorted(run, Some(self.tick_cells))
    }

    /// The binary counter: the new run enters as a group of one, and equal
    /// neighbours carry.
    fn push_group(&mut self, mut group: Group) {
        while self.groups.len() > self.old
            && self.groups.back().map(Group::ticks) == Some(group.ticks())
        {
            if let Some(last) = self.groups.pop_back() {
                group = Group::merged(last, group);
            }
        }
        self.groups.push_back(group);
    }

    /// Take the oldest group apart until it covers a single run.
    fn split_front(&mut self) {
        while let Some(front) = self.groups.pop_front() {
            if front.pieces.is_empty() {
                self.groups.push_front(front);
                return;
            }
            // The pieces take the place `front` had at the old end — or open
            // it, if `front` was the oldest group of the counter.
            self.old = self.old.max(1) - 1 + front.pieces.len();
            for piece in front.pieces.into_iter().rev() {
                self.groups.push_front(piece);
            }
        }
    }

    /// Drop all resident tuples — a node crash under `Lost` recovery
    /// semantics. The snapshot becomes empty immediately.
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
        self.resident = 0;
        self.groups.clear();
        self.old = 0;
    }
}
