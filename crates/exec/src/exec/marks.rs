//! Sorted runs of probe marks and their read path: the occupancy filter,
//! the tick sort and the merge kernel, and a snapshot made of several runs.

use std::sync::Arc;

/// A sorted ascending run of probe marks with an LSM-style read path: an
/// exact match count ([`SortedMarks::count_matches`]) that is
/// **bit-identical** to the defining linear scan
/// `marks.iter().filter(|m| (m + rot) % 1.0 < theta).count()`, and that
/// most probes answer without reading a mark.
///
/// **Marks live in `[0, 1)`.** Anything else — non-finite or out of range —
/// stands for "never match" and is dropped on the way in, so a run holds
/// only in-range marks.
///
/// **Why binary search is exact.** With marks and `rot` in `[0, 1)`,
/// `m + rot ∈ [0, 2)` and `fl(m + rot)` is monotone non-decreasing in `m`.
/// Below the *wrap point* (the first mark with `fl(m + rot) ≥ 1.0`) the
/// modulus is the identity, at or past it the exact Sterbenz subtraction
/// `x − 1.0`; IEEE `%` is exact, so on each side the original predicate is
/// monotone in `m` and a partition point counts exactly what the scan does.
/// In mark space the three partition points sit at `1 − rot` (wrap),
/// `1 − rot + θ` (end of the wrapped matches) and `θ − rot` (end of the
/// unwrapped ones — there are none unless `θ > rot`, since
/// `fl(m + rot) ≥ rot`).
///
/// **The read path.** A run of at least `FILTER_MIN_MARKS` marks carries a
/// grid of equal cells over `[0, 1)` with two summaries: an *occupancy
/// bitmap* (bit `c` set when a mark lies in cell `c`) and *fence pointers*
/// (per 64-cell word, the index of its first mark). A probe first asks the
/// bitmap whether any mark can lie in the match interval(s) and returns 0 if
/// not; otherwise it runs the exact predicates above over just the marks of
/// the words the interval touches, which the fences delimit. Both steps pad
/// the interval by `PAD = 2⁻⁴⁰` on either side: a boundary computed here
/// differs from the real one by at most three roundings of values below 2,
/// i.e. `3·2⁻⁵³`, and `fl(m + rot)` from `m + rot` by `2⁻⁵³`, so a mark more
/// than `PAD` below (above) a boundary provably satisfies (fails) its
/// predicate — the bitmap can say "maybe" wrongly, never "no", and every
/// mark the fences leave out is decided without being read.
///
/// Both summaries **compose under merge** at equal resolution (bitmap: OR,
/// fences: element-wise sum), which is what [`WindowPartition`] relies on to
/// merge runs without rescanning them.
#[derive(Debug, Clone, Default)]
pub(crate) struct SortedMarks {
    pub(super) marks: Vec<f64>,
    pub(super) filter: Option<Occupancy>,
}

/// Runs shorter than this carry no filter. A θ = 2·10⁻⁵ probe costs 12 ns
/// through a filter at any run length and 17 / 19 / 24 / 30 / 38 ns without
/// one at 16 / 32 / 64 / 128 / 256 marks, so a filter pays on every run that
/// is probed often; but building one allocates twice (~100 ns, what ten such
/// probes save at 16 marks), and the runs this short belong to thin streams,
/// whose ticks bring a handful of probes: `run-thin-q2` read the same at 16,
/// 64 and 256.
pub(super) const FILTER_MIN_MARKS: usize = 64;

/// A filter is built with `[8, 16)` cells per mark — the power of two in
/// that range — and kept across merges while it still has
/// `FILTER_MIN_CELLS_PER_MARK`, so it is rebuilt on every third doubling and
/// costs 0.4–3 bytes per 8-byte mark. Evaluation time over 300 Q1 / Q2
/// ticks, relative to this 8 / 2: 16 / 4 −22% / −22%, 8 / 4 −15% / −20%,
/// 8 / 1 +5% / +5%, 4 / 1 +25% / +35% — but end to end 16 / 4 and 8 / 4 read
/// level with 8 / 2 on `run-probe-q1` and `run-window-q2` while 16 / 4 took
/// `peak_rss_mb` on the latter from +11% over no filter to +19%.
pub(super) const FILTER_BUILD_CELLS_PER_MARK: usize = 8;
pub(super) const FILTER_MIN_CELLS_PER_MARK: usize = 2;

/// Padding of every boundary the read path derives (see [`SortedMarks`]).
const PAD: f64 = 1.0 / (1u64 << 40) as f64;

/// The per-run read-path summaries over `cells` equal cells of `[0, 1)`.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Occupancy {
    /// A power of two, at least 64.
    pub(super) cells: usize,
    /// Bit `c % 64` of word `c / 64`: some mark lies in cell `c`.
    bits: Vec<u64>,
    /// `fences[w]`: how many marks lie in cells below `64·w`; one entry per
    /// word plus the run length.
    fences: Vec<u32>,
}

impl Occupancy {
    /// The summaries of `marks` (sorted, in `[0, 1)`) at `cells` cells, in one
    /// pass of plain stores — the last mark of a word leaves its index + 1 in
    /// the next word's fence — and a running maximum over the fences for the
    /// words no mark fell in: 1.0–1.4 ns per mark from 420 to 100k marks,
    /// where counting marks per word and prefix-summing took 2.1–3.1 ns.
    pub(super) fn build(marks: &[f64], cells: usize) -> Self {
        debug_assert!(cells.is_power_of_two() && cells >= 64);
        let words = cells / 64;
        let mut bits = vec![0u64; words];
        let mut fences = vec![0u32; words + 1];
        let scale = cells as f64;
        for (i, &m) in marks.iter().enumerate() {
            // Exact: `scale` is a power of two, and `m < 1` keeps it in range.
            let cell = (m * scale) as u32 as usize;
            bits[cell / 64] |= 1 << (cell % 64);
            fences[cell / 64 + 1] = i as u32 + 1;
        }
        let mut below = 0;
        for fence in &mut fences {
            below = below.max(*fence);
            *fence = below;
        }
        Self {
            cells,
            bits,
            fences,
        }
    }

    /// The summaries of the union of two runs on the same grid.
    pub(super) fn union(&self, other: &Self) -> Self {
        debug_assert_eq!(self.cells, other.cells);
        let (bits, fences) = (self.bits.iter(), self.fences.iter());
        Self {
            cells: self.cells,
            bits: bits.zip(&other.bits).map(|(a, b)| a | b).collect(),
            fences: fences.zip(&other.fences).map(|(a, b)| a + b).collect(),
        }
    }

    /// The cell holding `y`, clamped onto the grid (the cast saturates, so a
    /// negative or NaN `y` lands in cell 0).
    fn cell(&self, y: f64) -> usize {
        ((y * self.cells as f64) as usize).min(self.cells - 1)
    }

    /// An index range holding every mark in `[from − PAD, to + PAD]`: the
    /// marks of the words the interval touches, or nothing when the bitmap
    /// shows its cells empty. Intervals reaching past two words are not
    /// scanned — they are all but surely occupied.
    fn span(&self, from: f64, to: f64) -> (usize, usize) {
        let (first, last) = (self.cell(from - PAD), self.cell(to + PAD));
        let (w0, w1) = (first / 64, last / 64);
        let from_first = !0u64 << (first % 64);
        let upto_last = !0u64 >> (63 - last % 64);
        let occupied = match w1 - w0 {
            0 => self.bits[w0] & from_first & upto_last != 0,
            1 => self.bits[w0] & from_first != 0 || self.bits[w1] & upto_last != 0,
            _ => true,
        };
        if occupied {
            (self.fences[w0] as usize, self.fences[w1 + 1] as usize)
        } else {
            (0, 0)
        }
    }
}

impl SortedMarks {
    /// Build from arbitrary marks: those outside `[0, 1)` (non-finite ones
    /// included) never match and are dropped, the rest sorted.
    pub(crate) fn from_unsorted(mut marks: Vec<f64>) -> Self {
        marks.retain(in_unit);
        marks.sort_unstable_by(f64::total_cmp);
        Self::from_sorted(marks, None)
    }

    /// Build from marks in `[0, 1)` already sorted ascending by
    /// [`f64::total_cmp`] — what [`sorted_in_unit`] and [`merge_runs`] return.
    /// `cells` fixes the filter's resolution when the caller needs runs on a
    /// common grid; otherwise the run's length picks it.
    pub(super) fn from_sorted(marks: Vec<f64>, cells: Option<usize>) -> Self {
        debug_assert!(marks.windows(2).all(|w| unit_key(w[0]) <= unit_key(w[1])));
        debug_assert!(marks.iter().all(in_unit));
        let filter = (marks.len() >= FILTER_MIN_MARKS).then(|| {
            let cells = cells.unwrap_or_else(|| build_cells(marks.len()));
            Occupancy::build(&marks, cells)
        });
        Self { marks, filter }
    }

    /// The stable merge of two runs (ties keep `older` first). On a common
    /// grid that still has [`FILTER_MIN_CELLS_PER_MARK`] the filters compose;
    /// otherwise the merged run's is built afresh.
    pub(super) fn merged(older: &Self, newer: &Self) -> Self {
        let marks = merge_runs(&older.marks, &newer.marks);
        match (&older.filter, &newer.filter) {
            (Some(a), Some(b))
                if a.cells == b.cells && a.cells >= FILTER_MIN_CELLS_PER_MARK * marks.len() =>
            {
                Self {
                    marks,
                    filter: Some(a.union(b)),
                }
            }
            _ => Self::from_sorted(marks, None),
        }
    }

    /// The sorted marks.
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.marks
    }

    /// Number of marks.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.marks.len()
    }

    /// Whether the run holds no marks.
    pub(crate) fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// How many marks satisfy `(mark + rot) % 1.0 < theta`, for a rotation
    /// `rot ∈ [0, 1)` — the same count, bit for bit, as a linear scan of that
    /// predicate over the marks (a NaN or non-positive `theta` matches
    /// nothing, `theta ≥ 1` everything).
    pub(crate) fn count_matches(&self, theta: f64, rot: f64) -> usize {
        // Not `theta <= 0.0`, which would let a NaN through.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(theta > 0.0) {
            return 0;
        }
        if theta >= 1.0 {
            return self.marks.len();
        }
        // The wrapped matches: past the wrap point, below `1 − rot + θ`.
        let wrap_at = 1.0 - rot;
        let near_wrap = self.near(wrap_at, wrap_at + theta);
        let wrap = near_wrap.partition_point(|m| m + rot < 1.0);
        let wrapped = near_wrap[wrap..].partition_point(|m| m + rot - 1.0 < theta);
        // The unwrapped ones, below `θ − rot`: none unless `θ > rot`, and
        // (as `θ < 1`) all before the wrap point.
        let unwrapped = if theta > rot {
            self.near(0.0, theta - rot)
                .partition_point(|m| m + rot < theta)
        } else {
            0
        };
        wrapped + unwrapped
    }

    /// A stretch of the run holding every mark in `[from − PAD, to + PAD]`,
    /// preceded only by marks below and followed only by marks above it:
    /// what the filter leaves, or without one the whole run.
    fn near(&self, from: f64, to: f64) -> &[f64] {
        match &self.filter {
            Some(filter) => {
                let (a, b) = filter.span(from, to);
                &self.marks[a..b]
            }
            None => &self.marks,
        }
    }
}

/// Whether a mark can match at all: the ones outside `[0, 1)` — non-finite
/// or merely out of range — never do and stay out of every run.
pub(super) fn in_unit(mark: &f64) -> bool {
    (0.0..1.0).contains(mark)
}

/// The filter resolution a run of `len` marks is built at.
pub(super) fn build_cells(len: usize) -> usize {
    (FILTER_BUILD_CELLS_PER_MARK * len).next_power_of_two()
}

/// The [`f64::total_cmp`] order of marks in `[0, 1)` as an integer: there
/// the IEEE bits, read as a signed integer, already sort like the values
/// (`-0.0`, the one negative pattern in range, first), so the sign-magnitude
/// flip `total_cmp` applies to cover negative numbers is the identity.
pub(super) fn unit_key(mark: f64) -> i64 {
    mark.to_bits() as i64
}

/// The reusable buffers of [`sorted_in_unit`].
#[derive(Debug, Clone, Default)]
pub(super) struct TickSortScratch {
    /// Each mark's bucket.
    bucket_of: Vec<u32>,
    /// Marks per bucket, then the buckets' scatter cursors.
    counts: Vec<u32>,
}

/// The entries of `marks` in `[0, 1)`, ascending by [`f64::total_cmp`] — one
/// tick's sorted run — by a counting sort on the value.
///
/// `B = 2·next_power_of_two(len)` buckets split `[0, 1)` evenly; `(m·B) as
/// u32` is exact (`B` is a power of two) and monotone, so bucket order is
/// value order. One pass finds each mark's bucket — the marks outside
/// `[0, 1)` go to an extra bucket `B` past the others, which is how the
/// `in_unit` filter rides along without a branch — and counts them; a prefix
/// sum turns counts into bucket starts, a second pass scatters, the extra
/// bucket is cut off the end, and one insertion pass orders each bucket —
/// which rarely moves a mark, since buckets average ≤ 0.5 of them. Should
/// the marks cluster, the insertion pass stops after `2·len` moves and the
/// run goes to `sort_unstable` on the integer keys, so the worst case stays
/// O(n log n).
///
/// Measured on uniform 418-mark ticks (Q2 at 5×; 2-core x86-64 box): 6.6 ns
/// per mark, where `sort_unstable` on the integer keys took 11.2–12.4.
/// Finding the bucket twice, in the count and the scatter pass, behind an
/// `in_unit` branch took 7.4 ns — and on thin ticks of ~4 marks ~10% longer
/// than `sort_unstable`, with which this form is level there. That variant
/// also showed why the cast goes through `u32`: with `as usize` and `i64`
/// counts it took 10.5 ns, the saturating f64→u64 cast being the cost.
pub(super) fn sorted_in_unit(marks: &[f64], scratch: &mut TickSortScratch) -> Vec<f64> {
    let TickSortScratch { bucket_of, counts } = scratch;
    let buckets = 2 * marks.len().next_power_of_two();
    let scale = buckets as f64;
    bucket_of.clear();
    bucket_of.extend(marks.iter().map(|&m| {
        if in_unit(&m) {
            (m * scale) as u32
        } else {
            buckets as u32
        }
    }));
    counts.clear();
    counts.resize(buckets + 2, 0);
    for &b in bucket_of.iter() {
        counts[b as usize + 1] += 1;
    }
    // A running sum in a register: `counts[b] += counts[b − 1]` chains each
    // step through memory and made the whole sort 70% slower.
    let mut below = 0;
    for count in counts.iter_mut() {
        below += *count;
        *count = below;
    }
    let mut run = vec![0.0; marks.len()];
    for (&m, &b) in marks.iter().zip(bucket_of.iter()) {
        let at = &mut counts[b as usize];
        run[*at as usize] = m;
        *at += 1;
    }
    // Bucket `B − 1`'s cursor now sits where the out-of-range marks begin.
    run.truncate(counts[buckets - 1] as usize);
    let mut budget = 2 * run.len();
    for k in 1..run.len() {
        let (m, key) = (run[k], unit_key(run[k]));
        let mut at = k;
        while at > 0 && unit_key(run[at - 1]) > key {
            run[at] = run[at - 1];
            at -= 1;
        }
        run[at] = m;
        if k - at > budget {
            run.sort_unstable_by_key(|&m| unit_key(m));
            break;
        }
        budget -= k - at;
    }
    run
}

/// Merge two ascending (by [`f64::total_cmp`]) runs into one; ties keep
/// `older` first, exactly like a stable two-pointer merge.
///
/// Take-older/take-newer is a *select* on the integer keys, not a branch:
/// both heads are loaded, the smaller one's bits are stored, and the two
/// cursors advance by 0 or 1. (The select is on the bit patterns because a
/// select between two `f64` registers compiles back into a branch.) Measured
/// merging every tick's run into the window over 2,500 Q2 ticks: a plain
/// two-pointer merge with a data-dependent branch took 862 ms — *slower*
/// than the galloping bulk-copy merge this replaced (529 ms), since sorted
/// runs of uniform marks interleave at random and every other branch
/// mispredicts — while the select form took 248 ms.
///
/// The merge runs from both ends at once: a front cursor pair emits the
/// smallest remaining mark (taking `newer` only when strictly smaller) and a
/// back cursor pair the largest (taking `older` only when strictly larger),
/// which gives each step two independent dependency chains where a one-ended
/// merge is a single chain bound by latency. Two uniform 418-mark runs merge
/// at 1.95 ns per output mark against 3.3 one-ended (2-core x86-64 box), and
/// the new-end merges of `profile_shard q2 5` fell from 21.9 to 15.1 ns per
/// mark. The output is bit-identical to a stable merge.
pub(super) fn merge_runs(older: &[f64], newer: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; older.len() + newer.len()];
    let (mut i, mut j) = (0, 0);
    let (mut ie, mut je) = (older.len(), newer.len());
    loop {
        // Each step takes at most two marks from either run, so neither can
        // run dry within this many steps and the inner loop carries no
        // exhaustion test.
        let steps = (ie - i).min(je - j) / 2;
        if steps == 0 {
            break;
        }
        for _ in 0..steps {
            let (a, b) = (older[i], newer[j]);
            let take_newer = unit_key(b) < unit_key(a);
            out[i + j] = f64::from_bits(if take_newer { b.to_bits() } else { a.to_bits() });
            i += usize::from(!take_newer);
            j += usize::from(take_newer);

            let (a, b) = (older[ie - 1], newer[je - 1]);
            let take_older = unit_key(a) > unit_key(b);
            out[ie + je - 1] = f64::from_bits(if take_older { a.to_bits() } else { b.to_bits() });
            ie -= usize::from(take_older);
            je -= usize::from(!take_older);
        }
    }
    // The short tail — one run has at most one mark left: the front alone,
    // until a run is used up.
    while i < ie && j < je {
        let (a, b) = (older[i], newer[j]);
        let take_newer = unit_key(b) < unit_key(a);
        out[i + j] = f64::from_bits(if take_newer { b.to_bits() } else { a.to_bits() });
        i += usize::from(!take_newer);
        j += usize::from(take_newer);
    }
    out[i + j..ie + j].copy_from_slice(&older[i..ie]);
    out[ie + j..ie + je].copy_from_slice(&newer[j..je]);
    out
}

/// A probe snapshot expressed as *sorted terms*: the live mark multiset is
/// the union of the terms. Because [`SortedMarks::count_matches`] is an exact
/// integer count and counting is additive over multisets, summing the terms'
/// counts gives exactly the count a fully consolidated snapshot would — which
/// is what lets [`WindowPartition`] publish a few runs instead of re-merging
/// the whole window every tick.
///
/// Cloning is cheap (per-term `Arc` bumps); a consolidated snapshot or a
/// static lookup table is the degenerate case of one term.
#[derive(Debug, Clone, Default)]
pub(crate) struct MarkTerms {
    terms: Vec<Arc<SortedMarks>>,
}

impl MarkTerms {
    /// A snapshot made of the given terms.
    pub(crate) fn new(terms: Vec<Arc<SortedMarks>>) -> Self {
        Self { terms }
    }

    /// The single-term snapshot: one consolidated sorted run.
    pub(crate) fn single(marks: Arc<SortedMarks>) -> Self {
        Self { terms: vec![marks] }
    }

    /// The terms.
    #[cfg(test)]
    pub(crate) fn terms(&self) -> &[Arc<SortedMarks>] {
        &self.terms
    }

    /// How many live marks satisfy `(mark + rot) % 1.0 < theta` — the sum
    /// over terms, exactly equal to probing the consolidated multiset.
    pub(crate) fn count_matches(&self, theta: f64, rot: f64) -> usize {
        self.terms.iter().map(|t| t.count_matches(theta, rot)).sum()
    }
}
