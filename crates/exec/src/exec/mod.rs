//! Tuple-level operator execution — the dataplane half of [`OperatorSpec`].
//!
//! The compile-time stack reasons about operators purely through their cost
//! and selectivity *estimates*; this module gives every operator an
//! executable form so a runtime backend can push real tuples through real
//! operator state. There is **one kernel**: a plan (or any consecutive run
//! of its operators) compiles into a [`FusedChain`] evaluated over a
//! struct-of-arrays [`ColumnBatch`] with selection vectors, and the
//! executor of `rld-exec` evaluates each routed plan as a sequence of such
//! chains — one per run of operators its placement pins to one node.
//!
//! The batch is **typed by the query**: [`ColumnBatch::for_driving`] builds
//! one [`Column`] per application field of the driving stream's schema, of
//! the type the schema declares, plus one `Float` match column per operator.
//! There are no nulls and no dynamically typed cells, so every step reads
//! its match column as a plain `&[f64]` — and a batch that does not carry
//! that column as floats is an [`RldError::InvalidArgument`], not a silent
//! "no match".
//!
//! * **Filters** have one form, `match < s_est`: a branch-free compaction
//!   of the selection over the match column's slice, comparing with
//!   [`f64::total_cmp`].
//! * **Projections** are the identity over the driving batch and fuse to a
//!   pass-through that checks the batch's width.
//! * **Lookup joins** probe a seeded in-memory table of `table_size`
//!   entries.
//! * **Window joins** probe real sliding-window state: a
//!   [`WindowPartition`] per partner stream ([`WindowPartition::advance`]
//!   inserts the tick's partner arrivals and evicts the expired ones),
//!   published to the chain as an immutable [`ProbeSet`] snapshot.
//!
//! Both joins probe sorted runs of marks ([`SortedMarks`]) row by row, in
//! whatever order the selection has: every run carries its own read path —
//! an occupancy bitmap that tells whether a probe's match interval can hold
//! a mark at all, and fence pointers that bracket the exact searches when it
//! can — so a count is bit-identical to the defining linear scan while most
//! (probe, run) pairs read no mark.
//!
//! ## The match-column convention
//!
//! Executed selectivities must *track the workload's ground truth* so that
//! the statistics observed on the dataplane agree with what the statistics
//! monitor is modelled to report. At the same time operators must stay
//! statistically independent (the cost model multiplies selectivities), so
//! predicates cannot all read the same application field. The generators in
//! [`crate::tuples`] therefore append one *match column* per operator to
//! every driving tuple, after the application fields:
//!
//! ```text
//! driving tuple:  [ app fields .. | match_0 | match_1 | .. | match_{k-1} ]
//! partner tuple:  ( timestamp, mark )
//! ```
//!
//! * For a **filter**, the generator draws `u ~ U(0,1)` and writes
//!   `u * s_est / s_true(t)` into the operator's match column; the compiled
//!   predicate is the fixed comparison `match < s_est`, which then passes
//!   with probability exactly `s_true(t)`. The predicate never changes — the
//!   *data* does, exactly as in a real deployment.
//! * For a **window join**, the match column carries the per-window-tuple
//!   match threshold `θ = s_true(t) / (rate_partner · window)`; partner
//!   tuples carry a mark `u ~ U(0,1)` and match when the mark, rotated by a
//!   per-tuple hash, falls below `θ` (a mark outside `[0, 1)` never
//!   matches). The observed fan-out is `θ ×` (actual window occupancy) — it
//!   fluctuates with the real window contents, as a similarity join's would.
//! * For a **lookup join**, the match column carries
//!   `θ = s_true(t) / table_size` and a table entry matches when its mark,
//!   rotated by a per-tuple hash, falls below `θ` — so distinct driving
//!   tuples see distinct match subsets of the same static table.
//!
//! Every evaluated chain step reports its input/output counts
//! ([`OpCounts`]); folded into the [`CompiledOp`]s
//! ([`CompiledOp::note_observed`]) they give the selectivities the dataplane
//! actually observed ([`CompiledOp::fold_observed_into`]), which a backend
//! can feed to the statistics monitor.

mod batch;
mod chain;
mod marks;
#[cfg(test)]
mod profile;
mod window;

#[cfg(test)]
pub(crate) use batch::match_field;
pub(crate) use batch::{driving_arity, ColumnBatch};
pub(crate) use chain::{CompiledOp, FusedChain, OpCounts, ProbeSet};
pub(crate) use marks::MarkTerms;
pub(crate) use window::WindowPartition;

#[cfg(test)]
mod tests {
    use super::batch::*;
    use super::chain::*;
    use super::marks::*;
    use super::window::*;
    use crate::column::Column;
    use proptest::prelude::*;
    use rand::RngExt;
    use rld_common::rng::{derive_seed, rng_from_seed};
    use rld_common::{OperatorId, OperatorSpec, Query, RldError, StreamId};
    use std::collections::VecDeque;
    use std::sync::Arc;

    fn q1() -> Query {
        Query::q1_stock_monitoring()
    }

    fn compile_all(query: &Query, seed: u64) -> Vec<CompiledOp> {
        query
            .operators
            .iter()
            .map(|spec| CompiledOp::compile(query, spec, seed))
            .collect()
    }

    /// Append one row to a batch built by [`ColumnBatch::for_driving`]:
    /// placeholder application cells of each column's type, and operator
    /// `op`'s match column set to `theta(op)`, drawn in operator order.
    fn push_row(query: &Query, cb: &mut ColumnBatch, ts: u64, mut theta: impl FnMut(usize) -> f64) {
        let app = match_field(query, 0);
        let (timestamps, columns) = cb.parts_mut();
        timestamps.push(ts);
        for (field, column) in columns.iter_mut().enumerate() {
            match column {
                Column::Float(v) if field >= app => v.push(theta(field - app)),
                Column::Float(v) => v.push(0.0),
                Column::Int(v) => v.push(0),
                Column::Text(v) => v.push(Arc::from("")),
                Column::Bool(v) => v.push(false),
                Column::Timestamp(v) => v.push(ts),
            }
        }
    }

    /// A driving batch of `(timestamp, theta)` rows: every match column of
    /// a row set to its `theta`.
    fn driving_batch(query: &Query, rows: &[(u64, f64)]) -> ColumnBatch {
        let mut cb = ColumnBatch::for_driving(query);
        for &(ts, theta) in rows {
            push_row(query, &mut cb, ts, |_| theta);
        }
        cb
    }

    /// A batch whose only columns are `columns`, `rows` rows long — the
    /// shape of a batch that was not built for the chain's query.
    fn foreign_batch(rows: usize, columns: Vec<Column>) -> ColumnBatch {
        ColumnBatch {
            timestamps: (0..rows as u64).collect(),
            columns,
        }
    }

    /// The match-column cell at `(row, field)`.
    fn match_cell(cb: &ColumnBatch, row: usize, field: usize) -> f64 {
        cb.column(field).and_then(Column::floats).unwrap()[row]
    }

    /// The probe epoch of a set of compiled operators: every lookup table as
    /// its single static partition, plus the given window partitions.
    fn probe_set(ops: &[CompiledOp], windows: &[(OperatorId, &WindowPartition)]) -> ProbeSet {
        let mut probes = ProbeSet::new(ops.len());
        for (i, op) in ops.iter().enumerate() {
            if let Some(marks) = op.probe_marks() {
                probes.set_partition(OperatorId::new(i), 0, MarkTerms::single(marks));
            }
        }
        for (op, part) in windows {
            probes.set_partition(*op, 0, part.snapshot());
        }
        probes
    }

    /// Number of live marks a snapshot's terms represent.
    fn live_len(snap: &MarkTerms) -> usize {
        snap.terms().iter().map(|t| t.len()).sum()
    }

    /// A snapshot's terms consolidated into one sorted run.
    fn flatten(snap: &MarkTerms) -> SortedMarks {
        let merged = snap.terms().iter().fold(Vec::new(), |merged, term| {
            merge_runs(&merged, term.as_slice())
        });
        SortedMarks::from_sorted(merged, None)
    }

    /// Evaluate a chain over `sel`, returning the surviving selection and
    /// the per-step counts.
    fn run_chain(
        chain: &FusedChain,
        cb: &ColumnBatch,
        probes: &ProbeSet,
        mut sel: Vec<u32>,
    ) -> (Vec<u32>, Vec<OpCounts>) {
        let mut counts = Vec::new();
        chain
            .eval(cb, probes, &mut sel, &mut Vec::new(), &mut counts)
            .unwrap();
        (sel, counts)
    }

    /// The scalar reference the fused kernels are checked against: operator
    /// by operator, row by row — filters as the scalar `match < s_est`,
    /// probes through the defining linear scan `(mark + rot) % 1.0 < theta`
    /// over the operator's live marks (`live[op]`, any order).
    fn reference_eval(
        ops: &[CompiledOp],
        ordering: &[OperatorId],
        live: &[Vec<f64>],
        cb: &ColumnBatch,
    ) -> (Vec<u32>, Vec<OpCounts>) {
        let mut sel = cb.identity_sel();
        let mut counts = Vec::new();
        for id in ordering {
            if sel.is_empty() {
                break;
            }
            let op = &ops[id.index()];
            let mut next = Vec::new();
            for &r in &sel {
                let row = r as usize;
                let n = match &op.state {
                    OpState::Filter { threshold } => {
                        (match_cell(cb, row, op.match_field) < *threshold) as usize
                    }
                    OpState::Project { .. } => 1,
                    OpState::Lookup { .. } | OpState::Window { .. } => {
                        let theta = match_cell(cb, row, op.match_field);
                        let rot = probe_rotation(cb.timestamps()[row], *id);
                        live[id.index()]
                            .iter()
                            .filter(|m| (*m + rot) % 1.0 < theta)
                            .count()
                    }
                };
                next.extend(std::iter::repeat_n(r, n));
            }
            counts.push(OpCounts {
                op: *id,
                inputs: sel.len() as u64,
                outputs: next.len() as u64,
            });
            sel = next;
        }
        (sel, counts)
    }

    /// Warm one [`WindowPartition`] per window join of `query` with `n`
    /// random marks each; returns the partitions and, per operator, the live
    /// marks a scalar probe scans (lookup tables included).
    fn warm_windows(
        query: &Query,
        ops: &[CompiledOp],
        n: usize,
        rng: &mut rld_common::rng::SeededRng,
    ) -> (Vec<(OperatorId, WindowPartition)>, Vec<Vec<f64>>) {
        let window_ms = (query.window_secs * 1000.0) as u64;
        let mut parts = Vec::new();
        let mut live = vec![Vec::new(); ops.len()];
        for (i, op) in ops.iter().enumerate() {
            if op.partner_stream().is_some() {
                let ts: Vec<u64> = (0..n as u64).map(|k| k * 17).collect();
                let marks: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
                let mut part = WindowPartition::new(window_ms);
                part.advance(0, &ts, &marks);
                parts.push((OperatorId::new(i), part));
                live[i] = marks;
            } else if let Some(table) = op.probe_marks() {
                live[i] = table.as_slice().to_vec();
            }
        }
        (parts, live)
    }

    #[test]
    fn filter_passes_match_column_below_estimate() {
        let q = q1();
        let filter = OperatorSpec::filter(OperatorId::new(0), "f", 1.0, 0.4);
        let mut ops = [CompiledOp::compile(&q, &filter, 7)];
        let chain = FusedChain::compile(&ops, &[OperatorId::new(0)]).unwrap();
        // Match column value below the 0.4 estimate passes, above fails.
        let cb = driving_batch(&q, &[(0, 0.39), (1, 0.41)]);
        let (sel, counts) = run_chain(&chain, &cb, &ProbeSet::new(1), cb.identity_sel());
        assert_eq!(sel, vec![0]);
        for c in &counts {
            ops[c.op.index()].note_observed(c.inputs, c.outputs);
        }
        let obs = ops[0].observed();
        assert_eq!((obs.inputs, obs.outputs), (2, 1));
        assert_eq!(obs.selectivity(), Some(0.5));
    }

    #[test]
    fn window_join_probes_real_window_state() {
        let q = q1();
        // op1 joins the News stream (id 1).
        let op1 = OperatorId::new(1);
        let ops = compile_all(&q, 7);
        assert_eq!(ops[1].partner_stream(), Some(StreamId::new(1)));
        assert!(ops[1].probe_marks().is_none(), "window state is not static");
        let chain = FusedChain::compile(&ops, &[op1]).unwrap();
        let probe = |part: &WindowPartition, rows: &[(u64, f64)]| {
            let cb = driving_batch(&q, rows);
            let probes = probe_set(&ops, &[(op1, part)]);
            run_chain(&chain, &cb, &probes, cb.identity_sel()).0.len()
        };

        // Insert 4 partner tuples: marks 0.1, 0.2, 0.6, 0.9.
        let mut part = WindowPartition::new((q.window_secs * 1000.0) as u64);
        part.advance(3, &[0, 1, 2, 3], &[0.1, 0.2, 0.6, 0.9]);
        assert_eq!(part.len(), 4);

        // θ = 0 matches nothing, θ = 1 matches the whole window.
        assert_eq!(probe(&part, &[(10, 0.0)]), 0);
        assert_eq!(probe(&part, &[(10, 1.0)]), 4);
        // θ = 0.5 matches ~half the window on average (per-tuple rotation).
        let rows: Vec<(u64, f64)> = (0..500u64).map(|ts| (ts * 97, 0.5)).collect();
        let avg = probe(&part, &rows) as f64 / 500.0;
        assert!((avg - 2.0).abs() < 0.4, "avg matches {avg}");

        // A partner tuple without a numeric mark never matches, even
        // though the probe rotation wraps modulo 1.
        part.advance(5, &[5], &[f64::INFINITY]);
        assert_eq!(part.len(), 5);
        for ts in 0..50u64 {
            assert_eq!(
                probe(&part, &[(ts * 131, 1.0)]),
                4,
                "markless entry must never match"
            );
        }

        // Expiry: window is 60 s; at t = 70 s every entry (ts < 10 s) is gone.
        part.advance(70_000, &[], &[]);
        assert_eq!(part.len(), 0);
        assert_eq!(
            probe(&part, &[(70_000, 1.0)]),
            0,
            "empty window matches nothing"
        );

        // A window join without a published snapshot is an error, not an
        // empty result.
        let cb = driving_batch(&q, &[(0, 1.0)]);
        let mut sel = cb.identity_sel();
        assert!(chain
            .eval(
                &cb,
                &ProbeSet::new(ops.len()),
                &mut sel,
                &mut Vec::new(),
                &mut Vec::new(),
            )
            .is_err());
    }

    #[test]
    fn lookup_join_matches_a_theta_fraction_of_the_table() {
        let q = q1();
        let ops = compile_all(&q, 7);
        let op0 = OperatorId::new(0); // match_bullish, table of 500
        let chain = FusedChain::compile(&ops, &[op0]).unwrap();
        let probes = probe_set(&ops, &[]);
        let matches = |rows: &[(u64, f64)]| {
            let cb = driving_batch(&q, rows);
            run_chain(&chain, &cb, &probes, cb.identity_sel()).0.len()
        };
        // θ = 0 matches nothing; θ = 1 matches the whole table.
        assert_eq!(matches(&[(0, 0.0)]), 0);
        assert_eq!(matches(&[(0, 1.0)]), 500);
        // Over many tuples, θ = 2/500 averages ≈ 2 matches per tuple.
        let rows: Vec<(u64, f64)> = (0..400u64).map(|ts| (ts * 37, 2.0 / 500.0)).collect();
        let avg = matches(&rows) as f64 / 400.0;
        assert!((avg - 2.0).abs() < 0.5, "avg matches {avg}");
    }

    #[test]
    fn lookup_tables_are_seed_deterministic() {
        let q = q1();
        let table = |seed: u64| {
            CompiledOp::compile(&q, &q.operators[0], seed)
                .probe_marks()
                .unwrap()
        };
        assert_eq!(table(42).as_slice(), table(42).as_slice());
        assert_eq!(table(42).len(), 500);
        assert_ne!(
            table(42).as_slice(),
            table(43).as_slice(),
            "different seeds must yield different tables"
        );
    }

    #[test]
    fn project_evaluates_its_column_list() {
        let q = q1();
        let spec = OperatorSpec::project(OperatorId::new(0), "p", 0.1);
        let ops = [CompiledOp::compile(&q, &spec, 7)];
        let chain = FusedChain::compile(&ops, &[OperatorId::new(0)]).unwrap();
        // The projection is the identity over the driving arity: every
        // selected row passes through once, unchanged.
        let cb = driving_batch(&q, &[(5, 0.3), (6, 0.9)]);
        let (sel, counts) = run_chain(&chain, &cb, &ProbeSet::new(1), vec![1, 0, 1]);
        assert_eq!(sel, vec![1, 0, 1]);
        assert_eq!((counts[0].inputs, counts[0].outputs), (3, 3));
        // A batch of any other width does not carry the listed columns.
        let narrow = foreign_batch(1, vec![Column::Int(vec![1])]);
        let mut sel = narrow.identity_sel();
        assert!(chain
            .eval(
                &narrow,
                &ProbeSet::new(1),
                &mut sel,
                &mut Vec::new(),
                &mut Vec::new(),
            )
            .is_err());
    }

    #[test]
    fn empty_batches_short_circuit() {
        let q = q1();
        let mut ops = compile_all(&q, 7);
        // θ = 0 on the first (lookup) operator kills the batch; later ops see
        // no input and keep their estimate in the observed stats.
        let rows: Vec<(u64, f64)> = (0..5).map(|i| (i, 0.0)).collect();
        let cb = driving_batch(&q, &rows);
        let (parts, _) = warm_windows(&q, &ops, 3, &mut rng_from_seed(7));
        let windows: Vec<_> = parts.iter().map(|(op, p)| (*op, p)).collect();
        let chain = FusedChain::compile(&ops, &q.operator_ids()).unwrap();
        let (sel, counts) = run_chain(&chain, &cb, &probe_set(&ops, &windows), cb.identity_sel());
        assert!(sel.is_empty());
        for c in &counts {
            ops[c.op.index()].note_observed(c.inputs, c.outputs);
        }
        let mut obs = q.default_stats();
        for op in &ops {
            op.fold_observed_into(&mut obs);
        }
        assert_eq!(obs.selectivity(OperatorId::new(0)), Some(0.0));
        assert_eq!(
            obs.selectivity(OperatorId::new(1)),
            Some(q.operators[1].selectivity_estimate),
            "unseen operators report their estimate"
        );
    }

    #[test]
    fn compiled_query_executes_whole_plans() {
        let q = q1();
        let mut ops = compile_all(&q, 7);
        // Fill every partner window with a few tuples so θ = 1 probes match.
        let (parts, _) = warm_windows(&q, &ops, 3, &mut rng_from_seed(7));
        let windows: Vec<_> = parts.iter().map(|(op, p)| (*op, p)).collect();
        let probes = probe_set(&ops, &windows);
        let chain = FusedChain::compile(&ops, &q.operator_ids()).unwrap();
        let rows: Vec<(u64, f64)> = (0..4).map(|i| (i, 1.0)).collect();
        let cb = driving_batch(&q, &rows);
        let (sel, counts) = run_chain(&chain, &cb, &probes, cb.identity_sel());
        // Every row matches the whole 500-entry table, then all 3 entries
        // of each of the four windows.
        assert_eq!(sel.len(), 4 * 500 * 3usize.pow(4));
        // Observed stats cover every operator that saw input.
        for c in &counts {
            ops[c.op.index()].note_observed(c.inputs, c.outputs);
        }
        assert_eq!(counts.len(), q.num_operators());
        assert_eq!(ops[0].observed().selectivity(), Some(500.0));
        assert_eq!(ops[4].observed().selectivity(), Some(3.0));
    }

    #[test]
    fn match_column_layout() {
        let q = q1();
        let app = q.streams[0].schema.len();
        assert_eq!(match_field(&q, 0), app);
        assert_eq!(match_field(&q, 4), app + 4);
        assert_eq!(driving_arity(&q), app + 5);
    }

    #[test]
    fn sorted_marks_count_matches_the_linear_scan_bit_for_bit() {
        let mut rng = rng_from_seed(derive_seed(11, "sorted-marks"));
        for n in [0usize, 1, 2, 3, 17, 500] {
            let marks: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
            let sorted = SortedMarks::from_unsorted(marks.clone());
            assert_eq!(sorted.len(), n);
            for _ in 0..40 {
                let theta = match rng.random_range(0u32..4) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.random_range(0.0..1.0),
                };
                let rot = rng.random_range(0.0..1.0);
                assert_eq!(
                    sorted.count_matches(theta, rot),
                    linear_scan(&marks, theta, rot),
                    "n={n} theta={theta} rot={rot}"
                );
            }
        }
        // Duplicates and exact-boundary sums stay consistent too.
        let dup = SortedMarks::from_unsorted(vec![0.25; 10]);
        assert_eq!(dup.count_matches(0.5, 0.75), 10, "0.25+0.75 wraps to 0.0");
        assert_eq!(dup.count_matches(0.0, 0.0), 0);
        // Non-finite marks are dropped, matching the window probe's guard.
        let inf = SortedMarks::from_unsorted(vec![f64::INFINITY, 0.1]);
        assert_eq!(inf.len(), 1);
        assert_eq!(inf.count_matches(1.0, 0.0), 1);
    }

    /// The defining linear scan every probe count is pinned against.
    fn linear_scan(marks: &[f64], theta: f64, rot: f64) -> usize {
        marks.iter().filter(|m| (*m + rot) % 1.0 < theta).count()
    }

    /// A run's filter is exactly what a build over its marks gives at that
    /// resolution, fine enough for its length — and runs under the minimum
    /// length carry none.
    fn assert_filter_describes_the_marks(run: &SortedMarks) {
        match &run.filter {
            Some(filter) => {
                assert!(run.len() >= FILTER_MIN_MARKS);
                assert!(filter.cells >= FILTER_MIN_CELLS_PER_MARK * run.len());
                assert_eq!(*filter, Occupancy::build(&run.marks, filter.cells));
            }
            None => assert!(run.len() < FILTER_MIN_MARKS),
        }
    }

    /// Marks outside `[0, 1)` — negative, 1.0 and beyond, NaN, ±∞ — never
    /// match: a run fed them beside ordinary marks counts exactly what the
    /// run without them counts (also in release builds, where the old
    /// `debug_assert!` let them through), and in a window they stay resident
    /// without reaching the snapshot.
    #[test]
    fn marks_outside_the_unit_interval_never_match() {
        let mut rng = rng_from_seed(derive_seed(41, "out-of-range"));
        let strays = [-0.5, 1.0, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for n in [3usize, 40, 700] {
            let clean: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
            let mut mixed = clean.clone();
            for (k, stray) in strays.iter().enumerate() {
                mixed.insert((k * 7) % mixed.len(), *stray);
            }
            let run = SortedMarks::from_unsorted(mixed.clone());
            assert_eq!(
                run.as_slice(),
                SortedMarks::from_unsorted(clean.clone()).as_slice()
            );
            assert_filter_describes_the_marks(&run);
            let ts: Vec<u64> = (0..mixed.len() as u64).collect();
            let mut part = WindowPartition::new(60_000);
            part.advance(0, &ts, &mixed);
            assert_eq!(part.len(), mixed.len(), "strays stay resident");
            let snap = part.snapshot();
            assert_eq!(live_len(&snap), n);
            for _ in 0..50 {
                let theta = rng.random_range(0.0..1.2);
                let rot = rng.random_range(0.0..1.0);
                let expect = linear_scan(&clean, theta, rot);
                assert_eq!(run.count_matches(theta, rot), expect);
                assert_eq!(snap.count_matches(theta, rot), expect);
            }
        }
    }

    /// A run under the minimum filtered length carries no filter, one at it
    /// does, and both count like the linear scan.
    #[test]
    fn short_runs_carry_no_filter_and_count_right() {
        let mut rng = rng_from_seed(derive_seed(43, "short-runs"));
        for n in [FILTER_MIN_MARKS - 1, FILTER_MIN_MARKS] {
            let marks: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
            let run = SortedMarks::from_unsorted(marks.clone());
            assert_eq!(run.filter.is_some(), n >= FILTER_MIN_MARKS);
            assert_filter_describes_the_marks(&run);
            for theta in [2e-5, 0.01, 0.3] {
                for _ in 0..200 {
                    let rot = rng.random_range(0.0..1.0);
                    assert_eq!(
                        run.count_matches(theta, rot),
                        linear_scan(&marks, theta, rot),
                        "n={n} theta={theta} rot={rot}"
                    );
                }
            }
        }
    }

    /// Filters compose under merge: on a common grid that is still fine
    /// enough, the merged run's filter is the OR / element-wise sum of its
    /// inputs' and equals, bit for bit, the one built from the merged marks;
    /// unequal grids or a too-coarse result fall back to a rebuild.
    #[test]
    fn filters_compose_under_merge_or_are_rebuilt() {
        let mut rng = rng_from_seed(derive_seed(47, "filter-merge"));
        let mut run = |n: usize, cells: usize| {
            let mut marks: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
            marks.sort_unstable_by(f64::total_cmp);
            SortedMarks::from_sorted(marks, Some(cells))
        };
        let cells_of = |run: &SortedMarks| run.filter.as_ref().map(|f| f.cells);

        // Common grid, fine enough: composed, at the inputs' resolution.
        let (a, b) = (run(300, 2048), run(330, 2048));
        let merged = SortedMarks::merged(&a, &b);
        assert_eq!(cells_of(&merged), Some(2048));
        assert_filter_describes_the_marks(&merged);
        let (fa, fb) = (a.filter.as_ref().unwrap(), b.filter.as_ref().unwrap());
        assert_eq!(merged.filter, Some(fa.union(fb)));

        // Common grid, but under two cells per merged mark: rebuilt finer.
        let (a, b) = (run(600, 2048), run(500, 2048));
        let merged = SortedMarks::merged(&a, &b);
        assert_eq!(cells_of(&merged), Some(build_cells(1100)));
        assert_filter_describes_the_marks(&merged);

        // Unequal grids: rebuilt. One side unfiltered: built if long enough.
        let merged = SortedMarks::merged(&run(300, 4096), &run(300, 8192));
        assert_eq!(cells_of(&merged), Some(build_cells(600)));
        assert_filter_describes_the_marks(&merged);
        let merged = SortedMarks::merged(&run(40, 2048), &run(100, 2048));
        assert_eq!(cells_of(&merged), Some(build_cells(140)));
        assert_filter_describes_the_marks(&merged);
        let merged = SortedMarks::merged(&run(20, 2048), &run(30, 2048));
        assert_eq!(cells_of(&merged), None);
        assert_filter_describes_the_marks(&merged);
    }

    /// 200 ticks whose sizes straddle a power of two (so that sizing each
    /// tick's grid by its own length would flip between two resolutions):
    /// every group and every piece keeps a filter that describes its marks,
    /// the tick runs share one grid, and the snapshot counts like the scan.
    #[test]
    fn window_filters_stay_consistent_across_straddling_ticks() {
        fn check(group: &Group) {
            assert_filter_describes_the_marks(&group.marks);
            group.pieces.iter().for_each(check);
        }
        let mut rng = rng_from_seed(derive_seed(53, "straddle"));
        let mut part = WindowPartition::new(40_000);
        let mut live: VecDeque<Vec<f64>> = VecDeque::new();
        let mut tick_grids = std::collections::BTreeSet::new();
        for tick in 0..200u64 {
            // 8 · 256 is a power of two: lengths 236..276 pick 2048 or 4096.
            let n = rng.random_range(236usize..276);
            let now_ms = tick * 1000;
            let ts: Vec<u64> = (0..n as u64).map(|i| now_ms + i).collect();
            let marks: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
            part.advance(now_ms + 999, &ts, &marks);
            live.push_back(marks);
            if live.len() > 40 {
                live.pop_front();
            }
            part.groups.iter().for_each(check);
            let newest = &part.groups.back().unwrap();
            if newest.pieces.is_empty() {
                tick_grids.insert(newest.marks.filter.as_ref().unwrap().cells);
            }
            let all: Vec<f64> = live.iter().flatten().copied().collect();
            let snap = part.snapshot();
            assert_eq!(live_len(&snap), all.len(), "tick {tick}");
            for _ in 0..8 {
                let theta = rng.random_range(0.0..2e-4);
                let rot = rng.random_range(0.0..1.0);
                assert_eq!(
                    snap.count_matches(theta, rot),
                    linear_scan(&all, theta, rot),
                    "tick {tick}"
                );
            }
        }
        assert_eq!(tick_grids.len(), 1, "the tick grid is sticky");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The read path against its definition: runs that are uniform, all
        /// in one cell, full of duplicates, sitting on or one ulp off cell
        /// boundaries or at the ends of `[0, 1)`; probes that are random, in
        /// the filter's regime, aligned to cell boundaries, or degenerate.
        #[test]
        fn read_path_counts_equal_the_linear_scan(seed in 0u64..u64::MAX, shape in 0u32..6) {
            let mut rng = rng_from_seed(derive_seed(seed, "read-path"));
            let n = match rng.random_range(0u32..4) {
                0 => rng.random_range(0usize..FILTER_MIN_MARKS),
                1 => rng.random_range(FILTER_MIN_MARKS..300),
                _ => rng.random_range(300usize..3000),
            };
            let cells = build_cells(n.max(1)) as f64;
            let below_one = 1.0 - f64::EPSILON / 2.0;
            let mut marks: Vec<f64> = (0..n)
                .map(|i| match shape {
                    0 => rng.random_range(0.0..1.0),
                    // All within one cell.
                    1 => (7.0 + rng.random_range(0.0..1.0)) / cells,
                    // Few distinct values, many duplicates.
                    2 => rng.random_range(0u32..6) as f64 / 6.0,
                    // Exactly on cell boundaries, or one ulp to either side —
                    // where `fl(m + rot)` rounds across the boundary.
                    3 => (rng.random_range(0.0..cells) as u64) as f64 / cells,
                    4 => {
                        let edge = (rng.random_range(1.0..cells) as u64) as f64 / cells;
                        f64::from_bits(edge.to_bits() + rng.random_range(0u64..3) - 1)
                    }
                    // Mostly uniform, with both ends of the interval.
                    _ => match i % 9 {
                        0 => 0.0,
                        1 => below_one,
                        2 => -0.0,
                        _ => rng.random_range(0.0..1.0),
                    },
                })
                .collect();
            let run = SortedMarks::from_unsorted(marks.clone());
            assert_filter_describes_the_marks(&run);
            marks.sort_unstable_by(f64::total_cmp);
            prop_assert_eq!(bits(run.as_slice()), bits(&marks));

            let a_mark = |rng: &mut rld_common::rng::SeededRng| match marks.len() {
                0 => 0.5,
                len => marks[rng.random_range(0..len)],
            };
            for case in 0..400u32 {
                let rot = match case % 8 {
                    0 => 0.0,
                    1 => below_one,
                    // The wrap point on a cell boundary, or on a mark.
                    2 => 1.0 - (rng.random_range(1.0..cells) as u64) as f64 / cells,
                    3 => (1.0 - a_mark(&mut rng)).min(below_one),
                    _ => rng.random_range(0.0..1.0),
                };
                let theta = match rng.random_range(0u32..16) {
                    0 => f64::MIN_POSITIVE / 4.0,
                    1 => rot,
                    2 => below_one,
                    3 => 1.0,
                    4 => 1.5,
                    5 => 0.0,
                    6 => -0.25,
                    7 => f64::NAN,
                    // Match intervals a few cells wide, cell-aligned or not.
                    8 => (rng.random_range(0.0..4.0) as u64) as f64 / cells,
                    9 | 10 => rng.random_range(0.0..4.0) / cells,
                    // Just past the rotation: the unwrapped part appears.
                    11 => rot + rng.random_range(0.0..2.0) / cells,
                    12 => rng.random_range(0.0..1.0),
                    _ => rng.random_range(0.0..2e-4),
                };
                prop_assert_eq!(
                    run.count_matches(theta, rot),
                    linear_scan(&marks, theta, rot),
                    "n={} shape={} theta={:e} rot={:e}", n, shape, theta, rot
                );
            }
        }
    }

    /// Splitting one mark population across partitions must give the exact
    /// same probe counts as the unpartitioned whole, for any split.
    #[test]
    fn partitioned_probe_counts_equal_the_unpartitioned_whole() {
        let mut rng = rng_from_seed(derive_seed(13, "partition-sum"));
        let marks: Vec<f64> = (0..700).map(|_| rng.random_range(0.0..1.0)).collect();
        let whole = SortedMarks::from_unsorted(marks.clone());
        let op = OperatorId::new(0);
        for shards in [1usize, 2, 3, 8] {
            let mut probes = ProbeSet::new(1);
            for s in 0..shards {
                let share: Vec<f64> = marks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % shards == s)
                    .map(|(_, m)| *m)
                    .collect();
                probes.set_partition(
                    op,
                    s,
                    MarkTerms::single(Arc::new(SortedMarks::from_unsorted(share))),
                );
            }
            assert_eq!(probes.partitions(op).len(), shards);
            for _ in 0..60 {
                let theta = rng.random_range(0.0..1.0);
                let rot = rng.random_range(0.0..1.0);
                let summed: usize = probes
                    .partitions(op)
                    .iter()
                    .map(|p| p.count_matches(theta, rot))
                    .sum();
                assert_eq!(summed, whole.count_matches(theta, rot), "shards={shards}");
            }
        }
    }

    /// The filter step keeps exactly the rows the scalar `match < s_est`
    /// keeps — on random values and on the cells where `total_cmp` and `<`
    /// could part ways: signed zeros, the estimate itself, NaN, ±∞.
    #[test]
    fn filter_step_equals_the_scalar_comparison() {
        let q = q1();
        let s_est = 0.4;
        let filter = OperatorSpec::filter(OperatorId::new(0), "f", 1.0, s_est);
        let ops = [CompiledOp::compile(&q, &filter, 7)];
        let chain = FusedChain::compile(&ops, &[OperatorId::new(0)]).unwrap();
        let mut rng = rng_from_seed(derive_seed(17, "filter-kernel"));
        let mut cells = vec![0.0, -0.0, s_est, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        cells.extend((0..200).map(|_| rng.random_range(-1.0..2.0)));
        let mut cb = ColumnBatch::for_driving(&q);
        for (i, &cell) in cells.iter().enumerate() {
            push_row(&q, &mut cb, i as u64, |_| cell);
        }
        // With duplicates and out of order, as a join's fan-out leaves it.
        let sel: Vec<u32> = (0..cells.len() as u32).rev().flat_map(|r| [r, r]).collect();
        let expect: Vec<u32> = sel
            .iter()
            .copied()
            .filter(|&r| cells[r as usize] < s_est)
            .collect();
        assert!(expect.len() > 100 && expect.len() < sel.len() - 100);
        let (kept, counts) = run_chain(&chain, &cb, &ProbeSet::new(1), sel.clone());
        assert_eq!(kept, expect);
        assert_eq!(
            (counts[0].inputs, counts[0].outputs),
            (sel.len() as u64, expect.len() as u64)
        );
    }

    /// A batch that does not carry a step's match column as floats was not
    /// built for the chain's query: the filter and the probe step both
    /// refuse it instead of reading "predicate false" / θ = 0.
    #[test]
    fn chain_over_a_batch_without_its_match_column_is_an_error() {
        let q = q1();
        let filter = OperatorSpec::filter(OperatorId::new(0), "f", 1.0, 0.4);
        let filter_ops = [CompiledOp::compile(&q, &filter, 7)];
        let lookup_ops = compile_all(&q, 7);
        let field = match_field(&q, 0);
        for (ops, probes) in [
            (&filter_ops[..], ProbeSet::new(1)),
            (&lookup_ops[..], probe_set(&lookup_ops, &[])),
        ] {
            let chain = FusedChain::compile(ops, &[OperatorId::new(0)]).unwrap();
            // Missing: the batch is narrower than the match field. Not
            // `Float`: an integer column sits where the match column
            // belongs. Ragged: the match column is a row short.
            let app = vec![Column::Float(vec![0.1; 2]); field];
            let not_float = [app.clone(), vec![Column::Int(vec![0; 2])]].concat();
            let ragged = [app.clone(), vec![Column::Float(vec![0.1])]].concat();
            for columns in [vec![Column::Float(vec![0.1; 2])], not_float, ragged] {
                let cb = foreign_batch(2, columns);
                let mut sel = cb.identity_sel();
                let mut counts = Vec::new();
                let err = chain
                    .eval(&cb, &probes, &mut sel, &mut Vec::new(), &mut counts)
                    .unwrap_err();
                assert!(matches!(err, RldError::InvalidArgument(_)), "{err}");
                assert!(counts.is_empty(), "the refused step records nothing");
            }
            // The same chain over a batch built for the query runs.
            let cb = driving_batch(&q, &[(0, 0.1), (1, 0.1)]);
            run_chain(&chain, &cb, &probes, cb.identity_sel());
        }
    }

    /// Lookup snapshots are built once (same `Arc` on every call); a window
    /// partition reports a change — the trigger for republishing its
    /// snapshot — on every mutation path (insert, evicting expiry,
    /// crash-clear) and only then.
    #[test]
    fn probe_marks_cache_invalidates_on_mutation() {
        let q = q1();
        let lookup = CompiledOp::compile(&q, &q.operators[0], 7);
        let l1 = lookup.probe_marks().unwrap();
        let l2 = lookup.probe_marks().unwrap();
        assert!(Arc::ptr_eq(&l1, &l2));
        assert_eq!(l1.len(), 500);

        let mut part = WindowPartition::new(60_000);
        let marks: Vec<f64> = (0..4).map(|i| 0.1 + 0.2 * i as f64).collect();
        assert!(part.advance(3, &[0, 1, 2, 3], &marks));
        assert_eq!(live_len(&part.snapshot()), 4);
        assert!(!part.advance(3, &[], &[]), "an idle tick changes nothing");

        assert!(part.advance(9, &[9], &[0.95]));
        assert_eq!(live_len(&part.snapshot()), 5, "insert must republish");

        // Expiry that evicts nothing changes nothing; one that evicts does.
        assert!(!part.advance(60_000, &[], &[]));
        assert_eq!(live_len(&part.snapshot()), 5);
        assert!(part.advance(60_000 + 2, &[], &[]));
        assert_eq!(live_len(&part.snapshot()), 3, "expiry must republish");

        part.clear();
        assert!(part.is_empty() && live_len(&part.snapshot()) == 0);
    }

    /// Warm the partner windows, then compare the fused chain against the
    /// scalar reference: the surviving selections and the per-operator
    /// counts must agree bit for bit.
    #[test]
    fn fused_chain_matches_row_execution_bit_for_bit() {
        let q = q1();
        for seed in [1u64, 7, 42, 1234] {
            let ops = compile_all(&q, seed);
            let mut rng = rng_from_seed(derive_seed(seed, "chain-oracle"));
            // 30 entries per window keeps the join fan-out product finite.
            let (parts, live) = warm_windows(&q, &ops, 30, &mut rng);
            let windows: Vec<_> = parts.iter().map(|(op, p)| (*op, p)).collect();
            let probes = probe_set(&ops, &windows);
            // Random driving batch: mostly small thetas, some zero rows.
            let mut cb = ColumnBatch::for_driving(&q);
            for i in 0..64 {
                let ts: u64 = rng.random_range(0..200_000);
                push_row(&q, &mut cb, ts, |_| {
                    let u: f64 = rng.random_range(0.0..1.0);
                    if i % 5 == 0 {
                        0.0
                    } else {
                        u * 0.12
                    }
                });
            }

            for ordering in [q.operator_ids(), {
                let mut rev = q.operator_ids();
                rev.reverse();
                rev
            }] {
                let chain = FusedChain::compile(&ops, &ordering).unwrap();
                assert_eq!(
                    run_chain(&chain, &cb, &probes, cb.identity_sel()),
                    reference_eval(&ops, &ordering, &live, &cb),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn fused_chain_covers_filters_and_missing_fields() {
        let q = q1();
        let filter = OperatorSpec::filter(OperatorId::new(0), "f", 1.0, 0.4);
        let ops = [CompiledOp::compile(&q, &filter, 7)];
        let ordering = [OperatorId::new(0)];
        let cb = driving_batch(&q, &[(0, 0.39), (1, 0.41), (2, 0.4), (3, 0.0)]);
        let chain = FusedChain::compile(&ops, &ordering).unwrap();
        let (sel, counts) = run_chain(&chain, &cb, &ProbeSet::new(1), cb.identity_sel());
        assert_eq!(
            (sel, counts.clone()),
            reference_eval(&ops, &ordering, &[Vec::new()], &cb)
        );
        assert_eq!(
            counts,
            vec![OpCounts {
                op: OperatorId::new(0),
                inputs: 4,
                outputs: 2
            }]
        );

        // A batch without the filter's match field is refused, not read as
        // "every row fails".
        let narrow = foreign_batch(1, vec![Column::Float(vec![0.0])]);
        let mut sel = narrow.identity_sel();
        assert!(chain
            .eval(
                &narrow,
                &ProbeSet::new(1),
                &mut sel,
                &mut Vec::new(),
                &mut Vec::new(),
            )
            .is_err());
        // An unknown operator in the ordering is an error.
        assert!(FusedChain::compile(&ops, &[OperatorId::new(9)]).is_err());
    }

    /// Bit patterns of a mark slice, for comparisons that tell `-0.0` from
    /// `+0.0`.
    fn bits(marks: &[f64]) -> Vec<u64> {
        marks.iter().map(|m| m.to_bits()).collect()
    }

    /// The merge kernel equals a stable merge, bit for bit (so `-0.0` sorts
    /// before `+0.0`), on runs of 0 to 3,000 marks: lopsided pairs (0 vs n,
    /// 1 vs n, n vs 2n ± 1), odd and even totals, duplicates, signed zeros,
    /// six-value palettes and all-equal runs. Which run a tie is taken from
    /// is unobservable — equal keys are identical bit patterns.
    #[test]
    fn merge_kernel_equals_a_stable_merge() {
        let merges_stably = |older: &[f64], newer: &[f64], what: &str| {
            // The reference: a stable sort of older ++ newer.
            let mut expect: Vec<f64> = older.iter().chain(newer).copied().collect();
            expect.sort_by(f64::total_cmp);
            assert_eq!(bits(&merge_runs(older, newer)), bits(&expect), "{what}");
        };
        let mut rng = rng_from_seed(derive_seed(31, "merge-kernel"));
        let palette = [-0.0, 0.0, 0.25, 0.5, 0.75, 1.0 - f64::EPSILON / 2.0];
        let mut lens = Vec::new();
        for n in [1usize, 2, 3, 4, 7, 8, 63, 64, 417, 1_000, 1_499] {
            lens.extend([(0, n), (n, 0), (1, n), (n, 1), (n, n), (n, n + 1)]);
            lens.extend([(n, 2 * n - 1), (n, 2 * n + 1), (2 * n + 1, n)]);
        }
        lens.extend([(0, 0), (3_000, 3_000), (2_999, 3_000), (3_000, 1)]);
        lens.extend((0..40).map(|_| (rng.random_range(0..=3_000), rng.random_range(0..=3_000))));
        for (case, &(n_old, n_new)) in lens.iter().enumerate() {
            let mut draw = |n: usize| {
                let mut run: Vec<f64> = (0..n)
                    .map(|_| match case % 4 {
                        0 => rng.random_range(0.0..1.0),
                        1 => palette[rng.random_range(0..palette.len())],
                        2 => [-0.0, 0.0][rng.random_range(0..2usize)],
                        _ => 0.5,
                    })
                    .collect();
                run.sort_by(f64::total_cmp);
                run
            };
            let (older, newer) = (draw(n_old), draw(n_new));
            merges_stably(&older, &newer, &format!("case {case}: {n_old} + {n_new}"));
        }
        // Where the two ends meet: the front and back empty `older` between
        // them (0.1 and 0.9), the scalar tail finishing off what is left
        // with one mark on each side (0.3 vs 0.2), and a tail that places a
        // single `older` mark in a long `newer` run.
        merges_stably(&[0.1, 0.9], &[0.5, 0.6], "one run emptied from both ends");
        merges_stably(&[0.1, 0.3], &[0.2, 0.4], "one mark left on each side");
        let long: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        merges_stably(&[0.505], &long, "one mark into a long run");
        merges_stably(&long, &[0.505], "a long run with one mark");
        assert_eq!(
            bits(&merge_runs(&[-0.0, 0.0], &[-0.0, 0.0])),
            bits(&[-0.0, -0.0, 0.0, 0.0])
        );
    }

    /// The counting tick sort equals `sort_unstable_by(f64::total_cmp)` over
    /// the entries in `[0, 1)`, bit for bit, at lengths around and far past
    /// one filter word — on uniform marks, marks all in one bucket, a
    /// six-value palette, marks on bucket boundaries and one ulp either side,
    /// and in-range marks mixed with `-0.0`, `1 − 2⁻⁵³`, NaN, ±∞ and
    /// out-of-range ones. The key order is `total_cmp`'s on every class of
    /// double in `[0, 1)`.
    #[test]
    fn key_sort_equals_the_total_cmp_sort() {
        let mut rng = rng_from_seed(derive_seed(37, "key-sort"));
        let mut scratch = TickSortScratch::default();
        let palette = [-0.0, 0.0, 0.125, 0.5, 0.75, 1.0 - f64::EPSILON / 2.0];
        let strays = [-0.0, 1.0 - f64::EPSILON / 2.0, f64::NAN, f64::INFINITY];
        let strays = [&strays[..], &[f64::NEG_INFINITY, -0.5, 1.0, 1.5]].concat();
        for n in [0usize, 1, 31, 32, 33, 400, 3000] {
            // The bucket grid the sort puts `n` marks on.
            let buckets = (2 * n.next_power_of_two()) as f64;
            let one_bucket = rng.random_range(0..buckets as u32) as f64 / buckets;
            for shape in 0..5 {
                let mut draw = || match shape {
                    0 => rng.random_range(0.0..1.0),
                    1 => one_bucket + rng.random_range(0.0..0.5) / buckets,
                    2 => palette[rng.random_range(0..palette.len())],
                    3 => {
                        let edge = rng.random_range(0..buckets as u32) as f64 / buckets;
                        [edge.next_down(), edge, edge.next_up()][rng.random_range(0..3usize)]
                    }
                    _ => match rng.random_range(0..3) {
                        0 => strays[rng.random_range(0..strays.len())],
                        _ => rng.random_range(0.0..1.0),
                    },
                };
                let marks: Vec<f64> = (0..n).map(|_| draw()).collect();
                let mut expect = marks.clone();
                expect.retain(|m| (0.0..1.0).contains(m));
                expect.sort_unstable_by(f64::total_cmp);
                assert_eq!(
                    bits(&sorted_in_unit(&marks, &mut scratch)),
                    bits(&expect),
                    "{n} marks, shape {shape}"
                );
            }
        }
        let odd = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            0.3,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        let in_unit = [
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            0.3,
            1.0 - f64::EPSILON / 2.0,
        ];
        for a in in_unit {
            for b in in_unit {
                assert_eq!(unit_key(a).cmp(&unit_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
        assert_eq!(
            bits(&sorted_in_unit(&odd, &mut scratch)),
            bits(&odd[3..7]),
            "entries outside [0, 1) are dropped"
        );
    }

    /// Clustered marks cannot make the tick sort quadratic: ticks of
    /// distinct marks that all land in one bucket, in descending order — the
    /// insertion pass's worst case, ~n²/2 moves — sort under a watchdog that
    /// the quadratic pass would overrun many times over at 200,000 marks.
    #[test]
    fn clustered_ticks_sort_in_n_log_n() {
        for n in [3_000u64, 200_000] {
            let marks: Vec<f64> = (0..n)
                .map(|i| f64::from_bits(0.5f64.to_bits() + n - i))
                .collect();
            let mut expect = marks.clone();
            expect.sort_unstable_by(f64::total_cmp);
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                tx.send(sorted_in_unit(&marks, &mut TickSortScratch::default()))
            });
            let sorted = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{n} clustered marks took over 10 s to sort"));
            assert_eq!(bits(&sorted), bits(&expect), "{n} marks");
        }
    }

    /// Ticks that do not divide the window leave a run straddling the
    /// cutoff: its expired prefix goes, what is left is re-sorted as the
    /// oldest group — also when that run sits inside a merged group.
    #[test]
    fn partial_expiry_rebuilds_the_front_run() {
        let mut part = WindowPartition::new(1_000);
        part.advance(0, &[0, 400, 800], &[0.9, 0.1, 0.5]);
        part.advance(900, &[900, 950], &[0.3, f64::INFINITY]);
        assert_eq!(part.snapshot().terms().len(), 1, "two equal groups merge");
        // Cutoff 500: the first run loses (0, 0.9) and (400, 0.1).
        assert!(part.advance(1_500, &[], &[]));
        assert_eq!(part.len(), 3);
        assert_eq!(flatten(&part.snapshot()).as_slice(), [0.3, 0.5]);
        assert_eq!(
            part.snapshot().terms().len(),
            2,
            "the group was taken apart"
        );
        // Cutoff 901: the first run is gone whole, the second loses (900, 0.3)
        // and keeps only its never-matching row.
        assert!(part.advance(1_901, &[], &[]));
        assert_eq!((part.len(), live_len(&part.snapshot())), (1, 0));
        // A never-matching prefix expires without touching the snapshot.
        assert!(part.advance(1_951, &[1_951, 1_990], &[f64::NAN, 0.7]));
        assert_eq!(part.len(), 2);
        assert!(part.advance(2_960, &[], &[]));
        assert_eq!(part.len(), 1);
        assert_eq!(flatten(&part.snapshot()).as_slice(), [0.7]);
    }

    #[test]
    fn column_batch_clear_keeps_arity_and_reuses_storage() {
        let q = q1();
        let rows: Vec<(u64, f64)> = (0..4).map(|i| (i, 0.4)).collect();
        let filled = driving_batch(&q, &rows);
        let mut cb = filled.clone();
        cb.clear();
        assert!(cb.is_empty());
        assert_eq!(cb.arity(), driving_arity(&q));
        let capacities = |cb: &ColumnBatch| -> Vec<usize> {
            (0..cb.arity())
                .map(|f| match cb.column(f).unwrap() {
                    Column::Int(v) => v.capacity(),
                    Column::Float(v) => v.capacity(),
                    Column::Text(v) => v.capacity(),
                    Column::Bool(v) => v.capacity(),
                    Column::Timestamp(v) => v.capacity(),
                })
                .collect()
        };
        let before = capacities(&cb);
        assert!(before.iter().all(|&c| c >= rows.len()));
        for &(ts, theta) in &rows {
            push_row(&q, &mut cb, ts, |_| theta);
        }
        assert_eq!(cb, filled, "same types, same cells");
        assert_eq!(capacities(&cb), before, "refilled into the same storage");
    }

    #[test]
    fn fused_chain_short_circuits_on_empty_selection() {
        let q = q1();
        let ops = compile_all(&q, 7);
        // θ = 0 on the first (lookup) operator empties the selection; later
        // steps record no counts.
        let rows: Vec<(u64, f64)> = (0..5).map(|i| (i, 0.0)).collect();
        let cb = driving_batch(&q, &rows);
        let chain = FusedChain::compile(&ops, &q.operator_ids()).unwrap();
        // No window snapshot is published: the probe steps that would need
        // one are never reached.
        let (sel, counts) = run_chain(&chain, &cb, &probe_set(&ops, &[]), cb.identity_sel());
        assert!(sel.is_empty());
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].op, OperatorId::new(0));
        assert_eq!((counts[0].inputs, counts[0].outputs), (5, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The property the executor's hops rely on: for a random ordering
        /// of Q1 or Q2 and *every* split of it into consecutive sub-chains,
        /// evaluating the sub-chains in sequence — each over the previous
        /// one's surviving selection — yields the same selection and the
        /// same [`OpCounts`] as the whole chain.
        #[test]
        fn sub_chains_compose_to_the_whole_chain(seed in 0u64..u64::MAX, q2 in 0u32..2) {
            let q = if q2 == 1 { Query::q2_ten_way_join() } else { q1() };
            let ops = compile_all(&q, seed);
            let mut rng = rng_from_seed(derive_seed(seed, "sub-chains"));
            let (parts, live) = warm_windows(&q, &ops, 24, &mut rng);
            let windows: Vec<_> = parts.iter().map(|(op, p)| (*op, p)).collect();
            let probes = probe_set(&ops, &windows);

            let mut ordering = q.operator_ids();
            for i in (1..ordering.len()).rev() {
                ordering.swap(i, rng.random_range(0..i + 1));
            }
            // Thetas sized to a mean fan-out of one match per probe, so the
            // selection neither dies at once nor explodes.
            let mut cb = ColumnBatch::for_driving(&q);
            for _ in 0..40 {
                let ts: u64 = rng.random_range(0..200_000);
                push_row(&q, &mut cb, ts, |op| {
                    let u: f64 = rng.random_range(0.0..1.0);
                    match live[op].len() {
                        0 => u,
                        n => u * 2.0 / n as f64,
                    }
                });
            }

            let whole = FusedChain::compile(&ops, &ordering).unwrap();
            let expected = run_chain(&whole, &cb, &probes, cb.identity_sel());
            let n = ordering.len();
            // Bit `i` of `cuts` set = a sub-chain boundary after position `i`.
            for cuts in 0u32..1 << (n - 1) {
                let mut sel = cb.identity_sel();
                let mut counts = Vec::new();
                let mut start = 0;
                for end in 1..=n {
                    if end < n && cuts & (1 << (end - 1)) == 0 {
                        continue;
                    }
                    let sub = FusedChain::compile(&ops, &ordering[start..end]).unwrap();
                    let (next, sub_counts) = run_chain(&sub, &cb, &probes, sel);
                    sel = next;
                    counts.extend(sub_counts);
                    start = end;
                }
                prop_assert_eq!(&(sel, counts), &expected, "cuts {:#b}", cuts);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Drive a [`WindowPartition`] and a plain resident-entry model with
        /// the same schedule — empty ticks, 1–2,000 rows per tick, ticks
        /// that do not divide the window (partial expiry), non-finite marks,
        /// windows shorter than a tick, a crash-clear mid-run: at every tick
        /// the snapshot equals the from-scratch sort of the model's finite
        /// marks, the lengths agree, and the snapshot stays logarithmic in
        /// the resident ticks.
        #[test]
        fn window_partition_matches_from_scratch_recompute(
            seed in 0u64..u64::MAX,
            window_ms in 1u64..12_000,
            tick_ms in 1u64..1_500,
            big in 0u32..4,
        ) {
            let mut rng = rng_from_seed(derive_seed(seed, "window-partition"));
            // (ts, mark, inserting tick) of every resident row, oldest first.
            let mut model: VecDeque<(u64, f64, u64)> = VecDeque::new();
            let mut part = WindowPartition::new(window_ms);
            let clear_at = rng.random_range(0u64..60);
            for tick in 0..60u64 {
                let now_ms = tick * tick_ms;
                if tick == clear_at {
                    model.clear();
                    part.clear();
                    prop_assert!(part.is_empty() && live_len(&part.snapshot()) == 0);
                }
                let n = match rng.random_range(0u32..8) {
                    0 | 1 => 0,
                    2 if big == 0 => rng.random_range(1usize..2001),
                    _ => rng.random_range(1usize..25),
                };
                let mut ts = Vec::new();
                let mut marks = Vec::new();
                for i in 0..n {
                    ts.push(now_ms + (i as u64 * tick_ms) / n as u64);
                    marks.push(match rng.random_range(0u32..12) {
                        0 => f64::INFINITY,
                        1 => f64::NAN,
                        2 => 0.5,
                        _ => rng.random_range(0.0..1.0),
                    });
                }
                // Insert, then evict the prefix older than the window.
                model.extend(ts.iter().zip(&marks).map(|(&t, &m)| (t, m, tick)));
                // The window's "now" runs ahead of the inserted rows by up
                // to a tick, so the cutoff lands inside a run.
                let now_ms = now_ms + rng.random_range(0..tick_ms);
                let cutoff = now_ms.saturating_sub(window_ms);
                let before = model.len();
                while model.front().is_some_and(|e| e.0 < cutoff) {
                    model.pop_front();
                }
                let changed = part.advance(now_ms, &ts, &marks);
                prop_assert_eq!(changed, n + (before - model.len()) > 0, "tick {}", tick);
                prop_assert_eq!(part.len(), model.len(), "tick {}", tick);
                prop_assert_eq!(part.is_empty(), model.is_empty());
                let snap = part.snapshot();
                let from_scratch = SortedMarks::from_unsorted(model.iter().map(|e| e.1).collect());
                let flat = flatten(&snap);
                prop_assert_eq!(flat.as_slice(), from_scratch.as_slice(), "tick {}", tick);
                prop_assert_eq!(live_len(&snap), from_scratch.len(), "tick {}", tick);
                let resident_ticks = model
                    .iter()
                    .map(|e| e.2)
                    .collect::<std::collections::BTreeSet<_>>()
                    .len();
                let log2_ceil = resident_ticks.next_power_of_two().trailing_zeros() as usize;
                prop_assert!(
                    snap.terms().len() <= 2 * log2_ceil + 2,
                    "tick {}: {} terms over {} resident ticks",
                    tick,
                    snap.terms().len(),
                    resident_ticks
                );
                // The terms answer probes exactly like the consolidated
                // whole, whatever the grouping currently is.
                for _ in 0..4 {
                    let theta = rng.random_range(0.0..1.0);
                    let rot = rng.random_range(0.0..1.0);
                    prop_assert_eq!(
                        snap.count_matches(theta, rot),
                        flat.count_matches(theta, rot),
                        "tick {}", tick
                    );
                }
            }
        }
    }
}
