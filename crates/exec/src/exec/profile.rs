//! Ad-hoc breakdown of the shard-side hot loops the dataplane bench times:
//! partner generation, window maintenance split into its parts, driving
//! generation and fused-chain evaluation, each isolated over the full-mode
//! horizon. Each phase reports the minimum over several repetitions to shrug
//! off scheduler noise on small machines.
//!
//! One ignored test per configuration — Q1 and Q2 at 5× their base rates,
//! and Q2 at 0.05× (the thin shape, ~4 marks per window per tick):
//!
//! ```text
//! cargo test --release -p rld-exec --lib -- --ignored --nocapture profile_
//! ```
//!
//! The window phases time nothing inside the library. *Tick sort* drives a
//! window that is cleared after every tick (the run is sorted and enters as
//! the only group); *old-end expiry* drains clones of the steady-state
//! window, taken once per window length so that every tick's run expires
//! exactly once; *new-end merges* is what is left of the steady-state
//! `advance` after those two; *snapshot* is timed apart from `advance`, over
//! the windows a tick changed, as a shard publishes them. Each window phase
//! is also given per partner mark written into a window, so heavy rates
//! compare directly, and per window-tick (one window advanced one tick), so
//! a thin tick's fixed costs read directly. Both generation phases are also
//! given per generated row. Every window must drain. Each
//! table is headed `profile_shard <query> x<rate>`, the name the kernel's
//! measurement notes cite.

use super::{ColumnBatch, CompiledOp, FusedChain, MarkTerms, ProbeSet, WindowPartition};
use crate::tuples::{ShardedDrivingGen, ShardedPartnerGen};
use rld_common::{OperatorId, OperatorKind, Query, StreamId};
use rld_workloads::{RatePattern, SelectivityPattern, StockWorkload, SyntheticWorkload, Workload};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

const REPS: usize = 5;

/// Held for a whole profile, so that tests run in parallel print tables
/// timed alone.
static ALONE: Mutex<()> = Mutex::new(());

/// Minimum over [`REPS`] runs of the time `f` reports, in milliseconds.
fn min_ms(mut f: impl FnMut() -> Duration) -> f64 {
    (0..REPS)
        .map(|_| f().as_secs_f64() * 1000.0)
        .fold(f64::INFINITY, f64::min)
}

/// `ms` spread over `rows` generated rows, in nanoseconds a row.
fn per_row(ms: f64, rows: u64) -> f64 {
    ms * 1e6 / rows.max(1) as f64
}

fn profile(which: &str, mult: f64) {
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let rate = RatePattern::Constant(mult);
    let (query, workload): (Query, Box<dyn Workload>) = match which {
        "q1" => (
            Query::q1_stock_monitoring(),
            Box::new(StockWorkload::new(60.0, rate)),
        ),
        "q2" => {
            let q = Query::q2_ten_way_join();
            let w = SyntheticWorkload::new("q2", q.clone(), rate, SelectivityPattern::Constant);
            (q, Box::new(w))
        }
        other => panic!("unknown query {other:?}: expected q1 or q2"),
    };
    let ticks = 300u64;
    let dt = 1.0f64;
    let window_ms = (query.window_secs * 1000.0).max(0.0) as u64;
    let window_ticks = ((query.window_secs / dt).ceil() as usize).max(1);

    let pgen = ShardedPartnerGen::new(&query, 42);
    let gen = ShardedDrivingGen::new(&query, 42);
    let partner_streams: Vec<StreamId> = (0..query.num_streams())
        .map(StreamId::new)
        .filter(|s| *s != query.driving_stream)
        .collect();
    // Per window-join operator, the partner stream feeding its window.
    let window_streams: Vec<Option<StreamId>> = query
        .operators
        .iter()
        .map(|spec| match spec.kind {
            OperatorKind::WindowJoin { partner } => Some(partner),
            _ => None,
        })
        .collect();

    // Partner generation alone, into reusable buffers like a shard's.
    let mut bufs = vec![(Vec::new(), Vec::new()); query.num_streams()];
    let mut rows = 0u64;
    let gen_ms = min_ms(|| {
        let started = Instant::now();
        rows = 0;
        for tick in 0..ticks {
            let t = tick as f64 * dt;
            let truth = workload.stats_at(t);
            for s in &partner_streams {
                let (ts, marks) = &mut bufs[s.index()];
                pgen.fill_stream(*s, tick, t, dt, &truth, 0, 1, ts, marks);
                rows += ts.len() as u64;
            }
        }
        started.elapsed()
    });
    println!(
        "profile_shard {which} x{mult}: {ticks} ticks, {} windows, {:.0} partner rows/tick",
        window_streams.iter().flatten().count(),
        rows as f64 / ticks as f64
    );
    println!(
        "partner gen    : {gen_ms:>7.1} ms  {:>5.1} ns/row  ({rows} rows)",
        per_row(gen_ms, rows)
    );

    // Every tick's arrivals per stream, generated once for the window phases.
    let per_tick: Vec<Vec<(Vec<u64>, Vec<f64>)>> = (0..ticks)
        .map(|tick| {
            let t = tick as f64 * dt;
            let truth = workload.stats_at(t);
            let mut bufs = vec![(Vec::new(), Vec::new()); query.num_streams()];
            for s in &partner_streams {
                let (ts, marks) = &mut bufs[s.index()];
                pgen.fill_stream(*s, tick, t, dt, &truth, 0, 1, ts, marks);
            }
            bufs
        })
        .collect();
    let fresh_windows = || -> Vec<Option<(StreamId, WindowPartition)>> {
        window_streams
            .iter()
            .map(|s| s.map(|s| (s, WindowPartition::new(window_ms))))
            .collect()
    };
    let now_ms = |tick: usize| (tick as f64 * dt * 1000.0) as u64;
    // Marks written into the windows, for the per-mark costs of the phases.
    let window_marks: usize = per_tick
        .iter()
        .flat_map(|arrivals| {
            window_streams
                .iter()
                .flatten()
                .map(|s| arrivals[s.index()].1.len())
        })
        .sum();
    let per_mark = |ms: f64| ms * 1e6 / window_marks.max(1) as f64;
    // Window-ticks (one window advanced by one tick), for the fixed per-tick
    // costs that a thin tick's handful of marks cannot amortize.
    let window_tick_count = ticks as usize * window_streams.iter().flatten().count();
    let per_window_tick = |ms: f64| ms * 1e6 / window_tick_count.max(1) as f64;
    let costs = |ms: f64| {
        format!(
            "{ms:>7.1} ms  {:>5.1} ns/mark  {:>6.1} ns/window-tick",
            per_mark(ms),
            per_window_tick(ms)
        )
    };

    // Tick sort: each run is sorted, enters an empty window and is dropped.
    let sort_ms = min_ms(|| {
        let mut windows = fresh_windows();
        let started = Instant::now();
        for (tick, arrivals) in per_tick.iter().enumerate() {
            for (stream, part) in windows.iter_mut().flatten() {
                let (ts, marks) = &arrivals[stream.index()];
                part.advance(now_ms(tick), ts, marks);
                part.clear();
            }
        }
        started.elapsed()
    });

    // Steady-state maintenance — every window advanced, then the changed
    // ones snapshotted, as a shard does — and beside it, timed apart on
    // clones, the expiry of everything each window length held.
    let mut final_windows = Vec::new();
    let (mut snaps, mut terms) = (0u64, 0u64);
    let (mut snapshot_ms, mut expiry_ms) = (f64::INFINITY, f64::INFINITY);
    let advance_ms = min_ms(|| {
        let mut windows = fresh_windows();
        let mut changed = vec![false; windows.len()];
        let (mut advance, mut snapshot, mut expiry) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        (snaps, terms) = (0, 0);
        for (tick, arrivals) in per_tick.iter().enumerate() {
            let started = Instant::now();
            for (slot, changed) in windows.iter_mut().zip(&mut changed) {
                if let Some((stream, part)) = slot {
                    let (ts, marks) = &arrivals[stream.index()];
                    *changed = part.advance(now_ms(tick), ts, marks);
                }
            }
            let advanced = Instant::now();
            for (slot, &changed) in windows.iter().zip(&changed) {
                if let (Some((_, part)), true) = (slot, changed) {
                    let snap = std::hint::black_box(part.snapshot());
                    terms += snap.terms().len() as u64;
                    snaps += 1;
                }
            }
            snapshot += advanced.elapsed();
            advance += advanced - started;
            if (tick + 1) % window_ticks == 0 {
                let mut drained = windows.clone();
                let started = Instant::now();
                for later in 1..=window_ticks + 1 {
                    for (_, part) in drained.iter_mut().flatten() {
                        part.advance(now_ms(tick + later), &[], &[]);
                    }
                }
                expiry += started.elapsed();
                assert!(drained.iter().flatten().all(|(_, part)| part.is_empty()));
            }
        }
        final_windows = windows;
        snapshot_ms = snapshot_ms.min(snapshot.as_secs_f64() * 1000.0);
        expiry_ms = expiry_ms.min(expiry.as_secs_f64() * 1000.0);
        advance
    });
    let merge_ms = advance_ms - sort_ms - expiry_ms;
    let maint_ms = advance_ms + snapshot_ms;
    println!(
        "tick sort      : {}  ({window_marks} marks into windows)",
        costs(sort_ms)
    );
    println!(
        "new-end merges : {}  (advance - sort - expiry)",
        costs(merge_ms)
    );
    println!(
        "old-end expiry : {}  (drained clones, once per window length)",
        costs(expiry_ms)
    );
    println!(
        "snapshot       : {}  ({snaps} snapshots, {:.1} terms each)",
        costs(snapshot_ms),
        terms as f64 / snaps.max(1) as f64
    );
    println!(
        "window maint   : {}  (advance + snapshot, {window_tick_count} window-ticks)",
        costs(maint_ms)
    );

    // Driving generation + fused-chain evaluation over realistic windows.
    let ops: Vec<CompiledOp> = query
        .operators
        .iter()
        .map(|spec| CompiledOp::compile(&query, spec, 42))
        .collect();
    let mut probes = ProbeSet::new(ops.len());
    for (i, op) in ops.iter().enumerate() {
        if let Some(marks) = op.probe_marks() {
            probes.set_partition(OperatorId::new(i), 0, MarkTerms::single(marks));
        }
    }
    for (i, slot) in final_windows.iter().enumerate() {
        if let Some((_, part)) = slot {
            probes.set_partition(OperatorId::new(i), 0, part.snapshot());
        }
    }
    let ordering: Vec<OperatorId> = query.operator_ids();
    let chain = FusedChain::compile(&ops, &ordering).expect("chain");
    let mut batch = ColumnBatch::for_driving(&query);
    let mut sel: Vec<u32> = Vec::new();
    let mut scratch: Vec<u32> = Vec::new();
    let mut counts = Vec::new();
    let probes = Arc::new(probes);
    let plans: Vec<_> = (0..ticks)
        .map(|tick| {
            let truth = workload.stats_at(tick as f64 * dt);
            gen.match_plan(&truth)
        })
        .collect();
    // Batch size comes from the runtime core in the real dataplane; the
    // expected arrivals per tick (500 rows at the default 5x) stand in.
    let n = workload
        .stats_at(0.0)
        .input_rate(query.driving_stream)
        .map_or(500, |rate| (rate * dt).round() as u64);
    let ms = min_ms(|| {
        let started = Instant::now();
        rows = 0;
        for tick in 0..ticks {
            let t = tick as f64 * dt;
            batch.clear();
            gen.fill_slice(&mut batch, &plans[tick as usize], tick, t, dt, n, 0, n);
            rows += batch.len() as u64;
        }
        started.elapsed()
    });
    println!(
        "driving gen    : {ms:>7.1} ms  {:>5.1} ns/row  ({rows} rows)",
        per_row(ms, rows)
    );
    let ms = min_ms(|| {
        let started = Instant::now();
        let mut produced = 0u64;
        for tick in 0..ticks {
            let t = tick as f64 * dt;
            batch.clear();
            gen.fill_slice(&mut batch, &plans[tick as usize], tick, t, dt, n, 0, n);
            sel.clear();
            sel.extend(0..batch.len() as u32);
            counts.clear();
            chain
                .eval(&batch, &probes, &mut sel, &mut scratch, &mut counts)
                .expect("eval");
            produced += sel.len() as u64;
        }
        std::hint::black_box(produced);
        started.elapsed()
    });
    println!("gen + eval     : {ms:>7.1} ms");
}

#[test]
#[ignore = "a timing table, not a check: run with --ignored --nocapture"]
fn profile_q1_x5() {
    profile("q1", 5.0);
}

#[test]
#[ignore = "a timing table, not a check: run with --ignored --nocapture"]
fn profile_q2_x5() {
    profile("q2", 5.0);
}

#[test]
#[ignore = "a timing table, not a check: run with --ignored --nocapture"]
fn profile_q2_x0_05() {
    profile("q2", 0.05);
}
