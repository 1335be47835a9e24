//! Ad-hoc breakdown of the shard-side hot loops the dataplane bench times:
//! partner generation, window maintenance + snapshot, driving generation,
//! and fused-chain evaluation, each isolated over the full-mode horizon.
//! Each phase reports the minimum over several repetitions to shrug off
//! scheduler noise on small machines.
//!
//! ```text
//! cargo run --release -p rld-exec --example profile_shard
//! ```

use rld_common::{
    ColumnBatch, CompiledOp, EvalScratch, FusedChain, MarkTerms, OperatorId, OperatorKind,
    ProbeSet, Query, WindowPartition,
};
use rld_workloads::{RatePattern, ShardedDrivingGen, ShardedPartnerGen, StockWorkload, Workload};
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 5;

fn min_ms(mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut items = 0;
    for _ in 0..REPS {
        let started = Instant::now();
        items = f();
        best = best.min(started.elapsed().as_secs_f64() * 1000.0);
    }
    (best, items)
}

fn main() {
    let query = Query::q1_stock_monitoring();
    let workload = StockWorkload::new(60.0, RatePattern::Constant(5.0));
    let ticks = 300u64;
    let dt = 1.0f64;
    let window_ms = (query.window_secs * 1000.0).max(0.0) as u64;

    let pgen = ShardedPartnerGen::new(&query, 42);
    let gen = ShardedDrivingGen::new(&query, 42);

    // Partner generation alone.
    let (ms, rows) = min_ms(|| {
        let mut rows = 0u64;
        for tick in 0..ticks {
            let t = tick as f64 * dt;
            let truth = workload.stats_at(t);
            let parts = pgen.fill_partition(tick, t, dt, &truth, 0, 1);
            rows += parts.iter().map(|p| p.keys.len() as u64).sum::<u64>();
        }
        rows
    });
    println!("partner gen: {ms:>7.1} ms  ({rows} rows)");

    // Window maintenance (advance + snapshot) on pre-generated partners.
    let per_tick: Vec<_> = (0..ticks)
        .map(|tick| {
            let t = tick as f64 * dt;
            let truth = workload.stats_at(t);
            pgen.fill_partition(tick, t, dt, &truth, 0, 1)
        })
        .collect();
    let streams: Vec<Option<_>> = query
        .operators
        .iter()
        .map(|spec| match spec.kind {
            OperatorKind::WindowJoin { partner } => Some(partner),
            _ => None,
        })
        .collect();
    let mut final_windows: Vec<Option<WindowPartition>> = Vec::new();
    let (ms, snaps) = min_ms(|| {
        let mut windows: Vec<Option<WindowPartition>> = streams
            .iter()
            .map(|s| s.map(|_| WindowPartition::new(window_ms)))
            .collect();
        let mut snaps = 0u64;
        for (tick, parts) in per_tick.iter().enumerate() {
            let now_ms = (tick as f64 * dt * 1000.0) as u64;
            for (i, slot) in windows.iter_mut().enumerate() {
                let Some(part) = slot else { continue };
                let stream = streams[i].unwrap();
                let (ts, marks) = parts
                    .iter()
                    .find(|p| p.stream == stream)
                    .map(|p| (p.ts_ms.as_slice(), p.marks.as_slice()))
                    .unwrap_or((&[], &[]));
                if part.advance(now_ms, ts, marks) {
                    let _ = std::hint::black_box(part.snapshot());
                    snaps += 1;
                }
            }
        }
        final_windows = windows;
        snaps
    });
    println!("window adv : {ms:>7.1} ms  ({snaps} snapshots)");

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
        if let Some(part) = slot {
            probes.set_partition(OperatorId::new(i), 0, part.snapshot());
        }
    }
    let ordering: Vec<OperatorId> = query.operator_ids();
    let chain = FusedChain::compile(&ops, &ordering).expect("chain");
    let mut batch = ColumnBatch::with_arity(query.driving_stream, gen.arity());
    let mut sel: Vec<u32> = Vec::new();
    let mut scratch: Vec<u32> = Vec::new();
    let mut counts = Vec::new();
    let mut arena = EvalScratch::new();
    let probes = Arc::new(probes);
    let plans: Vec<_> = (0..ticks)
        .map(|tick| {
            let truth = workload.stats_at(tick as f64 * dt);
            gen.match_plan(&truth)
        })
        .collect();
    // Batch size comes from the runtime core in the real dataplane; 500
    // rows/tick matches the full-mode bench's arrival volume.
    let n = 500u64;
    let (ms, rows) = min_ms(|| {
        let mut rows = 0u64;
        for tick in 0..ticks {
            let t = tick as f64 * dt;
            batch.clear();
            gen.fill_slice(&mut batch, &plans[tick as usize], tick, t, dt, n, 0, n);
            rows += batch.len() as u64;
        }
        rows
    });
    println!("driving gen: {ms:>7.1} ms  ({rows} rows)");
    let (ms, _) = min_ms(|| {
        let mut produced = 0u64;
        for tick in 0..ticks {
            let t = tick as f64 * dt;
            batch.clear();
            gen.fill_slice(&mut batch, &plans[tick as usize], tick, t, dt, n, 0, n);
            sel.clear();
            sel.extend(0..batch.len() as u32);
            counts.clear();
            chain
                .eval(
                    &batch,
                    &probes,
                    &mut sel,
                    &mut scratch,
                    &mut counts,
                    &mut arena,
                )
                .expect("eval");
            produced += sel.len() as u64;
        }
        std::hint::black_box(produced)
    });
    println!("gen + eval : {ms:>7.1} ms");
}
