//! Property-style tests for the map-reduce engine, exercised over
//! deterministic seeded sweeps of random inputs (a tiny SplitMix64 keeps this
//! crate free of dependencies).

use crate::engine::EngineConfig;
use crate::metrics::JobMetrics;
use crate::reference::{collect, Job};
use crate::round::Round;
use crate::task::{MapContext, ReduceContext};
use std::collections::HashMap;

/// SplitMix64 — enough randomness for input generation.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_inputs(seed: u64, max_len: usize, value_range: u64) -> Vec<u64> {
    let mut state = seed;
    let len = (splitmix(&mut state) as usize) % max_len;
    (0..len)
        .map(|_| splitmix(&mut state) % value_range)
        .collect()
}

/// Grouping semantics: the engine delivers every value to exactly one reducer
/// invocation, keyed correctly, regardless of thread count.
#[test]
fn grouping_matches_a_hashmap_reference() {
    for seed in 0..24 {
        let inputs = random_inputs(seed, 300, 200);
        let threads = 1 + (seed as usize) % 7;
        let mapper = |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(x % 17, *x);
        let reducer = |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64, usize)>| {
            ctx.emit((*k, vs.iter().sum(), vs.len()));
        };
        let (outputs, metrics) = collect(
            &Round::new("job", mapper, reducer),
            &inputs,
            &EngineConfig::with_threads(threads),
        );

        let mut reference: HashMap<u64, (u64, usize)> = HashMap::new();
        for x in &inputs {
            let entry = reference.entry(x % 17).or_default();
            entry.0 += x;
            entry.1 += 1;
        }
        assert_eq!(outputs.len(), reference.len(), "seed {seed}");
        assert_eq!(metrics.reducers_used, reference.len(), "seed {seed}");
        assert_eq!(metrics.shuffle_records, inputs.len(), "seed {seed}");
        for (k, sum, count) in outputs {
            let expected = reference.get(&k).copied().unwrap_or((0, 0));
            assert_eq!((sum, count), expected, "seed {seed} key {k}");
        }
    }
}

/// Communication cost equals the number of emissions, independent of the
/// number of reducers or threads.
#[test]
fn communication_cost_counts_every_emission() {
    for seed in 24..48 {
        let inputs = random_inputs(seed, 200, 100);
        let replication = 1 + (seed as usize) % 5;
        let threads = 1 + (seed as usize) % 5;
        let mapper = move |x: &u64, ctx: &mut MapContext<u64, u64>| {
            for i in 0..replication {
                ctx.emit(x.wrapping_add(i as u64 * 31), *x);
            }
        };
        let reducer = |_k: &u64, vs: &[u64], ctx: &mut ReduceContext<usize>| {
            ctx.add_work(vs.len() as u64);
            ctx.emit(vs.len());
        };
        let (_, metrics) = collect(
            &Round::new("job", mapper, reducer),
            &inputs,
            &EngineConfig::with_threads(threads),
        );
        assert_eq!(
            metrics.shuffle_records,
            inputs.len() * replication,
            "seed {seed}"
        );
        // Every emitted pair is shipped, 16 bytes each (u64 key + u64
        // value), and reaches exactly one reducer — so the reducer-side work
        // (which counts received values) equals the communication cost.
        assert_eq!(
            metrics.shuffle_bytes,
            metrics.shuffle_records as u64 * 16,
            "seed {seed}"
        );
        assert_eq!(
            metrics.reducer_work as usize,
            inputs.len() * replication,
            "seed {seed}"
        );
        assert!(metrics.max_reducer_input <= metrics.shuffle_records);
    }
}

/// Thread count never changes the multiset of outputs.
#[test]
fn outputs_are_thread_count_invariant() {
    for seed in 48..64 {
        let inputs = random_inputs(seed, 250, 500);
        let mapper = |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(x % 23, x * x);
        let reducer = |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((*k, vs.iter().copied().max().unwrap_or(0)));
        };
        let mut baseline: Option<Vec<(u64, u64)>> = None;
        for threads in [1usize, 2, 5] {
            let (mut outputs, _) = collect(
                &Round::new("job", mapper, reducer),
                &inputs,
                &EngineConfig::with_threads(threads),
            );
            outputs.sort_unstable();
            match &baseline {
                None => baseline = Some(outputs),
                Some(expected) => assert_eq!(&outputs, expected, "seed {seed}"),
            }
        }
    }
}

fn two_keys_per_record(x: &u64) -> Vec<(u64, u64)> {
    vec![(x % 29, x * 3), (x % 13, x + 7)]
}

fn sum_and_count(key: &u64, values: &[u64]) -> Vec<(u64, u64, usize)> {
    vec![(*key, values.iter().sum(), values.len())]
}

/// Two emissions per record under a value-dependent weigher.
fn parity_job() -> Job<u64, u64, u64, (u64, u64, usize)> {
    Job {
        map: two_keys_per_record,
        reduce: sum_and_count,
        weigh: |_, v| 8 + (v % 5) as usize,
    }
}

/// Runs the parity job on the real (parallel-shuffle) engine.
fn parallel_shuffle_run(inputs: &[u64], threads: usize) -> (Vec<(u64, u64, usize)>, JobMetrics) {
    collect(
        &parity_job().round("parity"),
        inputs,
        &EngineConfig::with_threads(threads),
    )
}

/// Parity of the parallel two-phase shuffle against the single-threaded
/// reference executor: the exact output order and every counter, for threads
/// {1, 2, 8}.
#[test]
fn parallel_shuffle_matches_the_serial_grouping_reference() {
    for seed in 124..140 {
        let inputs = random_inputs(seed, 500, 400);
        for threads in [1usize, 2, 8] {
            let partitions = EngineConfig::with_threads(threads).reduce_partitions();
            let (expected, expected_metrics) = parity_job().reference(&inputs, partitions);
            let (outputs, metrics) = parallel_shuffle_run(&inputs, threads);
            let label = format!("seed {seed} threads {threads}");
            assert_eq!(outputs, expected, "{label}");
            assert_eq!(metrics.without_timings(), expected_metrics, "{label}");
        }
    }
}

/// Deterministic mode: the parallel shuffle repeats byte-identically at every
/// thread count, and its counters are thread-count invariant.
#[test]
fn parallel_shuffle_repeats_exactly_and_counters_ignore_thread_count() {
    for seed in 140..148 {
        let inputs = random_inputs(seed, 400, 300);
        let single = parallel_shuffle_run(&inputs, 1);
        for threads in [2usize, 8] {
            let first = parallel_shuffle_run(&inputs, threads);
            let second = parallel_shuffle_run(&inputs, threads);
            assert_eq!(first.0, second.0, "seed {seed} threads {threads}");
            // Counters that must not depend on the worker count at all.
            assert_eq!(first.1.reducers_used, single.1.reducers_used);
            assert_eq!(first.1.max_reducer_input, single.1.max_reducer_input);
            assert_eq!(first.1.shuffle_records, single.1.shuffle_records);
            assert_eq!(first.1.shuffle_bytes, single.1.shuffle_bytes);
        }
    }
}

/// Zeroes the timing fields and the spill-only counters, leaving every count
/// that the cross-budget parity contract pins.
fn spill_invariant_counters(metrics: JobMetrics) -> JobMetrics {
    let mut metrics = metrics.without_timings();
    metrics.spilled_bytes = 0;
    metrics.spill_runs = 0;
    metrics
}

/// The out-of-core contract: for any seeded random workload, outputs and every
/// `JobMetrics` counter (spill counters aside) are byte-identical across
/// memory budgets — a 64 KiB budget that spills heavily, a 1 MiB budget, and
/// the unbounded in-memory path.
#[test]
fn outputs_and_counters_are_invariant_across_memory_budgets() {
    for seed in 148..154 {
        let inputs = random_inputs(seed, 60_000, 1 << 20);
        let threads = 1 + (seed as usize) % 4;
        let mapper = |x: &u64, ctx: &mut MapContext<u64, u64>| {
            ctx.emit(x % 1987, x ^ (x >> 7));
            ctx.emit(x % 311, x.wrapping_mul(3));
        };
        let reducer = |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64, usize)>| {
            ctx.emit((
                *k,
                vs.iter().fold(0u64, |a, v| a.wrapping_add(*v)),
                vs.len(),
            ));
        };
        let run = |budget: usize| {
            let config = EngineConfig::with_threads(threads).memory_budget(budget);
            collect(
                &Round::new("budget-sweep", mapper, reducer),
                &inputs,
                &config,
            )
        };
        let (base_out, base_metrics) = run(0);
        assert_eq!(base_metrics.spilled_bytes, 0, "seed {seed}");
        assert_eq!(base_metrics.spill_runs, 0, "seed {seed}");
        for budget in [64 << 10, 1 << 20] {
            let (outputs, metrics) = run(budget);
            assert_eq!(outputs, base_out, "seed {seed} budget {budget}");
            assert_eq!(
                spill_invariant_counters(metrics),
                spill_invariant_counters(base_metrics.clone()),
                "seed {seed} budget {budget}"
            );
        }
    }
}
