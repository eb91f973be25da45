//! The bucket-ordered multiway-join triangle algorithm (Section 2.3) — the
//! paper's best one-round triangle algorithm, and the triangle case of
//! [`crate::enumerate::bucket_oriented`].
//!
//! Nodes are ordered by `(hash bucket, identifier)`. Because the edge relation
//! now respects the bucket order, only reducers whose bucket triple is
//! non-decreasing can contain triangles: there are `C(b+2, 3) ≈ b³/6` of them
//! and each edge is shipped to exactly `b` reducers (the sorted triple formed
//! by its two endpoint buckets plus any third bucket), so the communication
//! cost is `b` per edge — a factor 3/2 better than Partition and 1.65 better
//! than the plain multiway join at equal reducer counts (Figure 1).
//!
//! Section 4.5 generalizes exactly this scheme to `p` nodes, so the planner's
//! `bucket-oriented` strategy *is* this algorithm on the triangle: the same
//! keys, the same `b` records per edge, and a triangle emitted only by the
//! reducer whose key is the sorted bucket triple of its nodes. The tests
//! below pin that at `p = 3`.

#[cfg(test)]
mod tests {
    use crate::enumerate::bucket_oriented::run_bucket_oriented;
    use crate::result::{MapReduceRun, RunStats};
    use crate::serial::triangles::enumerate_triangles_serial;
    use subgraph_graph::{generators, DataGraph};
    use subgraph_mapreduce::EngineConfig;
    use subgraph_pattern::catalog;
    use subgraph_shares::counting::useful_reducers;

    fn config() -> EngineConfig {
        EngineConfig::with_threads(4)
    }

    /// The bucket-oriented round on the triangle with `b` buckets.
    fn run_bucket_ordered_triangles(
        graph: &DataGraph,
        b: usize,
        config: &EngineConfig,
    ) -> MapReduceRun {
        RunStats::collect(|sink| run_bucket_oriented(&catalog::triangle(), graph, b, config, sink))
    }

    #[test]
    fn finds_every_triangle_exactly_once() {
        for seed in 0..3 {
            let g = generators::gnm(80, 520, seed);
            let serial = enumerate_triangles_serial(&g);
            for b in [1usize, 3, 6, 10] {
                let run = run_bucket_ordered_triangles(&g, b, &config());
                assert_eq!(run.count(), serial.count(), "b={b} seed={seed}");
                assert_eq!(run.duplicates(), 0, "b={b} seed={seed}");
            }
        }
    }

    #[test]
    fn communication_is_exactly_b_per_edge() {
        let g = generators::gnm(150, 1500, 9);
        for b in [2usize, 5, 10, 16] {
            let run = run_bucket_ordered_triangles(&g, b, &config());
            assert_eq!(run.metrics.shuffle_records, b * g.num_edges(), "b={b}");
            // Only non-decreasing triples are ever materialized.
            let max = useful_reducers(b as u64, 3);
            assert!((run.metrics.reducers_used as u128) <= max, "b={b}");
        }
    }

    #[test]
    fn beats_the_other_algorithms_on_communication_at_equal_reducers() {
        // Figure 2: at ≈220 reducers, Partition (b=12) ships 13.75m, the plain
        // multiway join (b=6, 216 reducers) ships ≈16m, and this algorithm
        // (b=10) ships 10m.
        let g = generators::gnm(200, 2400, 4);
        let ordered = run_bucket_ordered_triangles(&g, 10, &config());
        let partition = crate::triangles::partition::run_partition_triangles(&g, 12, &config());
        let multiway = crate::triangles::multiway::run_multiway_triangles(&g, 6, &config());
        assert!(
            ordered.metrics.shuffle_records < partition.metrics.shuffle_records,
            "ordered {} vs partition {}",
            ordered.metrics.shuffle_records,
            partition.metrics.shuffle_records
        );
        assert!(ordered.metrics.shuffle_records < multiway.metrics.shuffle_records);
        // All three agree on the answer.
        assert_eq!(ordered.count(), partition.count());
        assert_eq!(ordered.count(), multiway.count());
    }

    #[test]
    fn total_reducer_work_stays_near_the_serial_work() {
        // Theorem 6.1 / Section 2.3: the total computation at the reducers is
        // O(m^{3/2}), the same order as the serial algorithm — here the same
        // join run by one reducer over every edge (b = 1), counted in the
        // same unit (edges read plus candidates tried).
        let g = generators::gnm(300, 2700, 11);
        let serial = run_bucket_ordered_triangles(&g, 1, &config()).metrics;
        for b in [2usize, 4, 8] {
            let run = run_bucket_ordered_triangles(&g, b, &config());
            let ratio = run.metrics.reducer_work as f64 / serial.reducer_work.max(1) as f64;
            assert!(
                ratio < 12.0,
                "b={b}: parallel work {} vs serial {} (ratio {ratio})",
                run.metrics.reducer_work,
                serial.reducer_work
            );
        }
    }

    #[test]
    fn single_bucket_equals_serial() {
        let g = generators::gnm(40, 200, 3);
        let run = run_bucket_ordered_triangles(&g, 1, &config());
        assert_eq!(run.metrics.reducers_used, 1);
        assert_eq!(run.count(), enumerate_triangles_serial(&g).count());
        assert_eq!(run.metrics.shuffle_records, g.num_edges());
    }
}
