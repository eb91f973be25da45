//! The paper's algorithms that the planner does not register (they never win
//! a ranking), run at the parameters the suites test them at: Partition at
//! `b = 12` groups (`C(12, 3) = 220` reducers), the plain multiway join at
//! `b = 6` buckets per variable (`6³ = 216`), and CQ-oriented processing at
//! `k = 32` reducers per job.

use subgraph_mr::prelude::*;

/// One of the paper's unregistered algorithms.
#[derive(Clone, Copy, Debug)]
pub enum PaperAlgorithm {
    /// Section 2.1 at `b = 12`.
    Partition,
    /// Section 2.2 at `b = 6`.
    Multiway,
    /// Section 4.1 at `k = 32` per job.
    CqOriented,
}

impl PaperAlgorithm {
    /// The algorithms that apply to `sample`: Section 2's to the triangle
    /// only.
    pub fn applicable(sample: &SampleGraph) -> Vec<PaperAlgorithm> {
        let mut algorithms = vec![PaperAlgorithm::CqOriented];
        if sample.num_nodes() == 3 && sample.num_edges() == 3 {
            algorithms.extend([PaperAlgorithm::Partition, PaperAlgorithm::Multiway]);
        }
        algorithms
    }

    /// Runs the algorithm, streaming every instance into `sink`.
    pub fn run_into(
        self,
        sample: &SampleGraph,
        graph: &DataGraph,
        config: &EngineConfig,
        sink: &mut dyn InstanceSink,
    ) -> RunStats {
        match self {
            PaperAlgorithm::Partition => run_partition_triangles_into(graph, 12, config, sink),
            PaperAlgorithm::Multiway => run_multiway_triangles_into(graph, 6, config, sink),
            PaperAlgorithm::CqOriented => run_cq_oriented(sample, graph, 32, config, sink),
        }
    }

    /// Runs the algorithm and collects every instance.
    pub fn run(
        self,
        sample: &SampleGraph,
        graph: &DataGraph,
        config: &EngineConfig,
    ) -> MapReduceRun {
        RunStats::collect(|sink| self.run_into(sample, graph, config, sink))
    }
}
