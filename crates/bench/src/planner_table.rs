//! The planner's strategy choices across catalog patterns and reducer
//! budgets — the cost-based comparison the paper performs by hand in
//! Sections 2 and 4, automated — plus the plan-time sweep and its CI gate.

use crate::report::{fmt, Table};
use std::time::Instant;
use subgraph_core::plan::{EnumerationRequest, StrategyKind};
use subgraph_graph::generators;
use subgraph_pattern::{automorphism_group, catalog};

/// One row per (pattern, budget): the chosen strategy, its predicted
/// replication and reducer work, the order classes cq-oriented processing
/// runs one job each for, and the measured communication after executing
/// the plan. Every cell is a function of the inputs alone, so the table is
/// part of the golden `docs/REPRODUCTION.txt`; plan time is measured by
/// [`plan_timing`].
pub fn planner_choices() -> String {
    let graph = generators::gnm(250, 1_800, 20_130_417);
    let mut table = Table::new(
        "Planner — chosen strategy per pattern and reducer budget",
        &[
            "pattern",
            "budget k",
            "chosen strategy",
            "pred repl/edge",
            "pred work",
            "order classes",
            "measured kv pairs",
            "instances",
        ],
    );
    for pattern in ["triangle", "square", "lollipop", "c5"] {
        for k in [1usize, 64, 750] {
            let plan = EnumerationRequest::named(pattern, &graph)
                .unwrap()
                .reducers(k)
                .plan()
                .expect("catalog patterns plan");
            // Serial-only plans have no cq-oriented candidate.
            let classes = (plan.candidates().iter())
                .find(|c| c.strategy == StrategyKind::CqOriented)
                .map(|c| c.round_costs[0].jobs);
            // The measured columns come from a count-only (streamed) run —
            // RunReport::count() stays accurate with a CountSink, so the
            // instances column never lies for runs that retained nothing.
            let run = plan.count();
            assert!(run.is_streamed());
            // The collect path agrees and verifies the exactly-once invariant.
            let collected = plan.execute();
            assert_eq!(collected.verified_duplicates(), Some(0));
            assert_eq!(run.count(), collected.count());
            assert_eq!(run.communication(), collected.communication());
            table.row(&[
                pattern.to_string(),
                k.to_string(),
                plan.strategy().to_string(),
                fmt(plan.predicted_replication()),
                fmt(plan.predicted_reducer_work()),
                classes.map_or_else(|| "-".to_string(), |jobs| jobs.to_string()),
                run.communication().to_string(),
                run.count().to_string(),
            ]);
        }
    }
    table.note(
        "budget 1 means no cluster: the planner runs the reducers' one symmetry-broken join over \
         the whole graph (serial-join, priced at the smaller Theorem 7.2 / 7.3 bound), or \
         Schank's algorithm for the triangle",
    );
    table.note("Theorem 4.4 in action: cq-oriented is never chosen over the combined schemes");
    table.note(
        "order classes: p!/|Aut|, the jobs cq-oriented processing runs, one CQ each and all \
         priced by one share solve ('-': cq-oriented is not a candidate)",
    );
    table.note(
        "measured columns come from count-only runs (instances streamed through a CountSink, \
         not retained); a collect run is asserted identical",
    );
    table.render()
}

/// Plan-time measurements for one pattern.
pub struct PatternPlanTiming {
    /// Pattern name as [`catalog::by_name`] resolves it.
    pub pattern: String,
    /// `p!/|Aut(S)|`, the pattern's CQ order classes.
    pub classes: u128,
    /// Wall-clock of one full `plan()` (the median of 5 samples of ≥ 10 ms);
    /// for a refused pattern, the time to the refusal.
    pub plan_millis: f64,
    /// The chosen strategy, or `refused`.
    pub chosen: String,
    /// The planner's named reason when it refuses the pattern.
    pub refusal: Option<String>,
}

/// The plan-time sweep: every pattern planned against the same generated
/// graph the CLI acceptance command uses.
pub struct PlanTimingReport {
    /// Graph parameters (G(n, m) seed) the sweep planned against.
    pub n: usize,
    /// Edge count of the generated graph.
    pub m: usize,
    /// Generator seed.
    pub seed: u64,
    /// Reducer budget `k` for every plan.
    pub reducers: usize,
    /// `std::thread::available_parallelism` on the benchmarking host.
    pub available_parallelism: usize,
    /// Git commit of the workspace the sweep was built from.
    pub commit: String,
    /// One entry per pattern.
    pub patterns: Vec<PatternPlanTiming>,
}

/// Beyond the catalog: the large family members the repo benchmark's
/// `plan_sweep` plans, `k12` (the biggest share solve: 66 terms) and `path10`
/// (1 814 400 order classes, the most under the limit) for information, and
/// `hypercube4`, which the planner refuses by name.
const LARGE_PATTERNS: [&str; 9] = [
    "star9",
    "star10",
    "k8",
    "k9",
    "c9",
    "path8",
    "k12",
    "path10",
    "hypercube4",
];

/// Samples per pattern; the sweep reports their median.
const PLAN_SAMPLES: usize = 5;

/// Each sample repeats `plan()` until it has taken at least this long, so a
/// sub-millisecond plan is not timed off one clock reading.
const SAMPLE_MILLIS: f64 = 10.0;

/// One sample: the mean wall-clock, in milliseconds, of as many back-to-back
/// `plan()` calls of `request` as take [`SAMPLE_MILLIS`].
fn sample_plan_millis(request: &EnumerationRequest<'_>) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    loop {
        let _ = std::hint::black_box(request.clone().plan());
        calls += 1;
        let millis = started.elapsed().as_secs_f64() * 1e3;
        if millis >= SAMPLE_MILLIS {
            return millis / f64::from(calls);
        }
    }
}

/// Runs the sweep: takes 5 rounds of one sample per pattern — interleaved,
/// so a burst of host noise lands on one sample of several patterns rather
/// than on every sample of one — keeps each pattern's median, and plans each
/// pattern once more for its outcome.
pub fn plan_timing() -> PlanTimingReport {
    let (n, m, seed, reducers) = (1_000usize, 5_000usize, 7u64, 750usize);
    let graph = generators::gnm(n, m, seed);
    let names = (catalog::entries().into_iter().map(|entry| entry.name)).chain(LARGE_PATTERNS);
    let requests: Vec<_> = names
        .map(|name| {
            (EnumerationRequest::named(name, &graph))
                .expect("sweep patterns are catalog names")
                .reducers(reducers)
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(PLAN_SAMPLES); requests.len()];
    for _ in 0..PLAN_SAMPLES {
        for (request, samples) in requests.iter().zip(&mut samples) {
            samples.push(sample_plan_millis(request));
        }
    }
    let patterns = (requests.iter().zip(samples))
        .map(|(request, mut samples)| {
            samples.sort_by(f64::total_cmp);
            let (chosen, refusal) = match request.clone().plan() {
                Ok(plan) => (plan.strategy().to_string(), None),
                Err(reason) => ("refused".to_string(), Some(reason.to_string())),
            };
            PatternPlanTiming {
                pattern: request.pattern_name().unwrap_or_default().to_string(),
                classes: automorphism_group(request.sample()).order_classes(),
                plan_millis: samples[PLAN_SAMPLES / 2],
                chosen,
                refusal,
            }
        })
        .collect();
    PlanTimingReport {
        n,
        m,
        seed,
        reducers,
        available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
        commit: crate::report::workspace_commit(),
        patterns,
    }
}

impl PlanTimingReport {
    /// Renders the sweep as a table.
    pub fn table(&self) -> String {
        let mut table = Table::new(
            "Planner — plan time per pattern",
            &["pattern", "classes", "plan ms", "chosen strategy"],
        );
        for p in &self.patterns {
            table.row(&[
                p.pattern.clone(),
                p.classes.to_string(),
                format!("{:.3}", p.plan_millis),
                p.chosen.clone(),
            ]);
        }
        table.note(&format!(
            "G(n = {}, m = {}) seed {}, reducer budget {}; plan ms is one full plan() call, the \
             median of {PLAN_SAMPLES} samples of >= {SAMPLE_MILLIS} ms each; host \
             available_parallelism = {}; written to BENCH_planner.json",
            self.n, self.m, self.seed, self.reducers, self.available_parallelism,
        ));
        for p in &self.patterns {
            if let Some(reason) = &p.refusal {
                table.note(&format!("{} refused: {reason}", p.pattern));
            }
        }
        table.render()
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"planner_plan_time\",\n");
        out.push_str(&format!(
            "  \"host\": {{ \"available_parallelism\": {}, \"commit\": \"{}\" }},\n",
            self.available_parallelism, self.commit
        ));
        out.push_str("  \"workload\": {\n");
        out.push_str("    \"graph\": \"gnm\",\n");
        out.push_str(&format!("    \"n\": {},\n", self.n));
        out.push_str(&format!("    \"m\": {},\n", self.m));
        out.push_str(&format!("    \"seed\": {},\n", self.seed));
        out.push_str(&format!("    \"reducers\": {}\n", self.reducers));
        out.push_str("  },\n");
        out.push_str("  \"results\": [\n");
        let or_null = |cell: Option<String>| cell.unwrap_or_else(|| "null".to_string());
        for (i, p) in self.patterns.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"pattern\": \"{}\", \"classes\": {}, \"plan_ms\": {:.3}, \
                 \"chosen\": \"{}\", \"refusal\": {} }}{}\n",
                p.pattern,
                p.classes,
                p.plan_millis,
                p.chosen,
                or_null(p.refusal.as_ref().map(|reason| format!("{reason:?}"))),
                if i + 1 == self.patterns.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// `plan_ms` of a sweep pattern.
    fn plan_millis(&self, pattern: &str) -> f64 {
        (self.patterns.iter())
            .find(|p| p.pattern == pattern)
            .unwrap_or_else(|| panic!("{pattern} is a sweep pattern"))
            .plan_millis
    }

    /// The relative gates: ratios between rows of one sweep, so they hold on
    /// any host. Each is `(what, measured ratio, bound)` and passes when the
    /// ratio is at most the bound.
    ///
    /// * At equal `p`, many order classes may cost at most 3x one class:
    ///   `hypercube3` (840) against `k8` (1), `c9` (20 160) against `k9` (1).
    ///   One share solve prices every class, so planning does not follow
    ///   `p!/|Aut|`; solving each class (as the exhaustive search once did)
    ///   made `hypercube3` ~24x.
    /// * The `hypercube4` refusal must take less than planning `hypercube3`:
    ///   refusing costs a stabilizer chain, not a class.
    /// * `plan_ms` may grow at most 3x from `star9` to `star10` and from `k8`
    ///   to `k9`. Enumerating `S_p` made those steps 15x and 5.6x.
    pub fn relative_gates(&self) -> Vec<(String, f64, f64)> {
        [
            ("hypercube3", "k8", 3.0),
            ("c9", "k9", 3.0),
            ("hypercube4", "hypercube3", 1.0),
            ("star10", "star9", 3.0),
            ("k9", "k8", 3.0),
        ]
        .into_iter()
        .map(|(pattern, against, bound)| {
            (
                format!("{pattern} plan ms / {against} plan ms"),
                self.plan_millis(pattern) / self.plan_millis(against),
                bound,
            )
        })
        .collect()
    }
}

/// Path of the tracked benchmark file: `BENCH_planner.json` at the repo root.
pub fn bench_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_planner.json")
}

/// The plan-time budget the gate enforces on `hypercube3` (release builds).
pub const HYPERCUBE3_BUDGET_MILLIS: f64 = 50.0;

/// The CI plan gate: runs the sweep, writes `BENCH_planner.json`, and fails
/// if `hypercube4` is not refused by name, or (release builds) if
/// `hypercube3` planning exceeds [`HYPERCUBE3_BUDGET_MILLIS`] or a
/// [`PlanTimingReport::relative_gates`] ratio exceeds its bound.
pub fn plan_gate() -> Result<String, String> {
    let report = plan_timing();
    let mut out = report.table();
    crate::report::write_tracked_json(&bench_json_path(), &report.to_json());

    let refused: Vec<&str> = (report.patterns.iter())
        .filter(|p| p.refusal.is_some())
        .map(|p| p.pattern.as_str())
        .collect();
    if refused != ["hypercube4"] {
        return Err(format!(
            "{out}\nplan gate FAILED: exactly hypercube4 is past the order-class limit, but \
             the planner refused {refused:?}\n",
        ));
    }
    let hypercube = report.plan_millis("hypercube3");
    if cfg!(debug_assertions) {
        out.push_str(&format!(
            "\nplan gate: timing gates skipped in debug builds (hypercube3 planned in \
             {hypercube:.2} ms)\n",
        ));
        return Ok(out);
    }
    if hypercube > HYPERCUBE3_BUDGET_MILLIS {
        return Err(format!(
            "{out}\nplan gate FAILED: hypercube3 planned in {hypercube:.2} ms > \
             {HYPERCUBE3_BUDGET_MILLIS} ms budget\n",
        ));
    }
    for (what, ratio, bound) in report.relative_gates() {
        if ratio > bound {
            return Err(format!(
                "{out}\nplan gate FAILED: {what} = {ratio:.2} > {bound} (planning cost is \
                 following p!, p!/|Aut| or |Aut| again)\n",
            ));
        }
        out.push_str(&format!("\nplan gate: {what} = {ratio:.2} (bound {bound})"));
    }
    out.push_str(&format!(
        "\nplan gate passed: hypercube3 planned in {hypercube:.2} ms (budget \
         {HYPERCUBE3_BUDGET_MILLIS} ms)\n",
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_table_renders_serial_and_parallel_choices() {
        let text = planner_choices();
        assert!(text.contains("serial-"));
        assert!(text.contains("bucket-oriented"));
        assert!(text.contains("order classes"));
        // Theorem 4.4: cq-oriented never wins a row (the trailing notes
        // mention it by name, so only inspect the data rows).
        for row in text
            .lines()
            .filter(|l| !l.trim_start().starts_with("note:"))
        {
            assert!(
                !row.contains("cq-oriented"),
                "Theorem 4.4 violated:\n{text}"
            );
        }
    }

    #[test]
    fn plan_timing_report_is_well_formed() {
        let report = plan_timing();
        assert_eq!(
            report.patterns.len(),
            catalog::entries().len() + LARGE_PATTERNS.len()
        );
        let refused: Vec<_> = (report.patterns.iter())
            .filter(|p| p.refusal.is_some())
            .collect();
        assert_eq!(refused.len(), 1);
        assert_eq!(refused[0].pattern, "hypercube4");
        assert_eq!(refused[0].classes, 54_486_432_000);
        // Timing bounds hold for release builds (the CI gate); debug builds
        // check the report's shape only.
        for (what, ratio, bound) in report.relative_gates() {
            assert!(
                cfg!(debug_assertions) || ratio <= bound,
                "{what} = {ratio} > {bound}"
            );
        }
        crate::report::validate_json(&report.to_json()).expect("valid JSON");
    }
}
