//! Mapper and reducer traits plus their emission contexts.

use crate::arena::ArenaState;
use crate::sink::SinkShard;

/// How a [`MapContext`] stores its emissions: routed and serialized on the
/// fly into per-reduce-bucket byte arenas (see `crate::arena`), or as plain
/// pairs that a combining round groups and combines per map shard first.
enum Emissions<K, V> {
    Pairs(Vec<(K, V)>),
    Arena(ArenaState<K, V>),
}

/// Collects the key-value pairs emitted by a mapper (each emission is one
/// unit of communication cost). The engine reuses one context for all of a
/// map worker's records, so emissions accumulate instead of paying one
/// allocation per record. Whether emissions accumulate as pairs or as
/// serialized arena records is the engine's choice; mappers never see the
/// difference.
pub struct MapContext<K, V> {
    emitted: Emissions<K, V>,
}

impl<K, V> MapContext<K, V> {
    pub(crate) fn new() -> Self {
        MapContext {
            emitted: Emissions::Pairs(Vec::new()),
        }
    }

    /// A context that serializes emissions straight into per-shard arenas.
    pub(crate) fn with_arena(state: ArenaState<K, V>) -> Self {
        MapContext {
            emitted: Emissions::Arena(state),
        }
    }

    /// Emits one key-value pair towards the reducers.
    pub fn emit(&mut self, key: K, value: V) {
        match &mut self.emitted {
            Emissions::Pairs(pairs) => pairs.push((key, value)),
            Emissions::Arena(state) => state.emit(&key, &value),
        }
    }

    /// Number of pairs emitted into this context so far.
    pub fn emitted_len(&self) -> usize {
        match &self.emitted {
            Emissions::Pairs(pairs) => pairs.len(),
            Emissions::Arena(state) => state.emitted(),
        }
    }

    /// The emitted pairs (pair contexts only).
    pub(crate) fn into_pairs(self) -> Vec<(K, V)> {
        match self.emitted {
            Emissions::Pairs(pairs) => pairs,
            Emissions::Arena(_) => unreachable!("into_pairs on an arena context"),
        }
    }

    /// The filled arenas and emission count (arena contexts only).
    pub(crate) fn into_arena(self) -> (Vec<crate::arena::ArenaBucket>, usize) {
        match self.emitted {
            Emissions::Pairs(_) => unreachable!("into_arena on a pair context"),
            Emissions::Arena(state) => state.into_parts(),
        }
    }
}

/// Streams reducer output into a [`SinkShard`] and tracks the reducer's
/// self-reported computation cost. The engine gives each reduce worker one
/// context for all the keys it owns; every [`ReduceContext::emit`] goes
/// straight to the worker's sink shard — a buffering shard on the
/// `Vec`-collecting path, a constant-memory shard for counting sinks — so
/// the engine itself never materializes a `Vec` of final outputs.
pub struct ReduceContext<O> {
    shard: Box<dyn SinkShard<O>>,
    emitted: usize,
    work: u64,
}

impl<O> ReduceContext<O> {
    /// A context that buffers its outputs into a plain [`BufferShard`]
    /// (tests drive reducers directly through this).
    #[cfg(test)]
    pub(crate) fn buffered() -> Self
    where
        O: Send + 'static,
    {
        ReduceContext::with_shard(Box::new(crate::sink::BufferShard(Vec::new())))
    }

    /// A context that streams into the given worker shard.
    pub(crate) fn with_shard(shard: Box<dyn SinkShard<O>>) -> Self {
        ReduceContext {
            shard,
            emitted: 0,
            work: 0,
        }
    }

    /// Emits one output record.
    pub fn emit(&mut self, output: O) {
        self.emitted += 1;
        self.shard.accept(output);
    }

    /// Adds `units` to the reducer's computation-cost counter. The paper's
    /// computation cost is the total over all reducers of whatever unit the
    /// serial algorithm counts (e.g. candidate instances examined); reducers
    /// report it explicitly so that the harness can compare the parallel total
    /// against the serial baseline (Theorem 6.1).
    pub fn add_work(&mut self, units: u64) {
        self.work += units;
    }

    /// Number of outputs emitted so far.
    pub fn output_len(&self) -> usize {
        self.emitted
    }

    /// Dismantles the context: the filled shard, the work counter, and the
    /// number of emitted records.
    pub(crate) fn into_parts(self) -> (Box<dyn SinkShard<O>>, u64, usize) {
        (self.shard, self.work, self.emitted)
    }
}

/// A map function: one input record to any number of key-value pairs.
///
/// In every algorithm of the paper the input records are the edges of the data
/// graph and the mapper's only job is key assignment, so its computation cost
/// is proportional to the communication cost (Section 1.2) — the engine
/// therefore only tracks the emission count on the map side.
pub trait Mapper<I, K, V>: Sync {
    /// Maps one input record.
    fn map(&self, input: &I, ctx: &mut MapContext<K, V>);
}

/// A reduce function: one distinct key and all values grouped under it.
pub trait Reducer<K, V, O>: Sync {
    /// Reduces one key group.
    fn reduce(&self, key: &K, values: &[V], ctx: &mut ReduceContext<O>);
}

/// A map-side combiner: pre-aggregates the values a *single map shard*
/// collected for one key before they are shipped through the shuffle.
///
/// The contract is the classic MapReduce one: running the reducer on the
/// combined values must produce the same outputs as running it on the raw
/// values, for any way the engine splits the map input into shards. That
/// holds when `combine` is associative and commutative in the values (e.g.
/// partial sums, set unions, deduplication) and the reducer does
/// not depend on the arrival order of its values.
///
/// Combiners never change *what* is computed — only how many key-value pairs
/// cross the shuffle. [`crate::JobMetrics`] reports the effect through
/// `combiner_input_records` / `combiner_output_records` and the
/// `shuffle_records` / `shuffle_bytes` counters.
pub trait Combiner<K, V>: Sync {
    /// Combines the values one map shard collected for `key` into an
    /// equivalent (usually shorter) list.
    fn combine(&self, key: &K, values: Vec<V>) -> Vec<V>;
}

/// Blanket implementation so plain closures can act as mappers.
impl<I, K, V, F> Mapper<I, K, V> for F
where
    F: Fn(&I, &mut MapContext<K, V>) + Sync,
{
    fn map(&self, input: &I, ctx: &mut MapContext<K, V>) {
        self(input, ctx)
    }
}

/// Blanket implementation so plain closures can act as reducers.
impl<K, V, O, F> Reducer<K, V, O> for F
where
    F: Fn(&K, &[V], &mut ReduceContext<O>) + Sync,
{
    fn reduce(&self, key: &K, values: &[V], ctx: &mut ReduceContext<O>) {
        self(key, values, ctx)
    }
}

/// Blanket implementation so plain closures can act as combiners.
impl<K, V, F> Combiner<K, V> for F
where
    F: Fn(&K, Vec<V>) -> Vec<V> + Sync,
{
    fn combine(&self, key: &K, values: Vec<V>) -> Vec<V> {
        self(key, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::BufferShard;

    #[test]
    fn map_context_counts_emissions() {
        let mut ctx: MapContext<u32, &str> = MapContext::new();
        ctx.emit(1, "a");
        ctx.emit(2, "b");
        assert_eq!(ctx.emitted_len(), 2);
        assert_eq!(ctx.into_pairs(), vec![(1, "a"), (2, "b")]);
    }

    #[test]
    fn reduce_context_tracks_outputs_and_work() {
        let mut ctx: ReduceContext<u64> = ReduceContext::buffered();
        ctx.emit(7);
        ctx.add_work(5);
        ctx.add_work(3);
        assert_eq!(ctx.output_len(), 1);
        let (shard, work, emitted) = ctx.into_parts();
        let buffered = shard
            .into_any()
            .downcast::<BufferShard<u64>>()
            .expect("buffered context uses a BufferShard");
        assert_eq!(buffered.0, vec![7]);
        assert_eq!(work, 8);
        assert_eq!(emitted, 1);
    }

    #[test]
    fn closures_implement_the_traits() {
        let mapper = |x: &u32, ctx: &mut MapContext<u32, u32>| ctx.emit(x % 2, *x);
        let mut ctx = MapContext::new();
        mapper.map(&5, &mut ctx);
        assert_eq!(ctx.into_pairs(), vec![(1, 5)]);

        let reducer = |_k: &u32, vs: &[u32], ctx: &mut ReduceContext<u32>| {
            ctx.emit(vs.iter().sum());
        };
        let mut rctx = ReduceContext::buffered();
        reducer.reduce(&1, &[1, 2, 3], &mut rctx);
        let (shard, _, _) = rctx.into_parts();
        let buffered = shard.into_any().downcast::<BufferShard<u32>>().unwrap();
        assert_eq!(buffered.0, vec![6]);
    }
}
