//! Mapper and reducer traits plus their emission contexts.

use crate::arena::ArenaState;
use crate::sink::SinkShard;

/// Collects the key-value pairs emitted by a mapper (each emission is one
/// unit of communication cost). The engine reuses one context for all of a
/// map worker's records, and every emission is routed and serialized on the
/// spot into that worker's per-reduce-bucket byte arenas (see
/// `crate::arena`), so emissions accumulate without one allocation per
/// record and mappers never see the encoding.
pub struct MapContext<K, V> {
    arena: ArenaState<K, V>,
}

impl<K, V> MapContext<K, V> {
    /// A context that serializes emissions into the given per-shard arenas.
    pub(crate) fn new(arena: ArenaState<K, V>) -> Self {
        MapContext { arena }
    }

    /// Emits one key-value pair towards the reducers.
    pub fn emit(&mut self, key: K, value: V) {
        self.arena.emit(&key, &value);
    }

    /// Number of pairs emitted into this context so far.
    pub fn emitted_len(&self) -> usize {
        self.arena.emitted()
    }

    /// The filled arenas and emission count.
    pub(crate) fn into_arena(self) -> (Vec<crate::arena::ArenaBucket>, usize) {
        self.arena.into_parts()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use crate::sink::BufferShard;
    use std::sync::Arc;

    /// A map context over two reduce buckets' arenas.
    fn map_context() -> MapContext<u32, u32> {
        let pool = WorkerPool::new(0);
        MapContext::new(ArenaState::new(2, Arc::clone(pool.buffers())))
    }

    #[test]
    fn map_context_counts_emissions() {
        let mut ctx = map_context();
        ctx.emit(1, 10);
        ctx.emit(2, 20);
        assert_eq!(ctx.emitted_len(), 2);
        let (buckets, emitted) = ctx.into_arena();
        assert_eq!((buckets.len(), emitted), (2, 2));
        #[cfg(debug_assertions)]
        let _ = crate::hash::debug_hash_count::take();
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
        let mut ctx = map_context();
        mapper.map(&5, &mut ctx);
        assert_eq!(ctx.emitted_len(), 1);
        #[cfg(debug_assertions)]
        let _ = crate::hash::debug_hash_count::take();

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
