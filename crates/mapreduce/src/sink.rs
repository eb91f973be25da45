//! Streaming output sinks: where a round's reducer outputs go
//! *instead of* being merged into a `Vec`.
//!
//! The paper's bucket schemes exist so that instance sets far larger than any
//! single machine's memory can be enumerated under a fixed reducer budget —
//! but a result API that returns `Vec<T>` caps every run at the *output*
//! size. An [`OutputSink`] receives each final-round output record as the
//! reduce workers produce it:
//!
//! * [`CountSink`] — counts records; O(1) memory whatever the output size.
//! * [`CollectSink`] — the legacy behaviour: collect into a `Vec<T>`.
//! * [`SampleSink`] — retains only the `k` smallest records (top-k); bounded
//!   memory and, because `Ord` decides membership, the retained set is
//!   independent of arrival order and thread count.
//! * [`FnSink`] — invokes a callback per record (export, count-by-key, ...).
//!
//! ## Parallel delivery: shards
//!
//! The engine's reduce phase is parallel, so a sink cannot be handed records
//! from several workers at once. Instead a round's keys are split into
//! reduce buckets (see [`crate::EngineConfig::reduce_passes`]), and every
//! bucket gets a private [`SinkShard`] ([`OutputSink::new_shard`]) that the
//! reduce task working on it streams its outputs into. Finished shards are
//! folded back into the sink **in bucket order** ([`OutputSink::fold`]),
//! each as soon as every bucket before it is folded too — which keeps the
//! output order a pure function of the input and the thread count, and
//! bounds what the shards hold to the buckets finished ahead of the oldest
//! unfinished one. Shards are created and folded under one lock around the
//! sink, on the reduce workers' threads.
//!
//! The default shard is a [`BufferShard`] (a plain `Vec` replayed through
//! [`OutputSink::accept`] at fold time): correct for every sink, and exactly
//! the old collect behaviour. Sinks that do not need buffering — counting,
//! top-k — override [`OutputSink::new_shard`]/[`OutputSink::fold`] with a
//! constant-memory shard, which is what makes `CountSink` runs allocate no
//! per-record storage anywhere in the engine.

use std::any::Any;

/// One reduce bucket's private slice of an [`OutputSink`]: created by
/// [`OutputSink::new_shard`], filled on a reduce worker's thread, handed back
/// to the owning sink via [`OutputSink::fold`].
pub trait SinkShard<T>: Send {
    /// Receives one output record, in the bucket's emission order.
    fn accept(&mut self, value: T);

    /// Type-erasure escape hatch for [`OutputSink::fold`]: a sink that
    /// overrides [`OutputSink::new_shard`] downcasts the shard back to its
    /// concrete type here.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// The default shard: buffers records in order and replays them through the
/// parent sink's [`OutputSink::accept`] at fold time. This is the only shard
/// that materializes its records; constant-memory sinks override
/// [`OutputSink::new_shard`] to avoid it.
pub struct BufferShard<T>(pub Vec<T>);

impl<T: Send + 'static> SinkShard<T> for BufferShard<T> {
    fn accept(&mut self, value: T) {
        self.0.push(value);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A streaming receiver for round outputs. Dyn-safe: algorithms take
/// `&mut dyn OutputSink<T>` so one implementation serves every sink.
///
/// Single-threaded producers (the serial algorithms, tests) may simply call
/// [`OutputSink::accept`] per record. Parallel producers go through the
/// shard protocol described in the [module docs](self).
pub trait OutputSink<T: Send + 'static>: Send {
    /// Receives one output record.
    fn accept(&mut self, value: T);

    /// Creates an empty shard for one reduce bucket. The default buffers;
    /// override together with [`OutputSink::fold`] for constant-memory
    /// delivery.
    fn new_shard(&self) -> Box<dyn SinkShard<T>> {
        Box::new(BufferShard(Vec::new()))
    }

    /// Folds one finished bucket shard back into the sink. Called once per
    /// reduce bucket, in bucket order — possibly on a reduce worker's
    /// thread while later buckets are still being reduced. The default
    /// replays a [`BufferShard`] through [`OutputSink::accept`];
    /// sinks overriding [`OutputSink::new_shard`] must override this to
    /// downcast their own shard type.
    fn fold(&mut self, shard: Box<dyn SinkShard<T>>) {
        let buffered = shard
            .into_any()
            .downcast::<BufferShard<T>>()
            .expect("the default fold only understands the default BufferShard");
        for value in buffered.0 {
            self.accept(value);
        }
    }
}

// ---- counting --------------------------------------------------------------

/// Counts records without storing any of them. The constant-memory sink
/// behind every `count()`-mode entry point.
#[derive(Clone, Debug, Default)]
pub struct CountSink {
    count: usize,
}

impl CountSink {
    /// An empty counter.
    pub fn new() -> Self {
        CountSink::default()
    }

    /// Records accepted so far.
    pub fn count(&self) -> usize {
        self.count
    }
}

struct CountShard(usize);

impl<T: Send + 'static> SinkShard<T> for CountShard {
    fn accept(&mut self, _value: T) {
        self.0 += 1;
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl<T: Send + 'static> OutputSink<T> for CountSink {
    fn accept(&mut self, _value: T) {
        self.count += 1;
    }

    fn new_shard(&self) -> Box<dyn SinkShard<T>> {
        Box::new(CountShard(0))
    }

    fn fold(&mut self, shard: Box<dyn SinkShard<T>>) {
        let counted = shard
            .into_any()
            .downcast::<CountShard>()
            .expect("CountSink shards are CountShards");
        self.count += counted.0;
    }
}

// ---- collecting ------------------------------------------------------------

/// Collects records into a `Vec` — the legacy result path, now spelled as a
/// sink so `Vec`-returning entry points are thin wrappers over the streaming
/// ones.
#[derive(Clone, Debug)]
pub struct CollectSink<T> {
    items: Vec<T>,
}

impl<T> CollectSink<T> {
    /// An empty collector.
    pub fn new() -> Self {
        CollectSink { items: Vec::new() }
    }

    /// The records accepted so far, in fold order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consumes the sink and returns the collected records.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

impl<T> Default for CollectSink<T> {
    fn default() -> Self {
        CollectSink::new()
    }
}

impl<T: Send + 'static> OutputSink<T> for CollectSink<T> {
    fn accept(&mut self, value: T) {
        self.items.push(value);
    }

    fn fold(&mut self, shard: Box<dyn SinkShard<T>>) {
        // Append the whole buffer in one reserve + move instead of replaying
        // record by record.
        let mut buffered = shard
            .into_any()
            .downcast::<BufferShard<T>>()
            .expect("CollectSink uses the default BufferShard");
        self.items.append(&mut buffered.0);
    }
}

// ---- sampling (top-k) ------------------------------------------------------

/// Retains the `k` smallest records seen (by `Ord`) — a bounded-memory sample
/// whose content is a pure function of the output *multiset*, so it is
/// identical across thread counts and arrival orders.
#[derive(Clone, Debug)]
pub struct SampleSink<T: Ord> {
    capacity: usize,
    // Max-heap: the root is the largest retained record, i.e. the first to
    // evict when a smaller one arrives.
    heap: std::collections::BinaryHeap<T>,
}

impl<T: Ord> SampleSink<T> {
    /// A sink retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        SampleSink {
            capacity,
            heap: std::collections::BinaryHeap::with_capacity(capacity.min(1 << 16)),
        }
    }

    /// Number of records currently retained (`<= capacity`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The retained records in ascending order.
    pub fn into_sorted(self) -> Vec<T> {
        self.heap.into_sorted_vec()
    }

    fn offer(&mut self, value: T) {
        if self.capacity == 0 {
            return;
        }
        if self.heap.len() < self.capacity {
            self.heap.push(value);
        } else if let Some(mut largest) = self.heap.peek_mut() {
            if value < *largest {
                *largest = value;
            }
        }
    }
}

struct SampleShard<T: Ord> {
    sample: SampleSink<T>,
}

impl<T: Ord + Send + 'static> SinkShard<T> for SampleShard<T> {
    fn accept(&mut self, value: T) {
        self.sample.offer(value);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl<T: Ord + Send + 'static> OutputSink<T> for SampleSink<T> {
    fn accept(&mut self, value: T) {
        self.offer(value);
    }

    fn new_shard(&self) -> Box<dyn SinkShard<T>> {
        Box::new(SampleShard {
            sample: SampleSink::new(self.capacity),
        })
    }

    fn fold(&mut self, shard: Box<dyn SinkShard<T>>) {
        let sampled = shard
            .into_any()
            .downcast::<SampleShard<T>>()
            .expect("SampleSink shards are SampleShards");
        for value in sampled.sample.heap {
            self.offer(value);
        }
    }
}

// ---- callbacks -------------------------------------------------------------

/// Invokes a callback per record. Bucket shards buffer and are replayed in
/// bucket order, so the callback sees the exact order the legacy `Vec` path
/// would have returned.
pub struct FnSink<T, F: FnMut(T) + Send> {
    callback: F,
    count: usize,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T, F: FnMut(T) + Send> FnSink<T, F> {
    /// Wraps `callback` as a sink.
    pub fn new(callback: F) -> Self {
        FnSink {
            callback,
            count: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of records delivered to the callback so far.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl<T: Send + 'static, F: FnMut(T) + Send> OutputSink<T> for FnSink<T, F> {
    fn accept(&mut self, value: T) {
        self.count += 1;
        (self.callback)(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a sink the way the engine does: three buckets, each with its
    /// own shard, folded in bucket order.
    fn deliver_sharded(sink: &mut dyn OutputSink<u64>, per_bucket: &[&[u64]]) {
        let shards: Vec<Box<dyn SinkShard<u64>>> = per_bucket
            .iter()
            .map(|bucket| {
                let mut shard = sink.new_shard();
                for &value in *bucket {
                    shard.accept(value);
                }
                shard
            })
            .collect();
        for shard in shards {
            sink.fold(shard);
        }
    }

    #[test]
    fn count_sink_counts_without_buffering() {
        let mut sink = CountSink::new();
        deliver_sharded(&mut sink, &[&[1, 2, 3], &[], &[4, 5]]);
        sink.accept(6);
        assert_eq!(sink.count(), 6);
    }

    #[test]
    fn collect_sink_preserves_worker_order() {
        let mut sink = CollectSink::new();
        deliver_sharded(&mut sink, &[&[3, 1], &[2], &[9, 8]]);
        assert_eq!(sink.items(), &[3, 1, 2, 9, 8]);
        assert_eq!(sink.into_items(), vec![3, 1, 2, 9, 8]);
    }

    #[test]
    fn sample_sink_retains_the_k_smallest_whatever_the_arrival_order() {
        let mut forward = SampleSink::new(3);
        deliver_sharded(&mut forward, &[&[5, 1, 9], &[7, 2], &[8, 3]]);
        let mut backward = SampleSink::new(3);
        deliver_sharded(&mut backward, &[&[3, 8], &[2, 7], &[9, 1, 5]]);
        assert_eq!(forward.into_sorted(), vec![1, 2, 3]);
        assert_eq!(backward.into_sorted(), vec![1, 2, 3]);
    }

    #[test]
    fn sample_sink_handles_degenerate_capacities() {
        let mut empty = SampleSink::new(0);
        deliver_sharded(&mut empty, &[&[1, 2]]);
        assert!(empty.is_empty());
        let mut wide = SampleSink::new(10);
        deliver_sharded(&mut wide, &[&[2, 1]]);
        assert_eq!(wide.len(), 2);
        assert_eq!(wide.into_sorted(), vec![1, 2]);
    }

    #[test]
    fn fn_sink_sees_records_in_fold_order() {
        let mut seen = Vec::new();
        {
            let mut sink = FnSink::new(|v: u64| seen.push(v));
            deliver_sharded(&mut sink, &[&[1, 2], &[3]]);
            assert_eq!(sink.count(), 3);
        }
        assert_eq!(seen, vec![1, 2, 3]);
    }
}
