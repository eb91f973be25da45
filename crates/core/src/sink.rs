//! Streaming instance sinks: the result path of every enumeration algorithm.
//!
//! The bucket-oriented schemes of the paper exist so that instance sets far
//! larger than memory can be enumerated under a fixed reducer budget; a
//! `Vec<Instance>` result API caps every run at the *output* size instead.
//! Every algorithm in this crate therefore streams its results into an
//! [`InstanceSink`] — the `Vec`-returning entry points are thin
//! [`CollectSink`] wrappers — so counting runs ([`CountSink`]) allocate no
//! per-instance storage at all.
//!
//! [`InstanceSink`] is the instance-specialized face of the engine's generic
//! [`subgraph_mapreduce::sink::OutputSink`]: any `OutputSink<Instance>`
//! implements it automatically, and a `&mut dyn InstanceSink` upcasts to the
//! `&mut dyn OutputSink<Instance>` the engine's
//! [`subgraph_mapreduce::Pipeline::run_with_sink`] consumes. The built-in
//! sinks:
//!
//! | sink | retains | memory |
//! |---|---|---|
//! | [`CountSink`] | a count | O(1) |
//! | [`CollectSink`]`<Instance>` | every instance (legacy `Vec` path) | O(output) |
//! | [`SampleSink`]`<Instance>` | the `k` smallest instances (order-independent) | O(k) |
//! | [`FnSink`] | nothing — invokes a callback per instance | O(1) + callback |
//! | [`NdjsonSink`] | one JSON object per line, as bytes | serial `accept`: one record + writer; map-reduce runs: the output *bytes* of the buckets finished ahead of the oldest unfinished one |
//! | [`CsvSink`] | one CSV row per instance, as bytes | as [`NdjsonSink`] |
//! | [`EdgeListSink`] | each instance's edges as `u v` lines, as bytes | as [`NdjsonSink`], plus one offset per record |
//!
//! The three serializing sinks are the file-backed result path of the
//! `subgraph` CLI: they wrap any [`std::io::Write`] (hand them a
//! [`std::io::BufWriter`] around a file, or a locked stdout), turn each
//! instance into text the moment the engine delivers it, and defer I/O errors
//! to [`SerializeSink::finish`] so `accept` stays infallible for the engine:
//!
//! ```
//! use subgraph_core::sink::{NdjsonSink, SerializeSink};
//! use subgraph_core::sink::OutputSink;
//! use subgraph_pattern::Instance;
//!
//! let mut out = Vec::new();
//! let mut sink = NdjsonSink::new(&mut out);
//! sink.accept(Instance::from_edge_set([(0, 1), (1, 2), (0, 2)]));
//! assert_eq!(sink.finish().unwrap(), 1); // flushes, returns records written
//! assert_eq!(
//!     String::from_utf8(out).unwrap(),
//!     "{\"nodes\":[0,1,2],\"edges\":[[0,1],[0,2],[1,2]]}\n"
//! );
//! ```
//!
//! Parallel delivery happens through per-reduce-bucket shards folded back in
//! bucket order, each as soon as the buckets ahead of it are, which keeps
//! the output order a pure function of the input and the thread count — see
//! the engine's [`subgraph_mapreduce::sink`] module for the shard protocol.
//! A serializing sink's shard is a byte buffer: the reduce worker formats
//! each instance into it and drops the instance at once, so serialization
//! runs in parallel with the reducers and a run retains the bytes of the
//! buckets finished ahead of the oldest unfinished one, never a
//! `Vec<Instance>`; the fold is one `write_all` per shard and runs while
//! later buckets are still being reduced. The file content is a pure
//! function of the input and the thread count.

use std::any::Any;
use std::io::{self, Write};
use std::marker::PhantomData;

pub use subgraph_mapreduce::sink::{
    BufferShard, CollectSink, CountSink, FnSink, OutputSink, SampleSink, SinkShard,
};
use subgraph_pattern::Instance;

/// A streaming receiver of enumeration results. Blanket-implemented for every
/// [`OutputSink`]`<Instance>`, so the engine's sinks and any custom sink work
/// unchanged; algorithms take `&mut dyn InstanceSink`.
pub trait InstanceSink: OutputSink<Instance> {}

impl<S: OutputSink<Instance> + ?Sized> InstanceSink for S {}

// ---- serializing sinks ------------------------------------------------------

/// Common surface of the text-writing sinks ([`NdjsonSink`], [`CsvSink`],
/// [`EdgeListSink`]): because [`OutputSink::accept`] is infallible, write
/// errors are latched instead of surfaced per record, and [`finish`] reports
/// the first one after flushing.
///
/// [`finish`]: SerializeSink::finish
pub trait SerializeSink {
    /// Flushes the writer and reports the outcome: the number of instances
    /// serialized, or the first I/O error hit while writing (subsequent
    /// records and shards were skipped once a write failed).
    fn finish(self) -> io::Result<usize>;

    /// Instances whose `write_all` succeeded so far. A record delivered
    /// through [`OutputSink::accept`] counts once its own write returned; the
    /// records of a bucket shard count together, and only once the whole
    /// shard was written — a shard whose write failed part-way adds nothing,
    /// whatever prefix of it reached the writer.
    fn written(&self) -> usize;
}

/// The separators and brackets of one text format. The formats differ in
/// nothing else: one formatter (`push_record`) runs over these constants,
/// monomorphized per format so each separator is a literal at its use.
///
/// A record is `OPEN`, the nodes (each `NODE_OPEN` + decimal, `NODE_SEP`
/// between two), `MID`, the edges (each `EDGE_OPEN` u `EDGE_MID` v
/// `EDGE_CLOSE`, `EDGE_SEP` between two), `CLOSE`.
pub trait TextFormat: 'static {
    /// Written once, before the first record — or at finish time, so an
    /// empty result is still a valid file.
    const HEADER: &'static [u8] = b"";
    /// `Some` when every record starts with this and its running index (the
    /// number of records before it in the output).
    const INDEX_OPEN: Option<&'static [u8]> = None;
    /// Start of a record, after the index if there is one.
    const OPEN: &'static [u8] = b"";
    /// Before every node.
    const NODE_OPEN: &'static [u8] = b"";
    /// Between two nodes.
    const NODE_SEP: &'static [u8] = b"";
    /// Between the nodes and the edges.
    const MID: &'static [u8];
    /// Before every edge.
    const EDGE_OPEN: &'static [u8] = b"";
    /// Between an edge's endpoints.
    const EDGE_MID: &'static [u8];
    /// After every edge.
    const EDGE_CLOSE: &'static [u8] = b"";
    /// Between two edges.
    const EDGE_SEP: &'static [u8] = b"";
    /// End of a record.
    const CLOSE: &'static [u8] = b"";
}

/// Newline-delimited JSON: `{"nodes":[…],"edges":[[u,v],…]}`.
pub struct Ndjson;

impl TextFormat for Ndjson {
    const OPEN: &'static [u8] = b"{\"nodes\":[";
    const NODE_SEP: &'static [u8] = b",";
    const MID: &'static [u8] = b"],\"edges\":[";
    const EDGE_OPEN: &'static [u8] = b"[";
    const EDGE_MID: &'static [u8] = b",";
    const EDGE_CLOSE: &'static [u8] = b"]";
    const EDGE_SEP: &'static [u8] = b",";
    const CLOSE: &'static [u8] = b"]}\n";
}

/// CSV under a `nodes,edges` header: `n n n,u-v u-v u-v`.
pub struct Csv;

impl TextFormat for Csv {
    const HEADER: &'static [u8] = b"nodes,edges\n";
    const NODE_SEP: &'static [u8] = b" ";
    const MID: &'static [u8] = b",";
    const EDGE_MID: &'static [u8] = b"-";
    const EDGE_SEP: &'static [u8] = b" ";
    const CLOSE: &'static [u8] = b"\n";
}

/// The commented edge list: `# instance <k>: nodes n n n`, then a `u v` line
/// per edge.
pub struct EdgeList;

impl TextFormat for EdgeList {
    const INDEX_OPEN: Option<&'static [u8]> = Some(b"# instance ");
    const OPEN: &'static [u8] = b": nodes";
    const NODE_OPEN: &'static [u8] = b" ";
    const MID: &'static [u8] = b"\n";
    const EDGE_MID: &'static [u8] = b" ";
    const EDGE_CLOSE: &'static [u8] = b"\n";
}

/// Appends `n` in decimal — `u64` so that a running record index fits as
/// well as a [`subgraph_graph::NodeId`].
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends the record's index part — nothing for formats without one.
fn push_index<F: TextFormat>(out: &mut Vec<u8>, index: usize) {
    if let Some(open) = F::INDEX_OPEN {
        out.extend_from_slice(open);
        push_decimal(out, index as u64);
    }
}

/// Appends one instance in format `F`, index part excluded: the only place
/// an instance becomes text.
fn push_record<F: TextFormat>(out: &mut Vec<u8>, instance: &Instance) {
    out.extend_from_slice(F::OPEN);
    for (i, &node) in instance.nodes().iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(F::NODE_SEP);
        }
        out.extend_from_slice(F::NODE_OPEN);
        push_decimal(out, u64::from(node));
    }
    out.extend_from_slice(F::MID);
    for (i, &(u, v)) in instance.edges().iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(F::EDGE_SEP);
        }
        out.extend_from_slice(F::EDGE_OPEN);
        push_decimal(out, u64::from(u));
        out.extend_from_slice(F::EDGE_MID);
        push_decimal(out, u64::from(v));
        out.extend_from_slice(F::EDGE_CLOSE);
    }
    out.extend_from_slice(F::CLOSE);
}

/// A serializing sink over format `F`; use it through [`NdjsonSink`],
/// [`CsvSink`] or [`EdgeListSink`].
pub struct TextSink<F: TextFormat, W: Write + Send> {
    writer: W,
    written: usize,
    error: Option<io::Error>,
    header_pending: bool,
    /// Reused scratch: the serial path builds each record here (one
    /// `write_all` per record), the fold of an indexed format each index.
    line: Vec<u8>,
    format: PhantomData<fn() -> F>,
}

/// Streams instances as newline-delimited JSON, one object per line:
/// `{"nodes":[…],"edges":[[u,v],…]}` with nodes and edges in canonical
/// (sorted) order. One instance per line is what makes `enumerate | wc -l`
/// equal `count`, and what downstream `jq`/dataframe tooling expects.
pub type NdjsonSink<W> = TextSink<Ndjson, W>;

/// Streams instances as CSV with a `nodes,edges` header (written exactly
/// once, before the first row or at finish on an empty result): per row the
/// sorted node ids space-separated in the first column and the canonical
/// edges as `u-v` pairs space-separated in the second. Neither column can
/// contain a comma or a quote, so no CSV escaping is needed.
pub type CsvSink<W> = TextSink<Csv, W>;

/// Streams instances in the edge-list dialect of
/// [`subgraph_graph::io::write_edge_list`]: per instance a
/// `# instance <k>: nodes …` comment followed by one canonical `u v` line per
/// edge, so any tool (including this repo's own reader) that skips `#`
/// comments can re-read the union of the instances as a graph. `k` counts
/// the records before it in the output, which only the fold knows: bucket
/// shards keep it out of their bytes and the fold splices it in.
pub type EdgeListSink<W> = TextSink<EdgeList, W>;

impl<F: TextFormat, W: Write + Send> TextSink<F, W> {
    /// Wraps `writer`. Hand in a [`io::BufWriter`] for file targets.
    pub fn new(writer: W) -> Self {
        TextSink {
            writer,
            written: 0,
            error: None,
            header_pending: true,
            line: Vec::new(),
            format: PhantomData,
        }
    }

    /// Runs `write` unless an earlier write already failed; counts `records`
    /// as written when it succeeds and latches the error when it does not.
    fn latch(&mut self, records: usize, write: impl FnOnce(&mut Self) -> io::Result<()>) {
        if self.error.is_some() {
            return;
        }
        match write(self) {
            Ok(()) => self.written += records,
            Err(e) => self.error = Some(e),
        }
    }

    fn write_header_if_pending(&mut self) -> io::Result<()> {
        if std::mem::take(&mut self.header_pending) {
            self.writer.write_all(F::HEADER)?;
        }
        Ok(())
    }
}

impl<F: TextFormat, W: Write + Send> SerializeSink for TextSink<F, W> {
    fn finish(mut self) -> io::Result<usize> {
        self.latch(0, Self::write_header_if_pending);
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.written)
    }

    fn written(&self) -> usize {
        self.written
    }
}

/// One reduce bucket's share of a [`TextSink`]'s output, already text.
struct TextShard<F> {
    bytes: Vec<u8>,
    records: usize,
    /// Where each record ends in `bytes` — kept only by indexed formats, for
    /// the fold to put each record's index in front of it.
    ends: Vec<usize>,
    format: PhantomData<fn() -> F>,
}

impl<F: TextFormat> SinkShard<Instance> for TextShard<F> {
    fn accept(&mut self, instance: Instance) {
        push_record::<F>(&mut self.bytes, &instance);
        self.records += 1;
        if F::INDEX_OPEN.is_some() {
            self.ends.push(self.bytes.len());
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl<F: TextFormat, W: Write + Send> OutputSink<Instance> for TextSink<F, W> {
    fn accept(&mut self, instance: Instance) {
        self.latch(1, |sink| {
            sink.write_header_if_pending()?;
            sink.line.clear();
            push_index::<F>(&mut sink.line, sink.written);
            push_record::<F>(&mut sink.line, &instance);
            sink.writer.write_all(&sink.line)
        });
    }

    fn new_shard(&self) -> Box<dyn SinkShard<Instance>> {
        Box::new(TextShard::<F> {
            bytes: Vec::new(),
            records: 0,
            ends: Vec::new(),
            format: PhantomData,
        })
    }

    fn fold(&mut self, shard: Box<dyn SinkShard<Instance>>) {
        let shard = shard
            .into_any()
            .downcast::<TextShard<F>>()
            .expect("TextSink shards are TextShards of the same format");
        self.latch(shard.records, |sink| {
            sink.write_header_if_pending()?;
            if F::INDEX_OPEN.is_none() {
                return sink.writer.write_all(&shard.bytes);
            }
            let mut start = 0;
            for (i, &end) in shard.ends.iter().enumerate() {
                sink.line.clear();
                push_index::<F>(&mut sink.line, sink.written + i);
                sink.writer.write_all(&sink.line)?;
                sink.writer.write_all(&shard.bytes[start..end])?;
                start = end;
            }
            Ok(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_graph::rng::Rng;

    fn instance(shift: u32) -> Instance {
        Instance::from_edge_set([
            (shift, shift + 1),
            (shift + 1, shift + 2),
            (shift, shift + 2),
        ])
    }

    #[test]
    fn engine_sinks_are_instance_sinks() {
        fn drive(sink: &mut dyn InstanceSink) {
            sink.accept(instance(0));
            sink.accept(instance(3));
        }
        let mut count = CountSink::new();
        drive(&mut count);
        assert_eq!(count.count(), 2);

        let mut collect = CollectSink::new();
        drive(&mut collect);
        assert_eq!(collect.items().len(), 2);

        let mut sample = SampleSink::new(1);
        drive(&mut sample);
        assert_eq!(sample.into_sorted(), vec![instance(0)]);

        let mut calls = 0usize;
        {
            let mut callback = FnSink::new(|_: Instance| calls += 1);
            drive(&mut callback);
        }
        assert_eq!(calls, 2);
    }

    #[test]
    fn instance_sinks_upcast_to_engine_sinks() {
        let mut collect: CollectSink<Instance> = CollectSink::new();
        let dyn_sink: &mut dyn InstanceSink = &mut collect;
        // The upcast the strategies rely on when handing the sink to the
        // engine's Pipeline::run_with_sink.
        let engine_sink: &mut dyn OutputSink<Instance> = dyn_sink;
        engine_sink.accept(instance(7));
        assert_eq!(collect.items().len(), 1);
    }

    #[test]
    fn ndjson_sink_writes_one_canonical_object_per_line() {
        let mut out = Vec::new();
        let mut sink = NdjsonSink::new(&mut out);
        sink.accept(instance(0));
        sink.accept(instance(5));
        assert_eq!(sink.written(), 2);
        assert_eq!(sink.finish().unwrap(), 2);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"nodes\":[0,1,2],\"edges\":[[0,1],[0,2],[1,2]]}"
        );
        assert_eq!(
            lines[1],
            "{\"nodes\":[5,6,7],\"edges\":[[5,6],[5,7],[6,7]]}"
        );
    }

    #[test]
    fn csv_sink_writes_header_then_rows() {
        let mut out = Vec::new();
        let mut sink = CsvSink::new(&mut out);
        sink.accept(instance(1));
        sink.finish().unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "nodes,edges\n1 2 3,1-2 1-3 2-3\n"
        );
    }

    #[test]
    fn csv_sink_emits_the_header_even_with_no_rows() {
        let mut out = Vec::new();
        let sink = CsvSink::new(&mut out);
        assert_eq!(sink.finish().unwrap(), 0);
        assert_eq!(String::from_utf8(out).unwrap(), "nodes,edges\n");
    }

    #[test]
    fn edge_list_sink_numbers_instances_and_is_readable_back() {
        let mut out = Vec::new();
        let mut sink = EdgeListSink::new(&mut out);
        sink.accept(instance(0));
        sink.accept(instance(10));
        sink.finish().unwrap();
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.starts_with("# instance 0: nodes 0 1 2\n0 1\n0 2\n1 2\n"));
        assert!(text.contains("# instance 1: nodes 10 11 12\n"));
        // The repo's own reader skips the comments and sees the edge union.
        let g = subgraph_graph::io::read_edge_list(std::io::BufReader::new(&out[..])).unwrap();
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn serializing_sinks_latch_the_first_write_error() {
        /// Accepts `allow` write calls whole, fails every later one.
        struct FailingWriter {
            allow: usize,
            refused: usize,
        }
        impl Write for FailingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.allow == 0 {
                    self.refused += 1;
                    return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
                }
                self.allow -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        fn failing_after(allow: usize) -> FailingWriter {
            FailingWriter { allow, refused: 0 }
        }
        fn shard_of<F: TextFormat>(
            sink: &TextSink<F, &mut FailingWriter>,
            shifts: &[u32],
        ) -> Box<dyn SinkShard<Instance>> {
            let mut shard = sink.new_shard();
            for &shift in shifts {
                shard.accept(instance(shift));
            }
            shard
        }

        // Serial path: one write per record.
        let mut writer = failing_after(1);
        let mut sink = NdjsonSink::new(&mut writer);
        sink.accept(instance(0));
        sink.accept(instance(3)); // fails
        sink.accept(instance(6)); // skipped: error already latched
        assert_eq!(sink.written(), 1);
        let err = sink.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(writer.refused, 1, "nothing is written past the first error");

        // Shard path: one write per shard; a failed shard counts for nothing
        // and the shards after it are never offered to the writer.
        let mut writer = failing_after(1);
        let mut sink = NdjsonSink::new(&mut writer);
        let shards = [&[0, 3][..], &[6], &[9]].map(|shifts| shard_of(&sink, shifts));
        for shard in shards {
            sink.fold(shard);
        }
        assert_eq!(sink.written(), 2);
        let err = sink.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(writer.refused, 1);

        // An indexed shard is written record by record (index, then body):
        // failing inside the second record leaves the whole shard uncounted.
        let mut writer = failing_after(3);
        let mut sink = EdgeListSink::new(&mut writer);
        let shard = shard_of(&sink, &[0, 3, 6]);
        sink.fold(shard);
        assert_eq!(sink.written(), 0);
        assert_eq!(
            sink.finish().unwrap_err().kind(),
            io::ErrorKind::StorageFull
        );

        // A header that cannot be written fails the run, rows or no rows.
        let mut writer = failing_after(0);
        let mut sink = CsvSink::new(&mut writer);
        let shard = shard_of(&sink, &[0]);
        sink.fold(shard);
        assert_eq!(sink.written(), 0);
        assert!(sink.finish().is_err());
        let mut writer = failing_after(0);
        assert!(CsvSink::new(&mut writer).finish().is_err());
    }

    #[test]
    fn serializing_sinks_preserve_worker_fold_order() {
        // Drive the shard protocol the way the engine does.
        let mut out = Vec::new();
        {
            let mut sink = NdjsonSink::new(&mut out);
            let mut shard_a = OutputSink::<Instance>::new_shard(&sink);
            let mut shard_b = OutputSink::<Instance>::new_shard(&sink);
            shard_a.accept(instance(0));
            shard_b.accept(instance(5));
            sink.fold(shard_a);
            sink.fold(shard_b);
            assert_eq!(sink.finish().unwrap(), 2);
        }
        let text = String::from_utf8(out).unwrap();
        let first = text.lines().next().unwrap();
        assert!(first.contains("[0,1,2]"), "fold order preserved: {first}");
    }

    /// A seeded run of triangles, squares and 8-node cubes over ids that
    /// cover every decimal width.
    fn seeded_instances(rng: &mut Rng, len: usize) -> Vec<Instance> {
        const IDS: [u32; 8] = [0, 9, 10, 99, 100, 99_999, 100_000, u32::MAX];
        (0..len)
            .map(|_| {
                let nodes = [3, 4, 8][rng.gen_index(3)];
                let mut ids: Vec<u32> = Vec::new();
                while ids.len() < nodes {
                    let id = if rng.gen_bool(0.5) {
                        IDS[rng.gen_index(IDS.len())]
                    } else {
                        rng.next_u64() as u32
                    };
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                let edges: Vec<(usize, usize)> = match nodes {
                    8 => (0..8)
                        .flat_map(|a| (0..3).map(move |bit| (a, a ^ (1 << bit))))
                        .filter(|(a, b)| a < b)
                        .collect(),
                    _ => (0..nodes).map(|a| (a, (a + 1) % nodes)).collect(),
                };
                Instance::from_edge_set(edges.into_iter().map(|(a, b)| (ids[a], ids[b])))
            })
            .collect()
    }

    fn serial_bytes<F: TextFormat>(instances: &[Instance]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut sink = TextSink::<F, _>::new(&mut out);
        for instance in instances {
            sink.accept(instance.clone());
        }
        assert_eq!(sink.finish().unwrap(), instances.len());
        out
    }

    /// Delivers `instances` through the shard protocol, one shard per chunk
    /// between consecutive `cuts` (which start at 0 and end at the length).
    fn sharded_bytes<F: TextFormat>(instances: &[Instance], cuts: &[usize]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut sink = TextSink::<F, _>::new(&mut out);
        let shards: Vec<_> = cuts
            .windows(2)
            .map(|cut| {
                let mut shard = sink.new_shard();
                for instance in &instances[cut[0]..cut[1]] {
                    shard.accept(instance.clone());
                }
                shard
            })
            .collect();
        for shard in shards {
            sink.fold(shard);
        }
        assert_eq!(sink.written(), instances.len());
        assert_eq!(sink.finish().unwrap(), instances.len());
        out
    }

    fn shards_equal_serial_accept<F: TextFormat>(seed: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        for case in 0..60 {
            // Case 0 is the empty result: the header alone, once.
            let instances = seeded_instances(&mut rng, if case == 0 { 0 } else { 40 });
            let mut cuts: Vec<usize> = (1..rng.gen_range(1..9))
                .map(|_| rng.gen_index(instances.len() + 1))
                .collect();
            cuts.extend([0, instances.len()]);
            cuts.sort_unstable();
            assert_eq!(
                String::from_utf8(sharded_bytes::<F>(&instances, &cuts)).unwrap(),
                String::from_utf8(serial_bytes::<F>(&instances)).unwrap(),
                "seed {seed} case {case} cuts {cuts:?}"
            );
        }
    }

    #[test]
    fn ndjson_shards_write_the_bytes_of_serial_accept() {
        shards_equal_serial_accept::<Ndjson>(21_001);
    }

    #[test]
    fn csv_shards_write_the_bytes_of_serial_accept() {
        shards_equal_serial_accept::<Csv>(21_002);
    }

    #[test]
    fn edge_list_shards_write_the_bytes_of_serial_accept() {
        shards_equal_serial_accept::<EdgeList>(21_003);
    }

    /// The formatter the sinks replaced: `std::fmt` per number. Pins the
    /// record layout of every format independently of `push_record`.
    #[test]
    fn serial_accept_matches_the_fmt_reference() {
        let instances = seeded_instances(&mut Rng::seed_from_u64(21_004), 50);
        let (mut ndjson, mut csv, mut edges) =
            (String::new(), "nodes,edges\n".to_string(), String::new());
        for (k, instance) in instances.iter().enumerate() {
            let nodes: Vec<String> = instance.nodes().iter().map(u32::to_string).collect();
            let pairs = |open: &str, mid: &str, close: &str, sep: &str| -> String {
                let pair = |(u, v): &(u32, u32)| format!("{open}{u}{mid}{v}{close}");
                let pairs: Vec<String> = instance.edges().iter().map(pair).collect();
                pairs.join(sep)
            };
            let (json_nodes, json_edges) = (nodes.join(","), pairs("[", ",", "]", ","));
            ndjson += &format!("{{\"nodes\":[{json_nodes}],\"edges\":[{json_edges}]}}\n");
            csv += &format!("{},{}\n", nodes.join(" "), pairs("", "-", "", " "));
            let lines = pairs("", " ", "\n", "");
            edges += &format!("# instance {k}: nodes {}\n{lines}", nodes.join(" "));
        }
        assert_eq!(
            String::from_utf8(serial_bytes::<Ndjson>(&instances)).unwrap(),
            ndjson
        );
        assert_eq!(
            String::from_utf8(serial_bytes::<Csv>(&instances)).unwrap(),
            csv
        );
        assert_eq!(
            String::from_utf8(serial_bytes::<EdgeList>(&instances)).unwrap(),
            edges
        );
    }

    #[test]
    fn push_decimal_agrees_with_to_string() {
        let mut values = vec![0u64, u64::from(u32::MAX), u64::MAX];
        for k in 1..20 {
            let power = 10u64.pow(k);
            values.extend([power - 1, power, power + 1]);
        }
        let mut rng = Rng::seed_from_u64(21_005);
        // Seeded values of every bit width, so every digit count occurs.
        values.extend((0..10_000).map(|_| rng.next_u64() >> rng.gen_index(64)));
        for value in values {
            let mut out = b"x".to_vec();
            push_decimal(&mut out, value);
            assert_eq!(String::from_utf8(out).unwrap(), format!("x{value}"));
        }
    }
}
