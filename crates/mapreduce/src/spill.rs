//! Disk spilling for the arena shuffle: the out-of-core half of the engine.
//!
//! When [`crate::EngineConfig::memory_budget`] is set, every arena round
//! creates one [`SpillRound`]: a uniquely named directory for run files plus
//! the shared accounting of how many arena-chunk bytes are resident. Map
//! workers that push the round past the budget seal their *full* chunks into
//! **run files** — one file per map shard × spill epoch, holding each reduce
//! bucket's sealed chunks back to back as length-prefixed frames (a
//! [`subgraph_codec::write_varint`] byte length followed by one sealed
//! chunk's raw record bytes) — and return the chunk buffers to the
//! [`crate::pool::BufferPool`]. Each bucket keeps the byte range its chunks
//! took ([`RunSlice`]). The reduce phase streams each bucket's slices back
//! frame by frame ([`RunReader`]), in epoch order, *before* the bucket's
//! resident tail, so the merged record order is exactly the write order and
//! outputs stay byte-identical to the in-memory path (see `crate::arena` for
//! the full parity argument).
//!
//! Cleanup is RAII: dropping the [`SpillRound`] removes the directory, and it
//! is dropped both on normal round completion and during a panic unwind, so
//! no run files outlive the round. I/O errors panic with the offending path
//! *and* the spill directory named; the graceful error path for an unusable
//! user-supplied directory is the fail-fast
//! [`crate::EngineConfig::validate_spill_dir`] probe at startup.

use crate::arena::ARENA_CHUNK;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Take, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use subgraph_codec::{read_varint_from, write_varint};

/// Process-wide sequence number making concurrent rounds' spill directories
/// (and validation probes) unique; the process id keeps concurrent processes
/// sharing one `--spill-dir` apart.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// The spill directory to use for a configured base (`None` = OS temp dir).
fn base_dir(base: Option<&Path>) -> PathBuf {
    base.map(Path::to_path_buf)
        .unwrap_or_else(std::env::temp_dir)
}

/// Fail-fast writability probe behind
/// [`crate::EngineConfig::validate_spill_dir`]: creates and removes a
/// uniquely named probe directory under `base`.
pub(crate) fn validate_base_dir(base: Option<&Path>) -> Result<(), String> {
    let base = base_dir(base);
    let probe = base.join(format!(
        "subgraph-spill-probe-{}-{}",
        std::process::id(),
        SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&probe)
        .map_err(|e| format!("spill dir {} is not writable: {e}", base.display()))?;
    let _ = fs::remove_dir(&probe);
    Ok(())
}

/// One arena round's spill state: the run-file directory (removed on drop),
/// the memory budget, and the shared byte/run accounting. Created once per
/// round by the arena executor when a budget is in force and shared (`Arc`)
/// with every map worker's [`crate::arena::ArenaState`].
pub(crate) struct SpillRound {
    dir: PathBuf,
    /// The configured budget in bytes ([`crate::EngineConfig::memory_budget`]).
    pub(crate) budget: usize,
    /// Target capacity of one arena chunk under this budget — scaled down
    /// from the unbudgeted [`ARENA_CHUNK`] so chunks actually *seal* (and
    /// can spill) well before the budget is a small multiple of the chunk
    /// size.
    pub(crate) chunk_target: usize,
    /// Capacity bytes of all currently allocated arena chunks across the
    /// round's map workers. Grows when a worker opens a chunk, shrinks when
    /// sealed chunks are spilled; crossing [`SpillRound::budget`] triggers the
    /// owning worker's spill.
    pub(crate) resident: AtomicUsize,
    /// Total payload bytes written to run files
    /// ([`crate::JobMetrics::spilled_bytes`]).
    pub(crate) spilled_bytes: AtomicU64,
    /// Number of run files written ([`crate::JobMetrics::spill_runs`]).
    pub(crate) spill_runs: AtomicUsize,
}

impl SpillRound {
    /// Creates the round's uniquely named spill directory under `base` (the
    /// configured spill dir, or the OS temp dir), for a round whose `threads`
    /// map tasks each route into `buckets` reduce buckets.
    ///
    /// # Panics
    /// Panics when the directory cannot be created, naming the path — callers
    /// with user-supplied directories are expected to have run the
    /// [`validate_base_dir`] probe at startup.
    pub(crate) fn create(
        budget: usize,
        threads: usize,
        buckets: usize,
        base: Option<&Path>,
    ) -> Self {
        let dir = base_dir(base).join(format!(
            "subgraph-spill-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap_or_else(|e| {
            panic!("cannot create spill dir {}: {e}", dir.display());
        });
        // Up to `threads` map workers each keep one open chunk per bucket
        // resident at all times, so the budget must cover `threads · buckets`
        // chunks before any can seal; the extra factor keeps several sealed
        // (spillable) chunks in flight between budget checks. Tiny budgets
        // degrade to 4 KiB chunks rather than failing.
        let chunk_target = (budget / (threads * buckets * 4).max(1)).clamp(4 << 10, ARENA_CHUNK);
        SpillRound {
            dir,
            budget,
            chunk_target,
            resident: AtomicUsize::new(0),
            spilled_bytes: AtomicU64::new(0),
            spill_runs: AtomicUsize::new(0),
        }
    }

    /// The round's spill directory (for error messages).
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes one spill pass as one run file: each entry of `parts` (one
    /// bucket's sealed chunks) as length-prefixed frames, back to back.
    /// Returns each part's [`RunSlice`], in order; an empty part gets an
    /// empty slice. Updates the spilled-byte and run counters.
    ///
    /// # Panics
    /// Panics on any I/O error, naming the run file and the spill dir.
    pub(crate) fn write_run<'a>(
        &self,
        map_shard: usize,
        epoch: usize,
        parts: impl IntoIterator<Item = &'a [Vec<u8>]>,
    ) -> Vec<RunSlice> {
        let path: Arc<Path> = self.dir.join(format!("m{map_shard}-e{epoch}.run")).into();
        let fail = |e: std::io::Error| -> ! {
            panic!(
                "spill write failed: {e} (run file {}, spill dir {})",
                path.display(),
                self.dir.display()
            )
        };
        let file = File::create(&path).unwrap_or_else(|e| fail(e));
        let mut writer = BufWriter::new(file);
        let mut header = Vec::with_capacity(10);
        let (mut offset, mut payload) = (0u64, 0u64);
        let mut slices = Vec::new();
        for chunks in parts {
            let start = offset;
            for chunk in chunks {
                header.clear();
                write_varint(&mut header, chunk.len() as u64);
                writer.write_all(&header).unwrap_or_else(|e| fail(e));
                writer.write_all(chunk).unwrap_or_else(|e| fail(e));
                offset += (header.len() + chunk.len()) as u64;
                payload += chunk.len() as u64;
            }
            slices.push(RunSlice {
                path: Arc::clone(&path),
                start,
                end: offset,
            });
        }
        writer.flush().unwrap_or_else(|e| fail(e));
        self.spilled_bytes.fetch_add(payload, Ordering::Relaxed);
        self.spill_runs.fetch_add(1, Ordering::Relaxed);
        slices
    }
}

/// One bucket's share of a run file: the byte range `[start, end)` its
/// frames take.
#[derive(Clone, Debug)]
pub(crate) struct RunSlice {
    path: Arc<Path>,
    start: u64,
    end: u64,
}

impl Drop for SpillRound {
    fn drop(&mut self) {
        // Runs on normal completion and during panic unwinds alike; cleanup
        // failure must not turn either into an abort.
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Streams one [`RunSlice`]'s frames back into a caller-supplied buffer, so
/// the reduce phase re-reads a spilled bucket with one resident chunk at a
/// time.
pub(crate) struct RunReader {
    reader: BufReader<Take<File>>,
    path: Arc<Path>,
    dir: PathBuf,
}

impl RunReader {
    /// Opens a run file at the start of `slice`, for streaming to its end.
    ///
    /// # Panics
    /// Panics when the file cannot be opened or positioned, naming it and the
    /// spill dir.
    pub(crate) fn open(slice: &RunSlice, dir: &Path) -> Self {
        let fail = |e: std::io::Error| -> ! {
            panic!(
                "spill read failed: {e} (run file {}, spill dir {})",
                slice.path.display(),
                dir.display()
            )
        };
        let mut file = File::open(&slice.path).unwrap_or_else(|e| fail(e));
        file.seek(SeekFrom::Start(slice.start))
            .unwrap_or_else(|e| fail(e));
        RunReader {
            reader: BufReader::new(file.take(slice.end - slice.start)),
            path: Arc::clone(&slice.path),
            dir: dir.to_path_buf(),
        }
    }

    /// Reads the next frame into `buf` (clearing it first). Returns `false`
    /// at the end of the slice.
    ///
    /// # Panics
    /// Panics when the file ends inside the slice, on a truncated frame and
    /// on any I/O error, naming the run file and the spill dir.
    pub(crate) fn next_frame(&mut self, buf: &mut Vec<u8>) -> bool {
        let fail = |e: std::io::Error| -> ! {
            panic!(
                "spill read failed: {e} (run file {}, spill dir {})",
                self.path.display(),
                self.dir.display()
            )
        };
        let len = match read_varint_from(&mut self.reader) {
            // The buffer is drained at end of input, so the limit left is
            // what the file failed to deliver.
            Ok(None) if self.reader.get_ref().limit() == 0 => return false,
            Ok(None) => fail(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(Some(len)) => len as usize,
            Err(e) => fail(e),
        };
        buf.clear();
        buf.resize(len, 0);
        self.reader.read_exact(buf).unwrap_or_else(|e| fail(e));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every frame `slice` streams back.
    fn frames(slice: &RunSlice, dir: &Path) -> Vec<Vec<u8>> {
        let mut reader = RunReader::open(slice, dir);
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        while reader.next_frame(&mut buf) {
            frames.push(buf.clone());
        }
        frames
    }

    /// The message of the panic `read` raises.
    fn panic_message(read: impl FnOnce()) -> String {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(read)).unwrap_err();
        panic
            .downcast_ref::<String>()
            .expect("panic carries a message")
            .clone()
    }

    #[test]
    fn runs_round_trip_and_the_directory_is_removed_on_drop() {
        let spill = SpillRound::create(1 << 20, 4, 4, None);
        let dir = spill.dir().to_path_buf();
        assert!(dir.is_dir());
        let chunks = vec![vec![1u8, 2, 3], vec![0xab; 5000], Vec::new()];
        let slices = spill.write_run(2, 0, [chunks.as_slice()]);
        assert_eq!(spill.spilled_bytes.load(Ordering::Relaxed), 5003);
        assert_eq!(spill.spill_runs.load(Ordering::Relaxed), 1);
        assert_eq!(frames(&slices[0], spill.dir()), chunks);
        drop(spill);
        assert!(!dir.exists(), "spill dir must be removed on drop");
    }

    #[test]
    fn each_slice_of_a_shared_run_streams_its_own_frames() {
        // Three partitions in one run file, the middle one empty: each slice
        // yields its own frames and stops at its own end.
        let spill = SpillRound::create(1 << 20, 2, 6, None);
        let parts: [Vec<Vec<u8>>; 3] = [
            vec![vec![1u8; 7], vec![2u8; 300]],
            Vec::new(),
            vec![vec![3u8; 200], Vec::new(), vec![4u8; 9]],
        ];
        let slices = spill.write_run(1, 3, parts.iter().map(Vec::as_slice));
        assert_eq!(spill.spill_runs.load(Ordering::Relaxed), 1);
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[1].start, slices[1].end);
        for (slice, part) in slices.iter().zip(&parts) {
            assert_eq!(&frames(slice, spill.dir()), part);
        }

        // Truncating the file inside the last slice, at a frame boundary and
        // mid-frame, is an error for that slice, never a short read; the
        // slices before the cut still stream whole.
        let path = slices[2].path.to_path_buf();
        let bytes = fs::read(&path).unwrap();
        // The 200-byte frame's length takes two varint bytes.
        let boundary = slices[2].start as usize + 2 + 200;
        for cut in [slices[2].start as usize, boundary, boundary + 3] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert_eq!(frames(&slices[0], spill.dir()), parts[0]);
            assert!(frames(&slices[1], spill.dir()).is_empty());
            let message = panic_message(|| {
                frames(&slices[2], spill.dir());
            });
            assert!(message.contains("spill read failed"), "{message}");
            assert!(message.contains(path.to_str().unwrap()), "{message}");
            assert!(message.contains(spill.dir().to_str().unwrap()), "{message}");
        }
    }

    #[test]
    fn chunk_target_scales_with_the_budget() {
        // Unbudgeted-sized budgets keep the unbudgeted chunk; tiny budgets
        // degrade to the 4 KiB floor instead of never sealing a chunk; in
        // between, all map tasks' open tails take a quarter of the budget.
        let huge = SpillRound::create(usize::MAX / 2, 1, 16, None);
        assert_eq!(huge.chunk_target, ARENA_CHUNK);
        let tiny = SpillRound::create(64 << 10, 8, 8, None);
        assert_eq!(tiny.chunk_target, 4 << 10);
        let mid = SpillRound::create(64 << 20, 4, 64, None);
        assert_eq!(mid.chunk_target, 64 << 10);
        let spill_workload = SpillRound::create(16 << 20, 2, 32, None);
        assert_eq!(spill_workload.chunk_target, 64 << 10);
    }

    #[test]
    fn validate_probe_accepts_the_temp_dir_and_rejects_bogus_paths() {
        assert!(validate_base_dir(None).is_ok());
        let bogus = Path::new("/proc/definitely-not-writable/spill");
        let err = validate_base_dir(Some(bogus)).unwrap_err();
        assert!(err.contains("/proc/definitely-not-writable/spill"), "{err}");
        assert!(err.contains("not writable"), "{err}");
    }

    #[test]
    fn mid_run_truncation_names_the_file_and_dir() {
        let spill = SpillRound::create(1 << 20, 2, 2, None);
        let slices = spill.write_run(0, 0, [[vec![9u8; 100]].as_slice()]);
        // Truncate inside the frame payload.
        let path = slices[0].path.to_path_buf();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..10]).unwrap();
        let mut reader = RunReader::open(&slices[0], spill.dir());
        let mut buf = Vec::new();
        let message = panic_message(|| {
            reader.next_frame(&mut buf);
        });
        assert!(message.contains("spill read failed"), "{message}");
        assert!(message.contains(path.to_str().unwrap()), "{message}");
        assert!(message.contains(spill.dir().to_str().unwrap()), "{message}");
    }
}
