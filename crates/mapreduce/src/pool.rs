//! A persistent worker pool: the engine's execution substrate.
//!
//! Before this module existed every [`crate::Pipeline`] round paid two
//! `std::thread::scope` spawn/join cycles — once for the map phase, once for
//! the reduce phase. A long-lived process (the `subgraph serve` query
//! service, a bench sweeping thread counts, any multi-round pipeline) repeats
//! that cost per round, and on small rounds the spawn/teardown dominates the
//! useful work. A [`WorkerPool`] keeps its OS threads alive for the pool's
//! lifetime and hands them *indexed tasks* instead:
//!
//! * [`WorkerPool::run_indexed`] executes `task(0..count)` across the pool
//!   and the calling thread, returning when every index has finished. Indices
//!   are claimed from a shared atomic counter — **work stealing at task
//!   granularity** — so a skewed task list never leaves workers idle behind
//!   one straggler the way fixed per-worker chunks do.
//! * The calling thread participates: it claims indices like any worker, so
//!   a pool is never a bottleneck for callers (a pool with zero workers
//!   degrades to an inline loop), and nested `run_indexed` calls cannot
//!   deadlock — the inner caller drains its own job itself.
//! * Panics inside a task are caught per index, the first payload is kept,
//!   and the caller re-raises it after the job completes — same observable
//!   behaviour as a scoped spawn whose join propagates the panic.
//!
//! The pool also owns a `BufferPool`: a free list of byte buffers, letting
//! the shuffle recycle its arena chunks and spill frames across rounds
//! instead of reallocating them every round (see `docs/ENGINE.md`, "The round
//! executor").
//!
//! Engine integration: [`crate::EngineConfig`] runs rounds on the
//! process-global pool ([`WorkerPool::global`], the default) or on an
//! explicit shared pool ([`crate::EngineConfig::with_pool`], what `subgraph
//! serve` uses so concurrent queries share one set of workers).

use std::any::Any;
use std::collections::VecDeque;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// One queued `run_indexed` call: the caller's task closure (lifetime-erased
/// — see the safety notes on [`WorkerPool::run_indexed`]), the index counter
/// workers claim from, and the completion state the caller waits on.
struct ScopeJob {
    /// The task closure, as a raw pointer so the job may outlive the borrow
    /// *without being a dangling reference*: workers that observe the job
    /// after it drained (`next >= total`) never dereference it.
    task: *const (dyn Fn(usize) + Sync),
    /// Number of indices in the job.
    total: usize,
    /// The next unclaimed index; `fetch_add` is the work-stealing queue.
    next: AtomicUsize,
    /// Completion accounting, guarded for the `done` condvar.
    status: Mutex<JobStatus>,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
}

struct JobStatus {
    /// Indices still executing or unclaimed.
    remaining: usize,
    /// First panic payload raised by any index, re-raised by the caller.
    panic: Option<Box<dyn Any + Send>>,
}

// SAFETY: the raw task pointer is only dereferenced for indices `< total`,
// and `run_indexed` blocks until every such index has completed before the
// closure it points to can go out of scope. The rest of the struct is
// ordinary sync primitives.
unsafe impl Send for ScopeJob {}
unsafe impl Sync for ScopeJob {}

impl ScopeJob {
    /// Runs one claimed index, catching a panic into the job status and
    /// decrementing the remaining count (signalling the caller at zero).
    fn execute(&self, index: usize) {
        // SAFETY: index < total, so the caller is still inside `run_indexed`
        // and the closure is alive (see the struct-level safety comment).
        let task = unsafe { &*self.task };
        let result = catch_unwind(AssertUnwindSafe(|| task(index)));
        let mut status = self.status.lock().expect("pool job status poisoned");
        if let Err(payload) = result {
            status.panic.get_or_insert(payload);
        }
        status.remaining -= 1;
        if status.remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// The state shared between the pool handle and its worker threads.
struct PoolShared {
    /// Queued jobs, oldest first. Workers drain the front job before moving
    /// on; drained jobs are popped lazily.
    state: Mutex<PoolState>,
    /// Signalled when a job is pushed or shutdown begins.
    work: Condvar,
}

struct PoolState {
    jobs: VecDeque<Arc<ScopeJob>>,
    shutdown: bool,
}

/// A persistent pool of worker threads executing indexed task batches, plus
/// a `BufferPool` of recyclable allocations shared across rounds. See the
/// [module docs](self) for the execution model.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    buffers: Arc<BufferPool>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool with `workers` dedicated threads (the calling thread of every
    /// [`WorkerPool::run_indexed`] participates too, so total parallelism is
    /// `workers + 1`). `workers == 0` is valid: every job runs inline.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mr-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            buffers: Arc::new(BufferPool::new()),
            handles,
        }
    }

    /// The process-global pool, created on first use with
    /// `available_parallelism - 1` workers (the caller thread is the final
    /// execution context). This is the default executor of
    /// [`crate::EngineConfig`].
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let parallelism = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            Arc::new(WorkerPool::new(parallelism.saturating_sub(1)))
        })
    }

    /// Number of dedicated worker threads (excluding participating callers).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The pool's recyclable-allocation free list. Shared (`Arc`) so the
    /// arena shuffle's emission contexts can draw and return chunk buffers
    /// without borrowing the pool itself.
    pub(crate) fn buffers(&self) -> &Arc<BufferPool> {
        &self.buffers
    }

    /// Executes `task(i)` for every `i in 0..count`, distributing indices
    /// across the pool's workers and the calling thread, and returns once all
    /// have completed. Indices are claimed one at a time from an atomic
    /// counter, so uneven per-index cost balances automatically. If any index
    /// panics, the first payload is re-raised here after the batch finishes.
    pub fn run_indexed<F>(&self, count: usize, task: F)
    where
        F: Fn(usize) + Sync,
    {
        if count == 0 {
            return;
        }
        if count == 1 || self.handles.is_empty() {
            for index in 0..count {
                task(index);
            }
            return;
        }

        let task_ptr: *const (dyn Fn(usize) + Sync + '_) = &task;
        // SAFETY: the transmute only erases the borrow's lifetime from the
        // fat pointer's type; `run_indexed` does not return until every
        // index < count has executed, so no dereference can outlive `task`.
        let task_ptr: *const (dyn Fn(usize) + Sync + 'static) = unsafe { mem::transmute(task_ptr) };
        let job = Arc::new(ScopeJob {
            task: task_ptr,
            total: count,
            next: AtomicUsize::new(0),
            status: Mutex::new(JobStatus {
                remaining: count,
                panic: None,
            }),
            done: Condvar::new(),
        });
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.jobs.push_back(Arc::clone(&job));
        }
        self.shared.work.notify_all();

        // The caller is a worker too: claim and run indices until the
        // counter drains. This guarantees progress even if every pool worker
        // is busy with other jobs (e.g. concurrent serve queries).
        loop {
            let index = job.next.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                break;
            }
            job.execute(index);
        }

        // Wait for in-flight indices claimed by pool workers.
        let panic = {
            let mut status = job.status.lock().expect("pool job status poisoned");
            while status.remaining > 0 {
                status = job.done.wait(status).expect("pool job status poisoned");
            }
            status.panic.take()
        };

        // Drop the drained job from the queue now rather than leaving it for
        // a worker to pop lazily — after this function returns, the queue
        // must not retain a pointer into our (dead) stack frame.
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.jobs.retain(|queued| !Arc::ptr_eq(queued, &job));
        }

        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

/// The dedicated worker threads' loop: claim the oldest job's next index,
/// run it, repeat; sleep on the condvar when no claimable work exists.
fn worker_loop(shared: &PoolShared) {
    loop {
        let (job, index) = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                let claim = state.jobs.front().map(|job| {
                    let index = job.next.fetch_add(1, Ordering::Relaxed);
                    (Arc::clone(job), index)
                });
                match claim {
                    Some((job, index)) if index < job.total => break (job, index),
                    Some(_) => {
                        // Front job fully claimed: retire it and look again.
                        state.jobs.pop_front();
                    }
                    None => {
                        state = shared.work.wait(state).expect("pool state poisoned");
                    }
                }
            }
        };
        job.execute(index);
    }
}

// ---- buffer recycling -------------------------------------------------------

/// Buffers larger than this are dropped on [`BufferPool::give`] instead of
/// retained — one pathological round must not pin memory forever.
const MAX_RECYCLED_BYTES: usize = 4 << 20;
/// At most this many buffers are retained.
const MAX_BUFFERS: usize = 64;

/// A free list of byte buffers: arena chunks and spill frames.
/// [`BufferPool::give`] banks an emptied buffer's allocation;
/// [`BufferPool::take`] hands one back out (or a fresh empty `Vec`).
pub(crate) struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
}

impl BufferPool {
    fn new() -> Self {
        BufferPool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Banks `buffer`'s allocation for reuse, cleared. Empty and oversized
    /// buffers, and any past the retention cap, are dropped.
    pub(crate) fn give(&self, mut buffer: Vec<u8>) {
        if buffer.capacity() == 0 || buffer.capacity() > MAX_RECYCLED_BYTES {
            return;
        }
        buffer.clear();
        let mut free = self.free.lock().expect("buffer pool poisoned");
        if free.len() < MAX_BUFFERS {
            free.push(buffer);
        }
    }

    /// An empty buffer — recycled when one is banked, fresh otherwise.
    pub(crate) fn take(&self) -> Vec<u8> {
        let recycled = self.free.lock().expect("buffer pool poisoned").pop();
        recycled.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_indexed_covers_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run_indexed(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let sum = AtomicU64::new(0);
        pool.run_indexed(100, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn empty_job_returns_immediately() {
        let pool = WorkerPool::new(2);
        pool.run_indexed(0, |_| panic!("no index should run"));
    }

    #[test]
    fn more_workers_than_indices_is_fine() {
        let pool = WorkerPool::new(8);
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.run_indexed(3, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sequential_jobs_reuse_the_same_pool() {
        let pool = WorkerPool::new(2);
        for round in 0..50 {
            let total = AtomicU64::new(0);
            pool.run_indexed(64, |i| {
                total.fetch_add((i + round) as u64, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), (2016 + 64 * round) as u64);
        }
    }

    #[test]
    fn concurrent_callers_share_the_workers() {
        let pool = Arc::new(WorkerPool::new(4));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let sum = AtomicU64::new(0);
                    pool.run_indexed(200, |i| {
                        sum.fetch_add(i as u64, Ordering::Relaxed);
                    });
                    assert_eq!(sum.load(Ordering::Relaxed), 19900);
                });
            }
        });
    }

    #[test]
    fn a_panicking_index_propagates_to_the_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(16, |i| {
                if i == 7 {
                    panic!("index 7 exploded");
                }
            });
        }));
        let payload = result.expect_err("the panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(message.contains("exploded"), "{message}");

        // The pool survives a panicked job.
        let ok = AtomicUsize::new(0);
        pool.run_indexed(8, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn buffer_pool_recycles_same_layout_allocations() {
        let pool = BufferPool::new();
        let mut buffer: Vec<u8> = Vec::with_capacity(100);
        buffer.push(7);
        let ptr = buffer.as_ptr();
        pool.give(buffer);
        let recycled = pool.take();
        assert_eq!(recycled.capacity(), 100);
        assert!(recycled.is_empty());
        assert_eq!(recycled.as_ptr(), ptr);
        // The pool is empty again: the next take is a fresh buffer.
        assert_eq!(pool.take().capacity(), 0);
    }

    #[test]
    fn buffer_pool_ignores_unhelpful_buffers() {
        let pool = BufferPool::new();
        pool.give(Vec::new()); // zero capacity
        pool.give(Vec::with_capacity(MAX_RECYCLED_BYTES + 1)); // too big to pin
        assert_eq!(pool.take().capacity(), 0);
    }

    #[test]
    fn buffer_pool_clears_contents_before_banking() {
        let pool = BufferPool::new();
        pool.give(vec![0xab; 10]);
        let recycled = pool.take();
        assert!(recycled.is_empty());
        assert!(recycled.capacity() >= 10);
    }

    #[test]
    fn buffer_pool_retains_at_most_64_buffers() {
        let pool = BufferPool::new();
        for _ in 0..MAX_BUFFERS + 10 {
            pool.give(Vec::with_capacity(16));
        }
        let banked = (0..MAX_BUFFERS + 10)
            .map(|_| pool.take())
            .filter(|buffer| buffer.capacity() > 0)
            .count();
        assert_eq!(banked, MAX_BUFFERS);
    }
}
