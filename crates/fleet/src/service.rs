//! The long-lived service pool: resident workers over a bounded queue,
//! with per-job cancellation.
//!
//! [`run_parallel`](crate::pool::run_parallel) is batch-shaped: it owns
//! a job slice, spawns scoped workers, and returns when the batch is
//! done. A daemon serving interactive requests needs the opposite shape
//! — the pool outlives any one request, jobs arrive one at a time from
//! many connection threads, and a client that disconnects wants its
//! queued work dropped, not run. [`ServicePool`] is that shape: N
//! resident workers draining a bounded FIFO, [`ServicePool::submit`]
//! returning a [`JobTicket`] whose `cancel` drops the job if it has not
//! started, and a draining [`ServicePool::shutdown`].
//!
//! The bounded queue *is* the backpressure mechanism: when it fills,
//! `submit` blocks its caller — a connection handler that consequently
//! stops reading its socket — which is exactly the TCP backpressure a
//! saturated daemon should exert instead of buffering without limit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Cancellation flag shared between a [`JobTicket`] and the queue.
#[derive(Debug, Default)]
struct CancelFlag(AtomicBool);

/// Handle to one submitted job.
///
/// Dropping the ticket does *not* cancel the job; only
/// [`JobTicket::cancel`] does. Cancelling a job that already started
/// (or finished) has no effect — cancellation is queue-removal, not
/// preemption.
#[derive(Debug, Clone)]
pub struct JobTicket {
    flag: Arc<CancelFlag>,
}

impl JobTicket {
    /// Marks the job cancelled. If it is still queued it will be
    /// dropped un-run; if a worker already claimed it, it runs to
    /// completion.
    pub fn cancel(&self) {
        self.flag.0.store(true, Ordering::Release);
    }

    /// Whether [`JobTicket::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.0.load(Ordering::Acquire)
    }

    /// Whether the pool is done with the job: a worker claimed it (so
    /// it ran or is running), or it was cancelled and dropped from the
    /// queue. The queue holds the only other reference to the flag and
    /// drops it then, so a settled ticket's `cancel` can change nothing
    /// and the ticket can be dropped. A live clone of the ticket holds
    /// the flag too and keeps this `false`.
    pub fn is_settled(&self) -> bool {
        Arc::strong_count(&self.flag) == 1
    }
}

struct QueueState {
    jobs: VecDeque<(Arc<CancelFlag>, Job)>,
    /// Accepting new submissions. Cleared by `shutdown`.
    open: bool,
    /// Jobs currently executing on a worker.
    active: usize,
    /// Worker threads that have not exited yet.
    alive: usize,
}

struct Inner {
    state: Mutex<QueueState>,
    /// Workers wait here for jobs (or for the queue to close).
    takeable: Condvar,
    /// Blocked submitters wait here for queue room.
    room: Condvar,
    /// `shutdown`/`wait_idle` wait here for drain milestones.
    drained: Condvar,
    capacity: usize,
    /// Jobs actually executed (cancelled-while-queued jobs never count).
    executed: AtomicU64,
    /// Jobs dropped from the queue because their ticket was cancelled.
    cancelled: AtomicU64,
}

/// A pool of resident worker threads fed from a bounded FIFO queue.
pub struct ServicePool {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
}

impl ServicePool {
    /// Spawns `workers` resident threads (`0` = one per available core)
    /// over a queue bounded at 1024 pending jobs.
    pub fn new(workers: usize) -> ServicePool {
        ServicePool::with_capacity(workers, 1024)
    }

    /// Spawns `workers` resident threads over a queue bounded at
    /// `capacity` pending jobs (minimum 1).
    pub fn with_capacity(workers: usize, capacity: usize) -> ServicePool {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            workers
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
                active: 0,
                alive: workers,
            }),
            takeable: Condvar::new(),
            room: Condvar::new(),
            drained: Condvar::new(),
            capacity: capacity.max(1),
            executed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        ServicePool {
            inner,
            workers: Mutex::new(handles),
            worker_count: workers,
        }
    }

    /// Resident worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Jobs executed so far (cancelled-while-queued jobs never count).
    pub fn executed(&self) -> u64 {
        self.inner.executed.load(Ordering::Relaxed)
    }

    /// Jobs dropped from the queue by cancellation.
    pub fn cancelled(&self) -> u64 {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Jobs waiting in the queue right now (racy, for telemetry).
    pub fn queued(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("pool state poisoned")
            .jobs
            .len()
    }

    /// Enqueues a job, blocking while the queue is at capacity.
    ///
    /// Returns a [`JobTicket`] that can drop the job if it has not
    /// started. After [`ServicePool::shutdown`] the workers are gone, so
    /// a racing `submit` runs the job inline on the caller's thread
    /// rather than losing it.
    pub fn submit<F>(&self, f: F) -> JobTicket
    where
        F: FnOnce() + Send + 'static,
    {
        let flag = Arc::new(CancelFlag::default());
        let ticket = JobTicket {
            flag: Arc::clone(&flag),
        };
        let mut state = self.inner.state.lock().expect("pool state poisoned");
        while state.open && state.jobs.len() >= self.inner.capacity {
            state = self.inner.room.wait(state).expect("pool state poisoned");
        }
        if !state.open {
            drop(state);
            self.inner.executed.fetch_add(1, Ordering::Relaxed);
            f();
            return ticket;
        }
        state.jobs.push_back((flag, Box::new(f)));
        drop(state);
        self.inner.takeable.notify_one();
        ticket
    }

    /// Blocks until the queue is empty and no job is executing. Jobs
    /// submitted concurrently can extend the wait; this is a test and
    /// drain helper, not a fence.
    pub fn wait_idle(&self) {
        let mut state = self.inner.state.lock().expect("pool state poisoned");
        while !state.jobs.is_empty() || state.active > 0 {
            state = self.inner.drained.wait(state).expect("pool state poisoned");
        }
    }

    /// Closes the queue, lets the workers drain every remaining
    /// non-cancelled job, and joins them. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.inner.state.lock().expect("pool state poisoned");
            state.open = false;
            self.inner.takeable.notify_all();
            self.inner.room.notify_all();
            while state.alive > 0 {
                state = self.inner.drained.wait(state).expect("pool state poisoned");
            }
        }
        let handles = std::mem::take(&mut *self.workers.lock().expect("pool joiner poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut state = inner.state.lock().expect("pool state poisoned");
            loop {
                // Skim cancelled jobs off the front without running them.
                while let Some((flag, _)) = state.jobs.front() {
                    if !flag.0.load(Ordering::Acquire) {
                        break;
                    }
                    state.jobs.pop_front();
                    inner.cancelled.fetch_add(1, Ordering::Relaxed);
                    inner.room.notify_one();
                    if state.jobs.is_empty() && state.active == 0 {
                        inner.drained.notify_all();
                    }
                }
                if let Some((_, job)) = state.jobs.pop_front() {
                    state.active += 1;
                    inner.room.notify_one();
                    break Some(job);
                }
                if !state.open {
                    state.alive -= 1;
                    inner.drained.notify_all();
                    break None;
                }
                state = inner.takeable.wait(state).expect("pool state poisoned");
            }
        };
        let Some(job) = job else { return };
        // Count before running: anything the job publishes (response
        // lines, cache entries) must never be observable ahead of the
        // executed counter, or a metrics scrape racing the final line
        // under-reports the work.
        inner.executed.fetch_add(1, Ordering::Relaxed);
        job();
        let mut state = inner.state.lock().expect("pool state poisoned");
        state.active -= 1;
        if state.jobs.is_empty() && state.active == 0 {
            inner.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn every_submitted_job_runs() {
        let pool = ServicePool::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let hits = Arc::clone(&hits);
            pool.submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 50);
        assert_eq!(pool.executed(), 50);
        pool.shutdown();
    }

    #[test]
    fn results_come_back_through_channels() {
        let pool = ServicePool::new(2);
        let mut rxs = Vec::new();
        for x in 0..10u64 {
            let (tx, rx) = mpsc::channel();
            pool.submit(move || {
                let _ = tx.send(x * x);
            });
            rxs.push(rx);
        }
        let got: Vec<u64> = rxs.into_iter().map(|rx| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..10).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn cancelled_queued_jobs_never_run() {
        // One worker parked on a gate job; everything behind it is
        // still queued when we cancel, so cancellation must drop it.
        let pool = ServicePool::with_capacity(1, 64);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            gate_rx.recv().unwrap();
        });
        let ran = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<JobTicket> = (0..5)
            .map(|_| {
                let ran = Arc::clone(&ran);
                pool.submit(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        tickets[1].cancel();
        tickets[3].cancel();
        assert!(tickets[3].is_cancelled());
        gate_tx.send(()).unwrap();
        pool.wait_idle();
        assert_eq!(ran.load(Ordering::Relaxed), 3, "two were cancelled");
        assert_eq!(pool.executed(), 1 + 3, "gate + survivors");
        assert_eq!(pool.cancelled(), 2);
        pool.shutdown();
    }

    #[test]
    fn tickets_settle_once_the_pool_lets_go_of_their_jobs() {
        let pool = ServicePool::with_capacity(1, 64);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        // A failed assert drops `gate_tx`; the gate then opens instead
        // of killing the worker, so the pool's drop cannot hang.
        let gate = pool.submit(move || {
            let _ = gate_rx.recv();
        });
        let ran = pool.submit(|| {});
        let skimmed = pool.submit(|| {});
        let last = pool.submit(|| {});
        assert!(!ran.is_settled() && !skimmed.is_settled(), "still queued");
        skimmed.cancel();
        assert!(!skimmed.is_settled(), "cancelled but not yet skimmed");
        gate_tx.send(()).unwrap();
        pool.wait_idle();
        assert!(gate.is_settled() && ran.is_settled() && last.is_settled());
        assert!(skimmed.is_settled(), "skimmed off the queue");
        assert_eq!((pool.executed(), pool.cancelled()), (3, 1));
        pool.shutdown();
        assert!(pool.submit(|| {}).is_settled(), "ran inline after shutdown");
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = ServicePool::with_capacity(2, 64);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let hits = Arc::clone(&hits);
            pool.submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(
            hits.load(Ordering::Relaxed),
            20,
            "shutdown drains, not drops"
        );
        pool.shutdown(); // idempotent
    }

    #[test]
    fn bounded_queue_blocks_then_completes() {
        // Capacity 1 with a blocked worker: the producer thread must
        // stall in submit() until the gate opens, then everything runs.
        let pool = Arc::new(ServicePool::with_capacity(1, 1));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            gate_rx.recv().unwrap();
        });
        let hits = Arc::new(AtomicUsize::new(0));
        let producer = {
            let (pool, hits) = (Arc::clone(&pool), Arc::clone(&hits));
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let hits = Arc::clone(&hits);
                    pool.submit(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        };
        // The producer cannot finish while the gate is closed: at most
        // one job fits in the queue.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(hits.load(Ordering::Relaxed) == 0);
        gate_tx.send(()).unwrap();
        producer.join().unwrap();
        pool.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        pool.shutdown();
    }

    #[test]
    fn submit_after_shutdown_runs_inline() {
        let pool = ServicePool::new(1);
        pool.shutdown();
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        pool.submit(move || {
            h2.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_workers_resolves_to_cores() {
        let pool = ServicePool::new(0);
        assert!(pool.workers() >= 1);
        pool.shutdown();
    }
}
