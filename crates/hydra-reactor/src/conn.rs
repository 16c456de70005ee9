//! Per-connection shared state: the socket, the bounded write queue and
//! the handle through which worker-pool tasks talk back to the event loop.
//!
//! A [`ConnHandle`] is the *only* thing a [`ConnTask`](crate::ConnTask)
//! sees of its connection.  Pushing bytes never blocks: when the write
//! queue is empty the pushing thread writes straight to the non-blocking
//! socket, and only the tail the kernel refused is copied into a
//! mutex-guarded queue, with a coalesced wake telling the reactor thread
//! to flush it once the socket reports writable.  The task decides what to
//! do about a growing queue by consulting
//! [`over_high_water`](ConnHandle::over_high_water) and returning
//! [`TaskPoll::AwaitDrain`](crate::TaskPoll::AwaitDrain) — that
//! cooperative parking is the whole backpressure story.

use crate::wake::Waker;
use crate::ReactorMetrics;
use hydra_obs::{Counter, Gauge};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct OutQueue {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of the front chunk already written to the socket.
    head: usize,
}

/// Outcome of a reactor-side flush attempt.
#[derive(Debug)]
pub(crate) enum FlushStatus {
    /// Queue fully written to the kernel.
    Drained,
    /// Kernel buffer full; the rest waits for the socket to turn writable.
    Pending,
    /// The socket rejected the write; the connection is gone.
    Closed,
}

/// The socket rejected a write: the peer is gone.
struct SocketClosed;

/// The connection-level `hydra-obs` handles, resolved once per reactor
/// and cloned per connection.
#[derive(Debug, Clone)]
pub(crate) struct ConnObs {
    /// Bytes accepted by the kernel on any connection's socket.
    pub bytes_out: Arc<Counter>,
    /// High-water mark of any connection's write queue.
    pub queue_peak: Arc<Gauge>,
}

/// State shared between the reactor thread and at most one in-flight task.
#[derive(Debug)]
pub(crate) struct ConnShared {
    token: u64,
    /// The connection's one socket: the reactor reads through it, and
    /// whichever thread holds the queue lock writes through it.
    stream: TcpStream,
    queue: Mutex<OutQueue>,
    /// Mirror of the queue's total unsent bytes, readable without the lock.
    queued: AtomicUsize,
    /// The write-progress clock: nanoseconds after `epoch` at which a
    /// write last made progress or the queue was last seen empty.  Both
    /// writers (worker and reactor) advance it; the stall scan reads it.
    progress: AtomicU64,
    epoch: Instant,
    dead: AtomicBool,
    /// True while this connection sits on the reactor's dirty list.
    dirty: AtomicBool,
    high_water: usize,
    dirty_list: Arc<Mutex<Vec<u64>>>,
    waker: Waker,
    metrics: Arc<ReactorMetrics>,
    obs: ConnObs,
}

impl ConnShared {
    pub(crate) fn new(
        token: u64,
        stream: TcpStream,
        high_water: usize,
        dirty_list: Arc<Mutex<Vec<u64>>>,
        waker: Waker,
        metrics: Arc<ReactorMetrics>,
        obs: ConnObs,
    ) -> Arc<ConnShared> {
        Arc::new(ConnShared {
            token,
            stream,
            queue: Mutex::new(OutQueue::default()),
            queued: AtomicUsize::new(0),
            progress: AtomicU64::new(0),
            epoch: Instant::now(),
            dead: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
            high_water,
            dirty_list,
            waker,
            metrics,
            obs,
        })
    }

    pub(crate) fn token(&self) -> u64 {
        self.token
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    pub(crate) fn queued_bytes(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    pub(crate) fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Marks the connection dead and shuts the socket down in both
    /// directions, so the peer sees the close even while a task still
    /// holds a handle (and with it the fd).
    pub(crate) fn close(&self) {
        self.mark_dead();
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Advances the write-progress clock to now.
    fn note_progress(&self) {
        let nanos = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.progress.fetch_max(nanos, Ordering::SeqCst);
    }

    /// How long the write path has gone without progress as of `now`.
    pub(crate) fn stalled_for(&self, now: Instant) -> Duration {
        let last = Duration::from_nanos(self.progress.load(Ordering::SeqCst));
        now.saturating_duration_since(self.epoch)
            .saturating_sub(last)
    }

    /// Sends `bytes` in order behind anything already queued.  With an
    /// empty queue the calling thread writes straight to the socket and
    /// copies only the unsent tail into the queue; otherwise the bytes are
    /// appended.  Every writer holds the queue lock, which is what keeps
    /// the byte order.  `notify` wakes the reactor when a tail was queued
    /// (worker-thread path); the reactor itself sends with
    /// `notify = false` and flushes inline.
    pub(crate) fn send(&self, bytes: &[u8], notify: bool) {
        if bytes.is_empty() || self.is_dead() {
            return; // dropped on the floor: the peer is gone
        }
        let (total, was_empty) = {
            let mut q = self.queue.lock().expect("write queue poisoned");
            let was_empty = q.chunks.is_empty();
            let mut sent = 0;
            if was_empty {
                self.note_progress();
                match self.write_some(bytes) {
                    Ok(n) => sent = n,
                    Err(SocketClosed) => {
                        drop(q);
                        // The reactor notices the dead flag on its next
                        // flush and tears the connection down.
                        self.mark_dead();
                        self.notify_reactor();
                        return;
                    }
                }
            }
            if sent == bytes.len() {
                return;
            }
            let total = self.queued.load(Ordering::SeqCst) + bytes.len() - sent;
            q.chunks.push_back(bytes[sent..].to_vec());
            self.queued.store(total, Ordering::SeqCst);
            (total, was_empty)
        };
        self.metrics.note_queued_bytes(total);
        self.obs.queue_peak.record_max(total as i64);
        // A queue that was already non-empty has a flush pending (dirty
        // mark or EPOLLOUT interest), so only the first tail needs a wake.
        if notify && was_empty {
            self.notify_reactor();
        }
    }

    /// Puts this connection on the reactor's dirty list (once) and wakes
    /// the loop.
    fn notify_reactor(&self) {
        if !self.dirty.swap(true, Ordering::SeqCst) {
            self.dirty_list
                .lock()
                .expect("dirty list poisoned")
                .push(self.token);
            self.waker.wake();
        }
    }

    /// Clears the dirty flag; the reactor calls this right before reading
    /// the queue so a racing push re-notifies rather than being lost.
    pub(crate) fn clear_dirty(&self) {
        self.dirty.store(false, Ordering::SeqCst);
    }

    /// The one socket-write loop, shared by [`send`](Self::send) and
    /// [`flush`](Self::flush); callers hold the queue lock.  Writes as
    /// much of `bytes` as the kernel takes without blocking and returns
    /// how much that was.
    fn write_some(&self, bytes: &[u8]) -> Result<usize, SocketClosed> {
        let mut written = 0;
        while written < bytes.len() {
            match (&self.stream).write(&bytes[written..]) {
                Ok(0) => return Err(SocketClosed),
                Ok(n) => {
                    written += n;
                    self.obs.bytes_out.add(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(SocketClosed),
            }
        }
        if written > 0 {
            self.note_progress();
        }
        Ok(written)
    }

    /// Writes as much queued data as the socket will take.  Runs on the
    /// reactor thread when the socket turns writable.  Holds the queue
    /// lock across the write calls: a task pushing concurrently waits
    /// microseconds, and in exchange the queue order is trivially correct.
    pub(crate) fn flush(&self) -> FlushStatus {
        let mut q = self.queue.lock().expect("write queue poisoned");
        loop {
            let Some(front) = q.chunks.front() else {
                self.queued.store(0, Ordering::SeqCst);
                self.note_progress();
                return FlushStatus::Drained;
            };
            let front_len = front.len();
            let n = match self.write_some(&front[q.head..]) {
                Ok(n) => n,
                Err(SocketClosed) => return FlushStatus::Closed,
            };
            q.head += n;
            self.queued.fetch_sub(n, Ordering::SeqCst);
            if q.head < front_len {
                return FlushStatus::Pending;
            }
            q.head = 0;
            q.chunks.pop_front();
        }
    }
}

/// A task's view of its connection: push response bytes, observe
/// backpressure, and notice peer disconnects early enough to abort
/// server-side generation.
///
/// Cloneable and `Send`; outlives the connection harmlessly (pushes to a
/// dead connection are silently dropped, and the socket is shut down when
/// the connection closes, so a handle held past that point does not keep
/// the peer waiting for EOF).
#[derive(Clone, Debug)]
pub struct ConnHandle {
    pub(crate) shared: Arc<ConnShared>,
}

impl ConnHandle {
    /// Sends `bytes` after everything pushed before them.  Never blocks:
    /// with an empty write queue the bytes go straight to the socket and
    /// only the unsent tail is copied into the queue (waking the event loop
    /// to flush it); otherwise they are appended to the queue.  Silently
    /// drops the bytes when the peer has disconnected.
    pub fn push(&self, bytes: &[u8]) {
        self.shared.send(bytes, true);
    }

    /// Bytes queued but not yet accepted by the kernel.
    pub fn queued_bytes(&self) -> usize {
        self.shared.queued_bytes()
    }

    /// True once the queue exceeds the configured per-connection cap.  A
    /// well-behaved task stops producing and returns
    /// [`TaskPoll::AwaitDrain`](crate::TaskPoll::AwaitDrain).
    pub fn over_high_water(&self) -> bool {
        self.shared.queued_bytes() >= self.shared.high_water
    }

    /// The configured write-queue cap (high-water mark) in bytes.
    pub fn write_queue_cap(&self) -> usize {
        self.shared.high_water
    }

    /// True once the peer disconnected or the connection was torn down.
    /// Streaming tasks poll this between batches to abort generation.
    pub fn is_dead(&self) -> bool {
        self.shared.is_dead()
    }

    /// The reactor token identifying this connection (diagnostics only).
    pub fn token(&self) -> u64 {
        self.shared.token()
    }
}
