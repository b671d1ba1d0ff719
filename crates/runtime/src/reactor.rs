//! A sharded, event-driven reactor for the TCP backend: O(N) threads
//! instead of one reader thread per link.
//!
//! A blocking reader per link would spend O(N²) OS threads — dead weight
//! at production node counts. [`crate::TcpCluster`] instead runs a small
//! fixed pool of *reactor shards*: each shard owns the read side of a
//! subset of nodes' sockets (nonblocking) plus the retry duty for pending
//! writes headed *to* those nodes, and sweeps them with readiness
//! discovered by attempting the syscall — no `epoll`/`mio`/`libc`, just
//! `WouldBlock`.
//!
//! # Readiness model
//!
//! All writers live in this process, so "data may be readable on link
//! `i → j`" is always caused by an in-process write. Writers therefore
//! *tell* the reactor instead of making it poll: after pushing bytes into
//! a socket, the writer sets the destination read-link's dirty flag and
//! kicks the destination's shard ([`Kick`]). A shard sweep drains every
//! dirty link to `WouldBlock`; the flag is cleared *before* draining, so
//! a write racing the sweep re-dirties the link and re-kicks — no lost
//! wakeups. On loopback, bytes are visible to the peer by the time
//! `write(2)` returns, which makes the kick protocol complete; a timed
//! safety sweep (only while the cluster has events in flight) backstops
//! it anyway.
//!
//! # Write coalescing and backpressure
//!
//! Outbound frames are batched per peer ([`dsj_core::wire::FrameBatch`])
//! and flushed once per engine frame with vectored writes — many messages
//! per syscall. A full socket (`WouldBlock`, or a partial write) parks
//! the unwritten tail in the link's [`WriteQueue`]; the destination shard
//! retries it on its next wakeup, which is exactly when socket space
//! reappears (the destination draining its read side is what frees the
//! peer's receive buffer). Messages with bytes still queued remain
//! counted by the cluster-wide in-flight counter — they were counted at
//! `send` time and are only decremented by the *receiving* engine — so
//! quiescence cannot be declared while a slow reader still owes traffic,
//! and a dead link gives its queued messages' counts back rather than
//! wedging the drain loop.

use crate::cluster::LiveError;
use crate::tcp::io_err;
use crossbeam::channel::Sender;
use dsj_core::wire::{FrameBatch, FrameDecoder};
use dsj_core::TransportEvent;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::thread::{self, JoinHandle, Thread};
use std::time::Duration;

/// Read-buffer size for shard sweeps.
const READ_CHUNK: usize = 16 * 1024;

/// Idle wait while some link still has pending (unwritable) bytes.
const WAIT_PENDING: Duration = Duration::from_micros(200);
/// Idle wait while the cluster has events in flight but no local work.
const WAIT_ACTIVE: Duration = Duration::from_millis(1);
/// Idle wait when the cluster is globally quiet.
const WAIT_IDLE: Duration = Duration::from_millis(20);

/// Per-peer outbound byte queue with coalesced vectored writes and exact
/// frame accounting across partial writes.
///
/// The queue tracks, in absolute stream offsets, where every accepted
/// frame ends; advancing the written-bytes cursor retires frame
/// boundaries as they go fully onto the wire. [`WriteQueue::unsent_msgs`]
/// is therefore the precise number of messages the in-flight counter
/// must be repaired by if the link dies.
#[derive(Debug, Default)]
pub(crate) struct WriteQueue {
    /// Bytes accepted but not yet written, at `buf[head..]`.
    buf: Vec<u8>,
    head: usize,
    /// Absolute end offset of every frame not yet fully written.
    frame_ends: VecDeque<u64>,
    /// Total bytes ever accepted.
    accepted: u64,
    /// Total bytes ever written to the sink.
    written: u64,
    /// Frames fully written.
    frames_sent: u64,
    /// Successful write syscalls (each moved ≥ 1 byte).
    syscalls: u64,
    /// High-water mark of queued (unwritten) bytes.
    pending_peak: u64,
}

impl WriteQueue {
    /// Bytes accepted but not yet on the wire.
    pub(crate) fn pending_bytes(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Messages with at least one byte not yet on the wire.
    pub(crate) fn unsent_msgs(&self) -> i64 {
        self.frame_ends.len() as i64
    }

    /// `(frames_sent, write_syscalls, pending_peak_bytes)`.
    pub(crate) fn totals(&self) -> (u64, u64, u64) {
        (self.frames_sent, self.syscalls, self.pending_peak)
    }

    /// Writes as much as possible of the queued tail plus `fresh` (whose
    /// frames end at the relative offsets `ends`) to `w`, coalescing both
    /// into vectored writes. `WouldBlock` (or a partial write) parks the
    /// unwritten remainder in the queue and returns `Ok(())` — the caller
    /// retries (`OutLink::pump` re-invoking this with no fresh bytes)
    /// when the sink may have space.
    ///
    /// # Errors
    ///
    /// Any I/O error other than `WouldBlock`/`Interrupted`; the queue's
    /// remaining frame accounting stays valid so the caller can repair
    /// the in-flight counter by [`WriteQueue::unsent_msgs`].
    pub(crate) fn write_coalesced(
        &mut self,
        w: &mut impl Write,
        fresh: &[u8],
        ends: &[usize],
    ) -> io::Result<()> {
        let base = self.accepted;
        for &end in ends {
            self.frame_ends.push_back(base + end as u64);
        }
        self.accepted += fresh.len() as u64;
        let mut fresh_off = 0usize;
        loop {
            let queued = &self.buf[self.head..];
            let extra = &fresh[fresh_off..];
            if queued.is_empty() && extra.is_empty() {
                self.buf.clear();
                self.head = 0;
                return Ok(());
            }
            let wrote = if queued.is_empty() {
                w.write(extra)
            } else if extra.is_empty() {
                w.write(queued)
            } else {
                w.write_vectored(&[IoSlice::new(queued), IoSlice::new(extra)])
            };
            match wrote {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => {
                    self.syscalls += 1;
                    let from_queue = n.min(queued.len());
                    self.head += from_queue;
                    fresh_off += n - from_queue;
                    self.written += n as u64;
                    while self
                        .frame_ends
                        .front()
                        .is_some_and(|&end| end <= self.written)
                    {
                        self.frame_ends.pop_front();
                        self.frames_sent += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.park(&fresh[fresh_off..]);
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Retries the queued tail alone (test convenience over
    /// [`WriteQueue::write_coalesced`] with no fresh bytes — production
    /// retries go through `OutLink::pump`, which needs the call inlined
    /// for the lint's guard-scope analysis). Returns `true` when the
    /// queue fully drained.
    ///
    /// # Errors
    ///
    /// As for [`WriteQueue::write_coalesced`].
    #[cfg(test)]
    pub(crate) fn retry(&mut self, w: &mut impl Write) -> io::Result<bool> {
        self.write_coalesced(w, &[], &[])?;
        Ok(self.pending_bytes() == 0)
    }

    /// Parks `rest` (unwritten fresh bytes) behind the queued tail.
    fn park(&mut self, rest: &[u8]) {
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(rest);
        self.pending_peak = self.pending_peak.max(self.pending_bytes() as u64);
    }

    /// Drops all queued bytes and frame accounting (the link died);
    /// returns how many messages were still unsent.
    fn abandon(&mut self) -> i64 {
        let orphaned = self.unsent_msgs();
        self.buf.clear();
        self.head = 0;
        self.frame_ends.clear();
        orphaned
    }
}

/// The write half of one directed link, shared between the writer node's
/// transport (frame flushes) and the destination's reactor shard (pending
/// retries).
pub(crate) struct OutLink {
    /// Sending node (attributed on write failures).
    pub(crate) writer: u16,
    /// Lock-free hint that bytes are parked awaiting socket space — lets
    /// a shard skip the mutex on the (vast) majority of idle links.
    parked: AtomicBool,
    state: Mutex<OutState>,
}

struct OutState {
    stream: Arc<TcpStream>,
    queue: WriteQueue,
    dead: bool,
}

/// What a flush or pump attempt did to the link.
pub(crate) enum LinkWrite {
    /// All accepted bytes are on the wire.
    Clean,
    /// Some bytes remain queued; the destination shard must retry.
    Parked,
    /// The link failed; `orphaned` messages must be given back to the
    /// in-flight counter by the caller.
    Dead {
        /// The failure (first fatal error only; later calls return
        /// `orphaned: 0`).
        error: Option<LiveError>,
        /// Unsent messages abandoned in the queue.
        orphaned: i64,
    },
}

impl OutLink {
    pub(crate) fn new(writer: u16, stream: Arc<TcpStream>) -> Self {
        OutLink {
            writer,
            parked: AtomicBool::new(false),
            state: Mutex::new(OutState {
                stream,
                queue: WriteQueue::default(),
                dead: false,
            }),
        }
    }

    /// Flushes `batch` (plus any queued tail) into the socket.
    pub(crate) fn flush_batch(&self, batch: &FrameBatch) -> LinkWrite {
        let mut state = self.state.lock();
        if state.dead {
            // The failure was already reported; the caller still owes the
            // counter for the frames it was about to hand over.
            return LinkWrite::Dead {
                error: None,
                orphaned: 0,
            };
        }
        let stream = Arc::clone(&state.stream);
        let (bytes, ends) = (batch.bytes(), batch.frame_ends());
        // dsj-lint: allow(guard-across-blocking) — the socket is nonblocking; write_vectored returns WouldBlock instead of blocking, and the guard serializes writer-vs-reactor access to the queue
        let result = state.queue.write_coalesced(&mut (&*stream), bytes, ends);
        self.settle(state, result)
    }

    /// Retries queued bytes (reactor side). Cheap no-op when the queue is
    /// empty or the link is dead.
    pub(crate) fn pump(&self) -> LinkWrite {
        if !self.parked.load(Ordering::SeqCst) {
            return LinkWrite::Clean;
        }
        let mut state = self.state.lock();
        if state.dead || state.queue.pending_bytes() == 0 {
            self.parked.store(false, Ordering::SeqCst);
            return LinkWrite::Clean;
        }
        let stream = Arc::clone(&state.stream);
        // dsj-lint: allow(guard-across-blocking) — the socket is nonblocking; write_vectored returns WouldBlock instead of blocking, and the guard serializes writer-vs-reactor access to the queue
        let result = state.queue.write_coalesced(&mut (&*stream), &[], &[]);
        self.settle(state, result)
    }

    fn settle(
        &self,
        mut state: parking_lot::MutexGuard<'_, OutState>,
        result: io::Result<()>,
    ) -> LinkWrite {
        match result {
            Ok(()) if state.queue.pending_bytes() == 0 => {
                self.parked.store(false, Ordering::SeqCst);
                LinkWrite::Clean
            }
            Ok(()) => {
                self.parked.store(true, Ordering::SeqCst);
                LinkWrite::Parked
            }
            Err(e) => {
                state.dead = true;
                let orphaned = state.queue.abandon();
                self.parked.store(false, Ordering::SeqCst);
                LinkWrite::Dead {
                    error: Some(io_err(self.writer, &e)),
                    orphaned,
                }
            }
        }
    }

    /// Whether bytes are queued awaiting socket space (lock-free hint).
    pub(crate) fn has_pending(&self) -> bool {
        self.parked.load(Ordering::SeqCst)
    }

    /// `(frames_sent, write_syscalls, pending_peak_bytes)`.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        self.state.lock().queue.totals()
    }
}

/// The read half of one directed link, owned by the destination's shard:
/// a nonblocking socket, its frame reassembler, and the destination
/// node's event channel.
pub(crate) struct ReadLink {
    stream: Arc<TcpStream>,
    /// Sending node (stamped on decoded messages).
    from: u16,
    /// Receiving node (owns the event channel; attributed on errors).
    to: u16,
    tx: Sender<TransportEvent>,
    decoder: FrameDecoder,
    /// Set by writers after pushing bytes; cleared by the shard before
    /// draining.
    dirty: Arc<AtomicBool>,
    open: bool,
}

impl ReadLink {
    pub(crate) fn new(
        stream: Arc<TcpStream>,
        from: u16,
        to: u16,
        tx: Sender<TransportEvent>,
        dirty: Arc<AtomicBool>,
    ) -> Self {
        ReadLink {
            stream,
            from,
            to,
            tx,
            decoder: FrameDecoder::new(),
            dirty,
            open: true,
        }
    }

    /// Drains the socket, forwarding decoded messages. Returns `true` if
    /// any bytes moved. A short read ends the drain without a confirming
    /// `WouldBlock` round-trip: bytes written after it are covered by the
    /// writer's store-dirty-then-kick, which happens only after its
    /// `write` returns.
    fn drain(&mut self, chunk: &mut [u8], failures: &Mutex<Vec<LiveError>>) -> bool {
        let mut progress = false;
        loop {
            let nread = match (&*self.stream).read(chunk) {
                Ok(0) => {
                    self.open = false; // peer closed: normal shutdown
                    return progress;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return progress,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    failures.lock().push(io_err(self.to, &e));
                    self.open = false;
                    return progress;
                }
            };
            progress = true;
            let (from, tx) = (self.from, &self.tx);
            match self.decoder.feed_decode(&chunk[..nread], &mut |msg| {
                tx.send(TransportEvent::Net { from, msg }).is_ok()
            }) {
                Ok(true) => {}
                Ok(false) => {
                    // The node is gone (normal shutdown); stop reading.
                    self.open = false;
                    return progress;
                }
                Err(e) => {
                    failures.lock().push(LiveError::Decode {
                        node: self.to,
                        detail: e.to_string(),
                    });
                    self.open = false;
                    return progress;
                }
            }
            if nread < chunk.len() {
                return progress;
            }
        }
    }
}

/// A shard's wakeup latch: a kicked shard sweeps immediately instead of
/// waiting out its idle timeout.
///
/// Built on `park`/`unpark` rather than a condvar: the hot path — kicking
/// a shard that is already awake or already flagged — is a single atomic
/// swap, which matters because every node flush kicks. `unpark` before
/// `park` leaves a token that makes the next `park` return immediately,
/// so the flag-then-unpark order cannot lose a wakeup.
pub(crate) struct Kick {
    flag: AtomicBool,
    /// The shard thread to unpark; registered right after spawn. A kick
    /// arriving before registration only sets the flag — the shard checks
    /// it before first parking, and the idle timeout backstops the rest.
    thread: StdMutex<Option<Thread>>,
}

impl Kick {
    pub(crate) fn new() -> Self {
        Kick {
            flag: AtomicBool::new(false),
            thread: StdMutex::new(None),
        }
    }

    /// Binds the latch to its shard thread.
    fn register(&self, thread: Thread) {
        let mut slot = self.thread.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(thread);
    }

    /// Wakes the shard (idempotent; one atomic swap when already flagged).
    pub(crate) fn notify(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            let slot = self.thread.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(t) = slot.as_ref() {
                t.unpark();
            }
        }
    }

    /// Waits until kicked or `timeout` elapses; returns `true` if kicked.
    /// Spurious `park` returns surface as `false` — callers treat that
    /// exactly like a timeout, so they are benign.
    fn wait(&self, timeout: Duration) -> bool {
        if self.flag.swap(false, Ordering::SeqCst) {
            return true;
        }
        thread::park_timeout(timeout);
        self.flag.swap(false, Ordering::SeqCst)
    }
}

/// Everything one shard thread needs: the read links it owns, the
/// out-links whose destinations it serves (pending-write retries), and
/// the shared run state.
pub(crate) struct ShardInput {
    /// Read links owned by this shard (destination nodes assigned to it).
    pub(crate) reads: Vec<ReadLink>,
    /// Out links whose `dest` is assigned to this shard.
    pub(crate) writes: Vec<Arc<OutLink>>,
    /// Wakeup latch (shared with every writer targeting this shard).
    pub(crate) kick: Arc<Kick>,
    /// Sweep counter (the per-shard `reactor_wakeups` gauge).
    pub(crate) wakeups: Arc<AtomicU64>,
    /// Cluster-wide in-flight event counter (repair on dead links, idle
    /// heuristics).
    pub(crate) in_flight: Arc<AtomicI64>,
    /// Shared failure sink.
    pub(crate) failures: Arc<Mutex<Vec<LiveError>>>,
}

/// The running reactor: shard threads plus their shutdown latch.
pub(crate) struct Reactor {
    shards: Vec<(Arc<Kick>, Arc<AtomicU64>, JoinHandle<()>)>,
    shutdown: Arc<AtomicBool>,
}

impl Reactor {
    /// How many shards to run for an `n`-node cluster on this host: one
    /// per two available cores, capped by the node count — never O(N).
    pub(crate) fn shard_count(n: usize) -> usize {
        let cores = thread::available_parallelism().map_or(1, usize::from);
        (cores / 2).clamp(1, 8).min(n.max(1))
    }

    /// Spawns one thread per [`ShardInput`] and returns the handle set.
    pub(crate) fn start(inputs: Vec<ShardInput>) -> Self {
        let shutdown = Arc::new(AtomicBool::new(false));
        let shards = inputs
            .into_iter()
            .map(|input| {
                let kick = Arc::clone(&input.kick);
                let wakeups = Arc::clone(&input.wakeups);
                let stop = Arc::clone(&shutdown);
                let thread = thread::spawn(move || shard_loop(input, &stop));
                kick.register(thread.thread().clone());
                // Cover a kick that raced registration: the flag is set,
                // so waking the shard once makes it observe the work.
                thread.thread().unpark();
                (kick, wakeups, thread)
            })
            .collect();
        Reactor { shards, shutdown }
    }

    /// Stops every shard and returns each shard's final wakeup count.
    pub(crate) fn join(self) -> Vec<u64> {
        self.shutdown.store(true, Ordering::SeqCst);
        for (kick, _, _) in &self.shards {
            kick.notify();
        }
        self.shards
            .into_iter()
            .map(|(_, wakeups, thread)| {
                let _ = thread.join();
                wakeups.load(Ordering::SeqCst)
            })
            .collect()
    }
}

/// One shard's sweep loop: drain dirty read links, retry parked writes,
/// then wait for a kick (with an in-flight-gated safety sweep so a lost
/// wakeup can only ever delay progress, not wedge it).
fn shard_loop(mut input: ShardInput, shutdown: &AtomicBool) {
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        let mut progress = true;
        while progress {
            progress = false;
            for link in &mut input.reads {
                // Relaxed pre-check keeps the common clean-link case to one
                // atomic load; a racing writer's store is confirmed (or
                // deferred to its kick) by the SeqCst swap.
                if link.open
                    && link.dirty.load(Ordering::Relaxed)
                    && link.dirty.swap(false, Ordering::SeqCst)
                {
                    progress |= link.drain(&mut chunk, &input.failures);
                }
            }
            for link in &input.writes {
                match link.pump() {
                    LinkWrite::Clean => {}
                    LinkWrite::Parked => {}
                    LinkWrite::Dead { error, orphaned } => {
                        if orphaned > 0 {
                            input.in_flight.fetch_sub(orphaned, Ordering::SeqCst);
                        }
                        if let Some(e) = error {
                            input.failures.lock().push(e);
                        }
                    }
                }
            }
        }
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let any_parked = input.writes.iter().any(|l| l.has_pending());
        let active = input.in_flight.load(Ordering::SeqCst) > 0;
        let timeout = if any_parked {
            WAIT_PENDING
        } else if active {
            WAIT_ACTIVE
        } else {
            WAIT_IDLE
        };
        input.wakeups.fetch_add(1, Ordering::Relaxed);
        let kicked = input.kick.wait(timeout);
        if !kicked && (active || any_parked) {
            // Safety sweep: treat every link as potentially readable. On
            // loopback kicks are complete, so this path only runs while
            // traffic is in flight and something stalled.
            for link in &input.reads {
                link.dirty.store(true, Ordering::SeqCst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::read_peer_id;
    use crossbeam::channel::{unbounded, Receiver};
    use dsj_core::wire;
    use dsj_core::Msg;
    use dsj_stream::{StreamId, Tuple};
    use std::net::TcpListener;

    fn tuple_msg(seq: u64) -> Msg {
        Msg::Tuple {
            tuple: Tuple::new(StreamId::R, (seq % 97) as u32, seq, 1),
            piggyback: Vec::new(),
        }
    }

    fn batch_of(count: u64) -> FrameBatch {
        let mut batch = FrameBatch::new();
        for seq in 0..count {
            batch.push(&tuple_msg(seq));
        }
        batch
    }

    /// A scripted sink: each entry is `Some(max_bytes)` to accept or
    /// `None` for a `WouldBlock`; after the script, everything is
    /// accepted. Captures accepted bytes and whether vectored writes
    /// were used.
    #[derive(Default)]
    struct ScriptedSink {
        script: VecDeque<Option<usize>>,
        accepted: Vec<u8>,
        vectored_calls: usize,
    }

    impl ScriptedSink {
        fn step(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.script.pop_front() {
                Some(Some(k)) => {
                    let k = k.min(buf.len());
                    self.accepted.extend_from_slice(&buf[..k]);
                    Ok(k)
                }
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                None => {
                    self.accepted.extend_from_slice(buf);
                    Ok(buf.len())
                }
            }
        }
    }

    impl Write for ScriptedSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.step(buf)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.vectored_calls += 1;
            let mut flat = Vec::new();
            for b in bufs {
                flat.extend_from_slice(b);
            }
            self.step(&flat)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_preserve_order_and_frame_accounting() {
        let batch = batch_of(5);
        let total = batch.bytes().len();
        let mut q = WriteQueue::default();
        let mut sink = ScriptedSink {
            // Accept 7 bytes (mid-frame), then block.
            script: VecDeque::from([Some(7), None]),
            ..ScriptedSink::default()
        };
        q.write_coalesced(&mut sink, batch.bytes(), batch.frame_ends())
            .unwrap();
        assert_eq!(q.pending_bytes(), total - 7);
        // Frame 0 is split across the wire boundary: all 5 still unsent.
        assert_eq!(q.unsent_msgs(), 5);
        // Retry drains the rest; byte stream is exactly the batch, in order.
        assert!(q.retry(&mut sink).unwrap());
        assert_eq!(sink.accepted, batch.bytes());
        assert_eq!(q.unsent_msgs(), 0);
        let (frames, syscalls, peak) = q.totals();
        assert_eq!(frames, 5);
        assert!(syscalls >= 2);
        assert_eq!(peak, (total - 7) as u64);
    }

    #[test]
    fn would_block_storm_makes_no_progress_and_no_error() {
        let batch = batch_of(3);
        let mut q = WriteQueue::default();
        let mut sink = ScriptedSink {
            script: VecDeque::from(vec![None; 16]),
            ..ScriptedSink::default()
        };
        q.write_coalesced(&mut sink, batch.bytes(), batch.frame_ends())
            .unwrap();
        for _ in 0..15 {
            assert!(!q.retry(&mut sink).unwrap(), "storm must keep bytes parked");
        }
        assert_eq!(q.unsent_msgs(), 3);
        assert!(sink.accepted.is_empty());
        // The storm ends; one pump delivers everything.
        assert!(q.retry(&mut sink).unwrap());
        assert_eq!(sink.accepted, batch.bytes());
        assert_eq!(q.totals().0, 3);
    }

    #[test]
    fn parked_tail_and_fresh_frames_coalesce_into_one_vectored_write() {
        let first = batch_of(2);
        let mut q = WriteQueue::default();
        let mut sink = ScriptedSink {
            script: VecDeque::from([Some(3), None]),
            ..ScriptedSink::default()
        };
        q.write_coalesced(&mut sink, first.bytes(), first.frame_ends())
            .unwrap();
        assert!(q.pending_bytes() > 0);
        // Next flush carries fresh frames: queued tail + fresh go out
        // through write_vectored, tail first.
        let second = batch_of(2);
        q.write_coalesced(&mut sink, second.bytes(), second.frame_ends())
            .unwrap();
        assert!(sink.vectored_calls >= 1, "expected a vectored write");
        let mut expect = first.bytes().to_vec();
        expect.extend_from_slice(second.bytes());
        assert_eq!(sink.accepted, expect);
        assert_eq!(q.unsent_msgs(), 0);
    }

    #[test]
    fn interrupted_is_retried_not_parked() {
        struct Interrupting {
            interrupts: usize,
            inner: ScriptedSink,
        }
        impl Write for Interrupting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.interrupts > 0 {
                    self.interrupts -= 1;
                    return Err(io::ErrorKind::Interrupted.into());
                }
                self.inner.write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let batch = batch_of(2);
        let mut q = WriteQueue::default();
        let mut sink = Interrupting {
            interrupts: 3,
            inner: ScriptedSink::default(),
        };
        q.write_coalesced(&mut sink, batch.bytes(), batch.frame_ends())
            .unwrap();
        assert_eq!(q.pending_bytes(), 0);
        assert_eq!(sink.inner.accepted, batch.bytes());
    }

    #[test]
    fn fatal_write_error_abandons_queue_with_exact_orphan_count() {
        let batch = batch_of(4);
        let mut q = WriteQueue::default();
        // One frame goes out whole, then the sink dies.
        let first_end = batch.frame_ends()[0];
        let mut sink = ScriptedSink {
            script: VecDeque::from([Some(first_end), None]),
            ..ScriptedSink::default()
        };
        q.write_coalesced(&mut sink, batch.bytes(), batch.frame_ends())
            .unwrap();
        assert_eq!(q.unsent_msgs(), 3);
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        assert!(q.retry(&mut Dead).is_err());
        assert_eq!(q.abandon(), 3);
        assert_eq!(q.pending_bytes(), 0);
    }

    /// End-to-end over a real loopback socket: stuff the send buffer
    /// until the kernel pushes back, verify the queue parks the overflow
    /// (the WouldBlock path on a real socket), then drain the reader and
    /// verify every byte arrives intact and in order — a slow reader
    /// stalls delivery, never correctness, and the queue empties once the
    /// reader catches up (so quiescence can complete).
    #[test]
    fn real_socket_backpressure_parks_then_drains() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = TcpStream::connect(addr).unwrap();
        writer.set_nonblocking(true).unwrap();
        writer.set_nodelay(true).unwrap();
        let (mut reader, _) = listener.accept().unwrap();

        let batch = batch_of(64); // ~1.2 KiB per flush
        let mut q = WriteQueue::default();
        let mut flushes = 0u64;
        // Keep flushing without reading until the kernel blocks us.
        while q.pending_bytes() == 0 && flushes < 100_000 {
            q.write_coalesced(&mut (&writer), batch.bytes(), batch.frame_ends())
                .unwrap();
            flushes += 1;
        }
        assert!(q.pending_bytes() > 0, "socket buffers never filled");
        let expect_total = flushes * batch.bytes().len() as u64;
        // Storm: repeated pumps against the full socket stay parked.
        for _ in 0..8 {
            let _ = q.retry(&mut (&writer)).unwrap();
        }
        // Reader catches up; writer pumps until everything is delivered.
        let mut got: Vec<u8> = Vec::new();
        let mut chunk = vec![0u8; READ_CHUNK];
        while (got.len() as u64) < expect_total {
            let n = reader.read(&mut chunk).unwrap();
            assert!(n > 0, "writer closed early");
            got.extend_from_slice(&chunk[..n]);
            let _ = q.retry(&mut (&writer)).unwrap();
        }
        assert!(q.retry(&mut (&writer)).unwrap());
        assert_eq!(q.unsent_msgs(), 0);
        assert_eq!(got.len() as u64, expect_total);
        // The delivered stream is the batch repeated `flushes` times.
        let mut dec = FrameDecoder::new();
        let mut frames = 0u64;
        dec.feed_decode(&got, &mut |msg| {
            assert_eq!(
                wire::encode(&msg),
                wire::encode(&tuple_msg(frames % 64)),
                "frame {frames} corrupted"
            );
            frames += 1;
            true
        })
        .unwrap();
        assert_eq!(frames, flushes * 64);
        let (sent, syscalls, peak) = q.totals();
        assert_eq!(sent, frames);
        assert!(
            syscalls < frames,
            "coalescing must beat one syscall per frame"
        );
        assert!(peak > 0);
    }

    /// One end-to-end read link for tests: listener, handshake (written
    /// one byte at a time, exercising [`read_peer_id`]'s short-read
    /// handling) and a [`ReadLink`] over the accepted nonblocking socket,
    /// drained by hand the way a shard sweep would.
    struct LinkFixture {
        dialer: TcpStream,
        link: ReadLink,
        rx: Receiver<TransportEvent>,
        failures: Mutex<Vec<LiveError>>,
        chunk: Vec<u8>,
    }

    impl LinkFixture {
        fn spawn(from: u16) -> Self {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let addr = listener.local_addr().unwrap();
            let acceptor = thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let peer = read_peer_id(&mut stream).unwrap();
                stream.set_nonblocking(true).unwrap();
                (stream, peer)
            });
            let mut dialer = TcpStream::connect(addr).unwrap();
            dialer.set_nodelay(true).unwrap();
            for byte in from.to_le_bytes() {
                dialer.write_all(&[byte]).unwrap();
            }
            let (stream, peer) = acceptor.join().unwrap();
            assert_eq!(peer, from);
            let (tx, rx) = unbounded();
            LinkFixture {
                dialer,
                link: ReadLink::new(
                    Arc::new(stream),
                    peer,
                    0,
                    tx,
                    Arc::new(AtomicBool::new(false)),
                ),
                rx,
                failures: Mutex::new(Vec::new()),
                chunk: vec![0u8; READ_CHUNK],
            }
        }

        /// Sends `bytes` and sweeps the link once: on loopback they are
        /// readable by the time `write` returns.
        fn deliver(&mut self, bytes: &[u8]) {
            self.dialer.write_all(bytes).unwrap();
            self.link.drain(&mut self.chunk, &self.failures);
        }

        /// Closes the write side and sweeps until the link shuts.
        fn finish(mut self) -> (Receiver<TransportEvent>, Vec<LiveError>) {
            drop(self.dialer);
            while self.link.open {
                self.link.drain(&mut self.chunk, &self.failures);
                thread::yield_now();
            }
            (self.rx, self.failures.into_inner())
        }
    }

    #[test]
    fn corrupt_frame_on_the_socket_is_a_typed_error_not_a_panic() {
        // Drive the reader half of one link directly over a real socket
        // and feed it garbage: a well-formed length prefix followed by a
        // body with an unknown version nibble.
        let mut link = LinkFixture::spawn(1);
        // One valid frame first: the link decodes it and forwards it.
        let valid = wire::encode(&tuple_msg(42));
        link.deliver(&valid);
        // Then a corrupt one: version nibble 0xF is not the codec's.
        link.deliver(&[1, 0, 0, 0, 0xF0]);
        let (rx, failures) = link.finish();
        match rx.try_recv() {
            Some(TransportEvent::Net { from: 1, msg }) => {
                assert_eq!(msg.wire_bytes(), valid.len());
            }
            other => panic!("expected the valid frame first, got {other:?}"),
        }
        assert_eq!(failures.len(), 1);
        assert!(
            matches!(&failures[0], LiveError::Decode { node: 0, .. }),
            "{failures:?}"
        );
    }

    #[test]
    fn chunk_boundaries_do_not_affect_decoding() {
        // Byte-at-a-time delivery across the socket, swept after every
        // byte, still reassembles the exact message stream.
        let mut link = LinkFixture::spawn(2);
        let msgs: Vec<Msg> = (0..5).map(tuple_msg).collect();
        for msg in &msgs {
            for byte in wire::encode(msg) {
                link.deliver(&[byte]);
            }
        }
        let (rx, failures) = link.finish();
        assert!(failures.is_empty(), "{failures:?}");
        for expected in &msgs {
            match rx.try_recv() {
                Some(TransportEvent::Net { from: 2, msg }) => {
                    assert_eq!(wire::encode(&msg), wire::encode(expected));
                }
                other => panic!("missing message, got {other:?}"),
            }
        }
    }

    #[test]
    fn kick_wakes_a_waiting_shard() {
        let kick = Arc::new(Kick::new());
        let k2 = Arc::clone(&kick);
        let waiter = thread::spawn(move || {
            k2.register(thread::current());
            k2.wait(Duration::from_secs(5))
        });
        thread::sleep(Duration::from_millis(10));
        kick.notify();
        assert!(waiter.join().unwrap(), "wait should report the kick");
        // And a timeout without a kick reports false.
        assert!(!kick.wait(Duration::from_millis(1)));
    }
}
