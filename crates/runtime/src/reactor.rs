//! The per-node reactor of the TCP backend: every node thread reads its
//! own inbound sockets — N threads for N nodes. A blocking reader per link
//! would spend O(N²) threads, and a shared reader pool puts a thread hop
//! (a wake-up per message) between the socket and the engine.
//!
//! A [`crate::TcpCluster`] node owns the read side of its N−1 inbound
//! links (nonblocking) plus the retry duty for pending writes headed *to*
//! it, and sweeps them from [`ReactorTransport`]'s `poll_frame` with
//! readiness discovered by attempting the syscall — no `epoll`/`mio`/
//! `libc`, just `WouldBlock`. Decoded messages go straight into the
//! engine's frame.
//!
//! # Readiness model
//!
//! All writers live in this process, so "data may be readable on link
//! `i → j`" is always caused by an in-process write. Writers therefore
//! *tell* the reader instead of making it poll: after pushing bytes into a
//! socket, the writer sets the link's dirty flag, and once its whole flush
//! is written it kicks each node it wrote to ([`Kick`]) — one wake-up per
//! burst, not per message. A sweep drains every dirty link to
//! `WouldBlock`; the flag is cleared *before* draining, so a write racing
//! the sweep re-dirties the link and re-kicks — no lost wakeups. A node
//! with nothing to do waits on its mailbox's latch, the one the feeder
//! kicks too: one wait point per node. On loopback, bytes are visible by
//! the time `write(2)` returns, which makes the kick protocol complete; a
//! timed re-read of links with written-but-undecoded frames backstops it.
//!
//! # Write coalescing and backpressure
//!
//! Outbound frames are batched per peer ([`dsj_core::wire::FrameBatch`])
//! and flushed once per engine frame with vectored writes — many messages
//! per syscall. A full socket (`WouldBlock`, or a partial write) parks
//! the unwritten tail in the link's [`WriteQueue`]; the destination node
//! retries it on its next sweep, which is exactly when socket space
//! reappears (the destination draining its read side is what frees the
//! peer's receive buffer). Messages with bytes still queued remain
//! counted by the cluster-wide in-flight counter — they were counted at
//! `send` time and are only decremented by the *receiving* engine — so
//! quiescence cannot be declared while a slow reader still owes traffic,
//! and a dead link gives its queued messages' counts back rather than
//! wedging the drain loop.

use crate::cluster::LiveError;
use crate::harness::{Inbox, Mailbox};
use crate::sync::{self, AtomicBool, AtomicU64, Mutex, Ordering, Thread};
use crate::tcp::io_err;
use dsj_core::wire::{FrameBatch, FrameDecoder};
use dsj_core::{Msg, Transport, TransportEvent};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Read-buffer size for link drains.
const READ_CHUNK: usize = 16 * 1024;

/// Idle wait while some inbound link still has pending (unwritable) bytes.
const WAIT_PENDING: Duration = Duration::from_micros(200);
/// Idle wait while a peer has frames on the wire this node has not decoded.
const WAIT_OWED: Duration = Duration::from_millis(1);

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

    /// `(frames_sent, write_syscalls, pending_peak_bytes, bytes_accepted)`.
    pub(crate) fn totals(&self) -> (u64, u64, u64, u64) {
        (
            self.frames_sent,
            self.syscalls,
            self.pending_peak,
            self.accepted,
        )
    }

    /// Writes as much as possible of the queued tail plus `fresh` (whose
    /// frames end at the relative offsets `ends`) to `w`, coalescing both
    /// into vectored writes. `WouldBlock` (or a partial write) parks the
    /// unwritten remainder in the queue and returns `Ok(())` — the caller
    /// retries (`OutLink::pump`: this again, with no fresh bytes) when the
    /// sink may have space.
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
/// transport (frame flushes) and the destination node's sweep (readiness,
/// pending retries).
pub(crate) struct OutLink {
    /// Sending node (attributed on failures, stamped on decoded messages).
    pub(crate) writer: u16,
    /// Set by the writer after pushing bytes; cleared by the destination
    /// before draining.
    dirty: AtomicBool,
    /// Lock-free hint that bytes are parked awaiting socket space — lets
    /// a sweep skip the mutex on the (vast) majority of idle links.
    parked: AtomicBool,
    /// Frames fully on the wire, mirrored from the queue for the reader.
    sent: AtomicU64,
    /// The reader's `read` calls that returned bytes (a gauge, like
    /// [`Kick`]'s waits: part of no protocol).
    reads: std::sync::atomic::AtomicU64,
    state: Mutex<OutState>,
}

struct OutState {
    stream: Arc<TcpStream>,
    queue: WriteQueue,
    dead: bool,
}

/// A link that failed under a flush or a retry.
#[derive(Default)]
pub(crate) struct DeadLink {
    /// The failure; `None` when an earlier call already reported it.
    error: Option<LiveError>,
    /// Unsent messages abandoned in the queue, which the caller must give
    /// back to the in-flight counter.
    orphaned: i64,
}

impl OutLink {
    pub(crate) fn new(writer: u16, stream: Arc<TcpStream>) -> Self {
        OutLink {
            writer,
            dirty: AtomicBool::new(false),
            parked: AtomicBool::new(false),
            sent: AtomicU64::new(0),
            reads: std::sync::atomic::AtomicU64::new(0),
            state: Mutex::new(OutState {
                stream,
                queue: WriteQueue::default(),
                dead: false,
            }),
        }
    }

    /// Flushes `batch` (plus any queued tail) into the socket, parking what
    /// does not fit for the destination to retry, and marks the link readable.
    fn flush_batch(&self, batch: &FrameBatch) -> Result<(), DeadLink> {
        self.submit(batch.bytes(), batch.frame_ends())?;
        self.dirty.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Retries queued bytes (destination side); a no-op when none are parked.
    fn pump(&self) -> Result<(), DeadLink> {
        if !self.has_pending() {
            return Ok(());
        }
        self.submit(&[], &[])
    }

    fn submit(&self, fresh: &[u8], ends: &[usize]) -> Result<(), DeadLink> {
        let mut state = self.state.lock();
        if state.dead {
            // The failure was already reported; a flushing caller still owes
            // the counter for the frames it was about to hand over.
            return Err(DeadLink::default());
        }
        let stream = Arc::clone(&state.stream);
        // The guard stays across the write: the socket is nonblocking, so
        // `write_vectored` returns `WouldBlock` instead of blocking, and the
        // guard is what serializes writer-vs-reactor access to the queue.
        let result = state.queue.write_coalesced(&mut (&*stream), fresh, ends);
        let pending = result.is_ok() && state.queue.pending_bytes() > 0;
        self.parked.store(pending, Ordering::SeqCst);
        self.sent.store(state.queue.frames_sent, Ordering::SeqCst);
        result.map_err(|e| {
            state.dead = true;
            DeadLink {
                error: Some(io_err(self.writer, &e)),
                orphaned: state.queue.abandon(),
            }
        })
    }

    /// Whether bytes are queued awaiting socket space (lock-free hint).
    fn has_pending(&self) -> bool {
        self.parked.load(Ordering::SeqCst)
    }

    /// `(frames_sent, write_syscalls, pending_peak_bytes, bytes_accepted)`.
    pub(crate) fn stats(&self) -> (u64, u64, u64, u64) {
        self.state.lock().queue.totals()
    }

    /// How many of the reader's `read` calls returned bytes.
    pub(crate) fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

/// The read half of one directed link, owned by the destination node's
/// thread: a nonblocking socket, its frame reassembler (which holds the
/// link's base and stamps the writer as every tuple's origin), and the
/// write half of the same link — whose dirty flag says when to read, and
/// whose parked tail this reader's drains make room for.
pub(crate) struct ReadLink {
    stream: Arc<TcpStream>,
    /// Receiving node (attributed on errors).
    to: u16,
    decoder: FrameDecoder,
    /// Frames decoded so far; behind `out.sent` while bytes are in flight.
    decoded: u64,
    out: Arc<OutLink>,
    open: bool,
}

impl ReadLink {
    pub(crate) fn new(stream: Arc<TcpStream>, to: u16, out: Arc<OutLink>) -> Self {
        ReadLink {
            stream,
            to,
            decoder: FrameDecoder::for_sender(out.writer),
            decoded: 0,
            out,
            open: true,
        }
    }

    /// Claims the link's dirty flag: `true` when the writer pushed bytes
    /// since the last claim and the link is still open. The Relaxed pre-check
    /// keeps the common clean-link case to one atomic load; a racing writer's
    /// store is confirmed (or deferred to its kick) by the SeqCst swap.
    fn take_dirty(&self) -> bool {
        let dirty = &self.out.dirty;
        self.open && dirty.load(Ordering::Relaxed) && dirty.swap(false, Ordering::SeqCst)
    }

    /// Whether the writer has frames on the wire that this side has not
    /// decoded: the link is worth re-reading even without a kick.
    fn owed(&self) -> bool {
        self.open && self.out.sent.load(Ordering::SeqCst) > self.decoded
    }

    /// Drains the socket, appending decoded messages to `held`. A short
    /// read ends the drain without a confirming `WouldBlock` round-trip:
    /// bytes written after it are covered by the writer's
    /// store-dirty-then-kick, which happens only after its `write` returns.
    fn drain(
        &mut self,
        chunk: &mut [u8],
        held: &mut VecDeque<TransportEvent>,
        failures: &Mutex<Vec<LiveError>>,
    ) {
        while self.open {
            let nread = match (&*self.stream).read(chunk) {
                Ok(0) => {
                    self.open = false; // peer closed: normal shutdown
                    return;
                }
                Ok(n) => {
                    self.out.reads.fetch_add(1, Ordering::Relaxed);
                    n
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    failures.lock().push(io_err(self.to, &e));
                    self.open = false;
                    return;
                }
            };
            let from = self.out.writer;
            if let Err(e) = self.decoder.feed_decode(&chunk[..nread], &mut |msg| {
                self.decoded += 1;
                held.push_back(TransportEvent::Net { from, msg });
                true
            }) {
                failures.lock().push(LiveError::Decode {
                    node: self.to,
                    detail: e.to_string(),
                });
                self.open = false;
            }
            if nread < chunk.len() {
                return;
            }
        }
    }
}

/// A node's wakeup latch: a kicked node sweeps immediately instead of
/// waiting out its idle timeout.
///
/// Built on `park`/`unpark` rather than a condvar: the hot path — kicking
/// a node that is already awake or already flagged — is a single atomic
/// swap, which matters because every flush kicks every peer it wrote to.
/// `unpark` before `park` leaves a token that makes the next `park` return
/// immediately, so the flag-then-unpark order cannot lose a wakeup.
#[derive(Default)]
pub(crate) struct Kick {
    flag: AtomicBool,
    /// The thread to unpark: whichever waits first, registered once and read
    /// lock-free by every kick after. A kick arriving before that only sets
    /// the flag — checked before the first park; the timeout backstops the rest.
    thread: OnceLock<Thread>,
    /// Waits that found no kick pending (the `reactor_wakeups` gauge: part of
    /// no protocol, so not a yield point of the explorer either).
    waits: std::sync::atomic::AtomicU64,
}

impl Kick {
    /// Wakes the owner (idempotent; one atomic swap when already flagged).
    pub(crate) fn notify(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            if let Some(t) = self.thread.get() {
                t.unpark();
            }
        }
    }

    /// Waits until kicked or `timeout` elapses; returns `true` if kicked.
    /// Spurious `park` returns surface as `false` — callers treat that
    /// exactly like a timeout, so they are benign.
    pub(crate) fn wait(&self, timeout: Duration) -> bool {
        self.thread.get_or_init(sync::current);
        if self.flag.swap(false, Ordering::SeqCst) {
            return true;
        }
        self.waits.fetch_add(1, Ordering::Relaxed);
        sync::park_timeout(timeout);
        self.flag.swap(false, Ordering::SeqCst)
    }

    /// How often the owner found no kick pending and parked.
    pub(crate) fn waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }
}

/// The write side of one `me → j` link as its sender sees it.
struct Peer {
    link: Arc<OutLink>,
    /// Frames encoded for the peer since the last flush (allocation
    /// reused across frames), and the link's encoder: its base is in step
    /// with the engine's for this peer.
    batch: FrameBatch,
    /// The peer's wait point, kicked once per flush that wrote to it.
    mailbox: Arc<Mailbox>,
    kick_due: bool,
}

/// [`Transport`] of one TCP node, run by the node's own thread.
///
/// Outbound messages are batched per peer ([`FrameBatch`]) and flushed once
/// per engine frame through the peer's [`OutLink`] — a coalesced vectored
/// write on a nonblocking socket, its tail parked in the link's write queue
/// when the socket is full. Once the whole flush is written, each peer
/// written to is kicked — which makes the bytes *observed*, not just sent.
/// Inbound, the node sweeps the read halves of its own links and its
/// [`Inbox`] (feeder arrivals, shutdown) into the engine's frame, and waits
/// on the inbox's latch when both are empty.
pub(crate) struct ReactorTransport {
    me: u16,
    inbox: Inbox,
    inbound: Vec<ReadLink>,
    /// Peer messages decoded but not yet released into a frame.
    held: VecDeque<TransportEvent>,
    chunk: Vec<u8>,
    /// `peers[j]` is the `me → j` write side; `None` at `j == me`.
    peers: Vec<Option<Peer>>,
    failures: Arc<Mutex<Vec<LiveError>>>,
}

impl ReactorTransport {
    /// Node `me` over its `inbound` read halves and, per peer, the write
    /// half towards it with the peer's mailbox (`None` at `me`).
    pub(crate) fn new(
        me: u16,
        inbox: Inbox,
        inbound: Vec<ReadLink>,
        outbound: impl Iterator<Item = Option<(Arc<OutLink>, Arc<Mailbox>)>>,
        failures: Arc<Mutex<Vec<LiveError>>>,
    ) -> Self {
        let peer = |(link, mailbox)| Peer {
            link,
            batch: FrameBatch::new(),
            mailbox,
            kick_due: false,
        };
        ReactorTransport {
            me,
            inbox,
            inbound,
            held: VecDeque::new(),
            chunk: vec![0u8; READ_CHUNK],
            peers: outbound.map(|o| o.map(peer)).collect(),
            failures,
        }
    }

    /// Reads every dirty link into `held` and retries parked writes headed
    /// here; returns how long the node may wait before it sweeps again
    /// unprompted — shorter while a link has bytes parked or frames this
    /// node has not seen, the idle wait when nothing is owed to it.
    fn sweep(&mut self) -> Duration {
        let mut patience = Inbox::IDLE_WAIT;
        for link in &mut self.inbound {
            if link.take_dirty() {
                link.drain(&mut self.chunk, &mut self.held, &self.failures);
            }
            if link.out.has_pending() {
                // The drain above is what frees the peer's socket space:
                // retry its parked tail now and read what that moved.
                if let Err(dead) = link.out.pump() {
                    let in_flight = &self.inbox.in_flight;
                    in_flight.fetch_sub(dead.orphaned, Ordering::SeqCst);
                    self.failures.lock().extend(dead.error);
                }
                link.drain(&mut self.chunk, &mut self.held, &self.failures);
                if link.out.has_pending() {
                    patience = WAIT_PENDING;
                }
            }
            if link.owed() {
                patience = patience.min(WAIT_OWED);
            }
        }
        patience
    }
}

impl Transport for ReactorTransport {
    type Error = LiveError;

    /// Appends `msg` to peer `to`'s batch, its link's next frame, and
    /// counts it in flight.
    fn send(&mut self, to: u16, msg: Msg) -> Result<(), LiveError> {
        let Some(Some(peer)) = self.peers.get_mut(to as usize) else {
            return Err(LiveError::Io {
                node: self.me,
                detail: format!("no socket from node {} to peer {to}", self.me),
            });
        };
        peer.batch.push(&msg);
        // Count the message in flight at batch time, before any byte
        // becomes visible to the peer: the counter may briefly over-report
        // (batched, not yet written) but never under-reports, and the
        // engine flushes every frame before blocking, so batched messages
        // cannot stall quiescence.
        self.inbox.in_flight.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Order matters: one FIFO per node used to guarantee that a peer's
    /// probe is never processed ahead of a local arrival injected before
    /// the probe's tuple was — processing it early would probe a window
    /// that a later eviction should already have shrunk, and count a match
    /// the sequential ground truth does not have. With two sources the
    /// same guarantee needs sockets swept *before* the mailbox is drained
    /// (everything injected before a probe was written is then in the
    /// mailbox or already processed), and swept probes released only
    /// behind a drain that emptied the mailbox, not one that stopped at
    /// `max`.
    fn poll_frame(&mut self, max: usize, frame: &mut Vec<TransportEvent>) -> Result<(), LiveError> {
        loop {
            let patience = self.sweep();
            if self.inbox.drain(max, frame) {
                let room = max.saturating_sub(frame.len()).min(self.held.len());
                frame.extend(self.held.drain(..room));
            }
            if !frame.is_empty() {
                return Ok(());
            }
            if !self.inbox.wait(patience) {
                // Safety sweep: a link with frames on the wire that never
                // showed up is read again without a kick. On loopback kicks
                // are complete, so this only runs when something stalled —
                // and only on those links: at N = 128, nodes re-reading all
                // their sockets each millisecond saturate the host.
                for link in self.inbound.iter().filter(|link| link.owed()) {
                    link.out.dirty.store(true, Ordering::SeqCst);
                }
            }
        }
    }

    fn flush(&mut self) -> Result<(), LiveError> {
        let mut failed = None;
        for (j, peer) in self.peers.iter_mut().enumerate() {
            let Some(peer) = peer else { continue };
            if peer.batch.is_empty() {
                continue;
            }
            match peer.link.flush_batch(&peer.batch) {
                // Accepted (on the wire, or parked where the destination node
                // owns the retry); either way the messages stay counted
                // until the receiving engine processes them.
                Ok(()) => {
                    peer.batch.clear();
                    peer.kick_due = true;
                }
                Err(dead) => {
                    // A link that died under this flush had accepted the
                    // batch, and `orphaned` covers it; one *already* dead
                    // never did, and the batch is given back below.
                    if dead.orphaned > 0 {
                        peer.batch.clear();
                    }
                    failed = Some((j, dead));
                    break;
                }
            }
        }
        // Kicks come after every write: a woken peer can take the CPU at
        // once, and it should find this whole flush, not its first batch.
        let mut unflushed = 0i64;
        for peer in self.peers.iter_mut().flatten() {
            if std::mem::take(&mut peer.kick_due) {
                peer.mailbox.kick();
            }
            unflushed += peer.batch.len() as i64;
        }
        let Some((j, dead)) = failed else {
            return Ok(());
        };
        // A fatal flush error aborts the node: un-count what the link
        // abandoned and every message still batched (no phantom traffic).
        let in_flight = &self.inbox.in_flight;
        in_flight.fetch_sub(dead.orphaned + unflushed, Ordering::SeqCst);
        for peer in self.peers.iter_mut().flatten() {
            peer.batch.clear();
        }
        Err(dead.error.unwrap_or_else(|| LiveError::Io {
            node: self.me,
            detail: format!("link from node {} to peer {j} is dead", self.me),
        }))
    }

    fn now_us(&mut self) -> u64 {
        self.inbox.now_us()
    }

    fn quiesce(&mut self) {
        self.inbox.quiesce();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{Explorer, Scenario};
    use crate::harness;
    use dsj_core::Msg;
    use dsj_stream::{StreamId, Tuple};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    impl WriteQueue {
        /// Retries the queued tail alone, as `OutLink::pump` does; `true`
        /// when the queue fully drained.
        fn retry(&mut self, w: &mut impl Write) -> io::Result<bool> {
            self.write_coalesced(w, &[], &[])?;
            Ok(self.pending_bytes() == 0)
        }
    }

    /// A probe from node 1: a 5-byte frame on a link whose last tuple is
    /// a few seqs back.
    fn tuple_msg(seq: u64) -> Msg {
        Msg::Tuple {
            tuple: Tuple::new(StreamId::R, 100_000 + (seq % 97) as u32, seq, 1),
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
        // Both partial writes end inside frame 0 (5 bytes).
        assert!(batch.frame_ends()[0] > 4);
        let mut q = WriteQueue::default();
        let mut sink = ScriptedSink {
            // Accept 2 bytes (mid-frame), then block; then 2 more, and block.
            script: VecDeque::from([Some(2), None, Some(2), None]),
            ..ScriptedSink::default()
        };
        q.write_coalesced(&mut sink, batch.bytes(), batch.frame_ends())
            .unwrap();
        assert_eq!(q.pending_bytes(), total - 2);
        // Frame 0 is split across the wire boundary: all 5 still unsent.
        assert_eq!(q.unsent_msgs(), 5);
        // A retry that blocks again keeps the unwritten tail and nothing else.
        assert!(!q.retry(&mut sink).unwrap());
        assert_eq!((q.buf.len(), q.head), (total - 4, 0));
        // Retry drains the rest; byte stream is exactly the batch, in order.
        assert!(q.retry(&mut sink).unwrap());
        assert_eq!(sink.accepted, batch.bytes());
        assert_eq!(q.unsent_msgs(), 0);
        assert!(q.buf.is_empty(), "a drained queue still holds its bytes");
        let (frames, syscalls, peak, accepted) = q.totals();
        assert_eq!(frames, 5);
        assert!(syscalls >= 2);
        assert_eq!(peak, (total - 2) as u64);
        assert_eq!(accepted, total as u64);
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

        // One link's frames, 64 a flush (~320 B), each flush the next 64.
        let mut batch = FrameBatch::new();
        let mut q = WriteQueue::default();
        let mut flushes = 0u64;
        let mut expect_total = 0;
        // Keep flushing without reading until the kernel blocks us.
        while q.pending_bytes() == 0 && flushes < 400_000 {
            batch.clear();
            for i in 0..64 {
                batch.push(&tuple_msg(flushes * 64 + i));
            }
            q.write_coalesced(&mut (&writer), batch.bytes(), batch.frame_ends())
                .unwrap();
            expect_total += batch.bytes().len() as u64;
            flushes += 1;
        }
        assert!(q.pending_bytes() > 0, "socket buffers never filled");
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
        // The delivered stream is every frame, in order.
        let mut dec = FrameDecoder::for_sender(1);
        let mut frames = 0u64;
        dec.feed_decode(&got, &mut |msg| {
            assert_eq!(msg, tuple_msg(frames), "frame {frames} corrupted");
            frames += 1;
            true
        })
        .unwrap();
        assert_eq!(frames, flushes * 64);
        let (sent, syscalls, peak, accepted) = q.totals();
        assert_eq!(accepted, expect_total);
        assert_eq!(sent, frames);
        assert!(
            syscalls < frames,
            "coalescing must beat one syscall per frame"
        );
        assert!(peak > 0);
    }

    /// One end-to-end read link for tests: a connected loopback pair and
    /// a [`ReadLink`] over its nonblocking accepted end, drained by hand
    /// the way a node's sweep would. `encoder` encodes what the test sends
    /// as the writer's frames.
    struct LinkFixture {
        dialer: TcpStream,
        link: ReadLink,
        encoder: FrameBatch,
        held: VecDeque<TransportEvent>,
        failures: Mutex<Vec<LiveError>>,
        chunk: Vec<u8>,
    }

    impl LinkFixture {
        fn spawn(from: u16) -> Self {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let dialer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (stream, _) = listener.accept().unwrap();
            dialer.set_nodelay(true).unwrap();
            stream.set_nonblocking(true).unwrap();
            let out = OutLink::new(from, Arc::new(dialer.try_clone().unwrap()));
            LinkFixture {
                dialer,
                link: ReadLink::new(Arc::new(stream), 0, Arc::new(out)),
                encoder: FrameBatch::new(),
                held: VecDeque::new(),
                failures: Mutex::new(Vec::new()),
                chunk: vec![0u8; READ_CHUNK],
            }
        }

        /// `msg` as the writer's next frame on the link.
        fn frame(&mut self, msg: &Msg) -> Vec<u8> {
            self.encoder.clear();
            self.encoder.push(msg);
            self.encoder.bytes().to_vec()
        }

        /// Sends `bytes` and sweeps the link once: on loopback they are
        /// readable by the time `write` returns.
        fn deliver(&mut self, bytes: &[u8]) {
            self.dialer.write_all(bytes).unwrap();
            self.link
                .drain(&mut self.chunk, &mut self.held, &self.failures);
        }

        /// Closes the write side and sweeps until the link shuts.
        fn finish(mut self) -> (VecDeque<TransportEvent>, Vec<LiveError>) {
            self.dialer.shutdown(std::net::Shutdown::Write).unwrap();
            while self.link.open {
                self.link
                    .drain(&mut self.chunk, &mut self.held, &self.failures);
                thread::yield_now();
            }
            (self.held, self.failures.0.into_inner().unwrap())
        }

        /// Node 0 as its own thread sees it — this link as its only
        /// inbound one, plus its mailbox — and the peer's write side.
        fn into_node(self) -> (Writer, Arc<Mailbox>, ReactorTransport) {
            let mut run = harness::Run::new(1);
            let (mailbox, inbox) = (Arc::clone(&run.mailboxes[0]), run.inboxes.remove(0));
            let peer = Writer {
                link: Arc::clone(&self.link.out),
                batch: FrameBatch::new(),
            };
            let failures = Arc::new(Mutex::new(Vec::new()));
            let node =
                ReactorTransport::new(0, inbox, vec![self.link], std::iter::empty(), failures);
            (peer, mailbox, node)
        }
    }

    /// A peer's write half and its link's encoder.
    struct Writer {
        link: Arc<OutLink>,
        batch: FrameBatch,
    }

    impl Writer {
        /// The peer flushes one probe carrying tuple `seq`.
        fn probe(&mut self, seq: u64) {
            self.batch.clear();
            self.batch.push(&tuple_msg(seq));
            assert!(self.link.flush_batch(&self.batch).is_ok());
        }
    }

    fn arrival(seq: u64) -> TransportEvent {
        TransportEvent::Arrival(Tuple::new(StreamId::S, 1, seq, 0), None)
    }

    /// `A<seq>` for a local arrival, `P<seq>` for a peer's probe.
    fn shape(frame: &[TransportEvent]) -> Vec<String> {
        frame
            .iter()
            .map(|event| match event {
                TransportEvent::Arrival(t, _) => format!("A{}", t.seq),
                TransportEvent::Net {
                    msg: Msg::Tuple { tuple, .. },
                    ..
                } => format!("P{}", tuple.seq),
                other => format!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn an_earlier_arrival_is_framed_ahead_of_a_readable_probe() {
        let (mut peer, mailbox, mut node) = LinkFixture::spawn(1).into_node();
        // The feeder queued arrival 7 before the peer even saw the tuple
        // its probe carries; both are pending when the node next polls.
        mailbox.push(arrival(7)).unwrap();
        peer.probe(9);
        let mut frame = Vec::new();
        node.poll_frame(64, &mut frame).unwrap();
        assert_eq!(shape(&frame), ["A7", "P9"]);
    }

    #[test]
    fn held_probes_wait_for_a_mailbox_drain_that_ran_dry() {
        let (mut peer, mailbox, mut node) = LinkFixture::spawn(1).into_node();
        // More arrivals than one frame holds, all queued before the probe
        // was written: the probe may not overtake the ones left behind.
        for seq in 0..6 {
            mailbox.push(arrival(seq)).unwrap();
        }
        peer.probe(9);
        let mut frame = Vec::new();
        node.poll_frame(4, &mut frame).unwrap();
        assert_eq!(shape(&frame), ["A0", "A1", "A2", "A3"]);
        frame.clear();
        node.poll_frame(4, &mut frame).unwrap();
        assert_eq!(shape(&frame), ["A4", "A5", "P9"]);
        // A full frame that happened to empty the mailbox still leaves the
        // probes it had no room for to the next one.
        for seq in 10..14 {
            mailbox.push(arrival(seq)).unwrap();
        }
        peer.probe(20);
        frame.clear();
        node.poll_frame(4, &mut frame).unwrap();
        assert_eq!(shape(&frame), ["A10", "A11", "A12", "A13"]);
        frame.clear();
        node.poll_frame(4, &mut frame).unwrap();
        assert_eq!(shape(&frame), ["P20"]);
    }

    #[test]
    fn frames_on_the_wire_are_found_without_a_kick() {
        let (mut peer, _mailbox, mut node) = LinkFixture::spawn(1).into_node();
        peer.probe(5);
        // As if the node had claimed the flag before the bytes were
        // readable: no flag, no kick, but the writer's count says a frame
        // is owed, so the timed re-read finds it.
        peer.link.dirty.store(false, Ordering::SeqCst);
        assert!(node.inbound[0].owed());
        let mut frame = Vec::new();
        node.poll_frame(8, &mut frame).unwrap();
        assert_eq!(shape(&frame), ["P5"]);
        assert!(!node.inbound[0].owed());
        assert_eq!(node.sweep(), Inbox::IDLE_WAIT);
    }

    #[test]
    fn corrupt_frame_on_the_socket_is_a_typed_error_not_a_panic() {
        // Drive the reader half of one link directly over a real socket
        // and feed it garbage: a well-formed head followed by a body with
        // an unknown payload kind.
        let mut link = LinkFixture::spawn(1);
        // One valid frame first: the link decodes it and forwards it.
        let valid = link.frame(&tuple_msg(42));
        link.deliver(&valid);
        // Then a corrupt one: a 1-byte summary body whose payload kind 3
        // names no summary.
        link.deliver(&[3, 3 << 1]);
        let (mut held, failures) = link.finish();
        match held.pop_front() {
            Some(TransportEvent::Net { from: 1, msg }) => {
                assert_eq!(msg, tuple_msg(42));
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
        let msgs: Vec<Msg> = [9, 3, 3, 70_000, 0].map(tuple_msg).to_vec();
        for msg in &msgs {
            for byte in link.frame(msg) {
                link.deliver(&[byte]);
            }
        }
        let (mut held, failures) = link.finish();
        assert!(failures.is_empty(), "{failures:?}");
        for expected in &msgs {
            match held.pop_front() {
                Some(TransportEvent::Net { from: 2, msg }) => {
                    // The tuple comes back stamped with the link's writer.
                    let Msg::Tuple { tuple, .. } = expected else {
                        unreachable!("probes only")
                    };
                    let stamped = Tuple::new(tuple.stream, tuple.key, tuple.seq, 2);
                    assert_eq!(
                        msg,
                        Msg::Tuple {
                            tuple: stamped,
                            piggyback: Vec::new()
                        }
                    );
                }
                other => panic!("missing message, got {other:?}"),
            }
        }
    }

    const SEARCH: Explorer = Explorer {
        bound: 2,
        random: 50,
        seed: 0x5EED,
    };

    /// Scenario 1, the latch as its users use it: a producer publishes work
    /// and then notifies, `kicks` times; the consumer re-checks the work
    /// after every wait. The first notify may precede the first wait, when
    /// no thread is registered yet.
    fn kick_latch(kicks: u64) -> Scenario {
        let latch = Arc::new((Kick::default(), AtomicU64::new(0)));
        let (consumer, producer) = (Arc::clone(&latch), latch);
        Scenario {
            threads: vec![
                Box::new(move || {
                    while consumer.1.load(Ordering::SeqCst) < kicks {
                        consumer.0.wait(Inbox::IDLE_WAIT);
                    }
                }),
                Box::new(move || {
                    for _ in 0..kicks {
                        producer.1.fetch_add(1, Ordering::SeqCst);
                        producer.0.notify();
                    }
                }),
            ],
            invariant: Box::new(|_| Ok(())),
        }
    }

    #[test]
    fn explored_kick_latch_loses_no_wake_up() {
        for kicks in 1..=2 {
            let report = Explorer { bound: 3, ..SEARCH }
                .explore(|| kick_latch(kicks))
                .unwrap_or_else(|f| panic!("{kicks} kick(s): {f:?}"));
            println!("kick latch, {kicks} kick(s): {report:?}");
        }
    }

    /// A connected nonblocking loopback pair, `(writer's end, reader's end)`.
    fn socket_pair() -> (Arc<TcpStream>, Arc<TcpStream>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (reader, _) = listener.accept().unwrap();
        for end in [&writer, &reader] {
            end.set_nonblocking(true).unwrap();
            end.set_nodelay(true).unwrap();
        }
        (Arc::new(writer), Arc::new(reader))
    }

    /// Scenario 3, the dirty-flag hand-off over a real socket: node 0 turns
    /// two queued arrivals into two flushes towards node 1 (write, `dirty`
    /// store, kick), whose `poll_frame` claims the flag, drains and waits.
    /// With waits that never time out (so no `owed` backstop either), a batch
    /// left unread while the reader parks is a deadlock. And `poll_frame`'s
    /// ordering rule: arrival 7 reaches node 1's mailbox before either probe
    /// is written, so node 1 must frame it ahead of both.
    fn dirty_flag_hand_off(ends: &(Arc<TcpStream>, Arc<TcpStream>)) -> Scenario {
        let mut run = harness::Run::new(2);
        let (mailboxes, inboxes) = (run.mailboxes.clone(), std::mem::take(&mut run.inboxes));
        let (in_flight, failures) = (Arc::clone(&run.in_flight), Arc::clone(&run.failures));
        for seq in 0..2 {
            in_flight.fetch_add(1, Ordering::SeqCst);
            mailboxes[0].push(arrival(seq)).unwrap();
        }
        let link = Arc::new(OutLink::new(0, Arc::clone(&ends.0)));
        let towards_reader = Some((Arc::clone(&link), Arc::clone(&mailboxes[1])));
        let inbound = vec![ReadLink::new(Arc::clone(&ends.1), 1, link)];
        let mut inboxes = inboxes.into_iter();
        let mut node = |me, inbound, outbound: [_; 2]| {
            let (inbox, failures) = (inboxes.next().unwrap(), Arc::clone(&failures));
            ReactorTransport::new(me, inbox, inbound, outbound.into_iter(), failures)
        };
        let writer = node(0, Vec::new(), [None, towards_reader]);
        let mut reader = node(1, inbound, [None, None]);
        let (feeder, readers_mailbox) = (Arc::clone(&in_flight), Arc::clone(&mailboxes[1]));
        Scenario {
            threads: vec![
                Box::new(move || {
                    feeder.fetch_add(1, Ordering::SeqCst);
                    readers_mailbox.push(arrival(7)).unwrap();
                    harness::explored_node(writer, 1, 1, 2, &AtomicUsize::new(0));
                }),
                Box::new(move || {
                    let (mut frame, mut seen) = (Vec::new(), Vec::new());
                    while seen.len() < 3 {
                        reader.poll_frame(8, &mut frame).unwrap();
                        seen.extend(shape(&frame));
                        frame.drain(..).for_each(|_| reader.quiesce());
                    }
                    assert_eq!(seen, ["A7", "P0", "P1"], "a probe overtook the arrival");
                }),
            ],
            invariant: Box::new(move |done| {
                let in_flight = in_flight.0.load(Ordering::SeqCst);
                let failed = failures.0.try_lock().map_or(1, |failures| failures.len());
                if in_flight < 0 || failed > 0 || (done && in_flight > 0) {
                    return Err(format!("in_flight = {in_flight}, {failed} failure(s)"));
                }
                Ok(())
            }),
        }
    }

    #[test]
    fn explored_dirty_flag_hand_off_leaves_no_batch_unread() {
        let ends = socket_pair();
        let report = SEARCH
            .explore(|| dirty_flag_hand_off(&ends))
            .unwrap_or_else(|f| panic!("{f:?}"));
        println!("dirty flag + flush: {report:?}");
    }

    /// What nothing that *runs* can check: the explorer is sequentially
    /// consistent and x86 compiles a `Relaxed` swap like a `SeqCst` one. So
    /// every ordering in the crate is `SeqCst` but the sites argued here, and a
    /// weakened one (or a new weak one) has to come and argue too.
    #[test]
    fn every_ordering_weaker_than_seqcst_is_argued() {
        let sources = [
            include_str!("cluster.rs"),
            include_str!("harness.rs"),
            include_str!("reactor.rs"),
            include_str!("tcp.rs"),
        ];
        let weaker: Vec<&str> = sources
            .iter()
            .flat_map(|source| source.split("\n#[cfg(test)]").next().unwrap_or("").lines())
            .filter(|line| line.replace("Ordering::SeqCst", "").contains("Ordering::"))
            .map(str::trim)
            .collect();
        assert_eq!(
            weaker,
            [
                // Gauges, read after the run: the link's reads here and
                // below, its reader's latch waits last.
                "self.reads.load(Ordering::Relaxed)",
                // A pre-check that publishes nothing: the SeqCst swap beside it
                // confirms the claim (or defers it to the writer's kick).
                "self.open && dirty.load(Ordering::Relaxed) && dirty.swap(false, Ordering::SeqCst)",
                "self.out.reads.fetch_add(1, Ordering::Relaxed);",
                "self.waits.fetch_add(1, Ordering::Relaxed);",
                "self.waits.load(Ordering::Relaxed)",
            ]
        );
    }

    #[test]
    fn a_dirty_flag_is_claimed_once() {
        let mut link = LinkFixture::spawn(1).link;
        assert!(!link.take_dirty());
        link.out.dirty.store(true, Ordering::SeqCst);
        assert!(link.take_dirty());
        assert!(!link.take_dirty(), "the claim left the flag set");
        link.out.dirty.store(true, Ordering::SeqCst);
        link.open = false;
        assert!(!link.take_dirty(), "a closed link has nothing to read");
    }

    #[test]
    fn kick_wakes_a_waiting_node() {
        let kick = Arc::new(Kick::default());
        let k2 = Arc::clone(&kick);
        let waiter = thread::spawn(move || k2.wait(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(10));
        kick.notify();
        assert!(waiter.join().unwrap(), "wait should report the kick");
        // And a timeout without a kick reports false.
        assert!(!kick.wait(Duration::from_millis(1)));
    }
}
