// Fixture: a correctly waived `guard-across-blocking` finding. The `log`
// guard is live across `send`, exactly as in
// `concurrency/guard_across_send.rs`, but the pragma above the call
// waives it: one waiver with its reason, no violation, no stale pragma.

use crossbeam::channel::Sender;
use parking_lot::Mutex;

pub struct Audited {
    log: Mutex<Vec<u64>>,
    tx: Sender<u64>,
}

impl Audited {
    pub fn record(&self, value: u64) {
        let mut held = self.log.lock();
        held.push(value);
        // dsj-lint: allow(guard-across-blocking) — fixture demonstrating a well-formed waiver
        let _ = self.tx.send(value);
    }
}
