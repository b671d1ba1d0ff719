// Fixture: seeded `pragma` violations — an unknown rule, a waiver with
// no reason, and a stale waiver. The reasonless pragma waives nothing, so
// the `guard-across-blocking` finding under it stays a violation.

use crossbeam::channel::Sender;
use parking_lot::Mutex;

// dsj-lint: allow(nonsense) — no such rule
pub fn noop() {}

// dsj-lint: allow(guard-across-blocking) — no guard is held on this or the next line
pub fn also_noop() {}

pub struct Audited {
    log: Mutex<Vec<u64>>,
    tx: Sender<u64>,
}

impl Audited {
    pub fn record(&self, value: u64) {
        let mut held = self.log.lock();
        held.push(value);
        // dsj-lint: allow(guard-across-blocking)
        let _ = self.tx.send(value);
    }
}
