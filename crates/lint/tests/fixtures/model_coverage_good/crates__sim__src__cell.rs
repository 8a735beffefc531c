//! Fixture: a protocol state machine the registry covers.

use grail_par::Runner;

impl CellRun {
    fn next_at(&self) -> u64 {
        self.queue_head
    }

    fn advance(&mut self, bound: u64) {
        while self.queue_head <= bound {
            self.sim.bill_recovery(self.queue_head);
            self.queue_head += 1;
        }
    }
}
