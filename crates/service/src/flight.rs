//! The service's one keyed table. Each row is a flight, queued or
//! executing, or the recorded reply of a finished one.
//!
//! An **exact** key is the request payload's canonical wire encoding
//! ([`crate::proto::encode_payload`]; one encoding per value), so two
//! requests share an exact row only when their payloads are equal,
//! names included. An **idempotency** key is the client identity, the
//! caller's token and those same bytes. Rows compare on the full key:
//! the hasher only picks the bucket, so a collision costs one extra
//! comparison, never a wrong reply. Budgets are no part of a key: soft
//! caps are service-wide, and a deadline decides *whether* a run
//! completes, never *what* it computes.
//!
//! At most `memo_capacity` exact `Done` rows (successes only) and
//! [`IDEMPOTENCY_CAPACITY`] idempotency `Done` rows (any outcome) are
//! kept, each kind evicted least-recently-used. `InFlight` rows are
//! never evicted or overwritten: only their own flight closes them.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{mpsc, Arc};

use crate::service::Reply;

/// Completed idempotent replies kept for replay.
const IDEMPOTENCY_CAPACITY: usize = 256;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum FlightKey {
    Exact(Arc<[u8]>),
    Idempotent {
        client: Option<String>,
        token: u64,
        payload: Arc<[u8]>,
    },
}

impl FlightKey {
    pub(crate) fn is_exact(&self) -> bool {
        matches!(self, FlightKey::Exact(_))
    }
}

pub(crate) enum Slot {
    /// The flight's reply fans out to these.
    InFlight(Vec<mpsc::Sender<Reply>>),
    Done {
        reply: Reply,
        last_used: u64,
    },
}

/// The table (see the module docs); generic over the hasher only so a
/// test can force every key into one bucket.
pub(crate) struct FlightTable<S = RandomState> {
    rows: HashMap<FlightKey, Slot, S>,
    memo_capacity: usize,
    /// Recency clock of the `Done` rows.
    tick: u64,
}

impl<S: BuildHasher + Default> FlightTable<S> {
    pub(crate) fn new(memo_capacity: usize) -> Self {
        FlightTable {
            rows: HashMap::default(),
            memo_capacity,
            tick: 0,
        }
    }

    /// The row for `key`, refreshing the recency of a `Done` row.
    pub(crate) fn get(&mut self, key: &FlightKey) -> Option<&mut Slot> {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.rows.get_mut(key)?;
        if let Slot::Done { last_used, .. } = slot {
            *last_used = tick;
        }
        Some(slot)
    }

    /// Opens a flight on a vacant `key`.
    pub(crate) fn open(&mut self, key: FlightKey, submitter: mpsc::Sender<Reply>) {
        self.rows.insert(key, Slot::InFlight(vec![submitter]));
    }

    /// Closes the flight on `key`, returning everyone waiting on it.
    pub(crate) fn close(&mut self, key: &FlightKey) -> Vec<mpsc::Sender<Reply>> {
        match self.rows.remove(key) {
            Some(Slot::InFlight(waiters)) => waiters,
            // Only the flight itself ever replaces its row.
            _ => Vec::new(),
        }
    }

    /// Records `reply` on `key` unless another flight holds the row
    /// open; a new row past its kind's bound evicts that kind's
    /// least-recently-used `Done` row.
    pub(crate) fn record(&mut self, key: FlightKey, reply: &Reply) {
        let capacity = if key.is_exact() {
            self.memo_capacity
        } else {
            IDEMPOTENCY_CAPACITY
        };
        match self.rows.get(&key) {
            Some(Slot::InFlight(_)) => return,
            Some(Slot::Done { .. }) => {}
            None if capacity == 0 => return,
            None => {
                let mut held = 0;
                let mut stalest: Option<(u64, &FlightKey)> = None;
                for (row, slot) in &self.rows {
                    if let Slot::Done { last_used, .. } = slot {
                        if row.is_exact() == key.is_exact() {
                            held += 1;
                            if stalest.is_none_or(|(tick, _)| *last_used < tick) {
                                stalest = Some((*last_used, row));
                            }
                        }
                    }
                }
                if let Some((_, row)) = stalest.filter(|_| held >= capacity) {
                    let row = row.clone();
                    self.rows.remove(&row);
                }
            }
        }
        self.tick += 1;
        let last_used = self.tick;
        let reply = reply.clone();
        self.rows.insert(key, Slot::Done { reply, last_used });
    }

    /// Exact `Done` rows held: the memo entries.
    pub(crate) fn memo_len(&self) -> usize {
        self.rows
            .iter()
            .filter(|(key, slot)| key.is_exact() && matches!(slot, Slot::Done { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasherDefault, Hasher};

    use rt_stg::{models, Stg};

    use super::*;
    use crate::proto::encode_payload;
    use crate::request::{RequestPayload, Response, ResponsePayload, SummaryOutcome};

    /// Sends every key to one bucket.
    #[derive(Default)]
    struct OneBucket;

    impl Hasher for OneBucket {
        fn finish(&self) -> u64 {
            0
        }

        fn write(&mut self, _: &[u8]) {}
    }

    type Colliding = FlightTable<BuildHasherDefault<OneBucket>>;

    /// The exact key of `summary(stg)` and its idempotency key `token`.
    fn keys(stg: Stg, token: u64) -> (FlightKey, FlightKey) {
        let payload: Arc<[u8]> = encode_payload(&RequestPayload::Summary { stg }).into();
        let keyed = FlightKey::Idempotent {
            client: None,
            token,
            payload: Arc::clone(&payload),
        };
        (FlightKey::Exact(payload), keyed)
    }

    fn reply(markings: u64) -> Reply {
        Ok(Response {
            payload: ResponsePayload::Summary(SummaryOutcome {
                markings,
                iterations: 1,
            }),
            degradations: Vec::new(),
            cached: false,
            retries: 0,
        })
    }

    /// The marking count recorded on `key`.
    fn recorded(table: &mut Colliding, key: &FlightKey) -> Option<u64> {
        match table.get(key)? {
            Slot::Done { reply, .. } => match reply.as_ref().ok()?.payload {
                ResponsePayload::Summary(outcome) => Some(outcome.markings),
                _ => None,
            },
            Slot::InFlight(_) => None,
        }
    }

    #[test]
    fn colliding_keys_keep_their_own_replies() {
        let mut table = Colliding::new(4);
        let mut renamed = models::fifo_stg();
        renamed.set_name("tenant_b_fifo");
        // One token reused over three payloads, two differing by name only.
        let rows = [models::fifo_stg(), renamed, models::celement_stg()].map(|stg| keys(stg, 7));
        for (n, (exact, keyed)) in (0..).zip(&rows) {
            table.record(exact.clone(), &reply(n));
            table.record(keyed.clone(), &reply(10 + n));
        }
        for (n, (exact, keyed)) in (0..).zip(&rows) {
            assert_eq!(recorded(&mut table, exact), Some(n));
            assert_eq!(recorded(&mut table, keyed), Some(10 + n));
        }
    }

    #[test]
    fn done_rows_are_bounded_per_kind_and_open_rows_are_left_alone() {
        let mut table = Colliding::new(2);
        let [(a, keyed_a), (b, _), (c, _)] = [2, 3, 4].map(|n| keys(models::chain_stg(n), 1));
        table.record(a.clone(), &reply(2));
        table.record(b.clone(), &reply(3));
        table.record(keyed_a.clone(), &reply(2));
        assert_eq!(recorded(&mut table, &a), Some(2), "refreshes a");
        table.record(c.clone(), &reply(4));
        assert_eq!(recorded(&mut table, &b), None, "the stalest went");
        assert_eq!(recorded(&mut table, &c), Some(4));
        assert_eq!(recorded(&mut table, &keyed_a), Some(2), "its own bound");
        assert_eq!(table.memo_len(), 2);

        // A twin's completion leaves an open row to its own flight.
        let (submitter, _answer) = mpsc::channel();
        table.open(b.clone(), submitter);
        table.record(b.clone(), &reply(3));
        assert_eq!(table.close(&b).len(), 1);

        let mut off = Colliding::new(0);
        off.record(a, &reply(2));
        assert_eq!(off.memo_len(), 0, "zero capacity keeps no memo");
    }
}
