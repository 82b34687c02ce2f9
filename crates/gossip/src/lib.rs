//! Private data dissemination for the Fabric PDC simulator.
//!
//! In Fabric, endorsers send the **plaintext** private writes to collection
//! member peers over the gossip layer (paper Fig. 2, steps 7–9), because
//! the transaction itself only carries hashes. Member peers that were not
//! endorsers need the plaintext before they can commit; peers that missed
//! the push reconcile it later by pulling from other members
//! (anti-entropy). Which collections of a simulation are pushed, and what
//! a network keeps once the transaction commits, is the caller's rule
//! (`fabric_network` pushes written collections only).
//!
//! This crate models that layer deterministically:
//!
//! * [`GossipHub`] — the channel-wide router holding each peer's
//!   **transient store** (pre-commit private data keyed by transaction);
//! * [`GossipHub::push`] — endorsement-time dissemination with optional
//!   message loss injection;
//! * [`GossipHub::pull`] — anti-entropy reconciliation for peers that
//!   missed the push (e.g. due to injected loss).
//!
//! # Examples
//!
//! ```
//! use fabric_gossip::{GossipHub, PeerId};
//! use fabric_types::{CollectionPvtRwSet, KvRwSet, PvtDataPackage, TxId};
//!
//! let mut hub = GossipHub::new(0);
//! let endorser = PeerId::new("peer0.org1");
//! let member = PeerId::new("peer0.org2");
//! hub.register(endorser.clone());
//! hub.register(member.clone());
//!
//! let pkg = PvtDataPackage {
//!     tx_id: TxId::new("tx1"),
//!     namespaces: vec![],
//!     collections: vec![],
//! };
//! hub.store_local(&endorser, pkg.clone());
//! hub.push(&endorser, &[member.clone()], pkg);
//! assert!(hub.get(&member, &TxId::new("tx1")).is_some());
//! ```

use fabric_types::{PvtDataPackage, TxId};
use fabric_wire::IdMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Identifier of a peer on the gossip network, e.g. `"peer0.org1"`.
/// Shared storage, like the `fabric_types` identifiers: every logged
/// event names two peers, and a clone is a refcount bump.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(Arc<str>);

impl PeerId {
    /// Creates a peer identifier.
    pub fn new(s: impl Into<String>) -> Self {
        PeerId(Arc::from(s.into()))
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The shared string behind the identifier; cloning it is a refcount
    /// bump.
    pub fn as_arc(&self) -> &Arc<str> {
        &self.0
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for PeerId {
    fn from(s: &str) -> Self {
        PeerId(Arc::from(s))
    }
}

/// A record of one dissemination event, for tests and audits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipEvent {
    /// Sending peer.
    pub from: PeerId,
    /// Receiving peer.
    pub to: PeerId,
    /// Transaction whose private data was transferred.
    pub tx_id: TxId,
    /// Whether the message was delivered or dropped by fault injection.
    pub delivered: bool,
    /// Whether this was an anti-entropy pull rather than a push.
    pub pull: bool,
}

/// The channel-wide gossip router plus each peer's transient store.
///
/// Packages are held behind [`Arc`]: one endorsement's private data is
/// referenced by the endorser's own store, every pushed-to member, a
/// caller's durable archive while it keeps the package, and commit-time
/// providers — sharing one allocation instead of deep-copying the rwsets
/// at each hop. `PvtDataPackage` is immutable once disseminated, so
/// sharing is safe.
#[derive(Debug)]
pub struct GossipHub {
    transient: BTreeMap<PeerId, IdMap<TxId, Arc<PvtDataPackage>>>,
    /// The most recent [`EVENT_LOG_CAPACITY`] events, oldest first.
    events: VecDeque<GossipEvent>,
    /// Totals since creation; unlike `events` they never forget.
    delivered: u64,
    dropped: u64,
    pulled: u64,
    drop_rate: f64,
    rng: StdRng,
}

/// Events the hub retains before dropping the oldest. A long run logs one
/// event per push recipient (hundreds of thousands), nothing in the
/// program reads them back, and the totals live in counters — so the log
/// is a bounded tail for tests and audits, sized well above any test's
/// whole history.
pub const EVENT_LOG_CAPACITY: usize = 1 << 16;

impl GossipHub {
    /// Creates a hub with a seeded RNG for reproducible loss injection.
    pub fn new(seed: u64) -> Self {
        GossipHub {
            transient: BTreeMap::new(),
            events: VecDeque::new(),
            delivered: 0,
            dropped: 0,
            pulled: 0,
            drop_rate: 0.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Registers a peer; unregistered peers cannot receive data.
    pub fn register(&mut self, peer: PeerId) {
        self.transient.entry(peer).or_default();
    }

    /// Sets the probability that a push message is dropped.
    pub fn set_drop_rate(&mut self, rate: f64) {
        self.drop_rate = rate;
    }

    /// Stores a package in the sender's own transient store (an endorser
    /// keeps the plaintext it produced). Accepts owned or already-shared
    /// packages.
    pub fn store_local(&mut self, peer: &PeerId, pkg: impl Into<Arc<PvtDataPackage>>) {
        let pkg = pkg.into();
        if let Some(store) = self.transient.get_mut(peer) {
            store.insert(pkg.tx_id.clone(), pkg);
        }
    }

    /// Pushes a private data package from an endorser to collection member
    /// peers. Returns the number of successful deliveries. Unregistered
    /// recipients and injected losses are recorded in the event log.
    /// Every delivery shares the same package allocation.
    pub fn push(
        &mut self,
        from: &PeerId,
        recipients: &[PeerId],
        pkg: impl Into<Arc<PvtDataPackage>>,
    ) -> usize {
        let pkg = pkg.into();
        let mut delivered = 0;
        for to in recipients {
            if to == from {
                continue;
            }
            let dropped = self.drop_rate > 0.0 && self.rng.gen_bool(self.drop_rate);
            let ok = match self.transient.get_mut(to) {
                Some(store) if !dropped => {
                    store.insert(pkg.tx_id.clone(), Arc::clone(&pkg));
                    true
                }
                _ => false,
            };
            delivered += usize::from(ok);
            self.record(GossipEvent {
                from: from.clone(),
                to: to.clone(),
                tx_id: pkg.tx_id.clone(),
                delivered: ok,
                pull: false,
            });
        }
        delivered
    }

    /// Appends to the bounded log and bumps the matching total.
    fn record(&mut self, event: GossipEvent) {
        match (event.pull, event.delivered) {
            (true, _) => self.pulled += 1,
            (false, true) => self.delivered += 1,
            (false, false) => self.dropped += 1,
        }
        if self.events.len() == EVENT_LOG_CAPACITY {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// Reads a package from a peer's transient store.
    pub fn get(&self, peer: &PeerId, tx_id: &TxId) -> Option<&PvtDataPackage> {
        self.transient.get(peer)?.get(tx_id).map(|p| &**p)
    }

    /// Like [`GossipHub::get`], but hands out the shared reference —
    /// what commit-time providers forward without copying rwsets.
    pub fn get_shared(&self, peer: &PeerId, tx_id: &TxId) -> Option<Arc<PvtDataPackage>> {
        self.transient.get(peer)?.get(tx_id).cloned()
    }

    /// Anti-entropy pull: `requester` asks each candidate in turn for the
    /// private data of `tx_id`; the first hit is copied into the
    /// requester's transient store and returned. Pulls are reliable (they
    /// model retried point-to-point requests, not one-shot gossip pushes).
    pub fn pull(
        &mut self,
        requester: &PeerId,
        tx_id: &TxId,
        candidates: &[PeerId],
    ) -> Option<Arc<PvtDataPackage>> {
        if let Some(existing) = self.get_shared(requester, tx_id) {
            return Some(existing);
        }
        let (from, pkg) = self.first_holder(requester, tx_id, candidates)?;
        self.record(GossipEvent {
            from: from.clone(),
            to: requester.clone(),
            tx_id: tx_id.clone(),
            delivered: true,
            pull: true,
        });
        if let Some(store) = self.transient.get_mut(requester) {
            store.insert(tx_id.clone(), Arc::clone(&pkg));
        }
        Some(pkg)
    }

    /// The read-only half of [`GossipHub::pull`]: the first of
    /// `candidates` other than `requester` that holds `tx_id`'s package,
    /// with the package. Nothing is stored or logged, so peers committing
    /// concurrently can look up through a shared `&GossipHub`; the caller
    /// replays the pull afterwards to record it.
    pub fn first_holder<'a>(
        &self,
        requester: &PeerId,
        tx_id: &TxId,
        candidates: &'a [PeerId],
    ) -> Option<(&'a PeerId, Arc<PvtDataPackage>)> {
        candidates
            .iter()
            .filter(|c| *c != requester)
            .find_map(|c| Some((c, self.get_shared(c, tx_id)?)))
    }

    /// Drops a committed transaction's package from a peer's transient
    /// store (Fabric purges the transient store after commit).
    pub fn purge(&mut self, peer: &PeerId, tx_id: &TxId) {
        if let Some(store) = self.transient.get_mut(peer) {
            store.remove(tx_id);
        }
    }

    /// Batched post-commit purge: removes every listed transaction from
    /// **every** registered peer's transient store in one pass over the
    /// stores, instead of one peer-map lookup per (peer, transaction)
    /// pair as repeated [`GossipHub::purge`] calls would cost.
    pub fn purge_committed<'a>(&mut self, tx_ids: impl IntoIterator<Item = &'a TxId> + Clone) {
        for store in self.transient.values_mut() {
            if store.is_empty() {
                continue;
            }
            for tx_id in tx_ids.clone() {
                store.remove(tx_id);
            }
        }
    }

    /// The dissemination event log, oldest first: the most recent
    /// [`EVENT_LOG_CAPACITY`] events (everything, until that many
    /// happened).
    pub fn events(&self) -> impl ExactSizeIterator<Item = &GossipEvent> + '_ {
        self.events.iter()
    }

    /// Pushes delivered since creation.
    pub fn delivered_total(&self) -> u64 {
        self.delivered
    }

    /// Pushes lost to fault injection or sent to unregistered peers.
    pub fn dropped_total(&self) -> u64 {
        self.dropped
    }

    /// Anti-entropy pulls served by another peer.
    pub fn pulled_total(&self) -> u64 {
        self.pulled
    }

    /// Number of packages currently in a peer's transient store.
    pub fn transient_len(&self, peer: &PeerId) -> usize {
        self.transient.get(peer).map_or(0, IdMap::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::{ChaincodeId, CollectionName, CollectionPvtRwSet, KvRwSet, KvWrite};

    fn pkg(tx: &str) -> PvtDataPackage {
        PvtDataPackage {
            tx_id: TxId::new(tx),
            namespaces: vec![ChaincodeId::new("cc")],
            collections: vec![CollectionPvtRwSet {
                collection: CollectionName::new("PDC1"),
                rwset: KvRwSet {
                    reads: vec![],
                    writes: vec![KvWrite {
                        key: "k".into(),
                        value: Some(b"v".to_vec()),
                        is_delete: false,
                    }],
                },
            }],
        }
    }

    fn hub_with_peers(seed: u64, peers: &[&str]) -> GossipHub {
        let mut hub = GossipHub::new(seed);
        for p in peers {
            hub.register(PeerId::new(*p));
        }
        hub
    }

    #[test]
    fn push_reaches_recipients_only() {
        let mut hub = hub_with_peers(0, &["e", "m1", "m2", "outsider"]);
        let delivered = hub.push(
            &PeerId::new("e"),
            &[PeerId::new("m1"), PeerId::new("m2")],
            pkg("tx1"),
        );
        assert_eq!(delivered, 2);
        assert!(hub.get(&PeerId::new("m1"), &TxId::new("tx1")).is_some());
        assert!(hub.get(&PeerId::new("m2"), &TxId::new("tx1")).is_some());
        assert!(hub
            .get(&PeerId::new("outsider"), &TxId::new("tx1"))
            .is_none());
        assert!(hub.get(&PeerId::new("e"), &TxId::new("tx1")).is_none());
    }

    #[test]
    fn push_skips_self_and_unregistered() {
        let mut hub = hub_with_peers(0, &["e", "m1"]);
        let delivered = hub.push(
            &PeerId::new("e"),
            &[PeerId::new("e"), PeerId::new("ghost"), PeerId::new("m1")],
            pkg("tx1"),
        );
        assert_eq!(delivered, 1);
        let failures: Vec<_> = hub.events().filter(|e| !e.delivered).collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].to, PeerId::new("ghost"));
    }

    #[test]
    fn loss_injection_then_pull_reconciles() {
        let mut hub = hub_with_peers(7, &["e", "m1", "m2"]);
        hub.store_local(&PeerId::new("e"), pkg("tx1"));
        hub.set_drop_rate(1.0);
        let delivered = hub.push(&PeerId::new("e"), &[PeerId::new("m1")], pkg("tx1"));
        assert_eq!(delivered, 0);
        assert!(hub.get(&PeerId::new("m1"), &TxId::new("tx1")).is_none());

        // Anti-entropy: m1 pulls from other members; e still has it.
        hub.set_drop_rate(0.0);
        let got = hub
            .pull(
                &PeerId::new("m1"),
                &TxId::new("tx1"),
                &[PeerId::new("m2"), PeerId::new("e")],
            )
            .expect("reconciled");
        assert_eq!(*got, pkg("tx1"));
        assert!(hub.get(&PeerId::new("m1"), &TxId::new("tx1")).is_some());
        assert!(hub.events().any(|e| e.pull && e.delivered));
        assert_eq!(
            (
                hub.delivered_total(),
                hub.dropped_total(),
                hub.pulled_total()
            ),
            (0, 1, 1)
        );
    }

    #[test]
    fn pull_returns_local_copy_without_network() {
        let mut hub = hub_with_peers(0, &["m1"]);
        hub.store_local(&PeerId::new("m1"), pkg("tx1"));
        let events_before = hub.events().len();
        let got = hub.pull(&PeerId::new("m1"), &TxId::new("tx1"), &[]);
        assert!(got.is_some());
        assert_eq!(hub.events().len(), events_before);
    }

    #[test]
    fn first_holder_names_pulls_source_without_side_effects() {
        let mut hub = hub_with_peers(0, &["a", "b", "c"]);
        hub.store_local(&PeerId::new("b"), pkg("tx1"));
        hub.store_local(&PeerId::new("c"), pkg("tx1"));
        let candidates = [PeerId::new("a"), PeerId::new("b"), PeerId::new("c")];
        let tx = TxId::new("tx1");
        // `b` asking skips itself; `a` asking finds `b` first.
        let (from, _) = hub.first_holder(&candidates[1], &tx, &candidates).unwrap();
        assert_eq!(from, &candidates[2]);
        let (from, found) = hub.first_holder(&candidates[0], &tx, &candidates).unwrap();
        assert_eq!(from, &candidates[1]);
        assert_eq!(hub.events().len(), 0);
        assert_eq!(hub.transient_len(&candidates[0]), 0);
        // The pull that follows takes the same package from the same peer.
        let pulled = hub.pull(&candidates[0], &tx, &candidates).unwrap();
        assert!(Arc::ptr_eq(&pulled, &found));
        assert_eq!(hub.events().last().unwrap().from, candidates[1]);
    }

    #[test]
    fn event_log_drops_oldest_and_totals_keep_counting() {
        let mut hub = hub_with_peers(0, &["e", "m1"]);
        let recipients = [PeerId::new("m1")];
        for i in 0..EVENT_LOG_CAPACITY + 3 {
            hub.push(&PeerId::new("e"), &recipients, pkg(&format!("tx{i}")));
        }
        assert_eq!(hub.events().len(), EVENT_LOG_CAPACITY);
        assert_eq!(hub.events().next().unwrap().tx_id, TxId::new("tx3"));
        assert_eq!(hub.delivered_total(), (EVENT_LOG_CAPACITY + 3) as u64);
    }

    #[test]
    fn pull_fails_when_nobody_has_it() {
        let mut hub = hub_with_peers(0, &["m1", "m2"]);
        assert!(hub
            .pull(&PeerId::new("m1"), &TxId::new("tx9"), &[PeerId::new("m2")])
            .is_none());
    }

    #[test]
    fn purge_empties_transient_store() {
        let mut hub = hub_with_peers(0, &["m1"]);
        hub.store_local(&PeerId::new("m1"), pkg("tx1"));
        assert_eq!(hub.transient_len(&PeerId::new("m1")), 1);
        hub.purge(&PeerId::new("m1"), &TxId::new("tx1"));
        assert_eq!(hub.transient_len(&PeerId::new("m1")), 0);
    }

    #[test]
    fn push_shares_one_allocation_across_recipients() {
        let mut hub = hub_with_peers(0, &["e", "m1", "m2"]);
        let shared = Arc::new(pkg("tx1"));
        hub.store_local(&PeerId::new("e"), Arc::clone(&shared));
        hub.push(
            &PeerId::new("e"),
            &[PeerId::new("m1"), PeerId::new("m2")],
            Arc::clone(&shared),
        );
        for p in ["e", "m1", "m2"] {
            let got = hub
                .get_shared(&PeerId::new(p), &TxId::new("tx1"))
                .expect("stored");
            assert!(Arc::ptr_eq(&got, &shared), "{p} holds the shared package");
        }
    }

    #[test]
    fn purge_committed_clears_all_stores_at_once() {
        let mut hub = hub_with_peers(0, &["e", "m1", "m2"]);
        for p in ["e", "m1"] {
            hub.store_local(&PeerId::new(p), pkg("tx1"));
            hub.store_local(&PeerId::new(p), pkg("tx2"));
        }
        hub.store_local(&PeerId::new("m2"), pkg("tx3"));
        let committed = [TxId::new("tx1"), TxId::new("tx2")];
        hub.purge_committed(committed.iter());
        assert_eq!(hub.transient_len(&PeerId::new("e")), 0);
        assert_eq!(hub.transient_len(&PeerId::new("m1")), 0);
        // Uncommitted packages survive the batch purge.
        assert_eq!(hub.transient_len(&PeerId::new("m2")), 1);
    }
}
