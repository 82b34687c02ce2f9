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
//! * [`GossipHub::first_holder`] — the commit-time fetch for a peer that
//!   missed the push (e.g. due to injected loss): it reads the first
//!   holder's package through `&GossipHub`, so peers committing
//!   concurrently can share the hub;
//! * [`GossipHub::pull`] — the same fetch, also copied into the
//!   requester's transient store;
//! * [`GossipHub::purge_committed`] — the post-commit purge of a block's
//!   transactions from every store.
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
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a peer on the gossip network, e.g. `"peer0.org1"`.
/// Shared storage, like the `fabric_types` identifiers: a clone is a
/// refcount bump.
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
    /// Push totals since creation.
    delivered: u64,
    dropped: u64,
    drop_rate: f64,
    rng: StdRng,
}

impl GossipHub {
    /// Creates a hub with a seeded RNG for reproducible loss injection.
    pub fn new(seed: u64) -> Self {
        GossipHub {
            transient: BTreeMap::new(),
            delivered: 0,
            dropped: 0,
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
    /// recipients and injected losses count as dropped. Every delivery
    /// shares the same package allocation.
    pub fn push(
        &mut self,
        from: &PeerId,
        recipients: &[PeerId],
        pkg: impl Into<Arc<PvtDataPackage>>,
    ) -> usize {
        let pkg = pkg.into();
        let delivered_before = self.delivered;
        for to in recipients {
            if to == from {
                continue;
            }
            let dropped = self.drop_rate > 0.0 && self.rng.gen_bool(self.drop_rate);
            match self.transient.get_mut(to) {
                Some(store) if !dropped => {
                    store.insert(pkg.tx_id.clone(), Arc::clone(&pkg));
                    self.delivered += 1;
                }
                _ => self.dropped += 1,
            }
        }
        (self.delivered - delivered_before) as usize
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
        let pkg = self.first_holder(requester, tx_id, candidates)?;
        if let Some(store) = self.transient.get_mut(requester) {
            store.insert(tx_id.clone(), Arc::clone(&pkg));
        }
        Some(pkg)
    }

    /// The read-only half of [`GossipHub::pull`]: the package of `tx_id`
    /// held by the first of `candidates` other than `requester`. Nothing
    /// is stored, so peers committing concurrently can fetch through a
    /// shared `&GossipHub`.
    pub fn first_holder(
        &self,
        requester: &PeerId,
        tx_id: &TxId,
        candidates: &[PeerId],
    ) -> Option<Arc<PvtDataPackage>> {
        candidates
            .iter()
            .filter(|c| *c != requester)
            .find_map(|c| self.get_shared(c, tx_id))
    }

    /// Post-commit purge (Fabric purges the transient store once a
    /// transaction commits): removes every listed transaction from
    /// **every** registered peer's transient store in one pass over the
    /// stores.
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

    /// Pushes delivered since creation.
    pub fn delivered_total(&self) -> u64 {
        self.delivered
    }

    /// Pushes lost to fault injection or sent to unregistered peers.
    pub fn dropped_total(&self) -> u64 {
        self.dropped
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
        // The ghost is the one drop; the sender is not a recipient.
        assert_eq!((hub.delivered_total(), hub.dropped_total()), (1, 1));
        // The totals keep counting across pushes.
        for i in 0..3 {
            hub.push(
                &PeerId::new("e"),
                &[PeerId::new("m1")],
                pkg(&format!("tx{i}")),
            );
        }
        assert_eq!((hub.delivered_total(), hub.dropped_total()), (4, 1));
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
        // A pull is not a push: the totals still read the one lost push.
        assert_eq!((hub.delivered_total(), hub.dropped_total()), (0, 1));
    }

    #[test]
    fn pull_returns_local_copy_without_network() {
        let mut hub = hub_with_peers(0, &["m1", "m2"]);
        let own = Arc::new(pkg("tx1"));
        hub.store_local(&PeerId::new("m1"), Arc::clone(&own));
        hub.store_local(&PeerId::new("m2"), pkg("tx1"));
        let got = hub
            .pull(&PeerId::new("m1"), &TxId::new("tx1"), &[PeerId::new("m2")])
            .expect("held locally");
        assert!(Arc::ptr_eq(&got, &own));
    }

    #[test]
    fn first_holder_names_pulls_source_without_side_effects() {
        let mut hub = hub_with_peers(0, &["a", "b", "c"]);
        let (at_b, at_c) = (Arc::new(pkg("tx1")), Arc::new(pkg("tx1")));
        hub.store_local(&PeerId::new("b"), Arc::clone(&at_b));
        hub.store_local(&PeerId::new("c"), Arc::clone(&at_c));
        let candidates = [PeerId::new("a"), PeerId::new("b"), PeerId::new("c")];
        let tx = TxId::new("tx1");
        // `b` asking skips itself; `a` asking finds `b` first.
        let found = hub.first_holder(&candidates[1], &tx, &candidates).unwrap();
        assert!(Arc::ptr_eq(&found, &at_c));
        let found = hub.first_holder(&candidates[0], &tx, &candidates).unwrap();
        assert!(Arc::ptr_eq(&found, &at_b));
        assert_eq!(hub.transient_len(&candidates[0]), 0);
        // The pull that follows takes the same package and keeps a copy.
        let pulled = hub.pull(&candidates[0], &tx, &candidates).unwrap();
        assert!(Arc::ptr_eq(&pulled, &found));
        assert_eq!(hub.transient_len(&candidates[0]), 1);
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
        hub.purge_committed([&TxId::new("tx1")]);
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
