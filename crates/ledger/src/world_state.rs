//! The versioned world state, including private-data side databases.

use fabric_crypto::{sha256, Hash256};
use fabric_types::{
    ChaincodeId, CollectionHashedRwSet, CollectionName, CollectionPvtRwSet, HashedRead, KvRead,
    KvRwSet, MetadataWrite, Version,
};
use std::collections::BTreeMap;
use std::fmt;

/// A committed value with the `(block, tx)` version that wrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// The stored value.
    pub value: Vec<u8>,
    /// Height of the committing transaction.
    pub version: Version,
}

/// Per-namespace public entries, keyed by state key.
type PubNs = BTreeMap<String, VersionedValue>;
/// Per-namespace plaintext private entries: `collection -> key -> value`.
type PvtNs = BTreeMap<CollectionName, BTreeMap<String, VersionedValue>>;
/// Per-namespace hashed private entries: `collection -> hash(key) ->
/// (hash(value), version)`.
type HashNs = BTreeMap<CollectionName, BTreeMap<Hash256, (Hash256, Version)>>;

/// The inner map for `outer_key`, inserting an empty one on first use.
/// Looks up before cloning so the steady-state path allocates nothing
/// (`BTreeMap::entry` would clone the key on every call).
fn nested<'a, K: Ord + Clone, V: Default>(map: &'a mut BTreeMap<K, V>, outer_key: &K) -> &'a mut V {
    if !map.contains_key(outer_key) {
        map.insert(outer_key.clone(), V::default());
    }
    map.get_mut(outer_key).expect("just inserted")
}

/// The reason an MVCC check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MvccViolation {
    /// Namespace of the conflicting read.
    pub namespace: ChaincodeId,
    /// Collection of the conflicting read, `None` for public data.
    pub collection: Option<CollectionName>,
    /// The conflicting key (hex of the key hash for private reads).
    pub key: String,
    /// Version recorded in the read set.
    pub expected: Option<Version>,
    /// Version currently in the world state.
    pub found: Option<Version>,
}

impl fmt::Display for MvccViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mvcc conflict on {}/{}{}: read {:?}, state has {:?}",
            self.namespace,
            self.collection
                .as_ref()
                .map(|c| format!("{c}/"))
                .unwrap_or_default(),
            self.key,
            self.expected,
            self.found
        )
    }
}

/// The world state database of one peer for one channel.
///
/// Holds three maps, mirroring Fabric's state layout at a peer:
/// public data, plaintext private data (only populated for collections the
/// peer is a member of), and hashed private data (populated at every peer).
///
/// Each map nests by namespace (and collection) rather than using flat
/// composite-string keys, so the commit hot path looks entries up without
/// allocating `(namespace, key)` tuples per access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorldState {
    public: BTreeMap<ChaincodeId, PubNs>,
    private: BTreeMap<ChaincodeId, PvtNs>,
    hashed: BTreeMap<ChaincodeId, HashNs>,
    /// Key-level endorsement policies (state-based endorsement metadata).
    validation_params: BTreeMap<ChaincodeId, BTreeMap<String, String>>,
}

impl WorldState {
    /// An empty world state.
    pub fn new() -> Self {
        WorldState::default()
    }

    // ---- public data ----

    /// Reads a public key: `(value, version)` or `None` when absent.
    pub fn get_public(&self, ns: &ChaincodeId, key: &str) -> Option<&VersionedValue> {
        self.public.get(ns)?.get(key)
    }

    /// Applies a public write at `version`.
    pub fn put_public(&mut self, ns: &ChaincodeId, key: &str, value: Vec<u8>, version: Version) {
        nested(&mut self.public, ns).insert(key.to_string(), VersionedValue { value, version });
    }

    /// Deletes a public key.
    pub fn delete_public(&mut self, ns: &ChaincodeId, key: &str) {
        if let Some(entries) = self.public.get_mut(ns) {
            entries.remove(key);
        }
    }

    /// Iterates public entries of a namespace in key order.
    pub fn public_range<'a>(
        &'a self,
        ns: &'a ChaincodeId,
    ) -> impl Iterator<Item = (&'a str, &'a VersionedValue)> + 'a {
        self.public
            .get(ns)
            .into_iter()
            .flat_map(|entries| entries.iter())
            .map(|(k, v)| (k.as_str(), v))
    }

    // ---- plaintext private data (collection members only) ----

    /// Reads plaintext private data. Returns `None` when this peer does not
    /// store the collection (non-member) or the key is absent — the caller
    /// distinguishes the two through collection membership, exactly like
    /// Fabric's `GetPrivateData` which errors at non-members.
    pub fn get_private(
        &self,
        ns: &ChaincodeId,
        collection: &CollectionName,
        key: &str,
    ) -> Option<&VersionedValue> {
        self.private.get(ns)?.get(collection)?.get(key)
    }

    /// Writes plaintext private data at `version` (and its hashes).
    pub fn put_private(
        &mut self,
        ns: &ChaincodeId,
        collection: &CollectionName,
        key: &str,
        value: Vec<u8>,
        version: Version,
    ) {
        nested(nested(&mut self.hashed, ns), collection)
            .insert(sha256(key.as_bytes()), (sha256(&value), version));
        nested(nested(&mut self.private, ns), collection)
            .insert(key.to_string(), VersionedValue { value, version });
    }

    /// Deletes plaintext private data and its hash entry.
    pub fn delete_private(&mut self, ns: &ChaincodeId, collection: &CollectionName, key: &str) {
        if let Some(entries) = self.private.get_mut(ns).and_then(|c| c.get_mut(collection)) {
            entries.remove(key);
        }
        if let Some(entries) = self.hashed.get_mut(ns).and_then(|c| c.get_mut(collection)) {
            entries.remove(&sha256(key.as_bytes()));
        }
    }

    // ---- hashed private data (all peers) ----

    /// Reads the hashed private entry for a plaintext key: the basis of
    /// `GetPrivateDataHash`, available at **every** peer — including PDC
    /// non-members, which is what makes the paper's endorsement forgery
    /// possible (§IV-A1).
    pub fn get_private_hash(
        &self,
        ns: &ChaincodeId,
        collection: &CollectionName,
        key: &str,
    ) -> Option<(Hash256, Version)> {
        self.hashed
            .get(ns)?
            .get(collection)?
            .get(&sha256(key.as_bytes()))
            .copied()
    }

    /// Writes a hashed private entry directly (non-member commit path).
    pub fn put_private_hash(
        &mut self,
        ns: &ChaincodeId,
        collection: &CollectionName,
        key_hash: Hash256,
        value_hash: Hash256,
        version: Version,
    ) {
        nested(nested(&mut self.hashed, ns), collection).insert(key_hash, (value_hash, version));
    }

    /// Looks up the version of a hashed entry by key hash.
    pub fn hashed_version(
        &self,
        ns: &ChaincodeId,
        collection: &CollectionName,
        key_hash: Hash256,
    ) -> Option<Version> {
        self.hashed
            .get(ns)?
            .get(collection)?
            .get(&key_hash)
            .map(|(_, v)| *v)
    }

    // ---- state-based endorsement metadata ----

    /// The committed key-level endorsement policy of a public key, if any.
    pub fn get_validation_parameter(&self, ns: &ChaincodeId, key: &str) -> Option<&str> {
        self.validation_params.get(ns)?.get(key).map(String::as_str)
    }

    /// Sets or clears a key-level endorsement policy.
    pub fn set_validation_parameter(
        &mut self,
        ns: &ChaincodeId,
        key: &str,
        policy: Option<String>,
    ) {
        match policy {
            Some(p) => {
                nested(&mut self.validation_params, ns).insert(key.to_string(), p);
            }
            None => {
                if let Some(entries) = self.validation_params.get_mut(ns) {
                    entries.remove(key);
                }
            }
        }
    }

    /// Applies a transaction's metadata writes.
    pub fn apply_metadata_writes(&mut self, ns: &ChaincodeId, writes: &[MetadataWrite]) {
        for w in writes {
            self.set_validation_parameter(ns, &w.key, w.validation_parameter.clone());
        }
    }

    // ---- commit helpers ----

    /// Applies a public rwset's writes at `version`.
    pub fn apply_public_writes(&mut self, ns: &ChaincodeId, rwset: &KvRwSet, version: Version) {
        for w in &rwset.writes {
            if w.is_delete {
                self.delete_public(ns, &w.key);
            } else {
                self.put_public(ns, &w.key, w.value.clone().unwrap_or_default(), version);
            }
        }
    }

    /// Applies a plaintext private rwset's writes at `version` (member
    /// peers; also maintains the hashed store).
    pub fn apply_private_writes(
        &mut self,
        ns: &ChaincodeId,
        pvt: &CollectionPvtRwSet,
        version: Version,
    ) {
        for w in &pvt.rwset.writes {
            if w.is_delete {
                self.delete_private(ns, &pvt.collection, &w.key);
            } else {
                self.put_private(
                    ns,
                    &pvt.collection,
                    &w.key,
                    w.value.clone().unwrap_or_default(),
                    version,
                );
            }
        }
    }

    /// Verifies that `pvt` hashes exactly to `expected` and, when it does,
    /// applies its plaintext writes (plus the matching hashed entries) at
    /// `version`. Returns whether the plaintext matched; nothing is
    /// written on a mismatch.
    ///
    /// Equivalent to checking `pvt.to_hashed() == *expected` and then
    /// calling [`WorldState::apply_private_writes`], but each key and
    /// value is hashed once — the digests computed for verification are
    /// the ones stored — instead of once for the comparison and again for
    /// the hashed-store insert. This is the member-peer commit hot path.
    pub fn apply_private_writes_verified(
        &mut self,
        ns: &ChaincodeId,
        pvt: &CollectionPvtRwSet,
        expected: &CollectionHashedRwSet,
        version: Version,
    ) -> bool {
        if pvt.collection != expected.collection
            || pvt.rwset.reads.len() != expected.reads.len()
            || pvt.rwset.writes.len() != expected.writes.len()
        {
            return false;
        }
        let reads_match = pvt
            .rwset
            .reads
            .iter()
            .zip(&expected.reads)
            .all(|(r, h)| h.version == r.version && h.key_hash == sha256(r.key.as_bytes()));
        if !reads_match {
            return false;
        }
        let writes_match = pvt.rwset.writes.iter().zip(&expected.writes).all(|(w, h)| {
            h.is_delete == w.is_delete
                && h.key_hash == sha256(w.key.as_bytes())
                && h.value_hash == w.value.as_deref().map(sha256)
        });
        if !writes_match {
            return false;
        }
        // Resolve each store's collection map once; the per-write loop
        // then runs against the innermost maps directly.
        let hashed_col = nested(nested(&mut self.hashed, ns), &pvt.collection);
        for (w, h) in pvt.rwset.writes.iter().zip(&expected.writes) {
            if w.is_delete {
                hashed_col.remove(&h.key_hash);
            } else {
                let value_hash = match h.value_hash {
                    Some(vh) => vh,
                    // A `None` value hashes as empty in the hashed store,
                    // as in `put_private`.
                    None => sha256(w.value.as_deref().unwrap_or_default()),
                };
                hashed_col.insert(h.key_hash, (value_hash, version));
            }
        }
        let private_col = nested(nested(&mut self.private, ns), &pvt.collection);
        for w in &pvt.rwset.writes {
            if w.is_delete {
                private_col.remove(&w.key);
            } else {
                let value = w.value.clone().unwrap_or_default();
                private_col.insert(w.key.clone(), VersionedValue { value, version });
            }
        }
        true
    }

    /// Applies hashed private writes at `version` (all peers; the only
    /// private state non-members hold).
    pub fn apply_hashed_writes(
        &mut self,
        ns: &ChaincodeId,
        collection: &CollectionName,
        writes: &[fabric_types::HashedWrite],
        version: Version,
    ) {
        if writes.is_empty() {
            return;
        }
        let entries = nested(nested(&mut self.hashed, ns), collection);
        for w in writes {
            if w.is_delete {
                entries.remove(&w.key_hash);
            } else {
                entries.insert(w.key_hash, (w.value_hash.unwrap_or_default(), version));
            }
        }
    }

    // ---- MVCC ----

    /// Checks a public read set against the current state.
    ///
    /// # Errors
    ///
    /// Returns the first [`MvccViolation`] where a read's recorded version
    /// differs from the current state.
    pub fn check_mvcc_public(
        &self,
        ns: &ChaincodeId,
        reads: &[KvRead],
    ) -> Result<(), MvccViolation> {
        for r in reads {
            let found = self.get_public(ns, &r.key).map(|v| v.version);
            if found != r.version {
                return Err(MvccViolation {
                    namespace: ns.clone(),
                    collection: None,
                    key: r.key.clone(),
                    expected: r.version,
                    found,
                });
            }
        }
        Ok(())
    }

    /// Checks a hashed private read set against the hashed store. This is
    /// the PDC version-conflict check every peer performs — it compares
    /// only *versions*, never re-executing chaincode, which is why forged
    /// values can pass it (§IV-A1).
    pub fn check_mvcc_hashed(
        &self,
        ns: &ChaincodeId,
        collection: &CollectionName,
        reads: &[HashedRead],
    ) -> Result<(), MvccViolation> {
        for r in reads {
            let found = self.hashed_version(ns, collection, r.key_hash);
            if found != r.version {
                return Err(MvccViolation {
                    namespace: ns.clone(),
                    collection: Some(collection.clone()),
                    key: r.key_hash.to_hex(),
                    expected: r.version,
                    found,
                });
            }
        }
        Ok(())
    }

    /// Purges plaintext and hashed private data older than `block_to_live`
    /// blocks (the collection's `BlockToLive`); `0` disables purging.
    /// Returns the number of purged plaintext entries.
    pub fn purge_expired_private(
        &mut self,
        collection: &CollectionName,
        block_to_live: u64,
        current_block: u64,
    ) -> usize {
        if block_to_live == 0 {
            return 0;
        }
        let expired = |version: Version| {
            current_block >= version.block_num && current_block - version.block_num > block_to_live
        };
        let mut count = 0;
        for cols in self.private.values_mut() {
            if let Some(entries) = cols.get_mut(collection) {
                let before = entries.len();
                entries.retain(|_, v| !expired(v.version));
                count += before - entries.len();
            }
        }
        for cols in self.hashed.values_mut() {
            if let Some(entries) = cols.get_mut(collection) {
                entries.retain(|_, (_, ver)| !expired(*ver));
            }
        }
        count
    }

    /// Number of public entries (all namespaces).
    pub fn public_len(&self) -> usize {
        self.public.values().map(BTreeMap::len).sum()
    }

    /// Number of plaintext private entries (all collections).
    pub fn private_len(&self) -> usize {
        self.private
            .values()
            .flat_map(BTreeMap::values)
            .map(BTreeMap::len)
            .sum()
    }

    /// Number of hashed private entries (all collections).
    pub fn hashed_len(&self) -> usize {
        self.hashed
            .values()
            .flat_map(BTreeMap::values)
            .map(BTreeMap::len)
            .sum()
    }

    /// A deterministic digest over the entire state — public, private,
    /// hashed, and validation parameters — so equivalence tests can assert
    /// two peers converged without comparing maps entry by entry.
    pub fn digest(&self) -> Hash256 {
        fn feed(h: &mut fabric_crypto::Sha256, bytes: &[u8]) {
            h.update(&(bytes.len() as u64).to_be_bytes());
            h.update(bytes);
        }
        fn feed_version(h: &mut fabric_crypto::Sha256, v: Version) {
            h.update(&v.block_num.to_be_bytes());
            h.update(&v.tx_num.to_be_bytes());
        }
        // Nested iteration visits entries in the same lexicographic
        // `(namespace, [collection,] key)` order the previous flat
        // composite-key layout did, so digests are stable across the
        // storage refactor.
        let mut h = fabric_crypto::Sha256::new();
        h.update(b"public");
        h.update(&(self.public_len() as u64).to_be_bytes());
        for (ns, entries) in &self.public {
            for (key, vv) in entries {
                feed(&mut h, ns.as_str().as_bytes());
                feed(&mut h, key.as_bytes());
                feed(&mut h, &vv.value);
                feed_version(&mut h, vv.version);
            }
        }
        h.update(b"private");
        h.update(&(self.private_len() as u64).to_be_bytes());
        for (ns, cols) in &self.private {
            for (col, entries) in cols {
                for (key, vv) in entries {
                    feed(&mut h, ns.as_str().as_bytes());
                    feed(&mut h, col.as_str().as_bytes());
                    feed(&mut h, key.as_bytes());
                    feed(&mut h, &vv.value);
                    feed_version(&mut h, vv.version);
                }
            }
        }
        h.update(b"hashed");
        h.update(&(self.hashed_len() as u64).to_be_bytes());
        for (ns, cols) in &self.hashed {
            for (col, entries) in cols {
                for (key_hash, (value_hash, version)) in entries {
                    feed(&mut h, ns.as_str().as_bytes());
                    feed(&mut h, col.as_str().as_bytes());
                    h.update(key_hash.as_bytes());
                    h.update(value_hash.as_bytes());
                    feed_version(&mut h, *version);
                }
            }
        }
        h.update(b"validation_params");
        let params_len: usize = self.validation_params.values().map(BTreeMap::len).sum();
        h.update(&(params_len as u64).to_be_bytes());
        for (ns, entries) in &self.validation_params {
            for (key, expr) in entries {
                feed(&mut h, ns.as_str().as_bytes());
                feed(&mut h, key.as_bytes());
                feed(&mut h, expr.as_bytes());
            }
        }
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::{HashedWrite, KvWrite};

    fn ns() -> ChaincodeId {
        ChaincodeId::new("cc")
    }

    fn col() -> CollectionName {
        CollectionName::new("PDC1")
    }

    #[test]
    fn digest_tracks_every_store() {
        let mut ws = WorldState::new();
        let empty = ws.digest();
        ws.put_public(&ns(), "k1", b"v1".to_vec(), Version::new(1, 0));
        let with_public = ws.digest();
        assert_ne!(empty, with_public);
        ws.set_validation_parameter(&ns(), "k1", Some("OR('Org1MSP.peer')".into()));
        let with_param = ws.digest();
        assert_ne!(with_public, with_param);
        // Equal states digest equally.
        assert_eq!(ws.digest(), ws.clone().digest());
        ws.set_validation_parameter(&ns(), "k1", None);
        assert_eq!(ws.digest(), with_public);
    }

    #[test]
    fn public_put_get_delete() {
        let mut ws = WorldState::new();
        assert!(ws.get_public(&ns(), "k1").is_none());
        ws.put_public(&ns(), "k1", b"v1".to_vec(), Version::new(1, 0));
        let v = ws.get_public(&ns(), "k1").unwrap();
        assert_eq!(v.value, b"v1");
        assert_eq!(v.version, Version::new(1, 0));
        ws.delete_public(&ns(), "k1");
        assert!(ws.get_public(&ns(), "k1").is_none());
    }

    #[test]
    fn namespaces_are_isolated() {
        let mut ws = WorldState::new();
        let other = ChaincodeId::new("other");
        ws.put_public(&ns(), "k", b"a".to_vec(), Version::new(1, 0));
        ws.put_public(&other, "k", b"b".to_vec(), Version::new(1, 1));
        assert_eq!(ws.get_public(&ns(), "k").unwrap().value, b"a");
        assert_eq!(ws.get_public(&other, "k").unwrap().value, b"b");
    }

    #[test]
    fn private_put_maintains_hashed_store() {
        let mut ws = WorldState::new();
        ws.put_private(&ns(), &col(), "k1", b"secret".to_vec(), Version::new(2, 3));
        assert_eq!(
            ws.get_private(&ns(), &col(), "k1").unwrap().value,
            b"secret"
        );
        let (vh, ver) = ws.get_private_hash(&ns(), &col(), "k1").unwrap();
        assert_eq!(vh, sha256(b"secret"));
        assert_eq!(ver, Version::new(2, 3));
    }

    #[test]
    fn non_member_sees_hash_but_not_plaintext() {
        // A non-member peer's state only receives hashed writes.
        let mut ws = WorldState::new();
        ws.put_private_hash(
            &ns(),
            &col(),
            sha256(b"k1"),
            sha256(b"secret"),
            Version::new(2, 3),
        );
        assert!(ws.get_private(&ns(), &col(), "k1").is_none());
        // GetPrivateDataHash still yields hash and version — the leak the
        // endorsement forgery exploits.
        let (vh, ver) = ws.get_private_hash(&ns(), &col(), "k1").unwrap();
        assert_eq!(vh, sha256(b"secret"));
        assert_eq!(ver, Version::new(2, 3));
    }

    #[test]
    fn mvcc_public_detects_conflicts() {
        let mut ws = WorldState::new();
        ws.put_public(&ns(), "k1", b"v".to_vec(), Version::new(1, 0));
        let ok = vec![KvRead {
            key: "k1".into(),
            version: Some(Version::new(1, 0)),
        }];
        assert!(ws.check_mvcc_public(&ns(), &ok).is_ok());

        let stale = vec![KvRead {
            key: "k1".into(),
            version: Some(Version::new(0, 0)),
        }];
        let err = ws.check_mvcc_public(&ns(), &stale).unwrap_err();
        assert_eq!(err.key, "k1");
        assert_eq!(err.found, Some(Version::new(1, 0)));

        let phantom = vec![KvRead {
            key: "missing".into(),
            version: Some(Version::new(1, 0)),
        }];
        assert!(ws.check_mvcc_public(&ns(), &phantom).is_err());

        let absent_ok = vec![KvRead {
            key: "missing".into(),
            version: None,
        }];
        assert!(ws.check_mvcc_public(&ns(), &absent_ok).is_ok());
    }

    #[test]
    fn mvcc_hashed_compares_versions_only() {
        let mut ws = WorldState::new();
        ws.put_private_hash(
            &ns(),
            &col(),
            sha256(b"k1"),
            sha256(b"real"),
            Version::new(1, 0),
        );
        // A read claiming the correct version passes even though the reader
        // never saw the plaintext — the crux of the fake-read attack.
        let reads = vec![HashedRead {
            key_hash: sha256(b"k1"),
            version: Some(Version::new(1, 0)),
        }];
        assert!(ws.check_mvcc_hashed(&ns(), &col(), &reads).is_ok());

        let stale = vec![HashedRead {
            key_hash: sha256(b"k1"),
            version: Some(Version::new(0, 0)),
        }];
        assert!(ws.check_mvcc_hashed(&ns(), &col(), &stale).is_err());
    }

    #[test]
    fn apply_public_writes_handles_deletes() {
        let mut ws = WorldState::new();
        ws.put_public(&ns(), "gone", b"x".to_vec(), Version::new(1, 0));
        let rwset = KvRwSet {
            reads: vec![],
            writes: vec![
                KvWrite {
                    key: "k1".into(),
                    value: Some(b"v1".to_vec()),
                    is_delete: false,
                },
                KvWrite {
                    key: "gone".into(),
                    value: None,
                    is_delete: true,
                },
            ],
        };
        ws.apply_public_writes(&ns(), &rwset, Version::new(2, 0));
        assert_eq!(
            ws.get_public(&ns(), "k1").unwrap().version,
            Version::new(2, 0)
        );
        assert!(ws.get_public(&ns(), "gone").is_none());
    }

    #[test]
    fn apply_hashed_writes_handles_deletes() {
        let mut ws = WorldState::new();
        let writes = vec![HashedWrite {
            key_hash: sha256(b"k1"),
            value_hash: Some(sha256(b"v1")),
            is_delete: false,
        }];
        ws.apply_hashed_writes(&ns(), &col(), &writes, Version::new(1, 0));
        assert!(ws.hashed_version(&ns(), &col(), sha256(b"k1")).is_some());

        let deletes = vec![HashedWrite {
            key_hash: sha256(b"k1"),
            value_hash: None,
            is_delete: true,
        }];
        ws.apply_hashed_writes(&ns(), &col(), &deletes, Version::new(2, 0));
        assert!(ws.hashed_version(&ns(), &col(), sha256(b"k1")).is_none());
    }

    #[test]
    fn block_to_live_purges_old_entries() {
        let mut ws = WorldState::new();
        ws.put_private(&ns(), &col(), "old", b"a".to_vec(), Version::new(1, 0));
        ws.put_private(&ns(), &col(), "new", b"b".to_vec(), Version::new(9, 0));
        // BTL = 3, current block 10: entries written before block 7 purge.
        let purged = ws.purge_expired_private(&col(), 3, 10);
        assert_eq!(purged, 1);
        assert!(ws.get_private(&ns(), &col(), "old").is_none());
        assert!(ws.get_private_hash(&ns(), &col(), "old").is_none());
        assert!(ws.get_private(&ns(), &col(), "new").is_some());

        // BTL = 0 keeps everything.
        assert_eq!(ws.purge_expired_private(&col(), 0, 1000), 0);
        assert!(ws.get_private(&ns(), &col(), "new").is_some());
    }

    #[test]
    fn validation_parameters_set_get_clear() {
        let mut ws = WorldState::new();
        assert_eq!(ws.get_validation_parameter(&ns(), "k1"), None);
        ws.apply_metadata_writes(
            &ns(),
            &[MetadataWrite {
                key: "k1".into(),
                validation_parameter: Some("AND('Org1MSP.peer','Org2MSP.peer')".into()),
            }],
        );
        assert_eq!(
            ws.get_validation_parameter(&ns(), "k1"),
            Some("AND('Org1MSP.peer','Org2MSP.peer')")
        );
        ws.apply_metadata_writes(
            &ns(),
            &[MetadataWrite {
                key: "k1".into(),
                validation_parameter: None,
            }],
        );
        assert_eq!(ws.get_validation_parameter(&ns(), "k1"), None);
    }

    #[test]
    fn public_range_iterates_one_namespace() {
        let mut ws = WorldState::new();
        ws.put_public(&ns(), "a", b"1".to_vec(), Version::new(1, 0));
        ws.put_public(&ns(), "b", b"2".to_vec(), Version::new(1, 1));
        ws.put_public(
            &ChaincodeId::new("zz"),
            "c",
            b"3".to_vec(),
            Version::new(1, 2),
        );
        let cc = ns();
        let keys: Vec<&str> = ws.public_range(&cc).map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
