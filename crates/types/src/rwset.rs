//! Read/write sets, in plaintext and hashed (private data) form.
//!
//! The semantics follow Section III-B1 and Table I of the paper:
//!
//! | transaction kind | read set            | write set                     |
//! |------------------|---------------------|-------------------------------|
//! | read-only        | `(key, version)`    | empty                         |
//! | write-only       | empty               | `(key, value, is_delete=false)` |
//! | read-write       | `(key, version)`    | `(key, value, is_delete=false)` |
//! | delete-only      | empty               | `(key, null, is_delete=true)` |
//!
//! Here a write is a key and an optional value: `is_delete` is not stored
//! but read off a `None` value, so a write cannot be a delete that carries
//! a value or a put that carries none.
//!
//! For private data collections, only the **hashed** rwset
//! (`hash(key), hash(value), version`) enters the transaction; the plaintext
//! [`CollectionPvtRwSet`] travels to collection members over gossip.

use crate::ids::{ChaincodeId, CollectionName, TxId};
use fabric_crypto::{sha256, Hash256};
use std::fmt;

/// The `(block, tx)` height that versions every committed key, exactly as in
/// Fabric's world state. Versions increase monotonically with commits and
/// drive the MVCC version-conflict check in the validation phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version {
    /// Block number that last wrote the key.
    pub block_num: u64,
    /// Transaction offset within that block.
    pub tx_num: u64,
}

impl Version {
    /// Creates a version at `(block_num, tx_num)`.
    pub fn new(block_num: u64, tx_num: u64) -> Self {
        Version { block_num, tx_num }
    }
}

impl_wire_struct!(Version { block_num, tx_num });

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block_num, self.tx_num)
    }
}

/// One entry of a read set: the key and the version observed at simulation
/// time (`None` when the key did not exist).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KvRead {
    /// The key read.
    pub key: String,
    /// Observed version; `None` means the key was absent.
    pub version: Option<Version>,
}

impl_wire_struct!(KvRead { key, version });

/// One entry of a write set: a key and its new value.
///
/// Per the paper's Table I, a delete is a write with a `None` ("null") value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KvWrite {
    /// The key written or deleted.
    pub key: String,
    /// New value; `None` for deletes.
    pub value: Option<Vec<u8>>,
}

impl_wire_struct!(KvWrite { key, value });

impl KvWrite {
    /// Whether this write removes the key (Table I's `is_delete`).
    pub fn is_delete(&self) -> bool {
        self.value.is_none()
    }
}

/// A plaintext read/write set over one namespace or collection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KvRwSet {
    /// Read entries in chaincode execution order.
    pub reads: Vec<KvRead>,
    /// Write entries in chaincode execution order (later writes to the same
    /// key supersede earlier ones at commit time).
    pub writes: Vec<KvWrite>,
}

impl_wire_struct!(KvRwSet { reads, writes });

impl KvRwSet {
    /// An empty rwset.
    pub fn new() -> Self {
        KvRwSet::default()
    }

    /// True when both read and write sets are empty.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    /// Classifies the rwset per the paper's Table I.
    pub fn kind(&self) -> TxKind {
        TxKind::classify(
            !self.reads.is_empty(),
            self.writes.iter().map(KvWrite::is_delete),
        )
    }

    /// Converts to the hashed form stored in PDC transactions:
    /// `(hash(key), hash(value), version)`.
    pub fn to_hashed(&self) -> (Vec<HashedRead>, Vec<HashedWrite>) {
        let reads = self
            .reads
            .iter()
            .map(|r| HashedRead {
                key_hash: sha256(r.key.as_bytes()),
                version: r.version,
            })
            .collect();
        let writes = self
            .writes
            .iter()
            .map(|w| HashedWrite {
                key_hash: sha256(w.key.as_bytes()),
                value_hash: w.value.as_deref().map(sha256),
            })
            .collect();
        (reads, writes)
    }
}

/// Transaction classification derived from rwset contents (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxKind {
    /// No reads or writes (e.g. a failed simulation).
    Empty,
    /// Reads only; the read set carries `(key, version)`.
    ReadOnly,
    /// Writes only; the read set is null, so any peer — including PDC
    /// non-members — can endorse it (the paper's Use Case 1).
    WriteOnly,
    /// Reads and writes.
    ReadWrite,
    /// Deletes only (a delete is a write with a null value).
    DeleteOnly,
    /// A combination involving deletes plus reads/writes.
    Mixed,
}

impl TxKind {
    /// Table I's one classification rule, from whether the rwset reads
    /// and whether each of its writes is a delete.
    fn classify(has_reads: bool, is_delete: impl IntoIterator<Item = bool>) -> TxKind {
        let (mut has_writes, mut has_deletes) = (false, false);
        for d in is_delete {
            has_deletes |= d;
            has_writes |= !d;
        }
        match (has_reads, has_writes, has_deletes) {
            (false, false, false) => TxKind::Empty,
            (true, false, false) => TxKind::ReadOnly,
            (false, true, false) => TxKind::WriteOnly,
            (true, true, false) => TxKind::ReadWrite,
            (false, false, true) => TxKind::DeleteOnly,
            _ => TxKind::Mixed,
        }
    }
}

impl fmt::Display for TxKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxKind::Empty => "empty",
            TxKind::ReadOnly => "read-only",
            TxKind::WriteOnly => "write-only",
            TxKind::ReadWrite => "read-write",
            TxKind::DeleteOnly => "delete-only",
            TxKind::Mixed => "mixed",
        };
        f.write_str(s)
    }
}

/// A hashed read entry: `hash(key)` plus the observed version.
///
/// Crucially, the **version is in plaintext** — this is what lets a PDC
/// non-member obtain a correct version via `GetPrivateDataHash` and forge
/// read endorsements (the paper's Endorsement Forgery, §IV-A1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HashedRead {
    /// SHA-256 of the key.
    pub key_hash: Hash256,
    /// Observed version; `None` when absent.
    pub version: Option<Version>,
}

impl_wire_struct!(HashedRead { key_hash, version });

/// A hashed write entry: `hash(key)` and `hash(value)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HashedWrite {
    /// SHA-256 of the key.
    pub key_hash: Hash256,
    /// SHA-256 of the value; `None` for deletes.
    pub value_hash: Option<Hash256>,
}

impl_wire_struct!(HashedWrite {
    key_hash,
    value_hash
});

impl HashedWrite {
    /// Whether this write removes the key (Table I's `is_delete`).
    pub fn is_delete(&self) -> bool {
        self.value_hash.is_none()
    }
}

/// The hashed rwset of one collection, as embedded in a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionHashedRwSet {
    /// Collection name (plaintext, as in Fabric).
    pub collection: CollectionName,
    /// Hashed reads.
    pub reads: Vec<HashedRead>,
    /// Hashed writes.
    pub writes: Vec<HashedWrite>,
}

impl_wire_struct!(CollectionHashedRwSet {
    collection,
    reads,
    writes
});

impl CollectionHashedRwSet {
    /// Classifies the hashed rwset per Table I.
    pub fn kind(&self) -> TxKind {
        TxKind::classify(
            !self.reads.is_empty(),
            self.writes.iter().map(HashedWrite::is_delete),
        )
    }
}

/// The plaintext rwset of one collection; never embedded in a transaction.
/// Endorsers keep it and gossip it to collection members (Fig. 2, steps 7–9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionPvtRwSet {
    /// Collection name.
    pub collection: CollectionName,
    /// Plaintext reads/writes.
    pub rwset: KvRwSet,
}

impl_wire_struct!(CollectionPvtRwSet { collection, rwset });

impl CollectionPvtRwSet {
    /// Hashes this plaintext collection rwset into the transaction form.
    pub fn to_hashed(&self) -> CollectionHashedRwSet {
        let (reads, writes) = self.rwset.to_hashed();
        CollectionHashedRwSet {
            collection: self.collection.clone(),
            reads,
            writes,
        }
    }

    /// Whether this plaintext hashes exactly to `hashed`, reads included:
    /// the check a member makes before it commits gossiped plaintext
    /// (Fig. 2, step 18). Equal to `self.to_hashed() == *hashed`, but
    /// each key and value is hashed once and no hashed copy is built.
    pub fn hashes_to(&self, hashed: &CollectionHashedRwSet) -> bool {
        let KvRwSet { reads, writes } = &self.rwset;
        self.collection == hashed.collection
            && reads.len() == hashed.reads.len()
            && writes.len() == hashed.writes.len()
            && reads
                .iter()
                .zip(&hashed.reads)
                .all(|(r, h)| h.version == r.version && h.key_hash == sha256(r.key.as_bytes()))
            && writes.iter().zip(&hashed.writes).all(|(w, h)| {
                h.key_hash == sha256(w.key.as_bytes())
                    && h.value_hash == w.value.as_deref().map(sha256)
            })
    }
}

/// A key-metadata write: sets or clears a key's *validation parameter*
/// (the key-level endorsement policy of Fabric's state-based endorsement,
/// the `validator_keylevel.go` machinery the paper cites for Use Case 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MetadataWrite {
    /// The public key whose metadata is updated.
    pub key: String,
    /// The new key-level endorsement policy expression; `None` clears it,
    /// returning the key to chaincode/collection-level validation.
    pub validation_parameter: Option<String>,
}

impl_wire_struct!(MetadataWrite {
    key,
    validation_parameter
});

/// All rwsets of one chaincode namespace within a transaction: the public
/// part in plaintext plus one hashed rwset per touched collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsRwSet {
    /// Chaincode namespace.
    pub namespace: ChaincodeId,
    /// Public-data rwset (plaintext).
    pub public: KvRwSet,
    /// Key-metadata writes (state-based endorsement parameters) on public
    /// keys.
    pub metadata_writes: Vec<MetadataWrite>,
    /// Hashed rwsets of touched private data collections.
    pub collections: Vec<CollectionHashedRwSet>,
}

impl_wire_struct!(NsRwSet {
    namespace,
    public,
    metadata_writes,
    collections
});

/// The complete simulation result embedded in a transaction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TxRwSet {
    /// Per-namespace rwsets.
    pub ns_rwsets: Vec<NsRwSet>,
}

impl_wire_struct!(TxRwSet { ns_rwsets });

impl TxRwSet {
    /// An empty tx rwset.
    pub fn new() -> Self {
        TxRwSet::default()
    }

    /// Returns the rwsets for `namespace` if present.
    pub fn namespace(&self, namespace: &ChaincodeId) -> Option<&NsRwSet> {
        self.ns_rwsets.iter().find(|ns| &ns.namespace == namespace)
    }

    /// True when any collection rwset is present (i.e. this is a PDC
    /// transaction).
    pub fn touches_private_data(&self) -> bool {
        self.ns_rwsets.iter().any(|ns| !ns.collections.is_empty())
    }

    /// Overall classification: combines public and hashed collection rwsets.
    pub fn kind(&self) -> TxKind {
        let has_reads = self.ns_rwsets.iter().any(|ns| {
            !ns.public.reads.is_empty() || ns.collections.iter().any(|c| !c.reads.is_empty())
        });
        let deletes = self.ns_rwsets.iter().flat_map(|ns| {
            let public = ns.public.writes.iter().map(KvWrite::is_delete);
            let hashed = ns.collections.iter().flat_map(|c| &c.writes);
            public.chain(hashed.map(HashedWrite::is_delete))
        });
        TxKind::classify(has_reads, deletes)
    }
}

/// Plaintext private rwsets of one endorsement of one chaincode,
/// disseminated via gossip to collection members and matched against the
/// transaction's hashes before commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PvtDataPackage {
    /// The transaction these plaintext rwsets belong to.
    pub tx_id: TxId,
    /// The chaincode whose collections these are.
    pub namespace: ChaincodeId,
    /// Plaintext collection rwsets.
    pub collections: Vec<CollectionPvtRwSet>,
}

impl_wire_struct!(PvtDataPackage {
    tx_id,
    namespace,
    collections
});

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_wire::{Decode, Encode};

    fn write(key: &str, value: &[u8]) -> KvWrite {
        KvWrite {
            key: key.into(),
            value: Some(value.to_vec()),
        }
    }

    fn delete(key: &str) -> KvWrite {
        KvWrite {
            key: key.into(),
            value: None,
        }
    }

    fn read(key: &str, v: Option<Version>) -> KvRead {
        KvRead {
            key: key.into(),
            version: v,
        }
    }

    /// Table I: rwset shapes of the four transaction types.
    #[test]
    fn table1_classification() {
        let v1 = Some(Version::new(1, 0));

        let read_only = KvRwSet {
            reads: vec![read("k1", v1)],
            writes: vec![],
        };
        assert_eq!(read_only.kind(), TxKind::ReadOnly);

        let write_only = KvRwSet {
            reads: vec![],
            writes: vec![write("k1", b"val1")],
        };
        assert_eq!(write_only.kind(), TxKind::WriteOnly);

        let read_write = KvRwSet {
            reads: vec![read("k1", v1)],
            writes: vec![write("k1", b"val1")],
        };
        assert_eq!(read_write.kind(), TxKind::ReadWrite);

        let delete_only = KvRwSet {
            reads: vec![],
            writes: vec![delete("k1")],
        };
        assert_eq!(delete_only.kind(), TxKind::DeleteOnly);
        // Delete writes carry a null value, per Table I.
        assert_eq!(delete_only.writes[0].value, None);

        assert_eq!(KvRwSet::new().kind(), TxKind::Empty);

        let mixed = KvRwSet {
            reads: vec![],
            writes: vec![write("k1", b"v"), delete("k2")],
        };
        assert_eq!(mixed.kind(), TxKind::Mixed);
    }

    #[test]
    fn hashing_uses_sha256_of_key_and_value() {
        let rw = KvRwSet {
            reads: vec![read("k1", Some(Version::new(3, 1)))],
            writes: vec![write("k1", b"val1"), delete("k2")],
        };
        let (hr, hw) = rw.to_hashed();
        assert_eq!(hr[0].key_hash, sha256(b"k1"));
        assert_eq!(hr[0].version, Some(Version::new(3, 1)));
        assert_eq!(hw[0].key_hash, sha256(b"k1"));
        assert_eq!(hw[0].value_hash, Some(sha256(b"val1")));
        assert!(!hw[0].is_delete());
        assert_eq!(hw[1].value_hash, None);
        assert!(hw[1].is_delete());
    }

    #[test]
    fn hashed_version_stays_plaintext() {
        // The version leaks through GetPrivateDataHash — attack precondition.
        let rw = KvRwSet {
            reads: vec![read("secret-key", Some(Version::new(9, 2)))],
            writes: vec![],
        };
        let (hr, _) = rw.to_hashed();
        assert_eq!(hr[0].version, Some(Version::new(9, 2)));
    }

    #[test]
    fn tx_rwset_kind_combines_collections() {
        let pvt = CollectionPvtRwSet {
            collection: CollectionName::new("PDC1"),
            rwset: KvRwSet {
                reads: vec![],
                writes: vec![write("k1", b"v")],
            },
        };
        let tx = TxRwSet {
            ns_rwsets: vec![NsRwSet {
                namespace: ChaincodeId::new("cc"),
                public: KvRwSet::new(),
                metadata_writes: vec![],
                collections: vec![pvt.to_hashed()],
            }],
        };
        assert_eq!(tx.kind(), TxKind::WriteOnly);
        assert!(tx.touches_private_data());
    }

    #[test]
    fn wire_roundtrips() {
        let rw = KvRwSet {
            reads: vec![read("a", None), read("b", Some(Version::new(1, 2)))],
            writes: vec![write("c", b"v"), delete("d")],
        };
        assert_eq!(KvRwSet::from_wire(&rw.to_wire()).unwrap(), rw);

        let tx = TxRwSet {
            ns_rwsets: vec![NsRwSet {
                namespace: ChaincodeId::new("cc"),
                public: rw,
                metadata_writes: vec![],
                collections: vec![CollectionHashedRwSet {
                    collection: CollectionName::new("PDC1"),
                    reads: vec![HashedRead {
                        key_hash: sha256(b"k"),
                        version: None,
                    }],
                    writes: vec![HashedWrite {
                        key_hash: sha256(b"k"),
                        value_hash: Some(sha256(b"v")),
                    }],
                }],
            }],
        };
        assert_eq!(TxRwSet::from_wire(&tx.to_wire()).unwrap(), tx);
    }
}
