//! The history database: every committed write to every public key, in
//! commit order (Fabric's `GetHistoryForKey` index).

use fabric_types::{ChaincodeId, TxId, Version};
use std::collections::BTreeMap;

/// One historical write to a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// The transaction that performed the write.
    pub tx_id: TxId,
    /// Commit height of the write.
    pub version: Version,
    /// The written value; `None` for deletes.
    pub value: Option<Vec<u8>>,
}

impl HistoryEntry {
    /// Whether the write was a delete.
    pub fn is_delete(&self) -> bool {
        self.value.is_none()
    }
}

/// Append-only per-key write history for public data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistoryDb {
    entries: BTreeMap<(ChaincodeId, String), Vec<HistoryEntry>>,
}

impl HistoryDb {
    /// An empty history database.
    pub fn new() -> Self {
        HistoryDb::default()
    }

    /// Records one committed write.
    pub fn record(
        &mut self,
        ns: &ChaincodeId,
        key: &str,
        tx_id: &TxId,
        version: Version,
        value: Option<Vec<u8>>,
    ) {
        self.entries
            .entry((ns.clone(), key.to_string()))
            .or_default()
            .push(HistoryEntry {
                tx_id: tx_id.clone(),
                version,
                value,
            });
    }

    /// The full write history of a key, oldest first.
    pub fn key_history(&self, ns: &ChaincodeId, key: &str) -> &[HistoryEntry] {
        self.entries
            .get(&(ns.clone(), key.to_string()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of keys with recorded history.
    pub fn keys_tracked(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns() -> ChaincodeId {
        ChaincodeId::new("cc")
    }

    #[test]
    fn records_in_commit_order() {
        let mut db = HistoryDb::new();
        db.record(
            &ns(),
            "k",
            &TxId::new("t1"),
            Version::new(1, 0),
            Some(b"a".to_vec()),
        );
        db.record(
            &ns(),
            "k",
            &TxId::new("t2"),
            Version::new(2, 0),
            Some(b"b".to_vec()),
        );
        db.record(&ns(), "k", &TxId::new("t3"), Version::new(3, 0), None);
        let h = db.key_history(&ns(), "k");
        assert_eq!(h.len(), 3);
        assert_eq!(h[0].value.as_deref(), Some(b"a".as_slice()));
        assert_eq!(h[1].tx_id, TxId::new("t2"));
        assert!(h[2].is_delete());
        assert_eq!(db.keys_tracked(), 1);
    }

    #[test]
    fn unknown_key_has_empty_history() {
        let db = HistoryDb::new();
        assert!(db.key_history(&ns(), "ghost").is_empty());
    }

    #[test]
    fn namespaces_are_isolated() {
        let mut db = HistoryDb::new();
        db.record(
            &ns(),
            "k",
            &TxId::new("t1"),
            Version::new(1, 0),
            Some(vec![1]),
        );
        assert!(db.key_history(&ChaincodeId::new("other"), "k").is_empty());
    }
}
