//! A deliberately leaky escrow chaincode: the positive fixture of the
//! `fabric_lint::flow` analyzer.
//!
//! Every function routes private-collection data into a different
//! forbidden sink, one per flow rule:
//!
//! | function  | sink | rule |
//! |---|---|---|
//! | `publish` | public world state | PDC012 |
//! | `announce`| chaincode event | PDC013 |
//! | `peek`    | response payload (recorded in the block; readable by non-members) | PDC009, PDC014 |
//! | `mirror`  | a laxer collection (cross-collection downgrade) | PDC015 |
//! | `settle`  | low-entropy commitment (brute-forceable PR_Hash) | PDC016 |
//! | `stamp`   | nondeterministic write (endorsement divergence) | PDC017 |
//!
//! The paper's attacks are all instances of these flows; this sample
//! packs them into one chaincode so the analyzer's whole rule surface has
//! a triggering fixture (the clean samples are the non-triggering ones).

use crate::definition::ChaincodeDefinition;
use crate::error::ChaincodeError;
use crate::stub::ChaincodeStub;
use crate::Chaincode;
use fabric_types::{CollectionConfig, CollectionName, OrgId};
use std::sync::atomic::{AtomicU64, Ordering};

/// The leaky escrow chaincode over two collections: `escrow` (the strict
/// one holding the secrets) and `audit` (a laxer one with a different
/// member set, the PDC015 downgrade target).
#[derive(Debug)]
pub struct LeakyEscrow {
    escrow: CollectionName,
    audit: CollectionName,
    /// Per-process invocation counter — deliberate nondeterminism: two
    /// endorsers (or two runs) stamp different values (PDC017).
    nonce: AtomicU64,
}

impl LeakyEscrow {
    /// Creates the chaincode over the two collections.
    pub fn new(escrow: impl Into<CollectionName>, audit: impl Into<CollectionName>) -> Self {
        LeakyEscrow {
            escrow: escrow.into(),
            audit: audit.into(),
            nonce: AtomicU64::new(0),
        }
    }

    /// The canonical definition this sample deploys with:
    ///
    /// * `escrowCollection` — members Org1, Org2, with `memberOnlyRead`
    ///   **disabled** (itself a misconfiguration) so non-member clients
    ///   reach the `peek` payload leak;
    /// * `auditCollection` — members Org1, Org3: *not* a superset or
    ///   subset of the escrow member set, so `mirror` hands Org3 data it
    ///   was never entitled to.
    pub fn default_definition() -> ChaincodeDefinition {
        ChaincodeDefinition::new("leaky_escrow")
            .with_collection(
                CollectionConfig::membership_of(
                    "escrowCollection",
                    &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")],
                )
                .with_member_only_read(false),
            )
            .with_collection(CollectionConfig::membership_of(
                "auditCollection",
                &[OrgId::new("Org1MSP"), OrgId::new("Org3MSP")],
            ))
    }

    fn read_escrow(
        &self,
        stub: &mut ChaincodeStub<'_>,
        key: &str,
    ) -> Result<Vec<u8>, ChaincodeError> {
        stub.get_private_data(&self.escrow, key)?
            .ok_or_else(|| ChaincodeError::KeyNotFound {
                collection: Some(self.escrow.clone()),
                key: key.to_string(),
            })
    }
}

impl Default for LeakyEscrow {
    fn default() -> Self {
        LeakyEscrow::new("escrowCollection", "auditCollection")
    }
}

impl Chaincode for LeakyEscrow {
    fn invoke(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        let key = stub.arg_str(0)?;
        match stub.function() {
            // PDC012: the escrowed value lands in public world state,
            // replicated in plaintext to every peer on the channel.
            "publish" => {
                let value = self.read_escrow(stub, &key)?;
                stub.put_state(&key, value);
                Ok(Vec::new())
            }
            // PDC013: the value rides out in a chaincode event, delivered
            // to every block listener.
            "announce" => {
                let value = self.read_escrow(stub, &key)?;
                stub.set_event("escrow_settled", value);
                Ok(Vec::new())
            }
            // PDC009 + PDC014: the value is the response payload — a
            // submitted `peek` records it in the block, and any client the
            // collection's memberOnlyRead=false lets through reads it,
            // member or not.
            "peek" => self.read_escrow(stub, &key),
            // PDC015: copies from the strict escrow set {Org1,Org2} into
            // the audit set {Org1,Org3} — Org3 gains the plaintext.
            "mirror" => {
                let value = self.read_escrow(stub, &key)?;
                stub.put_private_data(&self.audit, &key, value);
                Ok(Vec::new())
            }
            // PDC016: commits a dictionary word; its on-chain PR_Hash is
            // recoverable by brute force at any non-member peer.
            "settle" => {
                stub.put_private_data(&self.escrow, &key, b"settled".to_vec());
                Ok(Vec::new())
            }
            // PDC017: writes a process-local counter — endorsers disagree,
            // so the proposal responses never match.
            "stamp" => {
                let n = self.nonce.fetch_add(1, Ordering::Relaxed);
                stub.put_state(&key, format!("stamp-{n}").into_bytes());
                Ok(Vec::new())
            }
            other => Err(ChaincodeError::FunctionNotFound(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::Keypair;
    use fabric_ledger::WorldState;
    use fabric_types::{Identity, Proposal, Role, Version};
    use std::collections::{BTreeMap, HashSet};

    fn run(
        cc: &LeakyEscrow,
        function: &str,
        args: &[&str],
    ) -> (
        Result<Vec<u8>, ChaincodeError>,
        crate::stub::SimulationResult,
    ) {
        let mut ws = WorldState::new();
        let def = LeakyEscrow::default_definition();
        ws.put_private(
            &def.id,
            &CollectionName::new("escrowCollection"),
            "k1",
            b"the-secret".to_vec(),
            Version::new(1, 0),
        );
        let memberships: HashSet<_> = [
            CollectionName::new("escrowCollection"),
            CollectionName::new("auditCollection"),
        ]
        .into_iter()
        .collect();
        let kp = Keypair::generate_from_seed(6);
        let prop = Proposal::new(
            "ch1",
            "leaky_escrow",
            function,
            args.iter().map(|a| a.as_bytes().to_vec()).collect(),
            BTreeMap::new(),
            Identity::new("Org1MSP", Role::Client, kp.public_key()),
            1,
        );
        let mut stub = ChaincodeStub::new(&ws, &def, &memberships, &prop);
        let out = cc.invoke(&mut stub);
        (out, stub.into_results())
    }

    #[test]
    fn publish_copies_private_to_public_state() {
        let (out, results) = run(&LeakyEscrow::default(), "publish", &["k1"]);
        assert!(out.is_ok());
        assert_eq!(results.public.writes[0].value, Some(b"the-secret".to_vec()));
    }

    #[test]
    fn announce_puts_private_into_the_event() {
        let (out, results) = run(&LeakyEscrow::default(), "announce", &["k1"]);
        assert!(out.is_ok());
        assert_eq!(results.event.unwrap().payload, b"the-secret");
    }

    #[test]
    fn peek_returns_the_private_value() {
        let (out, _) = run(&LeakyEscrow::default(), "peek", &["k1"]);
        assert_eq!(out.unwrap(), b"the-secret");
    }

    #[test]
    fn mirror_copies_across_collections() {
        let (out, results) = run(&LeakyEscrow::default(), "mirror", &["k1"]);
        assert!(out.is_ok());
        let audit = results
            .collections
            .iter()
            .find(|c| c.collection.as_str() == "auditCollection")
            .unwrap();
        assert_eq!(audit.rwset.writes[0].value, Some(b"the-secret".to_vec()));
    }

    #[test]
    fn settle_commits_a_dictionary_word() {
        let (out, results) = run(&LeakyEscrow::default(), "settle", &["k1"]);
        assert!(out.is_ok());
        assert_eq!(
            results.collections[0].rwset.writes[0].value,
            Some(b"settled".to_vec())
        );
    }

    #[test]
    fn stamp_diverges_across_invocations() {
        let cc = LeakyEscrow::default();
        let (_, first) = run(&cc, "stamp", &["k1"]);
        let (_, second) = run(&cc, "stamp", &["k1"]);
        assert_ne!(first.public.writes[0].value, second.public.writes[0].value);
    }

    #[test]
    fn default_definition_has_the_two_collections() {
        let def = LeakyEscrow::default_definition();
        let escrow = def
            .collection(&CollectionName::new("escrowCollection"))
            .unwrap();
        assert!(!escrow.member_only_read);
        assert!(def
            .collection(&CollectionName::new("auditCollection"))
            .is_some());
    }

    #[test]
    fn unknown_function_errors() {
        let (out, _) = run(&LeakyEscrow::default(), "nope", &["k1"]);
        assert!(matches!(out, Err(ChaincodeError::FunctionNotFound(_))));
    }
}
