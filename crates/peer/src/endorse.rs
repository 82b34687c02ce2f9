//! The execution phase: proposal simulation and endorsement.

use crate::node::Peer;
use fabric_chaincode::{ChaincodeError, ChaincodeStub};
use fabric_telemetry::trace_id;
use fabric_types::{
    CollectionHashedRwSet, DefenseConfig, Endorsement, NsRwSet, PayloadCommitment, Proposal,
    ProposalResponse, ProposalResponsePayload, PvtDataPackage, Response, TxRwSet,
};
use std::fmt;

/// Errors returned instead of an endorsement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndorseError {
    /// The proposal targets a channel this peer is not part of.
    WrongChannel {
        /// The peer's channel.
        expected: String,
        /// The proposal's channel.
        found: String,
    },
    /// The chaincode is not installed on this peer.
    UnknownChaincode(String),
    /// Chaincode execution failed; Fabric returns a 500 proposal response,
    /// which the client treats as a failed endorsement.
    Chaincode(ChaincodeError),
}

impl fmt::Display for EndorseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndorseError::WrongChannel { expected, found } => {
                write!(
                    f,
                    "proposal for channel {found:?}, peer serves {expected:?}"
                )
            }
            EndorseError::UnknownChaincode(cc) => write!(f, "chaincode {cc:?} not installed"),
            EndorseError::Chaincode(e) => write!(f, "chaincode error: {e}"),
        }
    }
}

impl std::error::Error for EndorseError {}

impl From<ChaincodeError> for EndorseError {
    fn from(e: ChaincodeError) -> Self {
        EndorseError::Chaincode(e)
    }
}

impl Peer {
    /// Simulates a proposal and produces a signed proposal response
    /// (Fig. 2, steps 2–5 / 7–10).
    ///
    /// Returns the response plus, for PDC transactions, the whole
    /// plaintext private simulation result: every collection read or
    /// written (the transaction itself only carries their hashes). The
    /// network disseminates the collections it writes to their members
    /// over gossip; private reads need no plaintext at commit.
    ///
    /// Under New Feature 2 ([`DefenseConfig::hashed_payload_commitment`])
    /// the endorsement signature covers the payload with the chaincode
    /// response hashed, per §IV-C2 — the plaintext is still returned to the
    /// client.
    ///
    /// # Errors
    ///
    /// See [`EndorseError`]. In particular, a PDC non-member peer fails
    /// with a chaincode error on *read* proposals (it has no plaintext) but
    /// succeeds on *write-only* proposals — Use Case 1.
    pub fn endorse(
        &self,
        proposal: &Proposal,
    ) -> Result<(ProposalResponse, Option<PvtDataPackage>), EndorseError> {
        let Some(telemetry) = self.telemetry.as_ref() else {
            return self.endorse_inner(proposal);
        };
        let mut span = telemetry.span("peer.endorse");
        span.trace(trace_id(proposal.tx_id.as_str()));
        span.node(self.gossip_id.as_arc());
        span.field("chaincode", proposal.chaincode.as_arc());
        span.field("function", Box::<str>::from(proposal.function.as_str()));
        let result = self.endorse_inner(proposal);
        if result.is_ok() {
            span.field("result", "ok");
            telemetry.endorse_ok.inc();
        } else {
            span.field("result", "err");
            telemetry.endorse_err.inc();
        }
        result
    }

    fn endorse_inner(
        &self,
        proposal: &Proposal,
    ) -> Result<(ProposalResponse, Option<PvtDataPackage>), EndorseError> {
        if proposal.channel != self.channel {
            return Err(EndorseError::WrongChannel {
                expected: self.channel.to_string(),
                found: proposal.channel.to_string(),
            });
        }
        let installed = self
            .chaincodes
            .get(&proposal.chaincode)
            .ok_or_else(|| EndorseError::UnknownChaincode(proposal.chaincode.to_string()))?;

        let mut stub = ChaincodeStub::with_history(
            &self.world_state,
            &self.history,
            &installed.definition,
            &installed.memberships,
            proposal,
        );
        let payload_bytes = installed.handle.invoke(&mut stub)?;
        let results = stub.into_results();

        // Assemble the tx rwset: public part plaintext, PDC parts hashed.
        let hashed_collections: Vec<CollectionHashedRwSet> =
            results.collections.iter().map(|c| c.to_hashed()).collect();
        let tx_rwset = TxRwSet {
            ns_rwsets: vec![NsRwSet {
                namespace: proposal.chaincode.clone(),
                public: results.public,
                metadata_writes: results.metadata_writes,
                collections: hashed_collections,
            }],
        };

        let payload = ProposalResponsePayload {
            proposal_hash: proposal.hash(),
            response: Response::ok(payload_bytes),
            results: tx_rwset,
            event: results.event,
        };
        let commitment = commitment_for(self.defense);
        let signature = self.keypair.sign(&payload.signed_bytes(commitment));
        let response = ProposalResponse {
            payload,
            commitment,
            endorsement: Endorsement {
                endorser: self.identity.clone(),
                signature,
            },
        };

        let pvt = if results.collections.is_empty() {
            None
        } else {
            Some(PvtDataPackage {
                tx_id: proposal.tx_id.clone(),
                namespaces: results
                    .collections
                    .iter()
                    .map(|_| proposal.chaincode.clone())
                    .collect(),
                collections: results.collections,
            })
        };
        Ok((response, pvt))
    }
}

fn commitment_for(defense: DefenseConfig) -> PayloadCommitment {
    if defense.hashed_payload_commitment {
        PayloadCommitment::HashedPayload
    } else {
        PayloadCommitment::Plain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_chaincode::samples::{Guard, GuardedPdc};
    use fabric_chaincode::ChaincodeDefinition;
    use fabric_crypto::Keypair;
    use fabric_policy::ChannelPolicies;
    use fabric_types::{CollectionConfig, CollectionName, Identity, OrgId, Role, TxKind, Version};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    const COL: &str = "PDC1";

    fn peer(name: &str, org: &str, seed: u64, defense: DefenseConfig) -> Peer {
        let orgs: Vec<OrgId> = (1..=3).map(|i| OrgId::new(format!("Org{i}MSP"))).collect();
        let mut p = Peer::new(
            name,
            org,
            "ch1",
            ChannelPolicies::default_for(&orgs),
            Keypair::generate_from_seed(seed),
            defense,
        );
        let def = ChaincodeDefinition::new("guarded")
            .with_collection(CollectionConfig::membership_of(COL, &orgs[..2]));
        p.install_chaincode(
            def,
            Arc::new(GuardedPdc::new(
                COL,
                Guard::LessThan(15),
                Guard::LessThan(15),
            )),
        )
        .unwrap();
        p
    }

    fn proposal(function: &str, args: &[&str], seed: u64) -> Proposal {
        let kp = Keypair::generate_from_seed(seed);
        Proposal::new(
            "ch1",
            "guarded",
            function,
            args.iter().map(|a| a.as_bytes().to_vec()).collect(),
            BTreeMap::new(),
            Identity::new("Org1MSP", Role::Client, kp.public_key()),
            99,
        )
    }

    fn seed_private(p: &mut Peer, value: i64) {
        p.world_state.put_private(
            &"guarded".into(),
            &CollectionName::new(COL),
            "k1",
            value.to_string().into_bytes(),
            Version::new(1, 0),
        );
    }

    #[test]
    fn member_endorses_read_with_plaintext_payload() {
        let mut p = peer("peer0.org1", "Org1MSP", 41, DefenseConfig::original());
        seed_private(&mut p, 12);
        let (resp, pvt) = p.endorse(&proposal("read", &["k1"], 1)).unwrap();
        assert!(resp.verify());
        assert_eq!(resp.payload.response.payload, b"12");
        assert_eq!(resp.commitment, PayloadCommitment::Plain);
        assert_eq!(resp.payload.results.kind(), TxKind::ReadOnly);
        // The package is the whole private simulation result, reads
        // included; the network disseminates only written collections.
        assert!(pvt.is_some());
    }

    #[test]
    fn non_member_fails_read_but_endorses_write() {
        // Use Case 1 end-to-end at the endorsement API.
        let p3 = peer("peer0.org3", "Org3MSP", 43, DefenseConfig::original());
        let err = p3.endorse(&proposal("read", &["k1"], 1)).unwrap_err();
        assert!(matches!(
            err,
            EndorseError::Chaincode(ChaincodeError::PrivateDataUnavailable { .. })
        ));

        let (resp, pvt) = p3.endorse(&proposal("write", &["k1", "5"], 1)).unwrap();
        assert!(resp.verify());
        assert_eq!(resp.payload.results.kind(), TxKind::WriteOnly);
        assert!(pvt.is_some());
    }

    #[test]
    fn feature2_signs_hashed_payload_form() {
        let mut p = peer("peer0.org1", "Org1MSP", 44, DefenseConfig::feature2());
        seed_private(&mut p, 12);
        let (resp, _) = p.endorse(&proposal("read", &["k1"], 1)).unwrap();
        assert_eq!(resp.commitment, PayloadCommitment::HashedPayload);
        // The client still receives plaintext...
        assert_eq!(resp.payload.response.payload, b"12");
        // ...but the signature only verifies over the hashed form.
        assert!(resp.verify());
        let plain_bytes = resp.payload.signed_bytes(PayloadCommitment::Plain);
        assert!(!resp
            .endorsement
            .signature
            .verify(&resp.endorsement.endorser.public_key, &plain_bytes));
    }

    #[test]
    fn wrong_channel_and_unknown_chaincode() {
        let p = peer("peer0.org1", "Org1MSP", 45, DefenseConfig::original());
        let kp = Keypair::generate_from_seed(5);
        let creator = Identity::new("Org1MSP", Role::Client, kp.public_key());
        let wrong_channel = Proposal::new(
            "other",
            "guarded",
            "read",
            vec![],
            BTreeMap::new(),
            creator.clone(),
            1,
        );
        assert!(matches!(
            p.endorse(&wrong_channel),
            Err(EndorseError::WrongChannel { .. })
        ));
        let unknown = Proposal::new("ch1", "ghost", "read", vec![], BTreeMap::new(), creator, 1);
        assert!(matches!(
            p.endorse(&unknown),
            Err(EndorseError::UnknownChaincode(_))
        ));
    }

    #[test]
    fn business_rule_rejection_surfaces_as_chaincode_error() {
        let p = peer("peer0.org1", "Org1MSP", 46, DefenseConfig::original());
        let err = p.endorse(&proposal("write", &["k1", "20"], 1)).unwrap_err();
        assert!(matches!(
            err,
            EndorseError::Chaincode(ChaincodeError::BusinessRule(_))
        ));
    }
}
