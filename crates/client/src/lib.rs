//! The client SDK: proposal creation, response checking, and transaction
//! assembly (Fig. 2, steps 1 and 6/11).
//!
//! An honest client:
//!
//! 1. builds a [`Proposal`] and sends it to the endorsers required by the
//!    endorsement policy;
//! 2. checks that all proposal responses returned **identical results**;
//! 3. assembles a [`Transaction`] from the agreed payload and the collected
//!    endorsements and submits it for ordering.
//!
//! Under New Feature 2 ([`DefenseConfig::hashed_payload_commitment`]) the
//! client additionally re-hashes the chaincode response payload, verifies
//! the endorsers' signatures over the hashed form, and assembles the
//! transaction from `(PR_Hash, Sign(PR_Hash))` — it keeps the plaintext for
//! itself, so committed blocks never carry the private value (§IV-C2).
//!
//! Malicious clients (see the attacks crate) skip the consistency checks
//! and choose endorsers adversarially; nothing in the protocol forces them
//! to behave.

use fabric_crypto::{sha256, Keypair};
use fabric_telemetry::{Telemetry, TraceContext};
use fabric_types::{
    ChaincodeId, ChannelId, DefenseConfig, Endorsement, Identity, OrgId, PayloadCommitment,
    Proposal, ProposalResponse, Role, Transaction,
};
use fabric_wire::Encode;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors assembling a transaction from proposal responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// No proposal responses were supplied.
    NoResponses,
    /// An endorsement signature failed to verify.
    InvalidEndorsement {
        /// The offending endorser (display form).
        endorser: String,
    },
    /// Endorsers returned different results — the client must abort
    /// (Fig. 2: "client checks if all the returned results are the same").
    InconsistentResponses,
    /// Responses mix commitment schemes (some plain, some hashed).
    MixedCommitments,
    /// The client expected New Feature 2 signatures but an endorser signed
    /// the plaintext form (e.g. an unpatched peer).
    ExpectedHashedCommitment,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::NoResponses => write!(f, "no proposal responses collected"),
            ClientError::InvalidEndorsement { endorser } => {
                write!(f, "endorsement by {endorser} failed verification")
            }
            ClientError::InconsistentResponses => {
                write!(f, "endorsers returned inconsistent results")
            }
            ClientError::MixedCommitments => {
                write!(f, "responses mix payload commitment schemes")
            }
            ClientError::ExpectedHashedCommitment => {
                write!(f, "expected hashed-payload signatures (new feature 2)")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A client application identity bound to one organization.
#[derive(Debug, Clone)]
pub struct Client {
    identity: Identity,
    keypair: Keypair,
    nonce: u64,
    defense: DefenseConfig,
    /// The attached pipeline and the node its spans name, `client.<org>`,
    /// built once on attach.
    telemetry: Option<(Telemetry, Arc<str>)>,
}

impl Client {
    /// Creates a client for `org`.
    pub fn new(org: impl Into<OrgId>, keypair: Keypair, defense: DefenseConfig) -> Self {
        let identity = Identity::new(org, Role::Client, keypair.public_key());
        Client {
            identity,
            keypair,
            nonce: 0,
            defense,
            telemetry: None,
        }
    }

    /// Attaches a shared telemetry pipeline; transaction assembly then
    /// records a `client.assemble` span in the transaction's trace.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        let node = Arc::from(format!("client.{}", self.identity.org));
        self.telemetry = Some((telemetry, node));
    }

    /// The client's identity.
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// Builds a proposal with a fresh nonce (and thus a fresh tx ID).
    pub fn create_proposal(
        &mut self,
        channel: impl Into<ChannelId>,
        chaincode: impl Into<ChaincodeId>,
        function: impl Into<String>,
        args: Vec<Vec<u8>>,
        transient: BTreeMap<String, Vec<u8>>,
    ) -> Proposal {
        self.nonce += 1;
        Proposal::new(
            channel,
            chaincode,
            function,
            args,
            transient,
            self.identity.clone(),
            self.nonce,
        )
    }

    /// Checks responses for consistency and assembles the transaction.
    ///
    /// Returns the transaction plus the plaintext chaincode response
    /// payload (what the caller asked the chaincode for; under Feature 2
    /// this plaintext never enters the transaction).
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; any failed verification or disagreement between
    /// endorsers aborts assembly.
    pub fn assemble_transaction(
        &self,
        proposal: &Proposal,
        responses: &[ProposalResponse],
    ) -> Result<(Transaction, Vec<u8>), ClientError> {
        let _span = self.telemetry.as_ref().map(|(t, node)| {
            let mut s = t.span("client.assemble");
            s.trace(TraceContext::for_tx(proposal.tx_id.as_str()));
            s.node(node);
            s.field("endorsements", responses.len());
            s
        });
        let first = responses.first().ok_or(ClientError::NoResponses)?;
        // Under Feature 2 the transaction carries the hashed payload form
        // the endorsers actually signed; otherwise the plaintext form.
        let tx_payload = match first.commitment {
            PayloadCommitment::Plain => first.payload.clone(),
            PayloadCommitment::HashedPayload => first.payload.to_hashed_payload_form(),
        };
        // Encoded once: every response that passes the equality checks
        // below signed exactly these bytes, and they are the client
        // tuple's middle segment.
        let payload_wire = tx_payload.to_wire();
        let payload_digest = sha256(&payload_wire);

        for r in responses {
            if r.commitment != first.commitment {
                return Err(ClientError::MixedCommitments);
            }
            if r.payload != first.payload {
                return Err(ClientError::InconsistentResponses);
            }
            let endorser = &r.endorsement.endorser;
            if !r
                .endorsement
                .signature
                .verify_digest(&endorser.public_key, &payload_digest)
            {
                return Err(ClientError::InvalidEndorsement {
                    endorser: endorser.to_string(),
                });
            }
        }
        if self.defense.hashed_payload_commitment
            && first.commitment != PayloadCommitment::HashedPayload
        {
            return Err(ClientError::ExpectedHashedCommitment);
        }

        let plaintext = first.payload.response.payload.clone();
        let endorsements: Vec<Endorsement> =
            responses.iter().map(|r| r.endorsement.clone()).collect();
        let client_signature = self.keypair.sign_digest(&Transaction::client_signed_digest(
            &proposal.tx_id,
            &payload_wire,
            &endorsements,
        ));
        // The memo stays cold: the fields are public and may be changed
        // before submission, and a memo filled here would then be stale.
        let tx = Transaction {
            tx_id: proposal.tx_id.clone(),
            channel: proposal.channel.clone(),
            chaincode: proposal.chaincode.clone(),
            creator: self.identity.clone(),
            payload: tx_payload,
            commitment: first.commitment,
            endorsements,
            client_signature,
            memo: Default::default(),
        };
        Ok((tx, plaintext))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::{sha256, Signature};
    use fabric_types::{ProposalResponsePayload, Response, TxRwSet};

    fn endorser(seed: u64) -> (Keypair, Identity) {
        let kp = Keypair::generate_from_seed(seed);
        let id = Identity::new("Org1MSP", Role::Peer, kp.public_key());
        (kp, id)
    }

    fn response_for(
        proposal: &Proposal,
        payload_bytes: &[u8],
        commitment: PayloadCommitment,
        seed: u64,
    ) -> ProposalResponse {
        let (kp, id) = endorser(seed);
        let payload = ProposalResponsePayload {
            proposal_hash: proposal.hash(),
            response: Response::ok(payload_bytes.to_vec()),
            results: TxRwSet::new(),
            event: None,
        };
        let signature = kp.sign(&payload.signed_bytes(commitment));
        ProposalResponse {
            payload,
            commitment,
            endorsement: Endorsement {
                endorser: id,
                signature,
            },
        }
    }

    fn client(defense: DefenseConfig) -> Client {
        Client::new("Org1MSP", Keypair::generate_from_seed(100), defense)
    }

    #[test]
    fn nonces_increment_per_proposal() {
        let mut c = client(DefenseConfig::original());
        let p1 = c.create_proposal("ch1", "cc", "f", vec![], BTreeMap::new());
        let p2 = c.create_proposal("ch1", "cc", "f", vec![], BTreeMap::new());
        assert_ne!(p1.tx_id, p2.tx_id);
    }

    #[test]
    fn assembles_plain_transaction() {
        let mut c = client(DefenseConfig::original());
        let p = c.create_proposal("ch1", "cc", "f", vec![], BTreeMap::new());
        let responses = vec![
            response_for(&p, b"value", PayloadCommitment::Plain, 201),
            response_for(&p, b"value", PayloadCommitment::Plain, 202),
        ];
        let (tx, plaintext) = c.assemble_transaction(&p, &responses).unwrap();
        assert_eq!(plaintext, b"value");
        // Plaintext is embedded in the transaction — the leakage vector.
        assert_eq!(tx.payload.response.payload, b"value");
        assert!(tx.verify_client_signature());
        assert!(tx.verify_endorsement_signatures());
    }

    /// The client hands out a cold memo: a transaction changed after
    /// assembly encodes and verifies as what it now is.
    #[test]
    fn a_transaction_tampered_after_assembly_encodes_and_fails_as_tampered() {
        use fabric_wire::Decode;
        let mut c = client(DefenseConfig::original());
        let p = c.create_proposal("ch1", "cc", "f", vec![], BTreeMap::new());
        let responses = vec![
            response_for(&p, b"value", PayloadCommitment::Plain, 212),
            response_for(&p, b"value", PayloadCommitment::Plain, 213),
        ];
        let (mut tx, _) = c.assemble_transaction(&p, &responses).unwrap();
        tx.payload.response.payload = b"forged".to_vec();
        let wire = tx.to_wire();
        let decoded = Transaction::from_wire(&wire).unwrap();
        assert_eq!(decoded.payload.response.payload, b"forged");
        assert!(tx.verify_signatures().is_some());
        assert!(decoded.verify_signatures().is_some());
    }

    #[test]
    fn feature2_transaction_contains_only_hash() {
        let mut c = client(DefenseConfig::feature2());
        let p = c.create_proposal("ch1", "cc", "f", vec![], BTreeMap::new());
        let responses = vec![
            response_for(&p, b"secret", PayloadCommitment::HashedPayload, 203),
            response_for(&p, b"secret", PayloadCommitment::HashedPayload, 204),
        ];
        let (tx, plaintext) = c.assemble_transaction(&p, &responses).unwrap();
        // The client got the plaintext...
        assert_eq!(plaintext, b"secret");
        // ...but the transaction carries only the SHA-256.
        assert_eq!(tx.payload.response.payload, sha256(b"secret").0.to_vec());
        assert!(tx.verify_endorsement_signatures());
        assert!(tx.verify_client_signature());
    }

    #[test]
    fn inconsistent_responses_abort() {
        let mut c = client(DefenseConfig::original());
        let p = c.create_proposal("ch1", "cc", "f", vec![], BTreeMap::new());
        let responses = vec![
            response_for(&p, b"a", PayloadCommitment::Plain, 205),
            response_for(&p, b"b", PayloadCommitment::Plain, 206),
        ];
        assert_eq!(
            c.assemble_transaction(&p, &responses),
            Err(ClientError::InconsistentResponses)
        );
    }

    #[test]
    fn bad_signature_aborts() {
        let mut c = client(DefenseConfig::original());
        let p = c.create_proposal("ch1", "cc", "f", vec![], BTreeMap::new());
        let mut r = response_for(&p, b"v", PayloadCommitment::Plain, 207);
        r.endorsement.signature = Signature::from_bytes([0u8; 32]);
        assert!(matches!(
            c.assemble_transaction(&p, &[r]),
            Err(ClientError::InvalidEndorsement { .. })
        ));
    }

    #[test]
    fn feature2_client_rejects_plain_signatures() {
        let mut c = client(DefenseConfig::feature2());
        let p = c.create_proposal("ch1", "cc", "f", vec![], BTreeMap::new());
        let r = response_for(&p, b"v", PayloadCommitment::Plain, 208);
        assert_eq!(
            c.assemble_transaction(&p, &[r]),
            Err(ClientError::ExpectedHashedCommitment)
        );
    }

    #[test]
    fn mixed_commitments_abort() {
        let mut c = client(DefenseConfig::original());
        let p = c.create_proposal("ch1", "cc", "f", vec![], BTreeMap::new());
        let responses = vec![
            response_for(&p, b"v", PayloadCommitment::Plain, 209),
            response_for(&p, b"v", PayloadCommitment::HashedPayload, 210),
        ];
        assert_eq!(
            c.assemble_transaction(&p, &responses),
            Err(ClientError::MixedCommitments)
        );
    }

    #[test]
    fn empty_responses_abort() {
        let c = client(DefenseConfig::original());
        let kp = Keypair::generate_from_seed(211);
        let p = Proposal::new(
            "ch1",
            "cc",
            "f",
            vec![],
            BTreeMap::new(),
            Identity::new("Org1MSP", Role::Client, kp.public_key()),
            1,
        );
        assert_eq!(
            c.assemble_transaction(&p, &[]),
            Err(ClientError::NoResponses)
        );
    }
}
