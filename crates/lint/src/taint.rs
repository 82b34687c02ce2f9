//! Shadow-tracking execution: sentinel seeding, traced runs, and
//! flow-path rendering.
//!
//! The tracker plants one high-entropy sentinel per collection in a
//! fresh world state, runs the chaincode with the stub's op log enabled,
//! and derives provenance by scanning every recorded operation (and the
//! response payload) for sentinel bytes. Dynamic taint via byte-matching
//! covers the full sink surface: public writes, events, cross-collection
//! copies, and response payloads.

use fabric_chaincode::{
    Chaincode, ChaincodeDefinition, ChaincodeError, ChaincodeStub, SimulationResult, StubOp,
};
use fabric_crypto::sha256;
use fabric_ledger::WorldState;
use fabric_types::{CollectionName, Identity, OrgId, Proposal, Role, Version};
use std::collections::{BTreeMap, HashSet};

/// The private key every collection is seeded under (and the key entry
/// points pass as their key argument, so reads find the seed).
pub const SEED_KEY: &str = "__flow_seed__";

/// The sentinel seeded as `collection`'s private value: unique per
/// collection (so cross-collection flows are attributable to their
/// source) and high-entropy (a hash-derived infix), so honest payloads
/// cannot contain it by accident.
pub fn sentinel_for(collection: &CollectionName) -> Vec<u8> {
    let digest = sha256(collection.as_str().as_bytes()).to_hex();
    format!("__flow:{}:{}__", collection.as_str(), &digest[..16]).into_bytes()
}

/// A high-entropy marker for client-supplied inputs. Distinct from every
/// collection sentinel, so data the *client* sent is never mistaken for
/// data read out of a collection.
pub fn input_token() -> Vec<u8> {
    let digest = sha256(b"__flow_input__").to_hex();
    format!("__flow:input:{}__", &digest[..16]).into_bytes()
}

/// Substring taint check.
pub fn carries(haystack: &[u8], sentinel: &[u8]) -> bool {
    haystack.len() >= sentinel.len() && haystack.windows(sentinel.len()).any(|w| w == sentinel)
}

/// One traced simulation: outcome, rwsets, and the shim-call log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintRun {
    /// The chaincode's response payload, or its error.
    pub outcome: Result<Vec<u8>, ChaincodeError>,
    /// The accumulated rwsets.
    pub results: SimulationResult,
    /// Every shim call, in execution order.
    pub ops: Vec<StubOp>,
}

impl TaintRun {
    /// The rendered taint trace for `sentinel`: the `Display` form of
    /// every op that carried it, in order. The first element is the
    /// source (the private read that introduced the taint).
    pub fn taint_steps(&self, sentinel: &[u8]) -> Vec<String> {
        self.ops
            .iter()
            .filter(|op| op.carried().is_some_and(|bytes| carries(bytes, sentinel)))
            .map(ToString::to_string)
            .collect()
    }

    /// Renders a complete source→sink flow path for `sentinel` ending at
    /// `sink` (a sink description such as `public world state`). Op
    /// renderings are value-free, so paths are deterministic even for
    /// nondeterministic chaincode.
    pub fn flow_path(&self, sentinel: &[u8], sink: &str) -> String {
        let mut steps = self.taint_steps(sentinel);
        steps.push(sink.to_string());
        format!("flow: {}", steps.join(" -> "))
    }
}

/// The shadow-tracking harness around [`ChaincodeStub`]: a seeded world
/// state plus one peer's collection memberships. Each [`run`](Self::run)
/// builds a fresh op-logging stub over the same snapshot, so repeated
/// runs are independent and comparable (the PDC017 determinism check).
#[derive(Debug)]
pub struct TaintStub<'a> {
    definition: &'a ChaincodeDefinition,
    state: WorldState,
    memberships: HashSet<CollectionName>,
}

impl<'a> TaintStub<'a> {
    /// A harness at an *omniscient* peer: member of every collection, so
    /// all code paths behind membership guards execute. Used for the
    /// sink-flow rules (PDC012–PDC016).
    pub fn omniscient(definition: &'a ChaincodeDefinition) -> Self {
        let memberships = definition.collections().map(|c| c.name.clone()).collect();
        TaintStub {
            definition,
            state: seeded_state(definition),
            memberships,
        }
    }

    /// A harness at `org`'s peer: member of exactly the collections the
    /// definition grants `org`. Used for the per-peer endorsement axis
    /// (PDC017).
    pub fn at_peer(definition: &'a ChaincodeDefinition, org: &OrgId) -> Self {
        let memberships = definition.memberships_of(org).into_iter().collect();
        TaintStub {
            definition,
            state: seeded_state(definition),
            memberships,
        }
    }

    /// Runs one traced invocation as `client`.
    pub fn run(
        &self,
        chaincode: &dyn Chaincode,
        function: &str,
        args: Vec<Vec<u8>>,
        transient: BTreeMap<String, Vec<u8>>,
        client: &Identity,
    ) -> TaintRun {
        let proposal = Proposal::new(
            "flow-channel",
            self.definition.id.clone(),
            function,
            args,
            transient,
            client.clone(),
            1,
        );
        let mut stub =
            ChaincodeStub::new(&self.state, self.definition, &self.memberships, &proposal);
        stub.enable_op_log();
        let outcome = chaincode.invoke(&mut stub);
        let (results, ops) = stub.into_results_and_ops();
        TaintRun {
            outcome,
            results,
            ops,
        }
    }
}

/// A deterministic client identity from `org`.
pub fn client_identity(org: &OrgId) -> Identity {
    let keypair = fabric_crypto::Keypair::generate_from_seed(0xf10a);
    Identity::new(org.clone(), Role::Client, keypair.public_key())
}

/// A world state with every collection seeded: its sentinel under
/// [`SEED_KEY`] (which also populates the replicated hashed store, so
/// `GetPrivateDataHash` resolves at every peer, as on Fabric).
fn seeded_state(definition: &ChaincodeDefinition) -> WorldState {
    let mut state = WorldState::new();
    for c in definition.collections() {
        state.put_private(
            &definition.id,
            &c.name,
            SEED_KEY,
            sentinel_for(&c.name),
            Version::new(1, 0),
        );
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_chaincode::samples::LeakyEscrow;
    use fabric_types::CollectionConfig;

    #[test]
    fn sentinels_are_distinct_per_collection_and_from_inputs() {
        let a = sentinel_for(&CollectionName::new("escrowCollection"));
        let b = sentinel_for(&CollectionName::new("auditCollection"));
        assert_ne!(a, b);
        assert!(!carries(&a, &b));
        assert!(!carries(&a, &input_token()));
        assert!(carries(&[b"x".as_slice(), &a, b"y"].concat(), &a));
    }

    #[test]
    fn omniscient_run_traces_a_leak_end_to_end() {
        let def = LeakyEscrow::default_definition();
        let harness = TaintStub::omniscient(&def);
        let escrow = CollectionName::new("escrowCollection");
        let run = harness.run(
            &LeakyEscrow::default(),
            "publish",
            vec![SEED_KEY.as_bytes().to_vec()],
            BTreeMap::new(),
            &client_identity(&OrgId::new("Org1MSP")),
        );
        assert!(run.outcome.is_ok());
        let sentinel = sentinel_for(&escrow);
        let steps = run.taint_steps(&sentinel);
        assert_eq!(steps.len(), 2, "{steps:?}");
        assert!(steps[0].starts_with("GetPrivateData(escrowCollection"));
        assert!(steps[1].starts_with("PutState"));
        let path = run.flow_path(&sentinel, "public world state");
        assert!(path.starts_with("flow: GetPrivateData"));
        assert!(path.ends_with("-> public world state"));
    }

    #[test]
    fn peer_harness_respects_memberships() {
        let def = LeakyEscrow::default_definition();
        // Org3 is only an audit member: reading escrow at its peer fails.
        let harness = TaintStub::at_peer(&def, &OrgId::new("Org3MSP"));
        let run = harness.run(
            &LeakyEscrow::default(),
            "peek",
            vec![SEED_KEY.as_bytes().to_vec()],
            BTreeMap::new(),
            &client_identity(&OrgId::new("Org3MSP")),
        );
        assert!(matches!(
            run.outcome,
            Err(ChaincodeError::PrivateDataUnavailable { .. })
        ));
        assert!(run.ops.is_empty());
    }

    #[test]
    fn seeded_state_serves_private_hashes_everywhere() {
        // put_private populates the replicated hashed store, so the
        // legitimate GetPrivateDataHash pattern works under analysis.
        let def = ChaincodeDefinition::new("cc").with_collection(CollectionConfig::membership_of(
            "pdc",
            &[OrgId::new("Org1MSP")],
        ));
        let harness = TaintStub::at_peer(&def, &OrgId::new("Org2MSP"));
        let run = harness.run(
            &|stub: &mut ChaincodeStub<'_>| {
                let found = stub
                    .get_private_data_hash(&CollectionName::new("pdc"), SEED_KEY)
                    .is_some();
                Ok(if found {
                    b"yes".to_vec()
                } else {
                    b"no".to_vec()
                })
            },
            "probe",
            vec![],
            BTreeMap::new(),
            &client_identity(&OrgId::new("Org2MSP")),
        );
        assert_eq!(run.outcome.unwrap(), b"yes");
    }
}
