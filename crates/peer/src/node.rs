//! The peer node: identity, ledger, installed chaincodes.

use fabric_chaincode::{ChaincodeDefinition, ChaincodeHandle, DefinitionError};
use fabric_crypto::Keypair;
use fabric_gossip::PeerId;
use fabric_ledger::{BlockStore, HistoryDb, WorldState};
use fabric_policy::{ChannelPolicies, PolicyCache};
use fabric_telemetry::Telemetry;
use fabric_types::{ChaincodeId, ChannelId, CollectionName, DefenseConfig, Identity, OrgId, Role};
use std::collections::{HashMap, HashSet};

/// A chaincode installed on a peer: the channel-agreed definition plus this
/// peer's (possibly customized!) implementation.
#[derive(Clone)]
pub struct InstalledChaincode {
    /// The channel-agreed definition (policies, parsed, and collections).
    pub definition: ChaincodeDefinition,
    /// This peer's implementation. Fabric only requires equal *results*
    /// across endorsers, so organizations may extend or replace the logic —
    /// the customizable-chaincode feature malicious orgs abuse (§IV-A1).
    pub handle: ChaincodeHandle,
    /// Collections of this chaincode the peer's org is a member of.
    pub memberships: HashSet<CollectionName>,
}

impl std::fmt::Debug for InstalledChaincode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstalledChaincode")
            .field("definition", &self.definition.id)
            .field("memberships", &self.memberships)
            .finish()
    }
}

/// A peer node of one organization in one channel.
#[derive(Debug, Clone)]
pub struct Peer {
    pub(crate) gossip_id: PeerId,
    pub(crate) identity: Identity,
    pub(crate) keypair: Keypair,
    pub(crate) channel: ChannelId,
    pub(crate) world_state: WorldState,
    pub(crate) block_store: BlockStore,
    pub(crate) history: HistoryDb,
    pub(crate) chaincodes: HashMap<ChaincodeId, InstalledChaincode>,
    pub(crate) channel_policies: ChannelPolicies,
    pub(crate) defense: DefenseConfig,
    /// Interned state-based-endorsement policy expressions (the key-level
    /// validation parameters live in the world state as strings).
    pub(crate) sbe_policies: PolicyCache,
    /// Shared observability pipeline with pre-resolved metric handles;
    /// `None` (the default) keeps the hot paths instrumentation-free.
    pub(crate) telemetry: Option<crate::telemetry::PeerTelemetry>,
}

impl Peer {
    /// Creates a peer for `org` in `channel`.
    pub fn new(
        name: impl Into<String>,
        org: impl Into<OrgId>,
        channel: impl Into<ChannelId>,
        channel_policies: ChannelPolicies,
        keypair: Keypair,
        defense: DefenseConfig,
    ) -> Self {
        let name = name.into();
        let org = org.into();
        let identity = Identity::new(org, Role::Peer, keypair.public_key());
        Peer {
            gossip_id: PeerId::new(name),
            identity,
            keypair,
            channel: channel.into(),
            world_state: WorldState::new(),
            block_store: BlockStore::new(),
            history: HistoryDb::new(),
            chaincodes: HashMap::new(),
            channel_policies,
            defense,
            sbe_policies: PolicyCache::new(),
            telemetry: None,
        }
    }

    /// Installs a chaincode: the shared definition plus this peer's own
    /// implementation (pass a malicious variant here to model colluding
    /// organizations). This is where a definition is checked against the
    /// channel, as Fabric's lifecycle validates it before commit.
    ///
    /// # Errors
    ///
    /// The [`DefinitionError`] of a definition this channel cannot run
    /// (see [`ChaincodeDefinition::check`]); nothing is installed.
    pub fn install_chaincode(
        &mut self,
        definition: ChaincodeDefinition,
        handle: ChaincodeHandle,
    ) -> Result<(), DefinitionError> {
        definition.check(&self.channel_policies)?;
        let memberships: HashSet<CollectionName> = definition
            .memberships_of(&self.identity.org)
            .into_iter()
            .collect();
        self.chaincodes.insert(
            definition.id.clone(),
            InstalledChaincode {
                definition,
                handle,
                memberships,
            },
        );
        Ok(())
    }

    /// The peer's gossip identifier.
    pub fn gossip_id(&self) -> &PeerId {
        &self.gossip_id
    }

    /// The peer's signing identity.
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// The peer's organization.
    pub fn org(&self) -> &OrgId {
        &self.identity.org
    }

    /// The channel this peer serves.
    pub fn channel(&self) -> &ChannelId {
        &self.channel
    }

    /// The active defense configuration.
    pub fn defense(&self) -> DefenseConfig {
        self.defense
    }

    /// Replaces the defense configuration (used by experiments to compare
    /// original vs. modified framework on the same network).
    pub fn set_defense(&mut self, defense: DefenseConfig) {
        self.defense = defense;
    }

    /// Attaches a shared telemetry pipeline. Endorsement and block
    /// validation then record spans, metrics, and [`fabric_telemetry::
    /// AuditEvent`]s into it; without one the hot paths stay
    /// instrumentation-free (a single branch per block).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(crate::telemetry::PeerTelemetry::new(telemetry));
    }

    /// The attached telemetry pipeline, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref().map(|t| &t.telemetry)
    }

    /// Read access to the world state.
    pub fn world_state(&self) -> &WorldState {
        &self.world_state
    }

    /// Read access to the local blockchain. Any peer can scan this —
    /// including PDC non-members, which is how leakage extraction works
    /// (§IV-B).
    pub fn block_store(&self) -> &BlockStore {
        &self.block_store
    }

    /// The channel-level per-org sub-policies (for implicitMeta
    /// evaluation and service discovery).
    pub fn channel_policies(&self) -> &ChannelPolicies {
        &self.channel_policies
    }

    /// The committed-write history index (`GetHistoryForKey` backing).
    pub fn history(&self) -> &HistoryDb {
        &self.history
    }

    /// The installed chaincode record, if present.
    pub fn chaincode(&self, id: &ChaincodeId) -> Option<&InstalledChaincode> {
        self.chaincodes.get(id)
    }

    /// Every installed chaincode record, in no particular order.
    pub fn chaincodes(&self) -> impl Iterator<Item = &InstalledChaincode> {
        self.chaincodes.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_chaincode::samples::AssetTransfer;
    use fabric_types::CollectionConfig;
    use std::sync::Arc;

    #[test]
    fn install_derives_memberships() {
        let orgs = vec![
            OrgId::new("Org1MSP"),
            OrgId::new("Org2MSP"),
            OrgId::new("Org3MSP"),
        ];
        let policies = ChannelPolicies::default_for(&orgs);
        let mut p1 = Peer::new(
            "peer0.org1",
            "Org1MSP",
            "ch1",
            policies.clone(),
            Keypair::generate_from_seed(31),
            DefenseConfig::original(),
        );
        let mut p3 = Peer::new(
            "peer0.org3",
            "Org3MSP",
            "ch1",
            policies,
            Keypair::generate_from_seed(33),
            DefenseConfig::original(),
        );
        let def = ChaincodeDefinition::new("cc")
            .with_collection(CollectionConfig::membership_of("PDC1", &orgs[..2]));
        p1.install_chaincode(def.clone(), Arc::new(AssetTransfer))
            .unwrap();
        p3.install_chaincode(def, Arc::new(AssetTransfer)).unwrap();
        let cc = ChaincodeId::new("cc");
        let pdc1 = CollectionName::new("PDC1");
        let is_member = |p: &Peer| p.chaincode(&cc).unwrap().memberships.contains(&pdc1);
        assert!(is_member(&p1));
        assert!(!is_member(&p3));
        assert!(p1.chaincode(&ChaincodeId::new("nope")).is_none());
    }
}
