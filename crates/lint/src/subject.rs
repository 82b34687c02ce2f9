//! The linter's structured input model.
//!
//! A [`LintSubject`] captures everything the rules need about one
//! chaincode deployment: channel membership, the chaincode-level
//! endorsement policy, each collection's configuration, and any known
//! private-data payload leaks. Facts are `Option` where a source may not
//! know them (a scanned JSON file omits fields; a live
//! [`ChaincodeDefinition`] knows everything) — rules stay silent on
//! unknowns rather than guessing.
//!
//! [`ChaincodeDefinition`]: fabric_chaincode::ChaincodeDefinition

use fabric_chaincode::ChaincodeDefinition;
use fabric_types::OrgId;
use std::fmt;

/// Which chaincode path leaked private data into the response payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LeakChannel {
    /// A read-style function returns `GetPrivateData` results (Listing 1).
    ReadPayload,
    /// A write-style function returns the value it passed to
    /// `PutPrivateData` (Listing 2).
    WritePayload,
}

impl fmt::Display for LeakChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeakChannel::ReadPayload => f.write_str("read"),
            LeakChannel::WritePayload => f.write_str("write"),
        }
    }
}

/// One known private-data payload leak.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LeakFact {
    /// Artifact the leaking function lives in (source file or chaincode
    /// pseudo-URI).
    pub uri: String,
    /// The leaking function's name.
    pub function: String,
    /// Leak direction.
    pub channel: LeakChannel,
}

/// What is known about one collection's configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CollectionFacts {
    /// Collection name.
    pub name: String,
    /// Artifact defining the collection.
    pub uri: String,
    /// Organizations matching the membership `Policy`.
    pub member_orgs: Vec<OrgId>,
    /// The collection-level `EndorsementPolicy` expression; `None` means
    /// the chaincode-level policy governs PDC writes.
    pub endorsement_policy: Option<String>,
    /// `RequiredPeerCount`, when known.
    pub required_peer_count: Option<u32>,
    /// `MaxPeerCount`, when known.
    pub max_peer_count: Option<u32>,
    /// `BlockToLive`, when known.
    pub block_to_live: Option<u64>,
    /// `MemberOnlyRead`, when known.
    pub member_only_read: Option<bool>,
    /// `MemberOnlyWrite`, when known.
    pub member_only_write: Option<bool>,
}

/// One unit of linting: a chaincode deployment or a scanned project.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintSubject {
    /// Subject name (project directory or chaincode ID).
    pub name: String,
    /// Root artifact URI used for subject-level findings.
    pub uri: String,
    /// All organizations on the channel. Empty means unknown — rules that
    /// reason about non-members stay silent.
    pub channel_orgs: Vec<OrgId>,
    /// The chaincode-level endorsement policy expression, when known.
    pub chaincode_policy: Option<String>,
    /// Collections defined for this chaincode.
    pub collections: Vec<CollectionFacts>,
    /// Known private-data payload leaks, from static scanning. Live
    /// chaincode gets its payload leaks from [`flow`](crate::flow)
    /// analysis instead.
    pub leaks: Vec<LeakFact>,
}

impl LintSubject {
    /// Builds a subject from a live chaincode definition, as agreed on the
    /// channel. `channel_orgs` lists every organization on the channel so
    /// the policy rules can reason about collection non-members.
    pub fn from_definition(definition: &ChaincodeDefinition, channel_orgs: &[OrgId]) -> Self {
        let uri = format!("network:{}", definition.id.as_str());
        LintSubject {
            name: definition.id.as_str().to_string(),
            uri: uri.clone(),
            channel_orgs: channel_orgs.to_vec(),
            chaincode_policy: Some(definition.endorsement_policy().to_string()),
            collections: definition
                .collections()
                .map(|c| CollectionFacts {
                    name: c.name.as_str().to_string(),
                    uri: uri.clone(),
                    member_orgs: definition
                        .members(&c.name)
                        .map(|orgs| orgs.iter().cloned().collect())
                        .unwrap_or_default(),
                    endorsement_policy: c.endorsement_policy.clone(),
                    required_peer_count: Some(c.required_peer_count),
                    max_peer_count: Some(c.max_peer_count),
                    block_to_live: Some(c.block_to_live),
                    member_only_read: Some(c.member_only_read),
                    member_only_write: Some(c.member_only_write),
                })
                .collect(),
            leaks: Vec::new(),
        }
    }

    /// The channel organizations that are *not* members of `collection`.
    pub fn non_members(&self, collection: &CollectionFacts) -> Vec<OrgId> {
        self.channel_orgs
            .iter()
            .filter(|o| !collection.member_orgs.contains(o))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::CollectionConfig;

    fn orgs(names: &[&str]) -> Vec<OrgId> {
        names.iter().map(|n| OrgId::new(*n)).collect()
    }

    #[test]
    fn from_definition_captures_all_facts() {
        let def = ChaincodeDefinition::new("trade")
            .with_endorsement_policy("ANY Endorsement")
            .with_collection(
                CollectionConfig::membership_of("sellerCollection", &orgs(&["Org1MSP"]))
                    .with_endorsement_policy("OR('Org1MSP.peer')")
                    .with_block_to_live(50),
            );
        let subject = LintSubject::from_definition(&def, &orgs(&["Org1MSP", "Org2MSP", "Org3MSP"]));
        assert_eq!(subject.name, "trade");
        assert_eq!(subject.uri, "network:trade");
        assert_eq!(subject.chaincode_policy.as_deref(), Some("ANY Endorsement"));
        let c = &subject.collections[0];
        assert_eq!(c.member_orgs, orgs(&["Org1MSP"]));
        assert_eq!(c.endorsement_policy.as_deref(), Some("OR('Org1MSP.peer')"));
        assert_eq!(c.block_to_live, Some(50));
        assert_eq!(c.member_only_read, Some(true));
        assert_eq!(c.member_only_write, Some(true));
        assert_eq!(subject.non_members(c), orgs(&["Org2MSP", "Org3MSP"]));
    }
}
