//! The channel-agreed chaincode definition.

use fabric_policy::{
    ChannelPolicies, ImplicitMetaPolicy, ImplicitMetaRule, ParsePolicyError, Policy,
    SignaturePolicy,
};
use fabric_types::{ChaincodeId, CollectionConfig, CollectionName, OrgId};
use std::collections::BTreeSet;
use std::fmt;

/// What the channel agreed on when the chaincode was committed: its name,
/// chaincode-level endorsement policy, and collection configurations.
///
/// Each policy expression is parsed once, when it enters the definition;
/// every reader (endorsement, validation, dissemination, discovery, lint)
/// asks the definition for the parsed form. A part the builder cannot
/// accept — a policy that does not parse, a second collection of one
/// name, `RequiredPeerCount` above `MaxPeerCount` — is not applied: the
/// builder records the first such refusal, and [`check`](Self::check)
/// returns it, so a peer refuses to install the definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaincodeDefinition {
    /// Chaincode name (also the rwset namespace).
    pub id: ChaincodeId,
    endorsement_policy: String,
    endorsement: Policy,
    collections: Vec<Collection>,
    /// The first part the builder refused.
    refused: Option<DefinitionError>,
}

/// One collection's config with its parsed policies.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Collection {
    config: CollectionConfig,
    /// Organizations the membership policy names.
    members: BTreeSet<OrgId>,
    /// The collection-level endorsement policy; `None` when undefined.
    endorsement: Option<SignaturePolicy>,
}

/// Why a chaincode definition cannot be installed on a channel. Each
/// variant names the field, as Fabric's definition and
/// `collections_config.json` spell it, and the collection when there is
/// one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DefinitionError {
    /// The chaincode-level `EndorsementPolicy` does not parse.
    UnparsableEndorsementPolicy(ParsePolicyError),
    /// A collection's membership `Policy` does not parse.
    UnparsableMemberPolicy {
        /// The refused collection.
        collection: CollectionName,
        /// Why the expression does not parse.
        error: ParsePolicyError,
    },
    /// A collection's `EndorsementPolicy` does not parse. Read as
    /// undefined, it would silently fall back to the chaincode-level
    /// policy (the paper's Use Case 2).
    UnparsableCollectionEndorsementPolicy {
        /// The refused collection.
        collection: CollectionName,
        /// Why the expression does not parse.
        error: ParsePolicyError,
    },
    /// A second collection with an existing `Name`.
    DuplicateCollection(CollectionName),
    /// A collection's `RequiredPeerCount` exceeds its `MaxPeerCount`.
    RequiredAboveMax {
        /// The refused collection.
        collection: CollectionName,
        /// `RequiredPeerCount`.
        required: u32,
        /// `MaxPeerCount`.
        max: u32,
    },
    /// A collection's membership `Policy` names an organization the
    /// channel does not have.
    UnknownMemberOrg {
        /// The refused collection.
        collection: CollectionName,
        /// The first such organization.
        org: OrgId,
    },
    /// The chaincode-level implicitMeta `EndorsementPolicy` names a
    /// sub-policy that no organization of the channel defines, so no
    /// endorsement could ever satisfy it.
    UndefinedSubPolicy(String),
}

impl fmt::Display for DefinitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefinitionError::UnparsableEndorsementPolicy(error) => {
                write!(f, "EndorsementPolicy: {error}")
            }
            DefinitionError::UnparsableMemberPolicy { collection, error } => {
                write!(f, "collection {collection}: Policy: {error}")
            }
            DefinitionError::UnparsableCollectionEndorsementPolicy { collection, error } => {
                write!(f, "collection {collection}: EndorsementPolicy: {error}")
            }
            DefinitionError::DuplicateCollection(collection) => {
                write!(f, "collection {collection}: Name: already defined")
            }
            DefinitionError::RequiredAboveMax {
                collection,
                required,
                max,
            } => write!(
                f,
                "collection {collection}: RequiredPeerCount {required} exceeds MaxPeerCount {max}"
            ),
            DefinitionError::UnknownMemberOrg { collection, org } => write!(
                f,
                "collection {collection}: Policy: {org} is not an organization of this channel"
            ),
            DefinitionError::UndefinedSubPolicy(name) => write!(
                f,
                "EndorsementPolicy: no organization of this channel defines the sub-policy {name}"
            ),
        }
    }
}

impl std::error::Error for DefinitionError {}

impl ChaincodeDefinition {
    /// Creates a definition with the Fabric default chaincode-level policy
    /// (`MAJORITY Endorsement`) and no collections.
    pub fn new(id: impl Into<ChaincodeId>) -> Self {
        ChaincodeDefinition {
            id: id.into(),
            endorsement_policy: "MAJORITY Endorsement".into(),
            endorsement: Policy::ImplicitMeta(ImplicitMetaPolicy {
                rule: ImplicitMetaRule::Majority,
                sub_policy: "Endorsement".into(),
            }),
            collections: Vec::new(),
            refused: None,
        }
    }

    /// Overrides the chaincode-level endorsement policy. An expression
    /// that does not parse is refused (see [`check`](Self::check)) and
    /// leaves the policy as it was.
    pub fn with_endorsement_policy(mut self, policy: impl Into<String>) -> Self {
        let text = policy.into();
        match Policy::parse(&text) {
            Ok(parsed) => {
                self.endorsement_policy = text;
                self.endorsement = parsed;
            }
            Err(error) => self.refuse(DefinitionError::UnparsableEndorsementPolicy(error)),
        }
        self
    }

    /// Adds a private data collection. A collection the definition cannot
    /// hold — a name it already has, a policy that does not parse,
    /// `RequiredPeerCount` above `MaxPeerCount` — is refused (see
    /// [`check`](Self::check)) and not added.
    pub fn with_collection(mut self, config: CollectionConfig) -> Self {
        match self.parse_collection(config) {
            Ok(collection) => self.collections.push(collection),
            Err(error) => self.refuse(error),
        }
        self
    }

    fn parse_collection(&self, config: CollectionConfig) -> Result<Collection, DefinitionError> {
        let collection = || config.name.clone();
        if self.entry(&config.name).is_some() {
            return Err(DefinitionError::DuplicateCollection(collection()));
        }
        let members = SignaturePolicy::parse(&config.member_policy)
            .map_err(|error| DefinitionError::UnparsableMemberPolicy {
                collection: collection(),
                error,
            })?
            .organizations()
            .into_iter()
            .collect();
        let (required, max) = (config.required_peer_count, config.max_peer_count);
        if required > max {
            return Err(DefinitionError::RequiredAboveMax {
                collection: collection(),
                required,
                max,
            });
        }
        let endorsement = config
            .endorsement_policy
            .as_deref()
            .map(SignaturePolicy::parse)
            .transpose()
            .map_err(
                |error| DefinitionError::UnparsableCollectionEndorsementPolicy {
                    collection: collection(),
                    error,
                },
            )?;
        Ok(Collection {
            config,
            members,
            endorsement,
        })
    }

    /// Records `error` unless an earlier part was refused already.
    fn refuse(&mut self, error: DefinitionError) {
        self.refused.get_or_insert(error);
    }

    /// Whether this definition can be installed on a channel with these
    /// sub-policies: the first part the builder refused, else an
    /// implicitMeta chaincode-level policy whose sub-policy name no
    /// channel organization defines, else the first collection whose
    /// membership policy names an organization the channel does not have.
    ///
    /// # Errors
    ///
    /// The [`DefinitionError`] naming the refused field.
    pub fn check(&self, channel: &ChannelPolicies) -> Result<(), DefinitionError> {
        if let Some(error) = &self.refused {
            return Err(error.clone());
        }
        if let Policy::ImplicitMeta(meta) = &self.endorsement {
            if !channel.defines(&meta.sub_policy) {
                return Err(DefinitionError::UndefinedSubPolicy(meta.sub_policy.clone()));
            }
        }
        for c in &self.collections {
            if let Some(org) = c.members.iter().find(|org| !channel.has_org(org)) {
                return Err(DefinitionError::UnknownMemberOrg {
                    collection: c.config.name.clone(),
                    org: org.clone(),
                });
            }
        }
        Ok(())
    }

    /// The chaincode-level endorsement policy expression. Defaults to the
    /// channel's implicitMeta `MAJORITY Endorsement` when projects don't
    /// override it — 116 of 120 GitHub configs do exactly that (§V-C2).
    pub fn endorsement_policy(&self) -> &str {
        &self.endorsement_policy
    }

    /// The parsed chaincode-level endorsement policy.
    pub fn endorsement(&self) -> &Policy {
        &self.endorsement
    }

    /// The private data collections defined for this chaincode, in the
    /// order they were added.
    pub fn collections(&self) -> impl Iterator<Item = &CollectionConfig> {
        self.collections.iter().map(|c| &c.config)
    }

    fn entry(&self, name: &CollectionName) -> Option<&Collection> {
        self.collections.iter().find(|c| &c.config.name == name)
    }

    /// Looks up a collection config by name.
    pub fn collection(&self, name: &CollectionName) -> Option<&CollectionConfig> {
        self.entry(name).map(|c| &c.config)
    }

    /// The parsed collection-level endorsement policy; `None` when the
    /// collection is unknown or defines no policy.
    pub fn collection_endorsement(&self, collection: &CollectionName) -> Option<&SignaturePolicy> {
        self.entry(collection)?.endorsement.as_ref()
    }

    /// The member organizations of `collection`: those its membership
    /// policy names (membership policies are OR-of-members in practice).
    /// `None` for unknown collections.
    pub fn members(&self, collection: &CollectionName) -> Option<&BTreeSet<OrgId>> {
        self.entry(collection).map(|c| &c.members)
    }

    /// Whether `org` is a member of `collection`; `false` for unknown
    /// collections.
    pub fn org_is_member(&self, org: &OrgId, collection: &CollectionName) -> bool {
        self.members(collection)
            .is_some_and(|orgs| orgs.contains(org))
    }

    /// The collections `org` is a member of, in definition order.
    pub fn memberships_of(&self, org: &OrgId) -> Vec<CollectionName> {
        self.collections
            .iter()
            .filter(|c| c.members.contains(org))
            .map(|c| c.config.name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn definition() -> ChaincodeDefinition {
        ChaincodeDefinition::new("cc").with_collection(CollectionConfig::membership_of(
            "PDC1",
            &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")],
        ))
    }

    fn channel(orgs: &[&str]) -> ChannelPolicies {
        let orgs: Vec<OrgId> = orgs.iter().map(|o| OrgId::new(*o)).collect();
        ChannelPolicies::default_for(&orgs)
    }

    fn parse_error(expr: &str) -> ParsePolicyError {
        SignaturePolicy::parse(expr).unwrap_err()
    }

    #[test]
    fn default_policy_is_majority_endorsement() {
        let def = ChaincodeDefinition::new("cc");
        assert_eq!(def.endorsement_policy(), "MAJORITY Endorsement");
        assert_eq!(
            def.endorsement(),
            &Policy::parse("MAJORITY Endorsement").unwrap()
        );
        assert_eq!(def.check(&channel(&["Org1MSP"])), Ok(()));
    }

    #[test]
    fn membership_follows_collection_policy() {
        let def = definition();
        let pdc1 = CollectionName::new("PDC1");
        assert!(def.org_is_member(&OrgId::new("Org1MSP"), &pdc1));
        assert!(def.org_is_member(&OrgId::new("Org2MSP"), &pdc1));
        assert!(!def.org_is_member(&OrgId::new("Org3MSP"), &pdc1));
        assert!(!def.org_is_member(&OrgId::new("Org1MSP"), &CollectionName::new("nope")));
    }

    #[test]
    fn parsed_policies_match_the_text() {
        let expr = "AND('Org1MSP.peer','Org2MSP.peer')";
        let def = definition()
            .with_endorsement_policy("ANY Endorsement")
            .with_collection(CollectionConfig::new("PDC2", expr).with_endorsement_policy(expr));
        assert_eq!(def.endorsement_policy(), "ANY Endorsement");
        assert_eq!(
            def.endorsement(),
            &Policy::parse("ANY Endorsement").unwrap()
        );
        let (pdc1, pdc2) = (CollectionName::new("PDC1"), CollectionName::new("PDC2"));
        // PDC1 defines no collection-level endorsement policy.
        assert_eq!(def.collection_endorsement(&pdc1), None);
        assert_eq!(
            def.collection_endorsement(&pdc2),
            Some(&SignaturePolicy::parse(expr).unwrap())
        );
        let orgs: BTreeSet<OrgId> = [OrgId::new("Org1MSP"), OrgId::new("Org2MSP")].into();
        assert_eq!(def.members(&pdc2), Some(&orgs));
        assert_eq!(def.members(&CollectionName::new("nope")), None);
        let names: Vec<&str> = def.collections().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["PDC1", "PDC2"]);
        assert_eq!(def.check(&channel(&["Org1MSP", "Org2MSP"])), Ok(()));
    }

    #[test]
    fn unparsable_expressions_are_refused_and_not_applied() {
        let any_channel = channel(&["Org1MSP"]);
        let def = definition().with_endorsement_policy("not a policy");
        assert_eq!(def.endorsement_policy(), "MAJORITY Endorsement");
        assert_eq!(def.endorsement(), definition().endorsement());
        assert_eq!(
            def.check(&any_channel),
            Err(DefinitionError::UnparsableEndorsementPolicy(
                Policy::parse("not a policy").unwrap_err()
            ))
        );

        let pdc2 = CollectionName::new("PDC2");
        let def =
            definition().with_collection(CollectionConfig::new("PDC2", "OR('Org1MSP.member'"));
        assert_eq!(def.collection(&pdc2), None);
        assert_eq!(
            def.check(&any_channel),
            Err(DefinitionError::UnparsableMemberPolicy {
                collection: pdc2.clone(),
                error: parse_error("OR('Org1MSP.member'"),
            })
        );

        let def = definition().with_collection(
            CollectionConfig::new("PDC2", "OR('Org1MSP.member')")
                .with_endorsement_policy("AND('Org1MSP.peer'"),
        );
        // Not read as undefined: that would fall back to the chaincode
        // policy (Use Case 2).
        assert_eq!(def.collection(&pdc2), None);
        assert_eq!(def.collection_endorsement(&pdc2), None);
        let refusal = DefinitionError::UnparsableCollectionEndorsementPolicy {
            collection: pdc2,
            error: parse_error("AND('Org1MSP.peer'"),
        };
        assert_eq!(def.check(&any_channel), Err(refusal.clone()));

        // The first refusal is the one reported; later parts still apply.
        let def = def
            .with_endorsement_policy("MAJORTY Endorsement")
            .with_endorsement_policy("ANY Endorsement");
        assert_eq!(def.endorsement_policy(), "ANY Endorsement");
        assert_eq!(def.check(&any_channel), Err(refusal));
    }

    #[test]
    fn memberships_of_lists_collections() {
        let def = definition();
        assert_eq!(
            def.memberships_of(&OrgId::new("Org1MSP")),
            vec![CollectionName::new("PDC1")]
        );
        assert!(def.memberships_of(&OrgId::new("Org3MSP")).is_empty());
    }

    #[test]
    fn a_second_collection_of_the_same_name_is_refused() {
        let def =
            definition().with_collection(CollectionConfig::new("PDC1", "OR('Org3MSP.member')"));
        let pdc1 = CollectionName::new("PDC1");
        assert_eq!(def.collections().count(), 1);
        assert!(!def.org_is_member(&OrgId::new("Org3MSP"), &pdc1));
        assert_eq!(
            def.check(&channel(&["Org1MSP", "Org2MSP", "Org3MSP"])),
            Err(DefinitionError::DuplicateCollection(pdc1))
        );
    }

    #[test]
    fn required_above_max_is_refused() {
        let mut cfg = CollectionConfig::new("PDC2", "OR('Org1MSP.member')");
        (cfg.required_peer_count, cfg.max_peer_count) = (3, 2);
        let def = definition().with_collection(cfg);
        assert_eq!(def.collections().count(), 1);
        assert_eq!(
            def.check(&channel(&["Org1MSP", "Org2MSP"])),
            Err(DefinitionError::RequiredAboveMax {
                collection: CollectionName::new("PDC2"),
                required: 3,
                max: 2,
            })
        );
    }

    #[test]
    fn the_channel_must_know_every_member_and_sub_policy() {
        let def = definition();
        assert_eq!(def.check(&channel(&["Org1MSP", "Org2MSP"])), Ok(()));
        assert_eq!(
            def.check(&channel(&["Org1MSP", "Org3MSP"])),
            Err(DefinitionError::UnknownMemberOrg {
                collection: CollectionName::new("PDC1"),
                org: OrgId::new("Org2MSP"),
            })
        );
        let misspelt = definition().with_endorsement_policy("MAJORITY Endorsment");
        assert_eq!(
            misspelt.check(&channel(&["Org1MSP", "Org2MSP"])),
            Err(DefinitionError::UndefinedSubPolicy("Endorsment".into()))
        );
        // A signature policy may name any org: only members must exist.
        let explicit = definition().with_endorsement_policy("OR('Org9MSP.peer')");
        assert_eq!(explicit.check(&channel(&["Org1MSP", "Org2MSP"])), Ok(()));
    }
}
