//! The channel-agreed chaincode definition.

use fabric_policy::{Policy, SignaturePolicy};
use fabric_types::{ChaincodeId, CollectionConfig, CollectionName, OrgId};
use std::collections::BTreeSet;

/// What the channel agreed on when the chaincode was committed: its name,
/// chaincode-level endorsement policy, and collection configurations.
///
/// Each policy expression is parsed once, when it enters the definition;
/// every reader (endorsement, validation, dissemination, discovery, lint)
/// asks the definition for the parsed form. An expression that does not
/// parse is kept as text and reads as no policy: validation then fails
/// the transaction as `BAD_PAYLOAD`, and a member policy names no org.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaincodeDefinition {
    /// Chaincode name (also the rwset namespace).
    pub id: ChaincodeId,
    endorsement_policy: String,
    endorsement: Option<Policy>,
    collections: Vec<Collection>,
}

/// One collection's config with its parsed policies.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Collection {
    config: CollectionConfig,
    /// Organizations the membership policy names; empty when it does not
    /// parse.
    members: BTreeSet<OrgId>,
    /// The collection-level endorsement policy: `None` when undefined,
    /// `Some(None)` when defined but unparsable.
    endorsement: Option<Option<SignaturePolicy>>,
}

impl ChaincodeDefinition {
    /// Creates a definition with the Fabric default chaincode-level policy
    /// (`MAJORITY Endorsement`) and no collections.
    pub fn new(id: impl Into<ChaincodeId>) -> Self {
        ChaincodeDefinition {
            id: id.into(),
            endorsement_policy: String::new(),
            endorsement: None,
            collections: Vec::new(),
        }
        .with_endorsement_policy("MAJORITY Endorsement")
    }

    /// Overrides the chaincode-level endorsement policy.
    pub fn with_endorsement_policy(mut self, policy: impl Into<String>) -> Self {
        self.endorsement_policy = policy.into();
        self.endorsement = Policy::parse(&self.endorsement_policy).ok();
        self
    }

    /// Adds a private data collection.
    ///
    /// # Panics
    ///
    /// Panics when the definition already has a collection of that name.
    pub fn with_collection(mut self, config: CollectionConfig) -> Self {
        assert!(
            self.collection(&config.name).is_none(),
            "collection {} is already defined",
            config.name
        );
        let members = SignaturePolicy::parse(&config.member_policy)
            .map(|p| p.organizations().into_iter().collect())
            .unwrap_or_default();
        let endorsement = config
            .endorsement_policy
            .as_deref()
            .map(|expr| SignaturePolicy::parse(expr).ok());
        self.collections.push(Collection {
            config,
            members,
            endorsement,
        });
        self
    }

    /// The chaincode-level endorsement policy expression. Defaults to the
    /// channel's implicitMeta `MAJORITY Endorsement` when projects don't
    /// override it — 116 of 120 GitHub configs do exactly that (§V-C2).
    pub fn endorsement_policy(&self) -> &str {
        &self.endorsement_policy
    }

    /// The parsed chaincode-level endorsement policy; `None` when the
    /// expression does not parse.
    pub fn endorsement(&self) -> Option<&Policy> {
        self.endorsement.as_ref()
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

    /// The parsed collection-level endorsement policy: outer `None` when
    /// the collection is unknown or defines no policy, inner `None` when
    /// the defined expression does not parse.
    pub fn collection_endorsement(
        &self,
        collection: &CollectionName,
    ) -> Option<Option<&SignaturePolicy>> {
        self.entry(collection)?
            .endorsement
            .as_ref()
            .map(Option::as_ref)
    }

    /// The member organizations of `collection`: those its membership
    /// policy names (membership policies are OR-of-members in practice).
    /// Empty when the policy does not parse; `None` for unknown
    /// collections.
    pub fn members(&self, collection: &CollectionName) -> Option<&BTreeSet<OrgId>> {
        self.entry(collection).map(|c| &c.members)
    }

    /// Whether `org` is a member of `collection`; `false` for unknown
    /// collections and unparsable membership policies.
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

    #[test]
    fn default_policy_is_majority_endorsement() {
        let def = ChaincodeDefinition::new("cc");
        assert_eq!(def.endorsement_policy(), "MAJORITY Endorsement");
        assert_eq!(
            def.endorsement(),
            Policy::parse("MAJORITY Endorsement").ok().as_ref()
        );
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
            Policy::parse("ANY Endorsement").ok().as_ref()
        );
        let (pdc1, pdc2) = (CollectionName::new("PDC1"), CollectionName::new("PDC2"));
        // PDC1 defines no collection-level endorsement policy.
        assert_eq!(def.collection_endorsement(&pdc1), None);
        assert_eq!(
            def.collection_endorsement(&pdc2),
            Some(SignaturePolicy::parse(expr).ok().as_ref())
        );
        let orgs: BTreeSet<OrgId> = [OrgId::new("Org1MSP"), OrgId::new("Org2MSP")].into();
        assert_eq!(def.members(&pdc2), Some(&orgs));
        assert_eq!(def.members(&CollectionName::new("nope")), None);
        let names: Vec<&str> = def.collections().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["PDC1", "PDC2"]);
    }

    #[test]
    fn unparsable_expressions_read_as_no_policy() {
        let def = ChaincodeDefinition::new("cc")
            .with_endorsement_policy("not a policy")
            .with_collection(
                CollectionConfig::new("PDC1", "OR('Org1MSP.member'")
                    .with_endorsement_policy("AND('Org1MSP.peer'"),
            );
        assert_eq!(def.endorsement_policy(), "not a policy");
        assert!(def.endorsement().is_none());
        let pdc1 = CollectionName::new("PDC1");
        // Defined but unparsable, unlike undefined.
        assert_eq!(def.collection_endorsement(&pdc1), Some(None));
        assert_eq!(def.members(&pdc1), Some(&BTreeSet::new()));
        assert!(!def.org_is_member(&OrgId::new("Org1MSP"), &pdc1));
        assert_eq!(
            def.collection(&pdc1).map(|c| c.member_policy.as_str()),
            Some("OR('Org1MSP.member'")
        );
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
    #[should_panic(expected = "collection PDC1 is already defined")]
    fn a_second_collection_of_the_same_name_is_refused() {
        let _ = definition().with_collection(CollectionConfig::new("PDC1", "OR('Org3MSP.member')"));
    }
}
