//! Channel-level policy configuration shared by all peers of a channel.

use fabric_policy::SignaturePolicy;
use fabric_types::OrgId;
use std::collections::BTreeMap;

/// The per-organization sub-policies an implicitMeta endorsement policy
/// (e.g. `MAJORITY Endorsement`) resolves against, from the channel
/// configuration (`configtx.yaml`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelPolicies {
    orgs: BTreeMap<OrgId, SignaturePolicy>,
}

impl ChannelPolicies {
    /// Builds the Fabric default: each org's `Endorsement` sub-policy is
    /// `OR('<org>.peer')` — any peer of the org can endorse for it.
    pub fn default_for(orgs: &[OrgId]) -> Self {
        let mut map = BTreeMap::new();
        for org in orgs {
            let expr = format!("OR('{}.peer')", org.as_str());
            map.insert(
                org.clone(),
                SignaturePolicy::parse(&expr).expect("generated policy parses"),
            );
        }
        ChannelPolicies { orgs: map }
    }

    /// The per-org sub-policy map used by implicitMeta evaluation.
    pub fn org_policies(&self) -> &BTreeMap<OrgId, SignaturePolicy> {
        &self.orgs
    }

    /// The participating organizations.
    pub fn orgs(&self) -> impl Iterator<Item = &OrgId> {
        self.orgs.keys()
    }

    /// Number of participating organizations.
    pub fn len(&self) -> usize {
        self.orgs.len()
    }

    /// Whether no organizations are configured.
    pub fn is_empty(&self) -> bool {
        self.orgs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::Keypair;
    use fabric_types::{Identity, Role};

    #[test]
    fn default_sub_policy_accepts_any_org_peer() {
        let orgs = vec![OrgId::new("Org1MSP"), OrgId::new("Org2MSP")];
        let policies = ChannelPolicies::default_for(&orgs);
        assert_eq!(policies.len(), 2);
        let p1 = Identity::new(
            "Org1MSP",
            Role::Peer,
            Keypair::generate_from_seed(1).public_key(),
        );
        assert!(policies.org_policies()[&orgs[0]].satisfied_by(std::slice::from_ref(&p1)));
        assert!(!policies.org_policies()[&orgs[1]].satisfied_by(&[p1]));
    }
}
