//! The security lattice derived from collection definitions.
//!
//! A datum's label is the set of organizations entitled to see it:
//! public state is [`Label::Public`] (everyone — the lattice bottom), and
//! data from a private collection carries [`Label::Members`] of the
//! collection's member-org set. *Fewer* members means *more*
//! confidential, so the partial order runs opposite to set inclusion:
//! `Members(A) ⊑ Members(B)` iff `B ⊆ A`, with `Members(∅)` (no one
//! entitled) as top. Combining data from two sources joins their labels —
//! the intersection of the member sets, since only orgs entitled to both
//! inputs are entitled to the mix.
//!
//! A flow from source label `src` into a sink whose audience is labeled
//! `sink` is safe iff `src ⊑ sink` — everyone who can observe the sink
//! was already entitled to the source.

use fabric_chaincode::ChaincodeDefinition;
use fabric_types::{CollectionName, OrgId};
use std::collections::BTreeSet;
use std::fmt;

/// A confidentiality label: which organizations may see the datum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Label {
    /// Public data — visible to the whole channel (lattice bottom).
    Public,
    /// Private data visible only to these member organizations.
    Members(BTreeSet<OrgId>),
}

impl Label {
    /// The label of a member-org list.
    pub fn members<I, O>(orgs: I) -> Self
    where
        I: IntoIterator<Item = O>,
        O: Into<OrgId>,
    {
        Label::Members(orgs.into_iter().map(Into::into).collect())
    }

    /// The label of `collection` under `definition`: its membership
    /// policy's org set. Unknown collections yield `Members(∅)` —
    /// maximally confidential, so analysis errs toward reporting rather
    /// than missing a flow.
    pub fn of_collection(definition: &ChaincodeDefinition, collection: &CollectionName) -> Self {
        Label::Members(definition.members(collection).cloned().unwrap_or_default())
    }

    /// Least upper bound: the label of data combining both inputs. Only
    /// organizations entitled to *both* sources are entitled to the mix,
    /// so member sets intersect; `Public` is the identity.
    pub fn join(&self, other: &Label) -> Label {
        match (self, other) {
            (Label::Public, x) | (x, Label::Public) => x.clone(),
            (Label::Members(a), Label::Members(b)) => {
                Label::Members(a.intersection(b).cloned().collect())
            }
        }
    }

    /// The partial order: `self ⊑ other` iff every organization that may
    /// see `other`-labeled data may also see `self`-labeled data — i.e.
    /// flowing `self` data into an `other`-audience sink loses nothing.
    pub fn leq(&self, other: &Label) -> bool {
        match (self, other) {
            (Label::Public, _) => true,
            (Label::Members(_), Label::Public) => false,
            (Label::Members(a), Label::Members(b)) => b.is_subset(a),
        }
    }

    /// Whether a single organization may observe data with this label.
    pub fn admits(&self, org: &OrgId) -> bool {
        match self {
            Label::Public => true,
            Label::Members(orgs) => orgs.contains(org),
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Public => f.write_str("public"),
            Label::Members(orgs) => {
                let names: Vec<&str> = orgs.iter().map(OrgId::as_str).collect();
                write!(f, "{{{}}}", names.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::CollectionConfig;

    fn m(orgs: &[&str]) -> Label {
        Label::members(orgs.iter().copied())
    }

    #[test]
    fn public_is_bottom() {
        assert!(Label::Public.leq(&Label::Public));
        assert!(Label::Public.leq(&m(&["Org1MSP"])));
        assert!(!m(&["Org1MSP"]).leq(&Label::Public));
    }

    #[test]
    fn empty_member_set_is_top() {
        let top = m(&[]);
        assert!(Label::Public.leq(&top));
        assert!(m(&["Org1MSP"]).leq(&top));
        assert!(m(&["Org1MSP", "Org2MSP"]).leq(&top));
        assert!(!top.leq(&m(&["Org1MSP"])));
    }

    #[test]
    fn subset_collections_order_correctly() {
        // {Org1} is strictly more confidential than {Org1, Org2}: data
        // may flow from the wider set into the narrower one, not back.
        let narrow = m(&["Org1MSP"]);
        let wide = m(&["Org1MSP", "Org2MSP"]);
        assert!(wide.leq(&narrow));
        assert!(!narrow.leq(&wide));
        // Reflexive.
        assert!(narrow.leq(&narrow));
        assert!(wide.leq(&wide));
    }

    #[test]
    fn disjoint_org_sets_are_incomparable() {
        let a = m(&["Org1MSP", "Org2MSP"]);
        let b = m(&["Org1MSP", "Org3MSP"]);
        assert!(!a.leq(&b));
        assert!(!b.leq(&a));
        let fully_disjoint = m(&["Org9MSP"]);
        assert!(!a.leq(&fully_disjoint));
        assert!(!fully_disjoint.leq(&a));
    }

    #[test]
    fn join_is_public_identity_and_intersects_members() {
        let a = m(&["Org1MSP", "Org2MSP"]);
        assert_eq!(Label::Public.join(&a), a);
        assert_eq!(a.join(&Label::Public), a);
        assert_eq!(Label::Public.join(&Label::Public), Label::Public);

        let b = m(&["Org2MSP", "Org3MSP"]);
        assert_eq!(a.join(&b), m(&["Org2MSP"]));
        // Disjoint sources join to top: nobody is entitled to the mix.
        assert_eq!(m(&["Org1MSP"]).join(&m(&["Org3MSP"])), m(&[]));
    }

    #[test]
    fn join_is_commutative_idempotent_and_upper_bound() {
        let labels = [
            Label::Public,
            m(&["Org1MSP"]),
            m(&["Org1MSP", "Org2MSP"]),
            m(&["Org2MSP", "Org3MSP"]),
            m(&[]),
        ];
        for a in &labels {
            assert_eq!(a.join(a), *a);
            for b in &labels {
                let j = a.join(b);
                assert_eq!(j, b.join(a));
                assert!(a.leq(&j), "{a} ⋢ {a} ⊔ {b}");
                assert!(b.leq(&j), "{b} ⋢ {a} ⊔ {b}");
            }
        }
    }

    #[test]
    fn collection_labels_come_from_membership_policies() {
        let def = ChaincodeDefinition::new("cc").with_collection(CollectionConfig::membership_of(
            "pdc",
            &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")],
        ));
        assert_eq!(
            Label::of_collection(&def, &CollectionName::new("pdc")),
            m(&["Org1MSP", "Org2MSP"])
        );
        // Unknown collection: maximally confidential.
        assert_eq!(
            Label::of_collection(&def, &CollectionName::new("ghost")),
            m(&[])
        );
    }

    #[test]
    fn admits_checks_one_observer() {
        assert!(Label::Public.admits(&OrgId::new("AnyMSP")));
        let a = m(&["Org1MSP"]);
        assert!(a.admits(&OrgId::new("Org1MSP")));
        assert!(!a.admits(&OrgId::new("Org2MSP")));
    }
}
