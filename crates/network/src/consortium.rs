//! Multi-channel consortia: the paper's Fig. 1 topology.
//!
//! A consortium groups organizations into multiple channels for different
//! business goals; each channel maintains a **separate ledger**, and an
//! organization participating in several channels uses the same enrolled
//! identities in all of them. Outsiders of a channel cannot access its
//! ledger — the isolation the PDC mechanism then refines *within* a
//! channel.

use crate::builder::NetworkBuilder;
use crate::net::FabricNetwork;
use fabric_types::ChannelId;
use std::collections::BTreeMap;

/// A consortium of organizations operating any number of channels.
///
/// Channels created through one consortium share the seed, so an
/// organization's peer and client identities are identical across its
/// channels (verified by the integration tests).
#[derive(Debug)]
pub struct Consortium {
    seed: u64,
    channels: BTreeMap<ChannelId, FabricNetwork>,
}

impl Consortium {
    /// Creates an empty consortium.
    pub fn new(seed: u64) -> Self {
        Consortium {
            seed,
            channels: BTreeMap::new(),
        }
    }

    /// Creates a channel joining the given organizations.
    ///
    /// # Panics
    ///
    /// Panics when the channel already exists or `orgs` is empty.
    pub fn create_channel(&mut self, name: &str, orgs: &[&str]) -> &mut FabricNetwork {
        let id = ChannelId::new(name);
        assert!(
            !self.channels.contains_key(&id),
            "channel {name:?} already exists"
        );
        let net = NetworkBuilder::new(name).orgs(orgs).seed(self.seed).build();
        self.channels.insert(id.clone(), net);
        self.channels.get_mut(&id).expect("just inserted")
    }

    /// Read access to a channel.
    ///
    /// # Panics
    ///
    /// Panics when the channel does not exist.
    pub fn channel(&self, name: &str) -> &FabricNetwork {
        &self.channels[&ChannelId::new(name)]
    }

    /// Mutable access to a channel.
    ///
    /// # Panics
    ///
    /// Panics when the channel does not exist.
    pub fn channel_mut(&mut self, name: &str) -> &mut FabricNetwork {
        self.channels
            .get_mut(&ChannelId::new(name))
            .expect("unknown channel")
    }

    /// The channel names, in order.
    pub fn channel_names(&self) -> Vec<String> {
        self.channels.keys().map(|c| c.to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_are_created_and_listed() {
        let mut consortium = Consortium::new(9);
        consortium.create_channel("c1", &["Org1MSP", "Org2MSP"]);
        consortium.create_channel("c2", &["Org2MSP"]);
        assert_eq!(consortium.channel_names(), vec!["c1", "c2"]);
        assert_eq!(consortium.channel("c1").orgs().len(), 2);
        assert_eq!(consortium.channel("c2").orgs().len(), 1);
    }

    #[test]
    fn shared_org_keeps_one_identity_across_channels() {
        let mut consortium = Consortium::new(10);
        consortium.create_channel("c1", &["Org1MSP", "Org2MSP"]);
        consortium.create_channel("c2", &["Org2MSP", "Org3MSP"]);
        let p2_on_c1 = consortium
            .channel("c1")
            .peer("peer0.org2")
            .identity()
            .clone();
        let p2_on_c2 = consortium
            .channel("c2")
            .peer("peer0.org2")
            .identity()
            .clone();
        assert_eq!(p2_on_c1.public_key, p2_on_c2.public_key);
        // Distinct orgs still have distinct identities.
        let p1 = consortium
            .channel("c1")
            .peer("peer0.org1")
            .identity()
            .clone();
        assert_ne!(p1.public_key, p2_on_c1.public_key);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_channel_rejected() {
        let mut consortium = Consortium::new(11);
        consortium.create_channel("c1", &["Org1MSP"]);
        consortium.create_channel("c1", &["Org1MSP"]);
    }
}
