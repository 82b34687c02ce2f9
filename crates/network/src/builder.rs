//! Builder for [`FabricNetwork`].

use crate::net::FabricNetwork;
use fabric_client::Client;
use fabric_crypto::Keypair;
use fabric_gossip::GossipHub;
use fabric_monitor::Monitor;
use fabric_orderer::{BatchConfig, OrderingService};
use fabric_peer::Peer;
use fabric_policy::ChannelPolicies;
use fabric_telemetry::Telemetry;
use fabric_types::{ChannelId, DefenseConfig, OrgId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Raft orderer nodes in every network.
const ORDERERS: usize = 3;

/// Configures and builds a [`FabricNetwork`].
///
/// Every network has three Raft orderers and one peer + one client per org
/// (named `peer0.orgN` / `client0.orgN`). By default blocks are cut by
/// [`BatchConfig::default`] and all defenses are off (the original
/// framework).
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    channel: ChannelId,
    orgs: Vec<OrgId>,
    batch_config: BatchConfig,
    defense: DefenseConfig,
    seed: u64,
    telemetry: Option<Telemetry>,
    monitor: Option<Monitor>,
}

impl NetworkBuilder {
    /// Starts a builder for `channel`.
    pub fn new(channel: impl Into<ChannelId>) -> Self {
        NetworkBuilder {
            channel: channel.into(),
            orgs: Vec::new(),
            batch_config: BatchConfig::default(),
            defense: DefenseConfig::original(),
            seed: 0,
            telemetry: None,
            monitor: None,
        }
    }

    /// Sets the participating organizations (order defines `orgN` naming).
    pub fn orgs(mut self, orgs: &[&str]) -> Self {
        self.orgs = orgs.iter().map(|o| OrgId::new(*o)).collect();
        self
    }

    /// Sets block-cutting parameters.
    pub fn batch(mut self, config: BatchConfig) -> Self {
        self.batch_config = config;
        self
    }

    /// Sets the defense configuration applied to every peer and client.
    pub fn defense(mut self, defense: DefenseConfig) -> Self {
        self.defense = defense;
        self
    }

    /// Seeds all deterministic randomness (keys, Raft timeouts, gossip).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches one shared telemetry pipeline to every peer, client, and
    /// the ordering service, so the whole network reports into a single
    /// metrics registry, span sink, and audit-event log — and a
    /// transaction's trace spans from every node land in one tree. Peers
    /// added later via `FabricNetwork::add_peer` inherit it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches a streaming [`Monitor`] to the network, mirroring
    /// [`NetworkBuilder::with_telemetry`]: `FabricNetwork::advance`
    /// drives it one evaluation tick per network tick with per-node
    /// health samples, and its alerts become part of the network's
    /// operational state (`FabricNetwork::monitor`).
    ///
    /// The monitor watches a telemetry pipeline. If none was attached
    /// yet, the monitor's own pipeline is adopted for the whole network;
    /// if one was, it must be the same pipeline (`build` panics on a
    /// mismatch — a monitor watching a registry nobody writes to would
    /// silently never fire).
    pub fn with_monitor(mut self, monitor: Monitor) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Builds the network and elects the ordering-service leader.
    ///
    /// # Panics
    ///
    /// Panics if no organizations were configured.
    pub fn build(mut self) -> FabricNetwork {
        assert!(!self.orgs.is_empty(), "a network needs organizations");
        if let Some(monitor) = &self.monitor {
            match &self.telemetry {
                Some(t) => assert!(
                    t.same_pipeline(monitor.telemetry()),
                    "with_monitor: the monitor watches a different telemetry \
                     pipeline than the one attached via with_telemetry"
                ),
                None => self.telemetry = Some(monitor.telemetry().clone()),
            }
        }
        let policies = ChannelPolicies::default_for(&self.orgs);
        let mut gossip = GossipHub::new(self.seed);
        let mut peers = BTreeMap::new();
        let mut clients = BTreeMap::new();

        for org in self.orgs.iter() {
            // "Org1MSP" -> "org1"; fall back to the lowercased org id.
            let short = org
                .as_str()
                .to_ascii_lowercase()
                .trim_end_matches("msp")
                .to_string();
            let peer_name = format!("peer0.{short}");
            let client_name = format!("client0.{short}");
            // Identity seeds derive from the org *name*, so organizations
            // keep the same identities across channels built from the same
            // consortium seed (the paper's Fig. 1 topology).
            let org_tag = org_name_tag(org.as_str());
            let mut peer = Peer::new(
                peer_name.clone(),
                org.clone(),
                self.channel.clone(),
                policies.clone(),
                Keypair::generate_from_seed(self.seed ^ 0x5eed_0000 ^ org_tag),
                self.defense,
            );
            if let Some(t) = &self.telemetry {
                peer.set_telemetry(t.clone());
            }
            gossip.register(peer.gossip_id().clone());
            peers.insert(peer_name, peer);
            let mut client = Client::new(
                org.clone(),
                Keypair::generate_from_seed(self.seed ^ 0xc11e_0000 ^ org_tag),
                self.defense,
            );
            if let Some(t) = &self.telemetry {
                client.attach_telemetry(t.clone());
            }
            clients.insert(Arc::from(client_name), client);
        }

        let mut orderer = OrderingService::new(ORDERERS, self.seed, self.batch_config);
        if let Some(t) = &self.telemetry {
            orderer.set_telemetry(t.clone());
        }
        orderer.run_until_ready(10_000);

        let mut net = FabricNetwork::from_parts(
            self.channel,
            self.orgs,
            peers,
            clients,
            orderer,
            gossip,
            self.seed,
        );
        if let Some(monitor) = self.monitor {
            net.attach_monitor(monitor);
        }
        net
    }
}

/// FNV-1a over the org name: a stable per-org identity-seed component.
pub(crate) fn org_name_tag(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1_0000_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_named_nodes_per_org() {
        let net = NetworkBuilder::new("ch1")
            .orgs(&["Org1MSP", "Org2MSP"])
            .seed(1)
            .build();
        assert_eq!(
            net.peer_names(),
            vec!["peer0.org1".to_string(), "peer0.org2".to_string()]
        );
        assert_eq!(
            net.client_names(),
            vec!["client0.org1".to_string(), "client0.org2".to_string()]
        );
    }

    #[test]
    #[should_panic(expected = "needs organizations")]
    fn empty_orgs_panic() {
        let _ = NetworkBuilder::new("ch1").build();
    }

    #[test]
    fn with_monitor_alone_adopts_the_monitors_telemetry_pipeline() {
        let telemetry = Telemetry::new();
        let monitor = Monitor::new(&telemetry);
        let net = NetworkBuilder::new("ch1")
            .orgs(&["Org1MSP"])
            .seed(2)
            .with_monitor(monitor)
            .build();
        let net_telemetry = net.telemetry().expect("monitor pipeline adopted");
        assert!(net_telemetry.same_pipeline(&telemetry));
        assert!(net.monitor().is_some());
    }

    #[test]
    #[should_panic(expected = "different telemetry")]
    fn mismatched_monitor_and_telemetry_pipelines_panic() {
        let monitor = Monitor::new(&Telemetry::new());
        let _ = NetworkBuilder::new("ch1")
            .orgs(&["Org1MSP"])
            .with_telemetry(Telemetry::new())
            .with_monitor(monitor)
            .build();
    }
}
