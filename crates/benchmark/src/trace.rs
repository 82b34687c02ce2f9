//! In-memory span recorder for the traced composition.
//!
//! One thread, strictly nested spans: a stack of open spans is enough to
//! attribute every nanosecond once. A span's *self time* is its duration
//! minus the time its children cover; a layer's busy time is the sum of
//! the self times of its spans. Spans are kept in memory and only leave
//! the process through [`Tracer::chrome_trace_json`] after the run.

use std::time::Instant;

/// The layers of the ledger: this repository's crates, plus the
/// benchmark's own driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Driver,
    Client,
    Endorse,
    Gossip,
    Orderer,
    Network,
    Commit,
    Monitor,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::Client => "client",
            Layer::Endorse => "endorse",
            Layer::Gossip => "gossip",
            Layer::Orderer => "orderer",
            Layer::Network => "network",
            Layer::Commit => "commit",
            Layer::Monitor => "monitor",
        }
    }
}

/// Every call site the composition puts a span around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    DriverOffer,
    DriverResolve,
    ClientPropose,
    ClientAssemble,
    PeerEndorse,
    GossipDisseminate,
    GossipFetch,
    GossipPurge,
    OrdererSubmit,
    OrdererTick,
    OrdererTakeBlocks,
    NetworkFanout,
    PeerProcessBlock,
    MonitorObserveTick,
}

const CALLS: usize = ALL_CALLS.len();

impl Call {
    pub fn name(self) -> &'static str {
        match self {
            Call::DriverOffer => "driver.offer",
            Call::DriverResolve => "driver.resolve",
            Call::ClientPropose => "client.propose",
            Call::ClientAssemble => "client.assemble_transaction",
            Call::PeerEndorse => "peer.endorse",
            Call::GossipDisseminate => "gossip.disseminate",
            Call::GossipFetch => "gossip.fetch",
            Call::GossipPurge => "gossip.purge_committed",
            Call::OrdererSubmit => "orderer.submit",
            Call::OrdererTick => "orderer.tick",
            Call::OrdererTakeBlocks => "orderer.take_blocks",
            Call::NetworkFanout => "network.fanout",
            Call::PeerProcessBlock => "peer.process_block",
            Call::MonitorObserveTick => "monitor.observe_tick",
        }
    }

    pub fn layer(self) -> Layer {
        match self {
            Call::DriverOffer | Call::DriverResolve => Layer::Driver,
            Call::ClientPropose | Call::ClientAssemble => Layer::Client,
            Call::PeerEndorse => Layer::Endorse,
            Call::GossipDisseminate | Call::GossipFetch | Call::GossipPurge => Layer::Gossip,
            Call::OrdererSubmit | Call::OrdererTick | Call::OrdererTakeBlocks => Layer::Orderer,
            Call::NetworkFanout => Layer::Network,
            Call::PeerProcessBlock => Layer::Commit,
            Call::MonitorObserveTick => Layer::Monitor,
        }
    }
}

/// Pass as a span's id to take the enclosing span's id (an endorsement
/// belongs to the op whose offer span encloses it).
pub const INHERIT_ID: u64 = u64::MAX;

/// One finished span, as written to the trace file.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<u32>,
    /// Op sequence number, block number or tick the span belongs to.
    pub id: u64,
}

struct Open {
    call: Call,
    id: u64,
    start_ns: u64,
    child_ns: u64,
    stored: Option<u32>,
}

/// Per-call totals; `durations_ns` holds one entry per span.
#[derive(Debug, Clone, Default)]
pub struct CallStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u32>,
}

pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    stats: [CallStats; CALLS],
    /// Time covered by spans that have no parent.
    root_ns: u64,
    spans: Vec<Span>,
    /// Spans past this count are still accounted but no longer stored.
    keep: usize,
}

impl Tracer {
    /// A recorder that stores at most `keep` spans for the trace file;
    /// the ledger totals always cover every span.
    pub fn new(keep: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            open: Vec::with_capacity(8),
            stats: Default::default(),
            root_ns: 0,
            spans: Vec::new(),
            keep,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, call: Call, id: u64) {
        let id = match (id, self.open.last()) {
            (INHERIT_ID, Some(parent)) => parent.id,
            _ => id,
        };
        let start_ns = self.now_ns();
        let stored = (self.spans.len() < self.keep).then(|| {
            self.spans.push(Span {
                call,
                start_ns,
                end_ns: start_ns,
                parent: self.open.iter().rev().find_map(|o| o.stored),
                id,
            });
            (self.spans.len() - 1) as u32
        });
        self.open.push(Open {
            call,
            id,
            start_ns,
            child_ns: 0,
            stored,
        });
    }

    /// Closes the innermost span and returns its duration.
    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("exit without enter");
        let duration = end_ns - open.start_ns;
        let stats = &mut self.stats[open.call as usize];
        stats.count += 1;
        stats.total_ns += duration;
        stats.self_ns += duration.saturating_sub(open.child_ns);
        stats
            .durations_ns
            .push(duration.min(u64::from(u32::MAX)) as u32);
        match self.open.last_mut() {
            Some(parent) => parent.child_ns += duration,
            None => self.root_ns += duration,
        }
        if let Some(i) = open.stored {
            self.spans[i as usize].end_ns = end_ns;
        }
        duration
    }

    /// Accounts `count` calls that took `total_ns` together inside the
    /// innermost open span, without storing a span for each: the gossip
    /// fetches a committing peer makes through its provider closure.
    pub fn leaf(&mut self, call: Call, total_ns: u64, count: u64) {
        let stats = &mut self.stats[call as usize];
        stats.count += count;
        stats.total_ns += total_ns;
        stats.self_ns += total_ns;
        match self.open.last_mut() {
            Some(parent) => parent.child_ns += total_ns,
            None => self.root_ns += total_ns,
        }
    }

    /// Forgets everything recorded so far (set-up is not part of the ledger).
    pub fn reset(&mut self) {
        assert!(self.open.is_empty(), "reset inside an open span");
        self.stats = Default::default();
        self.root_ns = 0;
        self.spans.clear();
    }

    pub fn stats(&self, call: Call) -> &CallStats {
        &self.stats[call as usize]
    }

    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        ALL_CALLS
            .iter()
            .filter(|call| call.layer() == layer)
            .map(|call| self.stats(*call).self_ns)
            .sum()
    }

    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The stored spans in Chrome trace-event format (`chrome://tracing`,
    /// Perfetto): one complete ("X") event per span, microsecond times.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, i64::from);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
                s.call.name(),
                s.call.layer().name(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.id
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

const ALL_CALLS: [Call; 14] = [
    Call::DriverOffer,
    Call::DriverResolve,
    Call::ClientPropose,
    Call::ClientAssemble,
    Call::PeerEndorse,
    Call::GossipDisseminate,
    Call::GossipFetch,
    Call::GossipPurge,
    Call::OrdererSubmit,
    Call::OrdererTick,
    Call::OrdererTakeBlocks,
    Call::NetworkFanout,
    Call::PeerProcessBlock,
    Call::MonitorObserveTick,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_leaves() {
        let mut t = Tracer::new(16);
        t.enter(Call::DriverOffer, 7);
        t.enter(Call::PeerEndorse, INHERIT_ID);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.leaf(Call::GossipFetch, 500_000, 3);
        let child = t.exit();
        let parent = t.exit();
        assert!(parent >= child);
        let offer = t.stats(Call::DriverOffer);
        assert_eq!(offer.self_ns, parent - child);
        assert_eq!(t.stats(Call::PeerEndorse).self_ns, child - 500_000);
        assert_eq!(t.stats(Call::GossipFetch).count, 3);
        assert_eq!(t.root_ns(), parent);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].id, 7);
        let layers = [Layer::Driver, Layer::Endorse, Layer::Gossip];
        let busy: u64 = layers.iter().map(|l| t.layer_self_ns(*l)).sum();
        assert_eq!(busy, parent, "layer self times add up to the root time");
    }
}
