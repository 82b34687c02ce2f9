//! Newtype identifiers used across the simulator.

use fabric_wire::{Decode, Encode, Reader, WireError};
use std::fmt;
use std::sync::Arc;

/// Identifiers are copied into every audit event, gossip log entry and
/// ledger index a transaction touches, so they hold `Arc<str>`: a clone is
/// a refcount bump. They compare, order, hash and encode as the string.
///
/// They decode through [`Reader::read_name`], so one decoded batch holds
/// one allocation per distinct name; an identifier unique per item names
/// `Arc::<str>::decode` as its reader instead.
macro_rules! string_id {
    ($(#[$doc:meta])* $name:ident) => {
        string_id!($(#[$doc])* $name, Reader::read_name);
    };
    ($(#[$doc:meta])* $name:ident, $read:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates an identifier from anything string-like.
            pub fn new(s: impl Into<String>) -> Self {
                $name(Arc::from(s.into()))
            }

            /// The identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }

            /// The shared string behind the identifier; cloning it is a
            /// refcount bump.
            pub fn as_arc(&self) -> &Arc<str> {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                $name(Arc::from(s))
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                $name(Arc::from(s))
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        impl Encode for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.0.encode(buf);
            }
        }

        impl Decode for $name {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($name($read(r)?))
            }
        }
    };
}

string_id! {
    /// A channel name, e.g. `"mychannel"`. Each channel has its own ledger.
    ChannelId
}

string_id! {
    /// A chaincode (smart contract) name; also the rwset namespace.
    ChaincodeId
}

string_id! {
    /// An organization / MSP identifier, e.g. `"Org1MSP"`.
    OrgId
}

string_id! {
    /// A private data collection name, e.g. `"collectionPDC1"`.
    CollectionName
}

string_id! {
    /// A transaction identifier (hex digest of creator identity and nonce,
    /// as in Fabric). Unique per transaction, so decoding it shares
    /// nothing.
    TxId, Arc::<str>::decode
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let c = ChannelId::new("mychannel");
        assert_eq!(c.to_string(), "mychannel");
        assert_eq!(c.as_str(), "mychannel");
        assert_eq!(ChannelId::from("mychannel"), c);
        assert_eq!(ChannelId::from(String::from("mychannel")), c);
    }

    #[test]
    fn wire_roundtrip() {
        let o = OrgId::new("Org1MSP");
        assert_eq!(OrgId::from_wire(&o.to_wire()).unwrap(), o);
    }

    #[test]
    fn ids_order_lexicographically() {
        assert!(OrgId::new("Org1MSP") < OrgId::new("Org2MSP"));
    }
}
