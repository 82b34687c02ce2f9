//! A public-data asset registry, modeled on Fabric's `asset-transfer-basic`
//! sample. Exercises the public shim surface end to end.

use crate::error::ChaincodeError;
use crate::stub::ChaincodeStub;
use crate::Chaincode;
use fabric_wire::{Decode, Encode};

/// An asset record stored in the world state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Asset {
    /// Asset identifier (the state key).
    pub id: String,
    /// Color attribute.
    pub color: String,
    /// Current owner.
    pub owner: String,
    /// Appraised value.
    pub value: u64,
}

impl Asset {
    /// Serializes the asset for state storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        (
            self.id.clone(),
            self.color.clone(),
            self.owner.clone(),
            self.value,
        )
            .to_wire()
    }

    /// Parses an asset from state bytes.
    ///
    /// # Errors
    ///
    /// [`ChaincodeError::InvalidArguments`] when the bytes are malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ChaincodeError> {
        let (id, color, owner, value) = <(String, String, String, u64)>::from_wire(bytes)
            .map_err(|e| ChaincodeError::InvalidArguments(format!("corrupt asset: {e}")))?;
        Ok(Asset {
            id,
            color,
            owner,
            value,
        })
    }
}

/// The asset-transfer chaincode. Functions:
///
/// | function | args | behaviour |
/// |---|---|---|
/// | `CreateAsset` | id, color, owner, value | fails if the id exists |
/// | `ReadAsset` | id | returns the serialized asset |
/// | `UpdateAsset` | id, color, owner, value | fails if the id is absent |
/// | `TransferAsset` | id, new-owner | read-modify-write |
/// | `DeleteAsset` | id | removes the asset |
/// | `GetAllAssets` | — | range query over all assets |
/// | `GetAssetHistory` | id | committed write history of the asset |
#[derive(Debug, Default, Clone, Copy)]
pub struct AssetTransfer;

impl Chaincode for AssetTransfer {
    fn invoke(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        match stub.function() {
            "CreateAsset" => {
                let id = stub.arg_str(0)?;
                let color = stub.arg_str(1)?;
                let owner = stub.arg_str(2)?;
                let value = super::parse_int(&stub.args()[3].clone())? as u64;
                if stub.get_state(&id).is_some() {
                    return Err(ChaincodeError::InvalidArguments(format!(
                        "asset {id} already exists"
                    )));
                }
                let asset = Asset {
                    id: id.clone(),
                    color,
                    owner,
                    value,
                };
                stub.put_state(&id, asset.to_bytes());
                stub.set_event("CreateAsset", id.into_bytes());
                Ok(Vec::new())
            }
            "ReadAsset" => {
                let id = stub.arg_str(0)?;
                let bytes = stub.get_state(&id).ok_or(ChaincodeError::KeyNotFound {
                    collection: None,
                    key: id,
                })?;
                Ok(bytes)
            }
            "UpdateAsset" => {
                let id = stub.arg_str(0)?;
                let color = stub.arg_str(1)?;
                let owner = stub.arg_str(2)?;
                let value = super::parse_int(&stub.args()[3].clone())? as u64;
                if stub.get_state(&id).is_none() {
                    return Err(ChaincodeError::KeyNotFound {
                        collection: None,
                        key: id,
                    });
                }
                let asset = Asset {
                    id: id.clone(),
                    color,
                    owner,
                    value,
                };
                stub.put_state(&id, asset.to_bytes());
                Ok(Vec::new())
            }
            "TransferAsset" => {
                let id = stub.arg_str(0)?;
                let new_owner = stub.arg_str(1)?;
                let bytes = stub.get_state(&id).ok_or(ChaincodeError::KeyNotFound {
                    collection: None,
                    key: id.clone(),
                })?;
                let mut asset = Asset::from_bytes(&bytes)?;
                let old_owner = std::mem::replace(&mut asset.owner, new_owner.clone());
                stub.put_state(&id, asset.to_bytes());
                stub.set_event(
                    "TransferAsset",
                    format!("{id}:{old_owner}->{new_owner}").into_bytes(),
                );
                Ok(old_owner.into_bytes())
            }
            "DeleteAsset" => {
                let id = stub.arg_str(0)?;
                if stub.get_state(&id).is_none() {
                    return Err(ChaincodeError::KeyNotFound {
                        collection: None,
                        key: id,
                    });
                }
                stub.del_state(&id);
                Ok(Vec::new())
            }
            "GetAllAssets" => {
                let hits = stub.get_state_by_range("", "");
                let payload: Vec<Vec<u8>> = hits.into_iter().map(|(_, v)| v).collect();
                Ok(fabric_wire::Encode::to_wire(&payload))
            }
            "GetAssetHistory" => {
                let id = stub.arg_str(0)?;
                let entries: Vec<String> = stub
                    .get_history_for_key(&id)
                    .into_iter()
                    .map(|e| {
                        let what = if e.is_delete() {
                            "deleted".to_string()
                        } else {
                            e.value
                                .map(|v| String::from_utf8_lossy(&v).into_owned())
                                .unwrap_or_default()
                        };
                        format!("{}@{}:{}", e.tx_id, e.version, what)
                    })
                    .collect();
                Ok(entries.join("\n").into_bytes())
            }
            other => Err(ChaincodeError::FunctionNotFound(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::definition::ChaincodeDefinition;
    use fabric_ledger::WorldState;
    use fabric_types::{Identity, Proposal, Role, TxKind, Version};
    use std::collections::{BTreeMap, HashSet};

    fn run(
        ws: &WorldState,
        function: &str,
        args: &[&str],
    ) -> (
        Result<Vec<u8>, ChaincodeError>,
        crate::stub::SimulationResult,
    ) {
        let def = ChaincodeDefinition::new("assets");
        let memberships = HashSet::new();
        let kp = fabric_crypto::Keypair::generate_from_seed(1);
        let prop = Proposal::new(
            "ch1",
            "assets",
            function,
            args.iter().map(|a| a.as_bytes().to_vec()).collect(),
            BTreeMap::new(),
            Identity::new("Org1MSP", Role::Client, kp.public_key()),
            1,
        );
        let mut stub = ChaincodeStub::new(ws, &def, &memberships, &prop);
        let out = AssetTransfer.invoke(&mut stub);
        (out, stub.into_results())
    }

    fn seeded_state() -> WorldState {
        let mut ws = WorldState::new();
        let asset = Asset {
            id: "a1".into(),
            color: "red".into(),
            owner: "alice".into(),
            value: 100,
        };
        ws.put_public(&"assets".into(), "a1", asset.to_bytes(), Version::new(1, 0));
        ws
    }

    #[test]
    fn create_then_duplicate_fails() {
        let ws = WorldState::new();
        let (out, results) = run(&ws, "CreateAsset", &["a1", "red", "alice", "100"]);
        assert!(out.is_ok());
        assert_eq!(results.public.writes.len(), 1);

        let ws = seeded_state();
        let (out, _) = run(&ws, "CreateAsset", &["a1", "red", "alice", "100"]);
        assert!(out.is_err());
    }

    #[test]
    fn read_returns_serialized_asset() {
        let ws = seeded_state();
        let (out, results) = run(&ws, "ReadAsset", &["a1"]);
        let asset = Asset::from_bytes(&out.unwrap()).unwrap();
        assert_eq!(asset.owner, "alice");
        assert_eq!(results.public.kind(), TxKind::ReadOnly);
    }

    #[test]
    fn transfer_is_read_write() {
        let ws = seeded_state();
        let (out, results) = run(&ws, "TransferAsset", &["a1", "bob"]);
        assert_eq!(out.unwrap(), b"alice");
        assert_eq!(results.public.kind(), TxKind::ReadWrite);
        let written = Asset::from_bytes(results.public.writes[0].value.as_ref().unwrap()).unwrap();
        assert_eq!(written.owner, "bob");
    }

    #[test]
    fn delete_produces_delete_write() {
        let ws = seeded_state();
        let (out, results) = run(&ws, "DeleteAsset", &["a1"]);
        assert!(out.is_ok());
        assert!(results.public.writes[0].is_delete());
    }

    #[test]
    fn unknown_function_and_missing_key_error() {
        let ws = WorldState::new();
        let (out, _) = run(&ws, "Nope", &[]);
        assert!(matches!(out, Err(ChaincodeError::FunctionNotFound(_))));
        let (out, _) = run(&ws, "ReadAsset", &["ghost"]);
        assert!(matches!(out, Err(ChaincodeError::KeyNotFound { .. })));
    }
}
