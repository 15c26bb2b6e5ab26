//! The Hammer protocol's requestor and owner rules, written once for every
//! cache that speaks it: the host private cache (`xg-host-hammer`) and
//! Crossing Guard's Hammer persona (`xg-core`).
//!
//! A requestor collects memory's data and one response per peer in a
//! [`Collect`], then installs what [`grant`] decides. Every cache answers
//! the directory's forwards with [`answer`].
//!
//! The owner rule is gem5 `MOESI_hammer`'s. Whoever owns the block —
//! stable, upgrading (`OM`) or with its writeback still pending (`WB`) —
//! answers a forward with its data, and keeps its copy unless the forward
//! is a `FwdGetM`. A read never moves ownership: the reader installs `S`
//! beside the owner, which may have other sharers. A pending writeback
//! stays pending, and the directory, which still names the putter as the
//! owner, accepts it.

use xg_mem::DataBlock;
use xg_sim::CheckDigest;

use crate::HammerKind;

/// The kind of Get a requestor opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetKind {
    /// Ordinary read: exclusive when no other cache holds a copy.
    S,
    /// Non-upgradable read: never exclusive.
    SOnly,
    /// Write.
    M,
}

impl GetKind {
    /// The request that opens a Get of this kind.
    pub fn request(self) -> HammerKind {
        match self {
            GetKind::S => HammerKind::GetS,
            GetKind::SOnly => HammerKind::GetSOnly,
            GetKind::M => HammerKind::GetM,
        }
    }
}

/// The stable state a finished Get installs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// Shared.
    S,
    /// Clean exclusive owner.
    E,
    /// Modified owner.
    M,
}

impl Grant {
    /// The `Unblock` that closes the Get at the directory, telling it
    /// whether the requestor now owns the block.
    pub fn unblock(self) -> HammerKind {
        HammerKind::Unblock {
            new_owner: self != Grant::S,
        }
    }
}

/// The peer data a Get keeps.
#[derive(Debug, Clone, Copy)]
struct PeerData {
    data: DataBlock,
    dirty: bool,
    owner_keeps_copy: bool,
}

/// What an open Get has collected: memory's data with the number of peer
/// responses the directory announced, and the peers' responses so far.
#[derive(Debug, Clone, Default)]
pub struct Collect {
    peers_expected: Option<u32>,
    resps: u32,
    mem: Option<DataBlock>,
    peer: Option<PeerData>,
    had_copy: bool,
}

impl Collect {
    /// Records `MemData`.
    pub fn mem_data(&mut self, data: DataBlock, peers: u32) {
        self.peers_expected = Some(peers);
        self.mem = Some(data);
    }

    /// Records a peer's `RespData`, keeping dirty data over clean and
    /// otherwise the first copy. Returns whether a copy had already
    /// arrived: among trusted caches only one owner answers with data.
    pub fn resp_data(&mut self, data: DataBlock, dirty: bool, owner_keeps_copy: bool) -> bool {
        self.resps += 1;
        let second = self.peer.is_some();
        if self.peer.is_none_or(|kept| dirty && !kept.dirty) {
            self.peer = Some(PeerData {
                data,
                dirty,
                owner_keeps_copy,
            });
        }
        second
    }

    /// Records a peer's `RespAck`.
    pub fn resp_ack(&mut self, had_copy: bool) {
        self.resps += 1;
        self.had_copy |= had_copy;
    }

    /// Memory has answered and every peer it announced has responded.
    pub fn complete(&self) -> bool {
        self.mem.is_some() && self.peers_expected.is_some_and(|peers| self.resps >= peers)
    }

    /// Folds what has been collected into a state digest.
    pub fn digest(&self, out: &mut CheckDigest) {
        out.write_u64(self.peers_expected.map_or(u64::MAX, u64::from));
        out.write_u64(u64::from(self.resps));
        match &self.mem {
            Some(data) => out.write_bytes(data.as_bytes()),
            None => out.write_str("no-mem"),
        }
        match &self.peer {
            Some(peer) => {
                out.write_bytes(peer.data.as_bytes());
                out.write_u64(u64::from(peer.dirty));
                out.write_u64(u64::from(peer.owner_keeps_copy));
            }
            None => out.write_str("no-peer"),
        }
        out.write_u64(u64::from(self.had_copy));
    }
}

/// What a complete Get of `kind` installs: state, dirty bit and data;
/// `None` while responses are outstanding. `retained` is the `(data,
/// dirty)` copy an upgrading requestor still holds (`SM`/`OM`), which a
/// write keeps when no peer sent newer data.
pub fn grant(
    kind: GetKind,
    got: &Collect,
    retained: Option<(DataBlock, bool)>,
) -> Option<(Grant, bool, DataBlock)> {
    if !got.complete() {
        return None;
    }
    let mem = got.mem?;
    Some(match (kind, got.peer) {
        (GetKind::M, peer) => {
            let (data, dirty) = peer
                .map(|peer| (peer.data, peer.dirty))
                .or(retained)
                .unwrap_or((mem, false));
            (Grant::M, dirty, data)
        }
        (GetKind::SOnly, Some(peer)) => (Grant::S, false, peer.data),
        (GetKind::S, Some(peer)) if peer.owner_keeps_copy => (Grant::S, false, peer.data),
        (GetKind::S, Some(peer)) if peer.dirty => (Grant::M, true, peer.data),
        (GetKind::S, Some(peer)) => (Grant::E, false, peer.data),
        (GetKind::S, None) if !got.had_copy => (Grant::E, false, mem),
        (GetKind::S | GetKind::SOnly, None) => (Grant::S, false, mem),
    })
}

/// What a cache holds of a block when a forward for it arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Held {
    /// No copy.
    Nothing,
    /// A shared copy, resident or kept while upgrading (`SM`).
    Shared,
    /// The block's owner: stable, upgrading or with a writeback pending.
    Owned {
        /// The owner's data.
        data: DataBlock,
        /// Whether it differs from memory.
        dirty: bool,
    },
}

/// The response to a forward from a cache holding `held`. `takes` marks a
/// `FwdGetM`, which ends the responder's copy; a read leaves an owner its
/// copy, so the reader installs `S`.
pub fn answer(held: Held, takes: bool) -> HammerKind {
    match held {
        Held::Owned { data, dirty } => HammerKind::RespData {
            data,
            dirty,
            owner_keeps_copy: !takes,
        },
        Held::Shared => HammerKind::RespAck { had_copy: true },
        Held::Nothing => HammerKind::RespAck { had_copy: false },
    }
}

#[cfg(test)]
mod tests;
