//! All message types exchanged between simulated controllers.

use std::fmt;

use xg_mem::{Addr, BlockAddr, DataBlock};
use xg_sim::{Alphabet, CheckDigest, NodeId};

use crate::error::XgError;

/// The top-level message type carried by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Core ↔ cache frontend traffic.
    Core(CoreMsg),
    /// Hammer-like host protocol traffic.
    Hammer(HammerMsg),
    /// Inclusive MESI host protocol traffic.
    Mesi(MesiMsg),
    /// Crossing Guard interface traffic (accelerator ↔ XG). Also used
    /// *inside* the two-level accelerator organization: the shared
    /// accelerator L2 exposes the same standardized interface downward to
    /// its L1s, demonstrating that the interface composes hierarchically.
    Xgi(XgiMsg),
    /// Error reports to the OS.
    Os(OsMsg),
}

impl Message {
    /// The block address this message concerns, if any.
    pub fn block_addr(&self) -> Option<BlockAddr> {
        match self {
            Message::Core(m) => Some(m.addr.block()),
            Message::Hammer(m) => Some(m.addr),
            Message::Mesi(m) => Some(m.addr),
            Message::Xgi(m) => Some(m.addr),
            Message::Os(_) => None,
        }
    }

    /// A short static `"<protocol>.<kind>"` label for kernel profiling —
    /// the event-class vocabulary of `xg-prof` dispatch counters (install
    /// with `SimBuilder::event_label(Message::class)`).
    pub fn class(&self) -> &'static str {
        match self {
            Message::Core(m) => match m.kind {
                CoreKind::Load => "Core.Load",
                CoreKind::Store { .. } => "Core.Store",
                CoreKind::LoadResp { .. } => "Core.LoadResp",
                CoreKind::StoreResp => "Core.StoreResp",
                CoreKind::Flush => "Core.Flush",
                CoreKind::FlushResp => "Core.FlushResp",
            },
            Message::Hammer(m) => match m.kind {
                HammerKind::GetS => "Hammer.GetS",
                HammerKind::GetSOnly => "Hammer.GetSOnly",
                HammerKind::GetM => "Hammer.GetM",
                HammerKind::Put => "Hammer.Put",
                HammerKind::FwdGetS { .. } => "Hammer.FwdGetS",
                HammerKind::FwdGetSOnly { .. } => "Hammer.FwdGetSOnly",
                HammerKind::FwdGetM { .. } => "Hammer.FwdGetM",
                HammerKind::MemData { .. } => "Hammer.MemData",
                HammerKind::RespData { .. } => "Hammer.RespData",
                HammerKind::RespAck { .. } => "Hammer.RespAck",
                HammerKind::WbAck => "Hammer.WbAck",
                HammerKind::WbNack => "Hammer.WbNack",
                HammerKind::WbData { .. } => "Hammer.WbData",
                HammerKind::Unblock { .. } => "Hammer.Unblock",
            },
            Message::Mesi(m) => match m.kind {
                MesiKind::GetS => "Mesi.GetS",
                MesiKind::GetSOnly => "Mesi.GetSOnly",
                MesiKind::GetM => "Mesi.GetM",
                MesiKind::PutS => "Mesi.PutS",
                MesiKind::PutE { .. } => "Mesi.PutE",
                MesiKind::PutM { .. } => "Mesi.PutM",
                MesiKind::DataS { .. } => "Mesi.DataS",
                MesiKind::DataE { .. } => "Mesi.DataE",
                MesiKind::DataM { .. } => "Mesi.DataM",
                MesiKind::WbAck => "Mesi.WbAck",
                MesiKind::WbNack => "Mesi.WbNack",
                MesiKind::Inv { .. } => "Mesi.Inv",
                MesiKind::FwdGetS { .. } => "Mesi.FwdGetS",
                MesiKind::FwdGetM { .. } => "Mesi.FwdGetM",
                MesiKind::Recall => "Mesi.Recall",
                MesiKind::InvAck => "Mesi.InvAck",
                MesiKind::FwdData { .. } => "Mesi.FwdData",
                MesiKind::OwnerWb { .. } => "Mesi.OwnerWb",
                MesiKind::RecallData { .. } => "Mesi.RecallData",
            },
            Message::Xgi(m) => match m.kind {
                XgiKind::GetS => "Xgi.GetS",
                XgiKind::GetM => "Xgi.GetM",
                XgiKind::PutS => "Xgi.PutS",
                XgiKind::PutE { .. } => "Xgi.PutE",
                XgiKind::PutM { .. } => "Xgi.PutM",
                XgiKind::DataS { .. } => "Xgi.DataS",
                XgiKind::DataE { .. } => "Xgi.DataE",
                XgiKind::DataM { .. } => "Xgi.DataM",
                XgiKind::WbAck => "Xgi.WbAck",
                XgiKind::Inv => "Xgi.Inv",
                XgiKind::InvAck => "Xgi.InvAck",
                XgiKind::CleanWb { .. } => "Xgi.CleanWb",
                XgiKind::DirtyWb { .. } => "Xgi.DirtyWb",
            },
            Message::Os(m) => match m {
                OsMsg::Error(_) => "Os.Error",
                OsMsg::DisableAccelerator => "Os.DisableAccelerator",
            },
        }
    }
}

impl From<CoreMsg> for Message {
    fn from(m: CoreMsg) -> Self {
        Message::Core(m)
    }
}
impl From<HammerMsg> for Message {
    fn from(m: HammerMsg) -> Self {
        Message::Hammer(m)
    }
}
impl From<MesiMsg> for Message {
    fn from(m: MesiMsg) -> Self {
        Message::Mesi(m)
    }
}
impl From<XgiMsg> for Message {
    fn from(m: XgiMsg) -> Self {
        Message::Xgi(m)
    }
}
impl From<OsMsg> for Message {
    fn from(m: OsMsg) -> Self {
        Message::Os(m)
    }
}

// ---------------------------------------------------------------------------
// Core interface
// ---------------------------------------------------------------------------

/// A load/store request or response between a core and its cache.
///
/// Data operations are on the naturally-aligned `u64` containing `addr`,
/// which is what the value-checking stress tester (paper §4.1) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreMsg {
    /// Request id, echoed in the response so the core can match them up.
    pub id: u64,
    /// Byte address of the access.
    pub addr: Addr,
    /// Operation.
    pub kind: CoreKind,
}

impl CoreMsg {
    /// The response to this request: same id and address, `kind` as given.
    pub fn reply(&self, kind: CoreKind) -> CoreMsg {
        CoreMsg { kind, ..*self }
    }

    /// Folds this operation, parked at a cache by core `from`, into a state
    /// digest. The request id is excluded: it is echoed verbatim in the
    /// response and never branches protocol behavior, so digesting it would
    /// fracture the checker's state space.
    pub fn digest(&self, from: NodeId, out: &mut CheckDigest) {
        out.write_node(from);
        out.write_addr(self.addr.block().as_u64());
        out.write_u64(self.addr.block_offset() as u64);
        match self.kind {
            CoreKind::Load => out.write_str("Load"),
            CoreKind::Store { value } => {
                out.write_str("Store");
                out.write_u64(value);
            }
            CoreKind::Flush => out.write_str("Flush"),
            _ => out.write_str("Resp"),
        }
    }
}

/// Kinds of core-level operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreKind {
    /// Read the aligned 64-bit word at `addr`.
    Load,
    /// Write the aligned 64-bit word at `addr`.
    Store {
        /// Value to write.
        value: u64,
    },
    /// Response to [`CoreKind::Load`].
    LoadResp {
        /// Value read.
        value: u64,
    },
    /// Response to [`CoreKind::Store`].
    StoreResp,
    /// Write back and locally invalidate the block containing `addr`. In
    /// hardware-coherent caches this is a hint; in the weak-sharing
    /// accelerator organization (paper §2.1) it is the synchronization
    /// primitive that makes one core's writes visible to its siblings.
    Flush,
    /// Response to [`CoreKind::Flush`].
    FlushResp,
}

// ---------------------------------------------------------------------------
// Hammer-like host protocol
// ---------------------------------------------------------------------------

/// A message in the AMD-Hammer-like exclusive MOESI broadcast protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HammerMsg {
    /// Block this message concerns.
    pub addr: BlockAddr,
    /// Message kind and payload.
    pub kind: HammerKind,
}

impl HammerMsg {
    /// Convenience constructor.
    pub fn new(addr: BlockAddr, kind: HammerKind) -> Self {
        HammerMsg { addr, kind }
    }
}

/// Kinds of Hammer protocol messages.
///
/// Requests go cache→directory; the directory *broadcasts* forwards to all
/// peer caches (it keeps no sharer list); each peer responds directly to the
/// requestor, which counts responses. Writebacks are two-phase
/// (`Put` → `WbAck` → `WbData`). `GetSOnly` is the non-upgradable read
/// request added for Transactional Crossing Guard (paper §3.2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HammerKind {
    /// Read request (may be answered with exclusive data).
    GetS,
    /// Non-upgradable read request: the requestor will never be made owner.
    GetSOnly,
    /// Write (exclusive) request.
    GetM,
    /// Writeback request (phase one; data follows after `WbAck`).
    Put,
    /// Directory → peers: someone issued GetS. `to_owner` marks the copy
    /// sent to the cache the directory believes owns the block.
    FwdGetS {
        /// Cache to respond to.
        requestor: NodeId,
        /// Whether the directory believes the recipient owns the block.
        to_owner: bool,
    },
    /// Directory → peers: someone issued GetSOnly.
    FwdGetSOnly {
        /// Cache to respond to.
        requestor: NodeId,
        /// Whether the directory believes the recipient owns the block.
        to_owner: bool,
    },
    /// Directory → peers: someone issued GetM; invalidate your copy.
    FwdGetM {
        /// Cache to respond to.
        requestor: NodeId,
        /// Whether the directory believes the recipient owns the block.
        to_owner: bool,
    },
    /// Directory → requestor: data from memory plus the number of peer
    /// responses the requestor must collect.
    MemData {
        /// Block data as memory has it (possibly stale if a cache owns it).
        data: DataBlock,
        /// Number of peer responses (acks or data) to expect.
        peers: u32,
    },
    /// Peer → requestor: data response from the owner.
    RespData {
        /// Current block data.
        data: DataBlock,
        /// Whether the data is newer than memory.
        dirty: bool,
        /// True if the responder keeps a copy (requestor takes S); false if
        /// ownership transfers (requestor takes E/M by `dirty`).
        owner_keeps_copy: bool,
    },
    /// Peer → requestor: no data; `had_copy` notes whether the peer retains
    /// a shared copy (so a GetS requestor knows E is not available).
    RespAck {
        /// Whether the responder still holds (or held) a shared copy.
        had_copy: bool,
    },
    /// Directory → putter: writeback accepted, send `WbData`.
    WbAck,
    /// Directory → putter: writeback rejected (requestor no longer owner —
    /// either a legal race or, with an accelerator, an error).
    WbNack,
    /// Putter → directory: writeback data (phase two).
    WbData {
        /// Block data.
        data: DataBlock,
        /// Whether the data differs from memory.
        dirty: bool,
    },
    /// Requestor → directory: transaction complete; release the block.
    Unblock {
        /// Whether the requestor is now the owner.
        new_owner: bool,
    },
}

// ---------------------------------------------------------------------------
// Inclusive MESI host protocol
// ---------------------------------------------------------------------------

/// A message in the inclusive two-level MESI protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MesiMsg {
    /// Block this message concerns.
    pub addr: BlockAddr,
    /// Message kind and payload.
    pub kind: MesiKind,
}

impl MesiMsg {
    /// Convenience constructor.
    pub fn new(addr: BlockAddr, kind: MesiKind) -> Self {
        MesiMsg { addr, kind }
    }
}

/// Kinds of MESI protocol messages.
///
/// The shared L2 is inclusive and keeps an exact sharer list plus owner per
/// block. Requestors are told how many invalidation acks to expect
/// (`DataM { acks }`), and sharers ack the *requestor directly* — the
/// sibling-to-sibling communication the Crossing Guard interface
/// deliberately excludes from the accelerator's view (paper §2.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MesiKind {
    /// L1 → L2 read request.
    GetS,
    /// L1 → L2 non-upgradable read request (never grants E; added for
    /// Transactional Crossing Guard, mirroring instruction fetches).
    GetSOnly,
    /// L1 → L2 write request (also used for S→M upgrades).
    GetM,
    /// L1 → L2: evicting a shared copy (no data; L2 sharer list is exact).
    PutS,
    /// L1 → L2: evicting a clean-exclusive copy.
    PutE {
        /// Block data (clean; lets L2 verify/refresh).
        data: DataBlock,
    },
    /// L1 → L2: evicting a modified copy.
    PutM {
        /// Dirty block data.
        data: DataBlock,
    },
    /// L2 → L1: shared read-only data.
    DataS {
        /// Block data.
        data: DataBlock,
    },
    /// L2 → L1: clean-exclusive data (no other sharers).
    DataE {
        /// Block data.
        data: DataBlock,
    },
    /// L2 → L1: writable data; collect `acks` invalidation acks before
    /// using it.
    DataM {
        /// Block data.
        data: DataBlock,
        /// Number of `InvAck`s to expect from invalidated sharers.
        acks: u32,
    },
    /// L2 → putter: writeback accepted.
    WbAck,
    /// L2 → putter: writeback rejected (no longer sharer/owner).
    WbNack,
    /// L2 → sharer: invalidate; ack `requestor` directly (the requestor may
    /// be the L2 itself during an inclusive-eviction recall).
    Inv {
        /// Node to send `InvAck` to.
        requestor: NodeId,
    },
    /// L2 → owner: forward shared data to `requestor`, downgrade to S, and
    /// send an `OwnerWb` copy to the L2.
    FwdGetS {
        /// Node to send data to.
        requestor: NodeId,
    },
    /// L2 → owner: forward exclusive data to `requestor` and invalidate.
    FwdGetM {
        /// Node to send data to.
        requestor: NodeId,
    },
    /// L2 → owner: return the block (inclusive L2 eviction recall).
    Recall,
    /// Sharer → requestor: invalidation acknowledged.
    InvAck,
    /// Owner → requestor: forwarded data.
    FwdData {
        /// Block data.
        data: DataBlock,
        /// Whether the data is newer than the L2's copy.
        dirty: bool,
        /// True if ownership transfers (M/E); false for a shared copy.
        exclusive: bool,
    },
    /// Owner → L2: data copy accompanying a FwdGetS downgrade.
    OwnerWb {
        /// Block data.
        data: DataBlock,
        /// Whether the data is newer than the L2's copy.
        dirty: bool,
    },
    /// Owner → L2: data returned for a `Recall`.
    RecallData {
        /// Block data.
        data: DataBlock,
        /// Whether the data is newer than the L2's copy.
        dirty: bool,
    },
}

// ---------------------------------------------------------------------------
// The Crossing Guard interface
// ---------------------------------------------------------------------------

/// Data payload on the Crossing Guard interface: one or more host-sized
/// blocks, so that an accelerator whose block size is a multiple of the
/// host's 64 B can move a whole accelerator block per message (paper §2.5).
///
/// A single block — every payload unless block-size translation is on — is
/// held inline, so data messages cost no heap traffic on the common path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XgData(Payload);

/// `Many` never holds exactly one block, so derived equality is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Payload {
    One([DataBlock; 1]),
    Many(Vec<DataBlock>),
}

impl Default for Payload {
    fn default() -> Self {
        Payload::Many(Vec::new())
    }
}

impl XgData {
    /// A payload of exactly one host block (the common case).
    pub fn single(block: DataBlock) -> Self {
        XgData(Payload::One([block]))
    }

    /// A payload of `n` zeroed host blocks.
    pub fn zeroed(n: usize) -> Self {
        if n == 1 {
            return XgData::single(DataBlock::zeroed());
        }
        XgData(Payload::Many(vec![DataBlock::zeroed(); n]))
    }

    /// A payload from a vector of host blocks.
    ///
    /// # Panics
    /// Panics if `blocks` is empty — every data message carries data.
    pub fn from_blocks(blocks: Vec<DataBlock>) -> Self {
        assert!(!blocks.is_empty(), "XgData must carry at least one block");
        match blocks[..] {
            [block] => XgData::single(block),
            _ => XgData(Payload::Many(blocks)),
        }
    }

    /// The constituent host blocks.
    pub fn blocks(&self) -> &[DataBlock] {
        match &self.0 {
            Payload::One(block) => block,
            Payload::Many(blocks) => blocks,
        }
    }

    /// Mutable access to the constituent host blocks.
    pub fn blocks_mut(&mut self) -> &mut [DataBlock] {
        match &mut self.0 {
            Payload::One(block) => block,
            Payload::Many(blocks) => blocks,
        }
    }

    /// Number of host blocks (the accelerator/host block-size ratio).
    pub fn len(&self) -> usize {
        self.blocks().len()
    }

    /// Whether the payload is empty (never true for well-formed messages,
    /// but the fuzzer can construct it).
    pub fn is_empty(&self) -> bool {
        self.blocks().is_empty()
    }
}

impl From<DataBlock> for XgData {
    fn from(b: DataBlock) -> Self {
        XgData::single(b)
    }
}

/// A message on the standardized Crossing Guard interface (paper §2.1).
///
/// `addr` is aligned to the *accelerator* block size (a multiple of the
/// 64 B host block size; usually equal to it).
#[derive(Debug, Clone, PartialEq)]
pub struct XgiMsg {
    /// Accelerator block address.
    pub addr: BlockAddr,
    /// Message kind and payload.
    pub kind: XgiKind,
}

impl XgiMsg {
    /// Convenience constructor.
    pub fn new(addr: BlockAddr, kind: XgiKind) -> Self {
        XgiMsg { addr, kind }
    }
}

/// Kinds of Crossing Guard interface messages.
///
/// The accelerator can make five requests (`GetS`, `GetM`, `PutS`, `PutE`,
/// `PutM`) and receives exactly one of four responses per request (`DataS`,
/// `DataE`, `DataM`, `WbAck`). The host (via Crossing Guard) can make one
/// request (`Inv`) and receives exactly one of three responses (`InvAck`,
/// `CleanWb`, `DirtyWb`). `Put` messages carry data to avoid a multi-phase
/// commit. The accel↔XG network must be ordered in both directions.
#[derive(Debug, Clone, PartialEq)]
pub enum XgiKind {
    /// Accel → XG: request a shared (read-only) copy.
    GetS,
    /// Accel → XG: request an exclusive (read-write) copy.
    GetM,
    /// Accel → XG: evict a shared copy.
    PutS,
    /// Accel → XG: evict a clean-exclusive copy (data included).
    PutE {
        /// Clean block data.
        data: XgData,
    },
    /// Accel → XG: evict a modified copy (data included).
    PutM {
        /// Dirty block data.
        data: XgData,
    },
    /// XG → accel: shared, clean data.
    DataS {
        /// Block data.
        data: XgData,
    },
    /// XG → accel: exclusive, clean data (may answer a GetS).
    DataE {
        /// Block data.
        data: XgData,
    },
    /// XG → accel: exclusive, modified data (may answer a GetS).
    DataM {
        /// Block data.
        data: XgData,
    },
    /// XG → accel: a Put completed.
    WbAck,
    /// XG → accel: relinquish the block now.
    Inv,
    /// Accel → XG: held nothing (or only S); block invalidated.
    InvAck,
    /// Accel → XG: held E; here is the clean data.
    CleanWb {
        /// Clean block data.
        data: XgData,
    },
    /// Accel → XG: held M; here is the dirty data.
    DirtyWb {
        /// Dirty block data.
        data: XgData,
    },
}

impl XgiKind {
    /// Whether this kind is a legal accelerator→XG *request*.
    pub fn is_accel_request(&self) -> bool {
        matches!(
            self,
            XgiKind::GetS
                | XgiKind::GetM
                | XgiKind::PutS
                | XgiKind::PutE { .. }
                | XgiKind::PutM { .. }
        )
    }

    /// Whether this kind is a legal accelerator→XG *response* (to `Inv`).
    pub fn is_accel_response(&self) -> bool {
        matches!(
            self,
            XgiKind::InvAck | XgiKind::CleanWb { .. } | XgiKind::DirtyWb { .. }
        )
    }

    /// This kind without its payload.
    pub fn tag(&self) -> XgiTag {
        match self {
            XgiKind::GetS => XgiTag::GetS,
            XgiKind::GetM => XgiTag::GetM,
            XgiKind::PutS => XgiTag::PutS,
            XgiKind::PutE { .. } => XgiTag::PutE,
            XgiKind::PutM { .. } => XgiTag::PutM,
            XgiKind::DataS { .. } => XgiTag::DataS,
            XgiKind::DataE { .. } => XgiTag::DataE,
            XgiKind::DataM { .. } => XgiTag::DataM,
            XgiKind::WbAck => XgiTag::WbAck,
            XgiKind::Inv => XgiTag::Inv,
            XgiKind::InvAck => XgiTag::InvAck,
            XgiKind::CleanWb { .. } => XgiTag::CleanWb,
            XgiKind::DirtyWb { .. } => XgiTag::DirtyWb,
        }
    }

    /// The payload, for the kinds that carry one.
    pub fn data(&self) -> Option<&XgData> {
        match self {
            XgiKind::PutE { data }
            | XgiKind::PutM { data }
            | XgiKind::DataS { data }
            | XgiKind::DataE { data }
            | XgiKind::DataM { data }
            | XgiKind::CleanWb { data }
            | XgiKind::DirtyWb { data } => Some(data),
            _ => None,
        }
    }

    /// The payload, taken out of the kinds that carry one.
    pub fn into_data(self) -> Option<XgData> {
        match self {
            XgiKind::PutE { data }
            | XgiKind::PutM { data }
            | XgiKind::DataS { data }
            | XgiKind::DataE { data }
            | XgiKind::DataM { data }
            | XgiKind::CleanWb { data }
            | XgiKind::DirtyWb { data } => Some(data),
            _ => None,
        }
    }

    /// Short mnemonic for coverage and traces.
    pub fn mnemonic(&self) -> &'static str {
        self.tag().label()
    }

    /// The kind a stimulus code names (see [`XgiTag::BY_CODE`]); `None`
    /// past the last code. `payload` is called only for a kind that carries
    /// data, so a decoder drawing payloads from an RNG draws exactly when
    /// one is needed.
    pub fn from_code(code: u8, payload: impl FnOnce() -> XgData) -> Option<XgiKind> {
        Some(match *XgiTag::BY_CODE.get(usize::from(code))? {
            XgiTag::GetS => XgiKind::GetS,
            XgiTag::GetM => XgiKind::GetM,
            XgiTag::PutS => XgiKind::PutS,
            XgiTag::PutE => XgiKind::PutE { data: payload() },
            XgiTag::PutM => XgiKind::PutM { data: payload() },
            XgiTag::DataS => XgiKind::DataS { data: payload() },
            XgiTag::DataE => XgiKind::DataE { data: payload() },
            XgiTag::DataM => XgiKind::DataM { data: payload() },
            XgiTag::WbAck => XgiKind::WbAck,
            XgiTag::Inv => XgiKind::Inv,
            XgiTag::InvAck => XgiKind::InvAck,
            XgiTag::CleanWb => XgiKind::CleanWb { data: payload() },
            XgiTag::DirtyWb => XgiKind::DirtyWb { data: payload() },
        })
    }
}

xg_sim::alphabet! {
    /// The interface message kinds without their payloads, labelled as
    /// [`XgiKind::mnemonic`]: the column vocabulary of coverage grids over
    /// interface traffic.
    pub enum XgiTag {
        GetS,
        GetM,
        PutS,
        PutE,
        PutM,
        DataS,
        DataE,
        DataM,
        WbAck,
        Inv,
        InvAck,
        CleanWb,
        DirtyWb,
    }
}

impl XgiTag {
    /// The kinds in stimulus-code order: what an accelerator may request,
    /// what it may answer an `Inv` with, then the kinds only a guard may
    /// legally send. Fuzz schedules (`xg-schedule v1`), corpus files and
    /// checker scripts store these codes, so the order is frozen.
    pub const BY_CODE: [XgiTag; 13] = [
        XgiTag::GetS,
        XgiTag::GetM,
        XgiTag::PutS,
        XgiTag::PutE,
        XgiTag::PutM,
        XgiTag::InvAck,
        XgiTag::CleanWb,
        XgiTag::DirtyWb,
        XgiTag::DataS,
        XgiTag::DataE,
        XgiTag::DataM,
        XgiTag::WbAck,
        XgiTag::Inv,
    ];
}

impl fmt::Display for XgiKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

// ---------------------------------------------------------------------------
// OS error reporting
// ---------------------------------------------------------------------------

/// A message to or from the OS model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsMsg {
    /// Crossing Guard detected an accelerator protocol violation.
    Error(XgError),
    /// OS → Crossing Guard: stop accepting accelerator requests (the
    /// "disable the accelerator" policy of paper §2.2).
    DisableAccelerator,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel copies a `Message` into its slab slot and out again for
    /// every hop, so its size is a cost every event pays; a new field must
    /// fit the 88 bytes (box it, as the multi-block payload is) or move
    /// this number knowingly.
    #[test]
    fn message_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<Message>(), 88);
    }

    #[test]
    fn block_addr_extraction() {
        let m: Message = CoreMsg {
            id: 1,
            addr: Addr::new(0x1008),
            kind: CoreKind::Load,
        }
        .into();
        assert_eq!(m.block_addr(), Some(Addr::new(0x1008).block()));

        let m: Message = XgiMsg::new(BlockAddr::new(7), XgiKind::GetS).into();
        assert_eq!(m.block_addr(), Some(BlockAddr::new(7)));

        let m: Message =
            OsMsg::Error(XgError::new(None, crate::XgErrorKind::ResponseTimeout)).into();
        assert_eq!(m.block_addr(), None);
    }

    #[test]
    fn xgi_request_response_partition() {
        let reqs = [
            XgiKind::GetS,
            XgiKind::GetM,
            XgiKind::PutS,
            XgiKind::PutE {
                data: XgData::zeroed(1),
            },
            XgiKind::PutM {
                data: XgData::zeroed(1),
            },
        ];
        for r in &reqs {
            assert!(r.is_accel_request(), "{r}");
            assert!(!r.is_accel_response(), "{r}");
        }
        let resps = [
            XgiKind::InvAck,
            XgiKind::CleanWb {
                data: XgData::zeroed(1),
            },
            XgiKind::DirtyWb {
                data: XgData::zeroed(1),
            },
        ];
        for r in &resps {
            assert!(r.is_accel_response(), "{r}");
            assert!(!r.is_accel_request(), "{r}");
        }
        assert!(!XgiKind::Inv.is_accel_request());
        assert!(!XgiKind::WbAck.is_accel_response());
    }

    #[test]
    fn xg_data_payloads() {
        let d = XgData::single(DataBlock::splat(3));
        assert_eq!(d.len(), 1);
        assert_eq!(d.blocks(), [DataBlock::splat(3)]);
        let d = XgData::zeroed(4);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        let from: XgData = DataBlock::splat(9).into();
        assert_eq!(from.blocks()[0], DataBlock::splat(9));
        // One block compares equal however the payload was built.
        assert_eq!(XgData::from_blocks(vec![DataBlock::splat(9)]), from);
        assert_eq!(XgData::zeroed(1), XgData::single(DataBlock::zeroed()));
        assert!(XgData::default().is_empty() && XgData::zeroed(0).is_empty());
        let mut two = XgData::from_blocks(vec![DataBlock::splat(1); 2]);
        two.blocks_mut()[1] = DataBlock::splat(2);
        assert_eq!(two.blocks(), [DataBlock::splat(1), DataBlock::splat(2)]);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_payload_panics() {
        let _ = XgData::from_blocks(Vec::new());
    }

    #[test]
    fn classes_are_protocol_qualified() {
        let m: Message = HammerMsg::new(BlockAddr::new(1), HammerKind::GetM).into();
        assert_eq!(m.class(), "Hammer.GetM");
        let m: Message = XgiMsg::new(BlockAddr::new(1), XgiKind::Inv).into();
        assert_eq!(m.class(), "Xgi.Inv");
        let m: Message = OsMsg::DisableAccelerator.into();
        assert_eq!(m.class(), "Os.DisableAccelerator");
        let m: Message = CoreMsg {
            id: 0,
            addr: Addr::new(0),
            kind: CoreKind::Flush,
        }
        .into();
        assert_eq!(m.class(), "Core.Flush");
    }

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(XgiKind::GetS.mnemonic(), "GetS");
        assert_eq!(
            XgiKind::DirtyWb {
                data: XgData::zeroed(1)
            }
            .to_string(),
            "DirtyWb"
        );
    }

    /// The thirteen codes name the thirteen kinds, once each, and only the
    /// data-carrying ones ask for a payload.
    #[test]
    fn codes_decode_to_every_kind_once() {
        let mut seen = Vec::new();
        for code in 0..13u8 {
            let mut asked = false;
            let kind = XgiKind::from_code(code, || {
                asked = true;
                XgData::zeroed(2)
            });
            let kind = kind.expect("a code below 13 names a kind");
            assert_eq!(kind.tag(), XgiTag::BY_CODE[usize::from(code)]);
            assert_eq!(kind.data().map(XgData::len), asked.then_some(2), "{kind}");
            assert!(!seen.contains(&kind.tag()), "{kind} has two codes");
            seen.push(kind.tag());
        }
        assert_eq!(seen.len(), XgiTag::ALL.len());
        let (first, inv_ack, last) = (XgiTag::BY_CODE[0], XgiTag::BY_CODE[5], XgiTag::BY_CODE[12]);
        assert_eq!(
            (first, inv_ack, last),
            (XgiTag::GetS, XgiTag::InvAck, XgiTag::Inv)
        );
        assert_eq!(XgiKind::from_code(13, || XgData::zeroed(1)), None);
    }
}
