//! Canonical state digests for explicit-state model checking
//! ([`CheckDigest`]).

use crate::component::NodeId;

/// Incremental 128-bit digest of a system state, plus the canonical role
/// tables and the obligation counter.
///
/// The `xg-check` small-model checker deduplicates explored system states
/// by hashing every component's *protocol-relevant* state into one 128-bit
/// digest at quiescent (drained) points. Two requirements shape the API:
///
/// * **Canonicalization** — digests must be invariant under relabeling of
///   block addresses and agents (paper-style symmetry reduction). A
///   [`CheckDigest`] therefore carries role tables: raw block addresses and
///   [`NodeId`]s are translated to small canonical *roles* before hashing,
///   and components sort any address- or node-keyed collections **by
///   role**, not by raw value, before folding them in
///   ([`CheckDigest::sorted_by_addr_role`] lends the buffer to do it in).
/// * **Obligation counting** — deadlock detection needs to know whether a
///   drained state still owes work (open transactions, queued demands,
///   pending invalidations). Components add those counts via
///   [`CheckDigest::obligation`]; a quiescent state with nonzero
///   obligations has lost a message or stalled forever.
///
/// Components contribute through [`crate::Component::check_state`]
/// (default: contributes nothing), and a harness folds a whole simulator
/// with [`crate::Simulator::fold_check_state`], passing the node order
/// itself so the digest never depends on registration order.
///
/// **The mixing function.** The digest is two 64-bit lanes. Folding a word
/// `v` in is one *folded multiply* per lane: `h ← lo(p) ^ hi(p)` with
/// `p = (h ⊕ v) · K` taken as the full 128-bit product (`⊕` is xor in one
/// lane and wrapping addition in the other, `K` an odd constant per lane).
/// The high half of the product carries every bit of `h ⊕ v` downwards and
/// the low half carries it upwards, so one multiply mixes a whole word —
/// where the byte-at-a-time FNV this replaced spent eight dependent
/// multiplies on it. Bytes go in eight at a time behind their length, the
/// last word zero-padded; [`CheckDigest::finish`] folds the obligation
/// count in the same way. It is not a cryptographic hash and need not be:
/// its inputs are states of a simulator, not adversarial.
///
/// What it must not do is merge states, and that is checked rather than
/// argued: a weaker hash can only *lose* states (two distinct states
/// sharing a digest are deduplicated into one and the second is never
/// expanded), never invent them, so an exploration that reports the same
/// state count as one under a different hash has seen no collision that
/// mattered under either. The committed baselines were first produced
/// under the FNV digest; under this one the one-address fixpoint (1 698 /
/// 1 555 states, Hammer / MESI), the two-address depth-4 run (1 665 /
/// 4 332) and the two-address depth-6 run the nightly job makes (4 712 /
/// 13 726) all reproduce their state counts exactly, while every
/// fingerprint — a hash of the digests themselves — changed.
///
/// What to exclude, by convention: timestamps, statistics, histograms,
/// RNG state, LRU/recency metadata, and identity-only tokens (epochs) —
/// anything that distinguishes states without changing future protocol
/// behavior would blow up (or, worse, silently fracture) the explored
/// state space.
///
/// A digest is built once per worker and [`reset`](CheckDigest::reset)
/// between states: the role tables and the sort buffers stay, so digesting
/// a state allocates nothing.
#[derive(Debug, Clone)]
pub struct CheckDigest {
    h1: u64,
    h2: u64,
    /// `(raw block address, role)`. A checker world names a handful of
    /// addresses and six nodes, so a scan beats any hash of the key.
    addr_roles: Vec<(u64, u64)>,
    /// `(raw node index, role)`.
    node_roles: Vec<(u32, u64)>,
    obligations: u64,
    /// Emptied [`sorted_by_addr_role`](CheckDigest::sorted_by_addr_role)
    /// buffers: capacity, not state.
    spare_keys: Vec<Vec<u64>>,
}

const SEED_1: u64 = 0xcbf2_9ce4_8422_2325;
const SEED_2: u64 = 0x6a09_e667_f3bc_c908;
/// The lanes' multipliers: odd, bit-balanced, unrelated (2^64 / φ and the
/// first of wyhash's secrets).
const MUL_1: u64 = 0x9e37_79b9_7f4a_7c15;
const MUL_2: u64 = 0xa076_1d64_78bd_642f;

/// The 128-bit product of `a` and `k` folded onto itself: every bit of `a`
/// reaches both halves of the product, and the xor brings them together.
#[inline]
fn fold_mul(a: u64, k: u64) -> u64 {
    let wide = u128::from(a) * u128::from(k);
    (wide as u64) ^ ((wide >> 64) as u64)
}

impl CheckDigest {
    /// A fresh digest with empty role tables and zero obligations.
    pub fn new() -> Self {
        CheckDigest {
            h1: SEED_1,
            h2: SEED_2,
            addr_roles: Vec::new(),
            node_roles: Vec::new(),
            obligations: 0,
            spare_keys: Vec::new(),
        }
    }

    /// Forgets everything written and every obligation, keeps the roles:
    /// the digest of the next state of the same world starts here.
    pub fn reset(&mut self) {
        self.h1 = SEED_1;
        self.h2 = SEED_2;
        self.obligations = 0;
    }

    /// Assigns canonical role `role` to raw block address `addr`. The
    /// checker assigns roles in its fixed address-list order, so any two
    /// worlds over the same *number* of addresses digest identically.
    pub fn assign_addr_role(&mut self, addr: u64, role: u64) {
        match self.addr_roles.iter_mut().find(|(a, _)| *a == addr) {
            Some(entry) => entry.1 = role,
            None => self.addr_roles.push((addr, role)),
        }
    }

    /// Assigns canonical role `role` to `node` (guard = 0, home = 1, ...,
    /// in whatever canonical order the checker fixes).
    pub fn assign_node_role(&mut self, node: NodeId, role: u64) {
        match self.node_roles.iter_mut().find(|(n, _)| *n == node.0) {
            Some(entry) => entry.1 = role,
            None => self.node_roles.push((node.0, role)),
        }
    }

    /// The canonical role of `addr`. Unmapped addresses sort after every
    /// mapped one, keyed by their raw value (deterministic, but not
    /// relabel-invariant — checker worlds must map every address they
    /// touch).
    pub fn addr_role(&self, addr: u64) -> u64 {
        match self.addr_roles.iter().find(|(a, _)| *a == addr) {
            Some(&(_, role)) => role,
            None => u64::MAX ^ addr,
        }
    }

    /// The canonical role of `node` (unmapped nodes key by raw index past
    /// every mapped role).
    pub fn node_role(&self, node: NodeId) -> u64 {
        match self.node_roles.iter().find(|(n, _)| *n == node.0) {
            Some(&(_, role)) => role,
            None => u64::MAX ^ node.index() as u64,
        }
    }

    /// `addrs` in address-role order, in a buffer the digest keeps between
    /// states — hand it back with [`recycle`](CheckDigest::recycle). This
    /// is how a component folds an address-keyed table canonically.
    pub fn sorted_by_addr_role(&mut self, addrs: impl IntoIterator<Item = u64>) -> Vec<u64> {
        let mut keys = self.spare_keys.pop().unwrap_or_default();
        keys.extend(addrs);
        keys.sort_unstable_by_key(|&a| self.addr_role(a));
        keys
    }

    /// The roles of `nodes`, ascending, in a buffer to
    /// [`recycle`](CheckDigest::recycle): a node set folded canonically is
    /// these, each through [`write_u64`](CheckDigest::write_u64).
    pub fn sorted_node_roles(&mut self, nodes: impl IntoIterator<Item = NodeId>) -> Vec<u64> {
        let mut roles = self.spare_keys.pop().unwrap_or_default();
        roles.extend(nodes.into_iter().map(|n| self.node_role(n)));
        roles.sort_unstable();
        roles
    }

    /// Takes back a buffer one of the two sorts above lent out.
    pub fn recycle(&mut self, mut keys: Vec<u64>) {
        keys.clear();
        self.spare_keys.push(keys);
    }

    /// Both lanes after folding `v` in: one folded multiply each, under
    /// unrelated multipliers, the word entering one lane by xor and the
    /// other by addition so no single difference cancels in both.
    #[inline]
    fn mixed(&self, v: u64) -> (u64, u64) {
        (
            fold_mul(self.h1 ^ v, MUL_1),
            fold_mul(self.h2.wrapping_add(v), MUL_2),
        )
    }

    /// Folds a raw `u64` into the digest.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        (self.h1, self.h2) = self.mixed(v);
    }

    /// Folds raw bytes into the digest: their length, then the bytes eight
    /// at a time, the last word zero-padded (the length tells a trailing
    /// zero byte from no byte).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // Little-endian, built by shifts: no copy into a padded buffer.
            let word = tail.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b));
            self.write_u64(word);
        }
    }

    /// Folds a label into the digest (section headers, variant tags).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Folds a block address into the digest *by role*.
    pub fn write_addr(&mut self, addr: u64) {
        let role = self.addr_role(addr);
        self.write_u64(role);
    }

    /// Folds a node identity into the digest *by role*.
    pub fn write_node(&mut self, node: NodeId) {
        let role = self.node_role(node);
        self.write_u64(role);
    }

    /// Records `n` outstanding obligations (open transactions, queued or
    /// pending work that must eventually complete).
    pub fn obligation(&mut self, n: u64) {
        self.obligations += n;
    }

    /// Total obligations recorded so far.
    pub fn obligations(&self) -> u64 {
        self.obligations
    }

    /// The 128-bit digest of everything written so far. Obligations are
    /// folded in (they are part of the state, not just a side channel).
    pub fn finish(&self) -> u128 {
        let (h1, h2) = self.mixed(self.obligations);
        (u128::from(h1) << 64) | u128::from(h2)
    }
}

impl Default for CheckDigest {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_translation_makes_digests_relabel_invariant() {
        let run = |addrs: [u64; 2], nodes: [usize; 2]| {
            let mut d = CheckDigest::new();
            d.assign_addr_role(addrs[0], 0);
            d.assign_addr_role(addrs[1], 1);
            d.assign_node_role(NodeId::from_index(nodes[0]), 0);
            d.assign_node_role(NodeId::from_index(nodes[1]), 1);
            d.write_str("section");
            d.write_addr(addrs[1]);
            d.write_node(NodeId::from_index(nodes[0]));
            d.obligation(2);
            d.finish()
        };
        assert_eq!(run([0x40, 0x80], [3, 7]), run([0x1000, 0x2340], [11, 2]));
        assert_ne!(run([0x40, 0x80], [3, 7]), {
            let d = CheckDigest::new();
            d.finish()
        });
    }

    #[test]
    fn obligations_distinguish_otherwise_equal_states() {
        let mut a = CheckDigest::new();
        let mut b = CheckDigest::new();
        a.write_str("x");
        b.write_str("x");
        b.obligation(1);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(a.obligations(), 0);
        assert_eq!(b.obligations(), 1);
    }

    #[test]
    fn writes_are_order_sensitive_and_length_prefixed() {
        let mut a = CheckDigest::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = CheckDigest::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn a_trailing_zero_byte_is_not_padding() {
        let of = |bytes: &[u8]| {
            let mut d = CheckDigest::new();
            d.write_bytes(bytes);
            d.finish()
        };
        // Across the word boundaries at 8 and 16: zero-filled buffers of
        // every length differ (so `n` zeroes never read as `n + 1`), and so
        // does any buffer from itself with a zero appended.
        let zeroes: Vec<u128> = (0..=17).map(|n| of(&[0u8; 17][..n])).collect();
        for (n, a) in zeroes.iter().enumerate() {
            assert!(!zeroes[..n].contains(a), "{n} zero bytes alias fewer");
        }
        for n in 0..=17 {
            let mut bytes = vec![0xab_u8; n];
            let short = of(&bytes);
            bytes.push(0);
            assert_ne!(short, of(&bytes), "trailing zero after {n} bytes");
        }
    }

    /// `write_bytes` folds exactly the words it always did — the padded
    /// copy it used to make of every chunk is the reference — so no
    /// committed fingerprint moves.
    #[test]
    fn write_bytes_folds_zero_padded_little_endian_words() {
        let bytes: Vec<u8> = (1..=40u8).map(|b| b.wrapping_mul(37)).collect();
        for n in 0..=40 {
            let mut reference = CheckDigest::new();
            reference.write_u64(n as u64);
            for chunk in bytes[..n].chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                reference.write_u64(u64::from_le_bytes(word));
            }
            let mut d = CheckDigest::new();
            d.write_bytes(&bytes[..n]);
            assert_eq!(d.finish(), reference.finish(), "{n} bytes");
        }
    }

    #[test]
    fn both_lanes_see_every_word() {
        // A one-bit difference in any of three words reaches both halves.
        let of = |words: [u64; 3]| {
            let mut d = CheckDigest::new();
            words.into_iter().for_each(|w| d.write_u64(w));
            d.finish()
        };
        let base = of([1, 2, 3]);
        for i in 0..3 {
            let mut words = [1, 2, 3];
            words[i] ^= 1 << 40;
            let other = of(words);
            assert_ne!(base >> 64, other >> 64, "word {i}, high lane");
            assert_ne!(base as u64, other as u64, "word {i}, low lane");
        }
    }

    #[test]
    fn reset_is_a_fresh_digest_with_the_same_roles() {
        let with_roles = || {
            let mut d = CheckDigest::new();
            d.assign_addr_role(0x40, 0);
            d.assign_addr_role(0x80, 1);
            d.assign_node_role(NodeId::from_index(5), 0);
            d
        };
        let state = |d: &mut CheckDigest| {
            let addrs = d.sorted_by_addr_role([0x80, 0x1234, 0x40]);
            assert_eq!(addrs, [0x40, 0x80, 0x1234], "mapped first, by role");
            addrs.iter().for_each(|&a| d.write_addr(a));
            d.recycle(addrs);
            d.write_node(NodeId::from_index(5));
            d.obligation(1);
            d.finish()
        };
        let mut used = with_roles();
        used.write_str("an earlier state");
        used.obligation(3);
        used.reset();
        assert_eq!(used.obligations(), 0);
        assert_eq!(state(&mut used), state(&mut with_roles()));
        // Re-assigning a role replaces it.
        used.assign_addr_role(0x40, 7);
        assert_eq!(used.addr_role(0x40), 7);
    }
}
