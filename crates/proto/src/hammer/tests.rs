//! The Hammer rules on hand-built responses.

use super::*;

fn block(byte: u8) -> DataBlock {
    DataBlock::splat(byte)
}

/// A Get with memory's data in and `peers` peer responses announced.
fn from_mem(peers: u32) -> Collect {
    let mut got = Collect::default();
    got.mem_data(block(0), peers);
    got
}

#[test]
fn a_get_completes_with_memory_and_every_announced_peer() {
    let mut got = Collect::default();
    assert!(!got.complete(), "nothing collected");
    got.resp_ack(false);
    assert!(!got.complete(), "a peer answered before memory");
    got.mem_data(block(0), 2);
    assert!(!got.complete(), "one of two peers still out");
    got.resp_ack(true);
    assert!(got.complete());
    assert_eq!(grant(GetKind::S, &Collect::default(), None), None);
}

#[test]
fn dirty_data_wins_and_a_second_copy_is_reported() {
    let mut got = from_mem(3);
    assert!(!got.resp_data(block(1), false, true), "first copy");
    assert!(got.resp_data(block(2), true, true), "second copy");
    assert!(got.resp_data(block(3), false, true), "third copy");
    got.resp_ack(false);
    // The dirty copy replaced the clean one; the later clean one did not
    // replace it.
    assert_eq!(
        grant(GetKind::M, &got, None),
        Some((Grant::M, true, block(2)))
    );

    let mut first = from_mem(2);
    first.resp_data(block(1), false, true);
    first.resp_data(block(2), false, true);
    let (_, _, data) = grant(GetKind::M, &first, None).unwrap();
    assert_eq!(data, block(1), "between clean copies the first wins");
}

#[test]
fn a_read_is_exclusive_only_when_no_peer_keeps_a_copy() {
    let alone = from_mem(1);
    let mut acked = alone.clone();
    acked.resp_ack(false);
    assert_eq!(
        grant(GetKind::S, &acked, None),
        Some((Grant::E, false, block(0)))
    );
    assert_eq!(
        grant(GetKind::SOnly, &acked, None),
        Some((Grant::S, false, block(0))),
        "a non-upgradable read is never exclusive"
    );

    let mut sharer = alone.clone();
    sharer.resp_ack(true);
    assert_eq!(
        grant(GetKind::S, &sharer, None),
        Some((Grant::S, false, block(0)))
    );

    // Owner data: kept by the owner means shared; handed over means
    // exclusive, modified when dirty.
    for (keeps, dirty, want) in [
        (true, true, Grant::S),
        (true, false, Grant::S),
        (false, true, Grant::M),
        (false, false, Grant::E),
    ] {
        let mut owned = alone.clone();
        owned.resp_data(block(7), dirty, keeps);
        let (state, got_dirty, data) = grant(GetKind::S, &owned, None).unwrap();
        assert_eq!(
            (state, data),
            (want, block(7)),
            "keeps {keeps} dirty {dirty}"
        );
        assert_eq!(got_dirty, want == Grant::M);
        let (state, _, _) = grant(GetKind::SOnly, &owned, None).unwrap();
        assert_eq!(state, Grant::S);
    }
}

#[test]
fn a_write_takes_peer_data_then_the_retained_copy_then_memory() {
    let mut acked = from_mem(1);
    acked.resp_ack(true);
    let retained = Some((block(5), true));
    assert_eq!(
        grant(GetKind::M, &acked, retained),
        Some((Grant::M, true, block(5)))
    );
    assert_eq!(
        grant(GetKind::M, &acked, None),
        Some((Grant::M, false, block(0)))
    );

    let mut owned = from_mem(1);
    owned.resp_data(block(9), false, false);
    assert_eq!(
        grant(GetKind::M, &owned, retained),
        Some((Grant::M, false, block(9)))
    );
}

#[test]
fn only_an_owner_answers_with_data_and_only_a_write_takes_it() {
    let owned = Held::Owned {
        data: block(4),
        dirty: true,
    };
    for takes in [false, true] {
        assert_eq!(
            answer(owned, takes),
            HammerKind::RespData {
                data: block(4),
                dirty: true,
                owner_keeps_copy: !takes,
            }
        );
        assert_eq!(
            answer(Held::Shared, takes),
            HammerKind::RespAck { had_copy: true }
        );
        assert_eq!(
            answer(Held::Nothing, takes),
            HammerKind::RespAck { had_copy: false }
        );
    }
}

/// The reader of an owner with a writeback pending installs `S`: the
/// owner may have sharers, and an exclusive copy beside them would break
/// single-writer-or-multiple-readers.
#[test]
fn a_reader_served_by_a_pending_writeback_installs_shared() {
    let wb = Held::Owned {
        data: block(3),
        dirty: true,
    };
    let HammerKind::RespData {
        data,
        dirty,
        owner_keeps_copy,
    } = answer(wb, false)
    else {
        panic!("an owner answers with data");
    };
    let mut got = from_mem(2);
    got.resp_data(data, dirty, owner_keeps_copy);
    got.resp_ack(true);
    assert_eq!(
        grant(GetKind::S, &got, None),
        Some((Grant::S, false, block(3)))
    );
    assert_eq!(Grant::S.unblock(), HammerKind::Unblock { new_owner: false });
    assert_eq!(Grant::E.unblock(), HammerKind::Unblock { new_owner: true });
}

#[test]
fn the_digest_tells_collections_apart() {
    let digest = |got: &Collect| {
        let mut out = CheckDigest::new();
        got.digest(&mut out);
        out.finish()
    };
    let mut acked = from_mem(2);
    acked.resp_ack(false);
    let mut shared = from_mem(2);
    shared.resp_ack(true);
    let mut owned = from_mem(2);
    owned.resp_data(block(1), false, true);
    let all = [Collect::default(), from_mem(2), acked, shared, owned];
    for (i, a) in all.iter().enumerate() {
        for b in &all[i + 1..] {
            assert_ne!(digest(a), digest(b), "{a:?} vs {b:?}");
        }
        assert_eq!(digest(a), digest(&a.clone()));
    }
    assert_eq!(GetKind::M.request(), HammerKind::GetM);
    assert_eq!(GetKind::SOnly.request(), HammerKind::GetSOnly);
}
