//! The `ctxpref2` codec's golden bytes: every request and response
//! variant pinned to its exact payload (and decoded back), plus the
//! structural refusals — nested batches, unknown tags and tiers,
//! truncation at every offset, trailing bytes. A change to the wire
//! format fails here even when encode and decode change together.

use ctxpref_net::{
    decode_request, decode_response, encode_request, encode_request_enveloped, encode_response,
    is_binary, AnswerRow, DecodeKind, MigrateAction, Priority, RemoteAnswer, Request, Response,
    WireFallback, BINARY_MAGIC, BINARY_VERSION,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `msg.pinned(golden)`: the payload is exactly `golden` (hex) and
/// decodes back to `msg`. A change that encode and decode make
/// symmetrically passes a round trip, but not this.
trait Pinned {
    fn pinned(self, golden: &str);
}

impl Pinned for Request {
    fn pinned(self, golden: &str) {
        let payload = encode_request(0x1234_5678_9abc, &self);
        assert_eq!(hex(&payload), golden, "wire bytes of {self:?}");
        assert!(is_binary(&payload));
        let back = decode_request(&payload).expect("decode");
        assert_eq!(back.id, 0x1234_5678_9abc);
        assert_eq!(back.budget_ms, 0);
        assert_eq!(back.tier, Priority::Interactive);
        assert_eq!(back.req, self);
        // The enveloped form carries the budget and tier through.
        let payload = encode_request_enveloped(7, &self, 1500, Priority::Bulk);
        let back = decode_request(&payload).expect("decode enveloped");
        assert_eq!(back.budget_ms, 1500);
        assert_eq!(back.tier, Priority::Bulk);
        assert_eq!(back.req, self);
    }
}

impl Pinned for Response {
    fn pinned(self, golden: &str) {
        let payload = encode_response(7, &self);
        assert_eq!(hex(&payload), golden, "wire bytes of {self:?}");
        let back = decode_response(&payload).expect("decode");
        assert_eq!(back.id, 7);
        assert_eq!(back.resp, self);
    }
}

#[test]
fn all_requests_roundtrip() {
    Request::Ping.pinned("c20401bcb5e2b3c5c6040000");
    Request::Query {
        user: "Ano Poli visitor".into(),
        attr: "name".into(),
        k: 10,
        deadline_ms: 250,
        state: vec!["Plaka".into(), "warm".into(), "friends".into()],
    }
    .pinned(
        "c20402bcb5e2b3c5c604000010416e6f20506f6c692076697369746f72046e616d650afa01030550\
         6c616b61047761726d07667269656e6473",
    );
    Request::TopK {
        user: "Ano Poli visitor".into(),
        attr: "name".into(),
        k: 3,
        deadline_ms: 100,
        state: vec!["Plaka".into(), "warm".into(), "friends".into()],
    }
    .pinned(
        "c20413bcb5e2b3c5c604000010416e6f20506f6c692076697369746f72046e616d6503640305506c\
         616b61047761726d07667269656e6473",
    );
    Request::ViewsStatus.pinned("c20414bcb5e2b3c5c6040000");
    Request::QueryDescriptor {
        user: "me".into(),
        attr: "name".into(),
        k: 3,
        descriptor: "location = Athens".into(),
    }
    .pinned("c20403bcb5e2b3c5c6040000026d65046e616d6503116c6f636174696f6e203d20417468656e73");
    Request::AddUser { user: "".into() }.pinned("c20404bcb5e2b3c5c604000000");
    Request::RemoveUser {
        user: "a\nb".into(),
    }
    .pinned("c20405bcb5e2b3c5c604000003610a62");
    Request::InsertPref {
        user: "me".into(),
        descriptor: "accompanying_people = family".into(),
        attr: "type".into(),
        value: "zoo".into(),
        score: 0.95,
    }
    .pinned(
        "c20406bcb5e2b3c5c6040000026d651c6163636f6d70616e79696e675f70656f706c65203d206661\
         6d696c790474797065037a6f6f666666666666ee3f",
    );
    Request::RemovePref {
        user: "me".into(),
        index: 7,
    }
    .pinned("c20407bcb5e2b3c5c6040000026d6507");
    Request::UpdateScore {
        user: "me".into(),
        index: 2,
        score: 0.125,
    }
    .pinned("c20408bcb5e2b3c5c6040000026d6502000000000000c03f");
    Request::Checkpoint.pinned("c20409bcb5e2b3c5c6040000");
    Request::FlushWal.pinned("c2040abcb5e2b3c5c6040000");
    Request::WalStatus.pinned("c2040bbcb5e2b3c5c6040000");
    Request::ReplStatus.pinned("c2040cbcb5e2b3c5c6040000");
    Request::Stats.pinned("c2040dbcb5e2b3c5c6040000");
    Request::RouteStatus.pinned("c2040ebcb5e2b3c5c6040000");
    Request::Scrub.pinned("c20411bcb5e2b3c5c6040000");
    Request::ScrubStatus.pinned("c20412bcb5e2b3c5c6040000");
    let migrate = |action| Request::MigrateUser {
        user: "u".into(),
        epoch: 9,
        action,
    };
    migrate(MigrateAction::Export).pinned("c2040fbcb5e2b3c5c604000001750901");
    migrate(MigrateAction::Snapshot).pinned("c2040fbcb5e2b3c5c604000001750902");
    migrate(MigrateAction::Pull {
        from_lsn: 42,
        max: 64,
    })
    .pinned("c2040fbcb5e2b3c5c6040000017509032a40");
    migrate(MigrateAction::Fence).pinned("c2040fbcb5e2b3c5c604000001750904");
    migrate(MigrateAction::Import {
        src_lsn: 17,
        ops: vec![b"add user\x01x".to_vec(), vec![]],
    })
    .pinned("c2040fbcb5e2b3c5c60400000175090511020a6164642075736572017800");
    migrate(MigrateAction::Apply {
        through: 99,
        records: vec![(18, b"score user 0 0.5".to_vec()), (21, vec![0, 255, 7])],
    })
    .pinned(
        "c2040fbcb5e2b3c5c6040000017509066302121073636f72652075736572203020302e35150300ff\
         07",
    );
    migrate(MigrateAction::Activate).pinned("c2040fbcb5e2b3c5c604000001750907");
    migrate(MigrateAction::Finish).pinned("c2040fbcb5e2b3c5c604000001750908");
    migrate(MigrateAction::Abort).pinned("c2040fbcb5e2b3c5c604000001750909");
    Request::Batch {
        requests: vec![
            Request::AddUser { user: "a".into() },
            Request::InsertPref {
                user: "a".into(),
                descriptor: "d = x".into(),
                attr: "t".into(),
                value: "v".into(),
                score: 0.5,
            },
            Request::Ping,
        ],
    }
    .pinned("c20410bcb5e2b3c5c6040000030401610601610564203d207801740176000000000000e03f01");
}

#[test]
fn all_responses_roundtrip() {
    Response::Pong.pinned("c2040107");
    Response::Ok.pinned("c2040207");
    Response::Removed { score: 0.5 }.pinned("c2040307000000000000e03f");
    Response::Answer(RemoteAnswer {
        step: "nearest-state".into(),
        elapsed_us: 1234,
        resolved_state: Some("(Athens, warm, all)".into()),
        fallbacks: vec![WireFallback {
            step: "exact".into(),
            reason: "panic: injected".into(),
        }],
        rows: vec![
            AnswerRow {
                name: "Acropolis Museum".into(),
                score: 0.9,
            },
            AnswerRow {
                name: "Plaka walk".into(),
                score: 0.25,
            },
        ],
    })
    .pinned(
        "c20404070d6e6561726573742d7374617465d209011328417468656e732c207761726d2c20616c6c\
         29010565786163740f70616e69633a20696e6a656374656402104163726f706f6c6973204d757365\
         756dcdccccccccccec3f0a506c616b612077616c6b000000000000d03f",
    );
    // The other resolved-state arm, with empty vectors.
    Response::Answer(RemoteAnswer {
        step: "exact".into(),
        elapsed_us: 0,
        resolved_state: None,
        fallbacks: vec![],
        rows: vec![],
    })
    .pinned("c204040705657861637400000000");
    Response::Text {
        body: "appends 12\nshard 0: …\n".into(),
    }
    .pinned("c204050718617070656e64732031320a736861726420303a20e280a60a");
    Response::Busy {
        limit: 4,
        retry_after_ms: 120,
    }
    .pinned("c20406070478");
    Response::Err {
        kind: "core".into(),
        message: "no such user \"ghost\"".into(),
    }
    .pinned("c204070704636f7265146e6f20737563682075736572202267686f737422");
    Response::NotPrimary.pinned("c2040807");
    Response::Migrating { user: "u".into() }.pinned("c20409070175");
    Response::UserCut {
        present: true,
        shard: 3,
        last_lsn: 117,
        digest: 0xDEAD_BEEF_DEAD_BEEF,
    }
    .pinned("c2040a07010375efbeaddeefbeadde");
    Response::Snapshot {
        src_lsn: 12,
        ops: vec![b"add me".to_vec(), vec![1, 2, 3]],
    }
    .pinned("c2040b070c0206616464206d6503010203");
    Response::Records {
        through: 40,
        records: vec![(39, b"ins me pref".to_vec()), (40, vec![255])],
    }
    .pinned("c2040c072802270b696e73206d6520707265662801ff");
    Response::Gone.pinned("c2040d07");
    Response::Applied { watermark: 88 }.pinned("c2040e0758");
    Response::RouteInfo {
        has_primary: true,
        epoch: 4,
        users: 1000,
        migrations: 2,
    }
    .pinned("c2040f070104e80702");
    Response::Batch {
        responses: vec![
            Response::Ok,
            Response::Err {
                kind: "core".into(),
                message: "nope".into(),
            },
        ],
    }
    .pinned("c204100702020704636f7265046e6f7065");
    Response::ScrubReport {
        segments_verified: 12,
        checkpoints_verified: 1,
        read_errors: 2,
        quarantined: 1,
        healed: true,
    }
    .pinned("c20411070c01020101");
    Response::ScrubInfo {
        passes: 9,
        quarantined: 1,
        read_errors: 3,
        heals: 1,
        rescued_shards: 2,
        disk_full_sheds: 4,
        rotate_failures: 0,
    }
    .pinned("c204120709010301020400");
    // (node, figure) pairs: a count, then each pair's two varints.
    Response::Checkpointed {
        nodes: vec![(0, 1), (1, 3), (2, 300)],
    }
    .pinned("c2041307030001010302ac02");
    Response::Flushed {
        nodes: vec![(0, 2), (1, 0)],
    }
    .pinned("c20414070200020100");
}

#[test]
fn nested_batches_are_rejected() {
    let nested = Request::Batch {
        requests: vec![Request::Batch {
            requests: vec![Request::Ping],
        }],
    };
    let payload = encode_request(1, &nested);
    let err = decode_request(&payload).unwrap_err();
    assert!(matches!(err.kind, DecodeKind::BadTag { .. }));
    // At the inner batch's own tag: header (6 bytes), item count.
    assert_eq!(err.offset, 7);
}

#[test]
fn an_unknown_top_level_tag_is_reported_at_its_own_byte() {
    let payload = [BINARY_MAGIC, BINARY_VERSION, 99, 1, 0, 0];
    for err in [
        decode_request(&payload).unwrap_err(),
        decode_response(&payload).unwrap_err(),
    ] {
        assert!(
            matches!(err.kind, DecodeKind::BadTag { tag: 99, .. }),
            "got {err:?}"
        );
        assert_eq!(err.offset, 2, "{err}");
    }
}

#[test]
fn unknown_tier_tag_fails_typed() {
    let mut payload = vec![BINARY_MAGIC, BINARY_VERSION, 1, 0, 0, 3];
    let err = decode_request(&payload).unwrap_err();
    assert!(
        matches!(
            err.kind,
            DecodeKind::BadTag {
                what: "priority tier",
                tag: 3
            }
        ),
        "got {err:?}"
    );
    assert_eq!(err.offset, 5);
    // A valid tier decodes.
    payload[5] = 2;
    let back = decode_request(&payload).expect("maintenance ping");
    assert_eq!(back.tier, Priority::Maintenance);
}

#[test]
fn truncation_at_every_offset_fails_typed() {
    let req = Request::Query {
        user: "alice".into(),
        attr: "name".into(),
        k: 5,
        deadline_ms: 250,
        state: vec!["Plaka".into(), "warm".into()],
    };
    let payload = encode_request(99, &req);
    for cut in 0..payload.len() {
        assert!(
            decode_request(&payload[..cut]).is_err(),
            "cut at {cut} decoded"
        );
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut payload = encode_request(1, &Request::Ping);
    payload.push(0);
    let err = decode_request(&payload).unwrap_err();
    assert_eq!(err.kind, DecodeKind::TrailingBytes);
}
