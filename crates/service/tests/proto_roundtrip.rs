//! Wire-codec round-trip pins over the whole corpus, plus property
//! tests: decoding must be total (never a panic) on arbitrary bytes,
//! arbitrary truncations, and arbitrary single-byte corruptions of
//! valid encodings.

use proptest::prelude::*;
use rt_service::proto::{
    decode_hello, decode_ping, decode_pong, decode_reply, decode_request, encode_hello,
    encode_ping, encode_pong, encode_request, frame_kind, MSG_HELLO, MSG_PING, MSG_PONG,
};
use rt_service::Request;
use rt_stg::corpus;

/// Every corpus model — including the big generated fabrics and the
/// 16-bit adder — survives encode → decode → re-encode exactly: same
/// bytes, and an STG equal to the original in every field, per-place
/// arc order included.
#[test]
fn the_entire_corpus_roundtrips_byte_exactly() {
    let mut models = corpus::sweep();
    models.push(("adder16".to_string(), corpus::adder16_rt_stg()));
    models.push(("fabric4x4".to_string(), corpus::fabric4x4_stg()));
    assert!(models.len() >= 10, "corpus unexpectedly small");
    for (name, stg) in models {
        let request = Request::csc_check(stg.clone());
        let bytes = encode_request(&request);
        let decoded = decode_request(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            encode_request(&decoded),
            bytes,
            "{name}: re-encode identity"
        );
        let rt_service::RequestPayload::CscCheck { stg: rebuilt } = &decoded.payload else {
            panic!("{name}: wrong kind");
        };
        assert_eq!(rebuilt, &stg, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic either decoder — they decode or they
    /// produce a typed error.
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_request(&bytes);
        let _ = decode_reply(&bytes);
    }

    /// Any truncation of a valid encoding is rejected (or, at full
    /// length, decodes); no prefix ever panics or silently yields a
    /// different request.
    fn truncations_of_valid_encodings_are_typed_errors(
        model in 0usize..6,
        keep_permille in 0u32..1000,
    ) {
        let models = corpus::sweep();
        let (_, stg) = &models[model % models.len()];
        let bytes = encode_request(&Request::summary(stg.clone()));
        let keep = (bytes.len() as u64 * u64::from(keep_permille) / 1000) as usize;
        prop_assert!(decode_request(&bytes[..keep]).is_err(), "a strict prefix cannot decode");
    }

    /// Control frames hold the same properties as the work frames:
    /// every nonce and every client id round-trips exactly, the kinds
    /// are mutually exclusive, and corrupting the kind byte yields a
    /// typed error or a different frame — never a panic.
    fn control_frames_roundtrip_for_every_nonce_and_id(
        nonce in any::<u64>(),
        id_seed in prop::collection::vec(any::<u8>(), 0..40),
        kind_delta in 1u8..=255,
    ) {
        // Printable-ASCII client ids; the unit tests cover wider UTF-8.
        let id: String = id_seed.iter().map(|b| char::from(b % 94 + 33)).collect();
        let ping = encode_ping(nonce);
        let pong = encode_pong(nonce);
        let hello = encode_hello(&id);
        prop_assert_eq!(decode_ping(&ping).expect("ping decodes"), nonce);
        prop_assert_eq!(decode_pong(&pong).expect("pong decodes"), nonce);
        prop_assert_eq!(decode_hello(&hello).expect("hello decodes"), id);
        prop_assert_eq!(frame_kind(&ping), Some(MSG_PING));
        prop_assert_eq!(frame_kind(&pong), Some(MSG_PONG));
        prop_assert_eq!(frame_kind(&hello), Some(MSG_HELLO));
        prop_assert!(decode_pong(&ping).is_err(), "kinds are mutually exclusive");
        prop_assert!(decode_ping(&pong).is_err());
        prop_assert!(decode_hello(&ping).is_err());
        for frame in [&ping, &pong, &hello] {
            let mut corrupt = frame.clone();
            corrupt[1] = corrupt[1].wrapping_add(kind_delta);
            let _ = decode_ping(&corrupt);
            let _ = decode_pong(&corrupt);
            let _ = decode_hello(&corrupt);
            let _ = decode_request(&corrupt);
        }
    }

    /// Single-byte corruption never panics, and when the corrupted
    /// payload still decodes, re-encoding it is still the identity on
    /// the corrupted bytes (the codec has one canonical form).
    fn single_byte_corruption_is_total(
        model in 0usize..6,
        position_seed in any::<u32>(),
        delta in 1u8..=255,
    ) {
        let models = corpus::sweep();
        let (_, stg) = &models[model % models.len()];
        let mut bytes = encode_request(&Request::summary(stg.clone()));
        let position = position_seed as usize % bytes.len();
        bytes[position] = bytes[position].wrapping_add(delta);
        if let Ok(decoded) = decode_request(&bytes) {
            prop_assert_eq!(encode_request(&decoded), bytes);
        }
    }
}
