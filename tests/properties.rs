//! Property-based tests (proptest) on the core invariants: crypto
//! roundtrips, framing robustness against arbitrary segmentation,
//! server engines never panicking on adversarial bytes, filter
//! soundness, and model bounds.

use gfwsim::shadowsocks::addr::{parse_spec, ParseOutcome};
use gfwsim::shadowsocks::bloom::PingPongBloom;
use gfwsim::shadowsocks::server::ServerConn;
use gfwsim::shadowsocks::wire::{AeadDecryptor, AeadEncryptor, StreamDecryptor, StreamEncryptor};
use gfwsim::shadowsocks::{ClientSession, Profile, ServerConfig, TargetAddr};
use gfwsim::sscrypto::method::{Kind, Method, ALL_METHODS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn method_strategy() -> impl Strategy<Value = Method> {
    (0..ALL_METHODS.len()).prop_map(|i| ALL_METHODS[i])
}

fn stream_method() -> impl Strategy<Value = Method> {
    method_strategy().prop_filter("stream only", |m| m.kind() == Kind::Stream)
}

fn aead_method() -> impl Strategy<Value = Method> {
    method_strategy().prop_filter("aead only", |m| m.kind() == Kind::Aead)
}

fn profile_strategy() -> impl Strategy<Value = Profile> {
    (0..Profile::ALL.len()).prop_map(|i| Profile::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stream construction roundtrips for any payload and any split.
    #[test]
    fn stream_roundtrip(
        m in stream_method(),
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
        split in 0usize..2000,
    ) {
        let key = gfwsim::sscrypto::kdf::evp_bytes_to_key(b"prop-pw", m.key_len());
        let iv = vec![0x33u8; m.iv_len()];
        let mut enc = StreamEncryptor::new(m, &key, iv);
        let mut wire = Vec::new();
        enc.encrypt_into(&payload, &mut wire);
        let mut dec = StreamDecryptor::new(m, &key);
        let cut = split.min(wire.len());
        let mut plain = Vec::new();
        dec.decrypt_into(&wire[..cut], &mut plain);
        dec.decrypt_into(&wire[cut..], &mut plain);
        prop_assert_eq!(plain, payload);
    }

    /// AEAD construction roundtrips for any payload and any
    /// segmentation into three pieces.
    #[test]
    fn aead_roundtrip(
        m in aead_method(),
        payload in proptest::collection::vec(any::<u8>(), 1..2000),
        a in 0usize..2100,
        b in 0usize..2100,
    ) {
        let key = gfwsim::sscrypto::kdf::evp_bytes_to_key(b"prop-pw", m.key_len());
        let salt = vec![0x44u8; m.iv_len()];
        let mut enc = AeadEncryptor::new(m, &key, salt);
        let mut wire = Vec::new();
        enc.seal_into(&payload, &mut wire);
        let mut dec = AeadDecryptor::new(m, &key);
        let c1 = a.min(wire.len());
        let c2 = (c1 + b).min(wire.len());
        let mut plain = Vec::new();
        for part in [&wire[..c1], &wire[c1..c2], &wire[c2..]] {
            for chunk in dec.decrypt(part).unwrap() {
                plain.extend(chunk);
            }
        }
        prop_assert_eq!(plain, payload);
    }

    /// Any single-byte corruption of an AEAD first packet fails
    /// authentication (no silent acceptance).
    #[test]
    fn aead_any_flip_rejected(
        m in aead_method(),
        payload in proptest::collection::vec(any::<u8>(), 1..500),
        flip_pos_seed in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        let key = gfwsim::sscrypto::kdf::evp_bytes_to_key(b"prop-pw", m.key_len());
        let mut enc = AeadEncryptor::new(m, &key, vec![0x55u8; m.iv_len()]);
        let mut wire = Vec::new();
        enc.seal_into(&payload, &mut wire);
        let pos = (flip_pos_seed as usize) % wire.len();
        wire[pos] ^= 1 << flip_bit;
        let mut dec = AeadDecryptor::new(m, &key);
        match dec.decrypt(&wire) {
            // Authentication failure: correct.
            Err(_) => {}
            // No complete chunk may decrypt successfully.
            Ok(chunks) => prop_assert!(
                chunks.concat() != payload,
                "corrupted wire decrypted to the original at pos {pos}"
            ),
        }
    }

    /// The target-spec parser never panics and roundtrips encodings.
    #[test]
    fn spec_parser_total(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = parse_spec(&bytes, false);
        let _ = parse_spec(&bytes, true);
    }

    #[test]
    fn spec_roundtrip_ipv4(ip in any::<[u8; 4]>(), port in any::<u16>()) {
        let t = TargetAddr::Ipv4(ip, port);
        prop_assert_eq!(parse_spec(&t.encode(), false), ParseOutcome::Complete(t, 7));
    }

    #[test]
    fn spec_roundtrip_hostname(
        name in proptest::collection::vec(any::<u8>(), 0..255),
        port in any::<u16>(),
    ) {
        let t = TargetAddr::Hostname(name.clone(), port);
        let enc = t.encode();
        prop_assert_eq!(
            parse_spec(&enc, false),
            ParseOutcome::Complete(t, enc.len())
        );
    }

    /// Server engines are total: arbitrary bytes, arbitrarily split,
    /// against every profile and method, never panic — and never
    /// produce plaintext relay data (no decryption oracle on junk).
    #[test]
    fn server_engine_total_on_junk(
        profile in profile_strategy(),
        m in method_strategy(),
        junk in proptest::collection::vec(any::<u8>(), 0..600),
        split in 0usize..600,
    ) {
        prop_assume!(profile.supports_stream || m.kind() == Kind::Aead);
        let config = ServerConfig::new(m, "prop-pw", profile);
        let mut server = ServerConn::new(config, 1);
        let conn = server.open_conn();
        let cut = split.min(junk.len());
        let _ = server.on_data(conn, &junk[..cut]);
        let _ = server.on_data(conn, &junk[cut..]);
        let _ = server.on_target_connected(conn);
        let _ = server.on_target_failed(conn);
    }

    /// A genuine client payload always parses on every compatible
    /// profile/method pair, however the wire bytes are segmented.
    #[test]
    fn genuine_client_always_parses(
        profile in profile_strategy(),
        m in method_strategy(),
        payload in proptest::collection::vec(any::<u8>(), 1..300),
        seg in 1usize..64,
    ) {
        prop_assume!(profile.supports_stream || m.kind() == Kind::Aead);
        let config = ServerConfig::new(m, "prop-pw", profile);
        let mut rng = StdRng::seed_from_u64(7);
        let mut client = ClientSession::new(
            &config,
            TargetAddr::Ipv4([10, 1, 2, 3], 443),
            &mut rng,
        );
        let wire = client.send(&payload);
        let mut server = ServerConn::new(config, 2);
        let conn = server.open_conn();
        let mut connected = false;
        for part in wire.chunks(seg) {
            for action in server.on_data(conn, part) {
                if matches!(action, gfwsim::shadowsocks::ServerAction::ConnectTarget(_)) {
                    connected = true;
                }
            }
        }
        prop_assert!(connected, "{} {} seg {}", profile.name, m.name(), seg);
    }

    /// Bloom filter: no false negatives within capacity.
    #[test]
    fn bloom_no_false_negatives(items in proptest::collection::vec(any::<u64>(), 1..200)) {
        let mut filter = PingPongBloom::new(1000);
        let mut seen = std::collections::HashSet::new();
        for &it in &items {
            let expected = !seen.insert(it);
            let got = filter.check_and_insert(&it.to_le_bytes());
            // False positives possible (rare), false negatives never.
            if expected {
                prop_assert!(got, "false negative for {it}");
            }
        }
    }

    /// Entropy is always within [0, min(8, log2(len))].
    #[test]
    fn entropy_bounds(data in proptest::collection::vec(any::<u8>(), 0..4000)) {
        let e = gfwsim::analysis::shannon_entropy(&data);
        prop_assert!(e >= 0.0);
        prop_assert!(e <= gfwsim::analysis::entropy::max_entropy_for_len(data.len()) + 1e-9);
    }

    /// Delay model samples stay inside the paper's observed bounds.
    #[test]
    fn delay_model_bounds(seed in any::<u64>()) {
        let m = gfwsim::gfw::delay::DelayModel;
        let mut rng = StdRng::seed_from_u64(seed);
        let d = m.sample(&mut rng).as_secs_f64();
        prop_assert!(d >= gfwsim::gfw::delay::MIN_DELAY_SECS - 1e-6);
        prop_assert!(d <= gfwsim::gfw::delay::MAX_DELAY_SECS + 1.0);
        let n = m.replay_count(&mut rng);
        prop_assert!((1..=47).contains(&n));
    }

    /// The passive detector's store probability is a probability.
    #[test]
    fn store_probability_is_probability(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let det = gfwsim::gfw::passive::PassiveDetector::default();
        let p = det.store_probability(&data);
        prop_assert!((0.0..=1.0).contains(&p));
    }
}
