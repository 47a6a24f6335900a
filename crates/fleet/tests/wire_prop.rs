//! Property tests for the fleet wire codecs: every request and reply
//! the renderers can produce parses back to the same value, whatever
//! bytes ride inside.

use proptest::prelude::*;

use fleet::wire;
use fleet::{FleetReply, FleetRequest};

/// splitmix64: cheap deterministic expansion of a seed.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn blob(x: &mut u64, max_len: usize) -> Vec<u8> {
    let len = (mix(x) as usize) % (max_len + 1);
    (0..len).map(|_| mix(x) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Recall requests round-trip for arbitrary key bytes (the keys are
    /// binary — the codec may not assume UTF-8 or printability).
    #[test]
    fn recall_requests_round_trip(seed in 0u64..u64::MAX) {
        let mut x = seed;
        let id = mix(&mut x);
        let request = FleetRequest::Recall {
            key: blob(&mut x, 512),
            config_hash: mix(&mut x),
        };
        let line = wire::request_line(id, &request);
        prop_assert!(line.ends_with('\n'));
        prop_assert_eq!(wire::parse_request_line(line.trim()), Ok((id, request)));
    }

    /// Record replies round-trip for arbitrary byte blobs, including the
    /// empty blob and the explicit miss.
    #[test]
    fn record_replies_round_trip(seed in 0u64..u64::MAX) {
        let mut x = seed;
        let id = mix(&mut x);
        let bytes = blob(&mut x, 2048);
        let line = wire::record_line(id, Some(&bytes));
        prop_assert_eq!(
            wire::parse_reply(line.trim()),
            Ok((id, FleetReply::Record(Some(bytes))))
        );
        let line = wire::record_line(id, None);
        prop_assert_eq!(
            wire::parse_reply(line.trim()),
            Ok((id, FleetReply::Record(None)))
        );
    }
}
