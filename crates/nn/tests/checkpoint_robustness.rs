//! Adversarial-input hardening for the checkpoint formats: truncations at
//! representative byte offsets and targeted bit flips in the magic,
//! count, and dims fields must all surface as `InvalidData` or
//! `UnexpectedEof` — never a panic, never a multi-gigabyte allocation.
//!
//! These tests run the debug profile, so `shape.iter().product()`-style
//! arithmetic would abort on overflow if it were not checked: surviving
//! the grid proves the parser uses checked arithmetic throughout.

use std::fs;
use std::io::ErrorKind;
use std::path::PathBuf;

use rex_nn::{checkpoint, Mlp, Module};
use rex_tensor::Prng;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rex_ckpt_rob_{name}_{}", std::process::id()))
}

/// A small but structurally complete checkpoint: several entries, ranks
/// 1 and 2, a multi-byte name table. `caller` names the template file, so
/// tests running in parallel never remove each other's.
fn valid_checkpoint_bytes(caller: &str) -> Vec<u8> {
    let mut rng = Prng::new(0xC0FFEE);
    let m = Mlp::new("m", &[6, 5, 3], &mut rng);
    let path = tmp(&format!("template_{caller}"));
    checkpoint::save(&path, &m.params()).unwrap();
    let bytes = fs::read(&path).unwrap();
    let _ = fs::remove_file(path);
    bytes
}

fn load_bytes(name: &str, bytes: &[u8]) -> std::io::Result<Vec<(String, rex_tensor::Tensor)>> {
    let path = tmp(name);
    fs::write(&path, bytes).unwrap();
    let result = checkpoint::load_raw(&path);
    let _ = fs::remove_file(path);
    result
}

#[test]
fn truncation_at_every_offset_is_a_clean_error() {
    let good = valid_checkpoint_bytes("trunc");
    assert!(load_bytes("full", &good).is_ok());

    // every strict prefix: header cuts, mid-name cuts, mid-dims cuts,
    // mid-payload cuts — the grid covers all region boundaries because it
    // covers every byte
    for len in 0..good.len() {
        let err = load_bytes("trunc", &good[..len]).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                ErrorKind::InvalidData | ErrorKind::UnexpectedEof
            ),
            "prefix of {len} bytes gave unexpected error kind {:?}: {err}",
            err.kind()
        );
    }
}

#[test]
fn flipped_magic_count_and_dims_bytes_are_clean_errors() {
    let good = valid_checkpoint_bytes("flip");
    // header layout: magic[0..8] | count[8..12] | name_len[12..16] |
    // name | ndim | dims… — flip every byte of the first entry's header
    // plus a sample of payload bytes spread through the file
    let mut targets: Vec<usize> = (0..40.min(good.len())).collect();
    targets.extend((40..good.len()).step_by(97));
    for pos in targets {
        for mask in [0x01u8, 0x80] {
            let mut bad = good.clone();
            bad[pos] ^= mask;
            match load_bytes("flip", &bad) {
                // payload-byte flips still parse (f32 data has no
                // structure to violate) — that is fine; what matters is
                // that no flip panics or kills the process
                Ok(_) => {}
                Err(err) => assert!(
                    matches!(
                        err.kind(),
                        ErrorKind::InvalidData | ErrorKind::UnexpectedEof
                    ),
                    "flip at {pos} gave unexpected error kind {:?}: {err}",
                    err.kind()
                ),
            }
        }
    }
}

#[test]
fn huge_claimed_count_does_not_overallocate() {
    // magic + count=u32::MAX and nothing else: the parser must fail fast
    // on the cap or on EOF, not reserve u32::MAX entries
    let mut bytes = b"REXCKPT1".to_vec();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = load_bytes("bigcount", &bytes).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
}

#[test]
fn huge_claimed_tensor_on_truncated_file_does_not_overallocate() {
    // one entry claiming 2^29 elements (within MAX_ELEMENTS) but with no
    // payload: chunked reading must hit EOF without a 2 GiB allocation
    let mut bytes = b"REXCKPT1".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.push(b'w');
    bytes.extend_from_slice(&1u32.to_le_bytes()); // ndim = 1
    bytes.extend_from_slice(&(1u64 << 29).to_le_bytes());
    let err = load_bytes("bigtensor", &bytes).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
}

#[test]
fn overflowing_dims_product_is_invalid_data_not_a_panic() {
    // rank-4 tensor of 2^32 × 2^32 × 2^32 × 2^32 elements: the element
    // count overflows usize; debug builds would abort on unchecked
    // multiplication
    let mut bytes = b"REXCKPT1".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.push(b'w');
    bytes.extend_from_slice(&4u32.to_le_bytes());
    for _ in 0..4 {
        bytes.extend_from_slice(&(1u64 << 32).to_le_bytes());
    }
    let err = load_bytes("overflow", &bytes).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
}

#[test]
fn state_snapshot_truncation_and_flips_are_clean_errors() {
    let sections = vec![
        ("meta".to_owned(), vec![7u8; 24]),
        ("model".to_owned(), vec![1u8; 100]),
    ];
    let good = checkpoint::encode_state(&sections);
    for len in 0..good.len() {
        let err = checkpoint::decode_state(&good[..len]).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                ErrorKind::InvalidData | ErrorKind::UnexpectedEof
            ),
            "state prefix {len} gave {:?}: {err}",
            err.kind()
        );
    }
    for pos in 0..good.len() {
        let mut bad = good.clone();
        bad[pos] ^= 0x10;
        // the checksum trailer makes every flip detectable
        let err = checkpoint::decode_state(&bad).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "flip at {pos}: {err}");
    }
}
