//! Negative-path suite: every malformed, stale, or mismatched checkpoint
//! must surface as a typed [`CkptError`] — never a panic, and never a
//! silent restore of wrong state.
//!
//! Two layers of corpus:
//!
//! * **Committed fixtures** under `tests/fixtures/ckpt/` cover the
//!   layout-independent framing failures (truncation, bad magic, format
//!   version bump, whole-file fingerprint damage). They are byte-exact
//!   files a future format revision must still reject the same way;
//!   regenerate them with
//!   `cargo test --test checkpoint_negative -- --ignored regenerate_fixture_corpus`.
//! * **Runtime corruptions** of freshly written images cover the
//!   layout-dependent failures: bit flips anywhere in the payload, wrong
//!   cache keys, component name/version mismatches, trailing bytes and
//!   restores into differently configured machines.

use std::path::PathBuf;

use chainiq::ckpt::{
    fingerprint, restore_section, save_section, CkptError, CkptHeader, ImageReader, ImageWriter,
    Reader, Snapshot, Writer, FORMAT_VERSION, MAGIC,
};
use chainiq::{Bench, IdealIq, Pipeline, SimConfig, SmtPipeline, SyntheticWorkload};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/ckpt")
}

/// The committed corpus: file name → the bytes it must contain.
fn fixture_corpus() -> Vec<(&'static str, Vec<u8>)> {
    let empty = Vec::new();
    let truncated_header = MAGIC.to_vec();
    let bad_magic = {
        let mut b = b"NOTACKPT".to_vec();
        b.extend_from_slice(&[0u8; 26]);
        b
    };
    let version_bumped = {
        let mut body = MAGIC.to_vec();
        body.extend_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        body.extend_from_slice(&[0u8; 24]); // header fields, content irrelevant
        let fp = fingerprint(&body);
        body.extend_from_slice(&fp.to_le_bytes());
        body
    };
    let bad_file_fingerprint = {
        let header = CkptHeader { workload_fp: 1, config_hash: 2, warmup: 3 };
        let mut bytes = ImageWriter::new(header).finish();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        bytes
    };
    vec![
        ("empty.ckpt", empty),
        ("truncated-header.ckpt", truncated_header),
        ("bad-magic.ckpt", bad_magic),
        ("version-bumped.ckpt", version_bumped),
        ("bad-file-fingerprint.ckpt", bad_file_fingerprint),
    ]
}

/// Writes the corpus to `tests/fixtures/ckpt/`. Run once (with
/// `-- --ignored`) when the corpus needs regenerating; the committed
/// files are the source of truth the other tests read.
#[test]
#[ignore = "writes the committed fixture corpus; run explicitly"]
fn regenerate_fixture_corpus() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in fixture_corpus() {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// The committed files must match what the corpus builder produces —
/// drift here means the format changed without a [`FORMAT_VERSION`] bump
/// or the fixtures were hand-edited.
#[test]
fn committed_fixtures_match_corpus_builder() {
    for (name, expected) in fixture_corpus() {
        let on_disk = std::fs::read(fixture_dir().join(name))
            .unwrap_or_else(|e| panic!("fixture {name} unreadable ({e}); regenerate the corpus"));
        assert_eq!(on_disk, expected, "fixture {name} drifted from its builder");
    }
}

#[test]
fn fixture_corpus_is_rejected_with_typed_errors() {
    let expect: &[(&str, fn(&CkptError) -> bool)] = &[
        ("empty.ckpt", |e| matches!(e, CkptError::Truncated { .. })),
        ("truncated-header.ckpt", |e| matches!(e, CkptError::Truncated { .. })),
        ("bad-magic.ckpt", |e| matches!(e, CkptError::BadMagic)),
        (
            "version-bumped.ckpt",
            |e| matches!(e, CkptError::FormatVersion { found } if *found == FORMAT_VERSION + 1),
        ),
        (
            "bad-file-fingerprint.ckpt",
            |e| matches!(e, CkptError::FingerprintMismatch { context } if context == "file"),
        ),
    ];
    for (name, is_expected) in expect {
        let bytes = std::fs::read(fixture_dir().join(name)).unwrap();
        match ImageReader::parse(&bytes) {
            Err(e) => assert!(is_expected(&e), "fixture {name}: unexpected error {e}"),
            Ok(_) => panic!("fixture {name} parsed successfully; it must be rejected"),
        }
    }
}

/// A small but real machine image to corrupt.
fn sample_image(header: CkptHeader) -> Vec<u8> {
    let workload = SyntheticWorkload::from_profile(Bench::Vortex.profile(), 5);
    let mut sim = Pipeline::new(SimConfig::default().rob_for_iq(64), IdealIq::new(64), workload);
    let _ = sim.run(500);
    let mut image = ImageWriter::new(header);
    image.section(&sim);
    image.finish()
}

fn try_restore(bytes: &[u8], header: CkptHeader) -> Result<(), CkptError> {
    let workload = SyntheticWorkload::from_profile(Bench::Vortex.profile(), 5);
    let mut sim = Pipeline::new(SimConfig::default().rob_for_iq(64), IdealIq::new(64), workload);
    let mut img = ImageReader::parse(bytes)?;
    img.expect_key(header)?;
    img.section(&mut sim)?;
    img.finish()
}

#[test]
fn pristine_sample_image_restores() {
    let header = CkptHeader { workload_fp: 10, config_hash: 20, warmup: 500 };
    let bytes = sample_image(header);
    try_restore(&bytes, header).expect("the uncorrupted image must restore");
}

/// Bit flips at positions spread across the whole image — header,
/// section framing, payload, trailing fingerprint — must all yield a
/// typed error, never a panic and never an `Ok`.
#[test]
fn bit_flips_anywhere_are_rejected() {
    let header = CkptHeader { workload_fp: 10, config_hash: 20, warmup: 500 };
    let pristine = sample_image(header);
    let stride = (pristine.len() / 97).max(1);
    for pos in (0..pristine.len()).step_by(stride) {
        let mut bytes = pristine.clone();
        bytes[pos] ^= 0x40;
        match try_restore(&bytes, header) {
            Err(_) => {}
            Ok(()) => panic!("flip at byte {pos} of {} went undetected", pristine.len()),
        }
    }
}

#[test]
fn truncation_at_any_point_is_rejected() {
    let header = CkptHeader { workload_fp: 10, config_hash: 20, warmup: 500 };
    let pristine = sample_image(header);
    let stride = (pristine.len() / 53).max(1);
    for cut in (0..pristine.len()).step_by(stride) {
        match try_restore(&pristine[..cut], header) {
            Err(_) => {}
            Ok(()) => panic!("truncation to {cut} of {} went undetected", pristine.len()),
        }
    }
}

#[test]
fn wrong_cache_key_is_rejected_per_field() {
    let header = CkptHeader { workload_fp: 10, config_hash: 20, warmup: 500 };
    let bytes = sample_image(header);
    for wrong in [
        CkptHeader { workload_fp: 11, ..header },
        CkptHeader { config_hash: 21, ..header },
        CkptHeader { warmup: 501, ..header },
    ] {
        match try_restore(&bytes, wrong) {
            Err(CkptError::KeyMismatch { .. }) => {}
            other => panic!("expected KeyMismatch for {wrong:?}, got {other:?}"),
        }
    }
}

#[test]
fn restore_into_differently_configured_machine_is_rejected() {
    let header = CkptHeader { workload_fp: 10, config_hash: 20, warmup: 500 };
    let bytes = sample_image(header); // saved from a 64-entry machine
    let workload = SyntheticWorkload::from_profile(Bench::Vortex.profile(), 5);
    let mut sim = Pipeline::new(SimConfig::default().rob_for_iq(128), IdealIq::new(128), workload);
    let mut img = ImageReader::parse(&bytes).unwrap();
    img.expect_key(header).unwrap();
    match img.section(&mut sim) {
        Err(CkptError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt on a config mismatch, got {other:?}"),
    }

    // Same configuration, two threads: the thread count must match too.
    let vortex = || SyntheticWorkload::from_profile(Bench::Vortex.profile(), 5);
    let threads = vec![vortex(), vortex()];
    let mut smt = SmtPipeline::new(SimConfig::default().rob_for_iq(64), IdealIq::new(64), threads);
    let mut img = ImageReader::parse(&bytes).unwrap();
    img.expect_key(header).unwrap();
    match img.section(&mut smt) {
        Err(CkptError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt on a thread-count mismatch, got {other:?}"),
    }
}

// Two dummy components sharing a section name at different layout
// versions, to exercise the per-section version gate.
struct DummyV1;
struct DummyV2;

impl Snapshot for DummyV1 {
    const COMPONENT: &'static str = "negative.dummy";
    const VERSION: u16 = 1;
    fn save(&self, w: &mut Writer) {
        w.put_u64(1);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        let _ = r.take_u64("dummy payload")?;
        Ok(())
    }
}

impl Snapshot for DummyV2 {
    const COMPONENT: &'static str = "negative.dummy";
    const VERSION: u16 = 2;
    fn save(&self, w: &mut Writer) {
        w.put_u64(2);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        let _ = r.take_u64("dummy payload")?;
        Ok(())
    }
}

#[test]
fn component_version_bump_is_rejected() {
    let mut w = Writer::new();
    save_section(&mut w, &DummyV2);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    match restore_section(&mut r, &mut DummyV1) {
        Err(CkptError::ComponentVersion { component, found, expected }) => {
            assert_eq!(component, "negative.dummy");
            assert_eq!(found, 2);
            assert_eq!(expected, 1);
        }
        other => panic!("expected ComponentVersion, got {other:?}"),
    }
}

#[test]
fn component_name_mismatch_is_rejected() {
    let workload = SyntheticWorkload::from_profile(Bench::Vortex.profile(), 5);
    let mut w = Writer::new();
    save_section(&mut w, &workload);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    match restore_section(&mut r, &mut DummyV1) {
        Err(CkptError::ComponentVersion { .. }) => {}
        other => panic!("expected ComponentVersion on a name mismatch, got {other:?}"),
    }
}

#[test]
fn section_payload_bit_flip_is_a_section_fingerprint_mismatch() {
    let workload = SyntheticWorkload::from_profile(Bench::Vortex.profile(), 5);
    let mut w = Writer::new();
    save_section(&mut w, &workload);
    let mut bytes = w.into_bytes();
    // Flip a byte inside the payload: past the name/version/length
    // framing, before the trailing 8-byte section fingerprint.
    let mid = bytes.len() - 16;
    bytes[mid] ^= 0x01;
    let mut r = Reader::new(&bytes);
    let mut fresh = SyntheticWorkload::from_profile(Bench::Vortex.profile(), 5);
    match restore_section(&mut r, &mut fresh) {
        Err(CkptError::FingerprintMismatch { context }) => assert_ne!(context, "file"),
        other => panic!("expected a section FingerprintMismatch, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_after_last_section_are_rejected() {
    let header = CkptHeader { workload_fp: 10, config_hash: 20, warmup: 500 };
    let workload = SyntheticWorkload::from_profile(Bench::Vortex.profile(), 5);
    let mut image = ImageWriter::new(header);
    image.section(&workload);
    let mut bytes = image.finish();
    // Splice garbage between the last section and the file fingerprint,
    // then re-seal so only the trailing-bytes check can catch it.
    let fp_at = bytes.len() - 8;
    bytes.truncate(fp_at);
    bytes.extend_from_slice(&[0xAB; 5]);
    let fp = fingerprint(&bytes);
    bytes.extend_from_slice(&fp.to_le_bytes());

    let mut img = ImageReader::parse(&bytes).expect("re-sealed image parses");
    let mut fresh = SyntheticWorkload::from_profile(Bench::Vortex.profile(), 5);
    img.section(&mut fresh).expect("the one real section restores");
    match img.finish() {
        Err(CkptError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt on trailing bytes, got {other:?}"),
    }
}
