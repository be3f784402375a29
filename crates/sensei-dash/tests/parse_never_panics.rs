//! The manifest reader on damaged input.
//!
//! A player parses whatever manifest the network hands it, so
//! `Manifest::parse` must never panic: every input returns a manifest or a
//! typed `DashError`. Inputs here are written by `Manifest::to_xml` from
//! generated manifests, then damaged by random ASCII byte edits,
//! insertions, deletions and truncations. Whatever the reader accepts must
//! also be stable on the wire: writing it and parsing that XML again gives
//! a manifest that writes the same XML.

// Strategy draws become indices and sizes; all far below 2^52.
#![allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

use proptest::prelude::*;
use sensei_dash::{DashError, Manifest, Representation};

/// Title characters, XML's five escaped ones and whitespace included.
const TITLE_CHARS: &[u8] = b"abcXYZ09 _-.&<>\"'";

/// A valid manifest from raw draws: `reps` representations of strictly
/// increasing bandwidth over `sizes.len()` chunks, weights when given.
fn manifest(
    title: &[usize],
    chunk_duration_s: f64,
    reps: usize,
    sizes: &[f64],
    weights: Option<&[f64]>,
) -> Manifest {
    Manifest {
        title: title
            .iter()
            .map(|&i| char::from(TITLE_CHARS[i % TITLE_CHARS.len()]))
            .collect(),
        chunk_duration_s,
        representations: (0..reps)
            .map(|r| Representation {
                id: format!("r{r}"),
                bandwidth_bps: 300_000 * (r as u64 + 1),
                segment_sizes_bits: sizes.iter().map(|s| s * (r + 1) as f64).collect(),
            })
            .collect(),
        weights: weights.map(|w| w[..sizes.len()].to_vec()),
    }
}

/// Parses `doc`; when it is accepted, checks that writing the manifest
/// gives XML that parses back to a manifest writing the same XML.
fn check(doc: &str) -> Result<(), TestCaseError> {
    let parsed = match Manifest::parse(doc) {
        Ok(parsed) => parsed,
        Err(
            DashError::InvalidManifest(_)
            | DashError::Syntax { .. }
            | DashError::Missing(_)
            | DashError::BadNumber(_),
        ) => return Ok(()),
    };
    let xml = parsed.to_xml().map_err(|e| {
        TestCaseError::Fail(format!("accepted manifest does not serialize: {e}\n{doc}"))
    })?;
    let again = Manifest::parse(&xml).map_err(|e| {
        TestCaseError::Fail(format!("its XML does not parse: {e}\n{doc}\n---\n{xml}"))
    })?;
    prop_assert_eq!(again.to_xml().unwrap(), xml);
    Ok(())
}

proptest! {
    /// Up to eight cumulative edits (replace, insert or delete one ASCII
    /// byte, or truncate), the document checked after each.
    #[test]
    fn damaged_manifests_parse_or_fail_typed(
        title in prop::collection::vec(0usize..64, 0..12),
        chunk_duration_s in 0.01f64..12.0,
        reps in 1usize..4,
        sizes in prop::collection::vec(0.0f64..2e7, 1..10),
        weights in prop::collection::vec(0.0001f64..80.0, 10..11),
        with_weights in 0u8..2,
        edits in prop::collection::vec((0u8..4, 0.0f64..1.0, 0u8..128), 0..9),
    ) {
        let weights = (with_weights == 1).then_some(weights.as_slice());
        let m = manifest(&title, chunk_duration_s, reps, &sizes, weights);
        let mut doc = m.to_xml().unwrap().into_bytes();
        // Undamaged, the written manifest is accepted.
        let written = Manifest::parse(std::str::from_utf8(&doc).unwrap());
        prop_assert!(written.is_ok(), "{written:?}");
        check(std::str::from_utf8(&doc).unwrap())?;
        for &(kind, at, byte) in &edits {
            let pos = (at * doc.len() as f64) as usize;
            match kind {
                0 if pos < doc.len() => doc[pos] = byte,
                1 => doc.insert(pos.min(doc.len()), byte),
                2 if pos < doc.len() => {
                    doc.remove(pos);
                }
                _ => doc.truncate(pos),
            }
            check(std::str::from_utf8(&doc).expect("ASCII edits of ASCII XML"))?;
        }
    }

    /// Every truncation of a written manifest.
    #[test]
    fn every_truncation_parses_or_fails_typed(
        chunk_duration_s in 0.5f64..8.0,
        reps in 1usize..3,
        sizes in prop::collection::vec(1e4f64..2e7, 1..4),
        weights in prop::collection::vec(0.1f64..4.0, 4..5),
    ) {
        let m = manifest(&[0, 1, 12], chunk_duration_s, reps, &sizes, Some(&weights));
        let doc = m.to_xml().unwrap();
        for end in 0..=doc.len() {
            check(&doc[..end])?;
        }
    }
}
