//! The MPD manifest model with the SENSEI weight extension.
//!
//! The model covers what the SENSEI integration needs: one period, one
//! adaptation set, one `Representation` per ladder level with per-chunk
//! segment sizes, and — the paper's addition — per-chunk sensitivity
//! weights under the adaptation set (`<sensei:weights>`, §6). Players that
//! do not know the namespace skip the element, which is how SENSEI stays
//! backward compatible.

use crate::xml::Element;
use crate::{quantize_weight, DashError};

/// One representation (ladder level).
#[derive(Debug, Clone, PartialEq)]
pub struct Representation {
    /// Representation id (e.g. `"r2"`).
    pub id: String,
    /// Nominal bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Per-chunk segment sizes in bits.
    pub segment_sizes_bits: Vec<f64>,
}

/// A SENSEI-extended DASH manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Video title / source name.
    pub title: String,
    /// Chunk (segment) duration in seconds.
    pub chunk_duration_s: f64,
    /// Representations, lowest bandwidth first.
    pub representations: Vec<Representation>,
    /// Per-chunk sensitivity weights (the SENSEI extension); `None` for a
    /// legacy manifest.
    pub weights: Option<Vec<f64>>,
}

impl Manifest {
    /// Validates structural invariants: at least one representation, equal
    /// chunk counts everywhere, increasing bandwidths, weights matching the
    /// chunk count.
    ///
    /// # Errors
    ///
    /// Returns [`DashError::InvalidManifest`] describing the violation.
    pub fn validate(&self) -> Result<(), DashError> {
        if self.representations.is_empty() {
            return Err(DashError::InvalidManifest("no representations".into()));
        }
        if !(self.chunk_duration_s.is_finite() && self.chunk_duration_s > 0.0) {
            return Err(DashError::InvalidManifest(format!(
                "bad chunk duration {}",
                self.chunk_duration_s
            )));
        }
        let n = self.representations[0].segment_sizes_bits.len();
        if n == 0 {
            return Err(DashError::InvalidManifest("no segments".into()));
        }
        for r in &self.representations {
            if r.segment_sizes_bits.len() != n {
                return Err(DashError::InvalidManifest(format!(
                    "representation {} has {} segments, expected {n}",
                    r.id,
                    r.segment_sizes_bits.len()
                )));
            }
        }
        for w in self.representations.windows(2) {
            if w[0].bandwidth_bps >= w[1].bandwidth_bps {
                return Err(DashError::InvalidManifest(
                    "representations must have strictly increasing bandwidth".into(),
                ));
            }
        }
        if let Some(weights) = &self.weights {
            if weights.len() != n {
                return Err(DashError::InvalidManifest(format!(
                    "{} weights for {n} segments",
                    weights.len()
                )));
            }
            if weights.iter().any(|&w| !w.is_finite() || w <= 0.0) {
                return Err(DashError::InvalidManifest(
                    "weights must be positive and finite".into(),
                ));
            }
        }
        Ok(())
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.representations
            .first()
            .map_or(0, |r| r.segment_sizes_bits.len())
    }

    /// Serializes to MPD XML.
    ///
    /// # Errors
    ///
    /// Returns an error when the manifest is invalid.
    // Segment sizes serialize as whole bits; `round()` before the cast
    // is the wire format, and sizes are far below 2^53.
    #[allow(clippy::cast_possible_truncation)]
    pub fn to_xml(&self) -> Result<String, DashError> {
        self.validate()?;
        let total = self.num_chunks() as f64 * self.chunk_duration_s;
        let mut adaptation = Element::new("AdaptationSet")
            .attr("contentType", "video")
            .attr("segmentAlignment", "true");
        if let Some(weights) = &self.weights {
            let text = weights
                .iter()
                .map(|&w| format!("{:.3}", quantize_weight(w)))
                .collect::<Vec<_>>()
                .join(" ");
            adaptation = adaptation.child(Element::new("sensei:weights").with_text(text));
        }
        for r in &self.representations {
            let sizes = r
                .segment_sizes_bits
                .iter()
                .map(|s| format!("{}", s.round() as u64))
                .collect::<Vec<_>>()
                .join(" ");
            adaptation = adaptation.child(
                Element::new("Representation")
                    .attr("id", &r.id)
                    .attr("bandwidth", r.bandwidth_bps.to_string())
                    .attr("mimeType", "video/mp4")
                    .child(Element::new("sensei:segmentSizes").with_text(sizes)),
            );
        }
        let mpd = Element::new("MPD")
            .attr("xmlns", "urn:mpeg:dash:schema:mpd:2011")
            .attr("xmlns:sensei", "urn:sensei:weights:2021")
            .attr("type", "static")
            .attr("mediaPresentationDuration", format!("PT{total:.1}S"))
            .attr(
                "maxSegmentDuration",
                format!("PT{}S", exact_seconds(self.chunk_duration_s)),
            )
            .child(
                Element::new("ProgramInformation")
                    .child(Element::new("Title").with_text(&self.title)),
            )
            .child(
                Element::new("Period")
                    .attr("start", "PT0S")
                    .child(adaptation),
            );
        Ok(mpd.to_xml())
    }

    /// Parses an MPD produced by [`Manifest::to_xml`] (tolerating unknown
    /// elements and a missing weight extension).
    ///
    /// # Errors
    ///
    /// Returns an error on malformed XML or missing required structure.
    pub fn parse(input: &str) -> Result<Self, DashError> {
        let root = crate::xml::parse(input)?;
        if root.name != "MPD" {
            return Err(DashError::Missing("MPD root element"));
        }
        let period = root.first("Period").ok_or(DashError::Missing("Period"))?;
        let adaptation = period
            .first("AdaptationSet")
            .ok_or(DashError::Missing("AdaptationSet"))?;
        let title = root
            .first("ProgramInformation")
            .and_then(|p| p.first("Title"))
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let chunk_duration_s = root
            .attribute("maxSegmentDuration")
            .and_then(parse_duration)
            .ok_or(DashError::Missing("maxSegmentDuration"))?;
        let weights = match adaptation.first("sensei:weights") {
            Some(w) => Some(parse_numbers(&w.text)?),
            None => None,
        };
        let mut representations = Vec::new();
        for rep in adaptation.all("Representation") {
            let id = rep
                .attribute("id")
                .ok_or(DashError::Missing("Representation id"))?
                .to_string();
            let bandwidth_bps = rep
                .attribute("bandwidth")
                .ok_or(DashError::Missing("Representation bandwidth"))?
                .parse::<u64>()
                .map_err(|_| {
                    DashError::BadNumber(rep.attribute("bandwidth").unwrap_or("").to_string())
                })?;
            let sizes = rep
                .first("sensei:segmentSizes")
                .ok_or(DashError::Missing("sensei:segmentSizes"))?;
            representations.push(Representation {
                id,
                bandwidth_bps,
                segment_sizes_bits: parse_numbers(&sizes.text)?,
            });
        }
        let manifest = Self {
            title,
            chunk_duration_s,
            representations,
            weights,
        };
        manifest.validate()?;
        Ok(manifest)
    }
}

fn parse_numbers(text: &str) -> Result<Vec<f64>, DashError> {
    text.split_whitespace()
        .map(|tok| {
            tok.parse::<f64>()
                .map_err(|_| DashError::BadNumber(tok.to_string()))
        })
        .collect()
}

/// `seconds` as the shortest decimal that parses back to the same `f64`,
/// with `.0` on whole numbers (`4.0`, `0.04`, `4.05`): the chunk duration
/// a reader recovers is the one written, so no valid duration rounds to
/// an invalid `PT0.0S`.
fn exact_seconds(seconds: f64) -> String {
    let text = seconds.to_string();
    if text.contains('.') {
        text
    } else {
        text + ".0"
    }
}

/// Parses the `PT<seconds>S` ISO-8601 duration subset this crate writes.
fn parse_duration(s: &str) -> Option<f64> {
    s.strip_prefix("PT")?.strip_suffix('S')?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(with_weights: bool) -> Manifest {
        Manifest {
            title: "Soccer1".to_string(),
            chunk_duration_s: 4.0,
            representations: vec![
                Representation {
                    id: "r0".into(),
                    bandwidth_bps: 300_000,
                    segment_sizes_bits: vec![1.2e6, 1.3e6, 1.1e6],
                },
                Representation {
                    id: "r1".into(),
                    bandwidth_bps: 750_000,
                    segment_sizes_bits: vec![3.0e6, 3.2e6, 2.9e6],
                },
            ],
            weights: with_weights.then(|| vec![0.8, 1.6, 0.6]),
        }
    }

    #[test]
    fn round_trips_with_weights() {
        let m = manifest(true);
        let xml = m.to_xml().unwrap();
        assert!(xml.contains("sensei:weights"));
        assert!(xml.contains("urn:sensei:weights:2021"));
        let parsed = Manifest::parse(&xml).unwrap();
        assert_eq!(parsed.title, "Soccer1");
        assert_eq!(parsed.chunk_duration_s, 4.0);
        assert_eq!(parsed.num_chunks(), 3);
        let w = parsed.weights.as_ref().unwrap();
        for (a, b) in w.iter().zip(&[0.8, 1.6, 0.6]) {
            assert!((a - b).abs() < 1e-3);
        }
        assert_eq!(parsed.representations[1].bandwidth_bps, 750_000);
    }

    #[test]
    fn round_trips_without_weights() {
        let m = manifest(false);
        let xml = m.to_xml().unwrap();
        assert!(!xml.contains("<sensei:weights"));
        let parsed = Manifest::parse(&xml).unwrap();
        assert!(parsed.weights.is_none());
    }

    #[test]
    fn validation_catches_structural_errors() {
        let mut m = manifest(true);
        m.weights = Some(vec![1.0]);
        assert!(matches!(m.validate(), Err(DashError::InvalidManifest(_))));

        let mut m = manifest(true);
        m.representations[1].segment_sizes_bits.pop();
        assert!(m.validate().is_err());

        let mut m = manifest(true);
        m.representations[1].bandwidth_bps = 100;
        assert!(m.validate().is_err());

        let mut m = manifest(true);
        m.representations.clear();
        assert!(m.validate().is_err());

        let mut m = manifest(true);
        m.chunk_duration_s = 0.0;
        assert!(m.validate().is_err());

        let mut m = manifest(true);
        m.weights = Some(vec![1.0, -1.0, 1.0]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn weights_are_quantized_in_the_wire_format() {
        let mut m = manifest(true);
        m.weights = Some(vec![1.23456789, 0.999999, 2.0]);
        let parsed = Manifest::parse(&m.to_xml().unwrap()).unwrap();
        let w = parsed.weights.unwrap();
        assert_eq!(w[0], 1.235);
        assert_eq!(w[1], 1.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Manifest::parse("<MPD></MPD>").is_err());
        assert!(Manifest::parse("not xml").is_err());
        let m = manifest(true);
        let xml = m.to_xml().unwrap().replace("750000", "not-a-number");
        assert!(matches!(
            Manifest::parse(&xml).unwrap_err(),
            DashError::BadNumber(_)
        ));
    }

    #[test]
    fn chunk_durations_round_trip_exactly() {
        for d in [4.0, 2.0, 0.04, 4.05, 1e-3, 1.0 / 3.0, 12.5] {
            let mut m = manifest(true);
            m.chunk_duration_s = d;
            let parsed = Manifest::parse(&m.to_xml().unwrap()).unwrap();
            assert_eq!(parsed.chunk_duration_s.to_bits(), d.to_bits(), "{d}");
        }
        // Whole-tenth durations keep their one-decimal wire form.
        assert!(manifest(true)
            .to_xml()
            .unwrap()
            .contains("maxSegmentDuration=\"PT4.0S\""));
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(parse_duration("PT4.0S"), Some(4.0));
        assert_eq!(parse_duration("PT12S"), Some(12.0));
        assert_eq!(parse_duration("4.0"), None);
        assert_eq!(parse_duration("PT4.0"), None);
    }
}
