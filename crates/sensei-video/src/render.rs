//! Rendered videos: a source video as actually streamed.
//!
//! A *rendered video* is the paper's unit of rating: "multiple renderings of
//! the same video, where each rendering involves some degradation in
//! quality" (§1). Renderings arise two ways in this repository — synthesized
//! by the crowdsourcing pipeline (a pristine stream plus injected incidents,
//! §4.3) or produced by the streaming simulator under an ABR algorithm.
//! Both yield the same [`RenderedVideo`] structure.
//!
//! Renders deliberately do **not** carry the latent chunk sensitivity: QoE
//! models may only see what a real system would observe (bitrates, stalls,
//! visual quality, motion statistics). The hidden sensitivity stays inside
//! [`crate::content::SourceVideo`] and is consulted only by the simulated
//! rater population in `sensei-crowd`.

use crate::content::SourceVideo;
use crate::encode::BitrateLadder;
use crate::quality::visual_quality;
use crate::VideoError;
use std::ops::Range;

/// One chunk of a rendered video.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderedChunk {
    /// Bitrate this chunk was streamed at, in kbps.
    pub bitrate_kbps: f64,
    /// Perceptual visual quality of the encoded chunk, in `(0, 1)`.
    pub vq: f64,
    /// Stall time immediately before this chunk played, in seconds
    /// (buffer-empty rebuffering).
    pub rebuffer_s: f64,
    /// Portion of `rebuffer_s` that the player initiated deliberately
    /// (SENSEI's new adaptation action, §5.1). Always `<= rebuffer_s`.
    pub intentional_rebuffer_s: f64,
    /// Scene motion carried over from the source content (observable by
    /// QoE models via frame differencing).
    pub motion: f64,
    /// Spatial complexity carried over from the source content.
    pub complexity: f64,
}

/// A fully rendered (streamed) video.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedVideo {
    source_name: String,
    chunk_duration_s: f64,
    startup_delay_s: f64,
    chunks: Vec<RenderedChunk>,
}

/// A low-quality incident to inject into a pristine rendering (§2.3, §4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Incident {
    /// A stall of `duration_s` seconds immediately before `chunk` plays.
    Rebuffer {
        /// Chunk index the stall precedes.
        chunk: usize,
        /// Stall length in seconds.
        duration_s: f64,
    },
    /// `len_chunks` chunks starting at `chunk` streamed at ladder `level`
    /// instead of the top level.
    BitrateDrop {
        /// First affected chunk.
        chunk: usize,
        /// Number of affected chunks.
        len_chunks: usize,
        /// Ladder level to drop to (0 = lowest).
        level: usize,
    },
}

impl Incident {
    /// The chunks the incident changes in an `n`-chunk rendering on
    /// `ladder`, after the checks [`RenderedVideo::with_incidents`]
    /// applies: in range, a finite positive stall, an existing level.
    /// Changing a chunk's bitrate also changes the switch term of the
    /// chunk after the span, which a QoE model charges to that chunk.
    ///
    /// # Errors
    ///
    /// Returns an error when the incident references a chunk or ladder
    /// level out of range, or a non-positive stall duration.
    pub fn span(&self, n: usize, ladder: &BitrateLadder) -> Result<Range<usize>, VideoError> {
        match *self {
            Incident::Rebuffer { chunk, duration_s } => {
                if chunk >= n {
                    return Err(VideoError::ChunkOutOfRange {
                        index: chunk,
                        len: n,
                    });
                }
                if !(duration_s.is_finite() && duration_s > 0.0) {
                    return Err(VideoError::InvalidContent {
                        field: "rebuffer duration",
                        value: duration_s,
                    });
                }
                Ok(chunk..chunk + 1)
            }
            Incident::BitrateDrop {
                chunk,
                len_chunks,
                level,
            } => {
                if chunk >= n || len_chunks > n - chunk {
                    return Err(VideoError::ChunkOutOfRange {
                        index: chunk.saturating_add(len_chunks),
                        len: n,
                    });
                }
                ladder.kbps(level)?;
                Ok(chunk..chunk + len_chunks)
            }
        }
    }

    /// Injects the incident into `chunk`, one of the chunks
    /// [`Self::span`] returned.
    ///
    /// # Errors
    ///
    /// Returns an error when a bitrate drop names a level `ladder` lacks.
    pub fn degrade(
        &self,
        ladder: &BitrateLadder,
        chunk: &mut RenderedChunk,
    ) -> Result<(), VideoError> {
        match *self {
            Incident::Rebuffer { duration_s, .. } => chunk.rebuffer_s += duration_s,
            Incident::BitrateDrop { level, .. } => {
                let kbps = ladder.kbps(level)?;
                chunk.bitrate_kbps = kbps;
                chunk.vq = visual_quality(kbps, chunk.complexity);
            }
        }
        Ok(())
    }
}

/// Whether the bitrate changed between adjacent chunks streamed at
/// `prev_kbps` and `kbps`: by more than 1e-9 kbps. Content-driven vq
/// fluctuation at one bitrate is not an adaptation artifact, so only a
/// bitrate change counts as a switch.
#[inline]
fn switched(prev_kbps: f64, kbps: f64) -> bool {
    (prev_kbps - kbps).abs() > 1e-9
}

/// The incident terms every per-chunk QoE decomposition charges, walked
/// over a session's chunks in playback order: the one implementation of
/// the switch rule and the startup charge. [`Self::step`] returns a
/// chunk's `(stall_s, switch_delta)`: the stall before it, with the
/// startup delay charged to the first chunk only, and `|Δvq|` against the
/// previous chunk where the bitrate changed ([`RenderedVideo::num_switches`]
/// counts the same boundaries), 0 otherwise.
#[derive(Debug, Clone, Copy)]
pub struct IncidentWalk {
    /// Startup delay not yet charged: all of it before the first chunk.
    startup_left_s: f64,
    /// `(vq, bitrate_kbps)` of the previous chunk.
    prev: Option<(f64, f64)>,
}

impl IncidentWalk {
    /// A walk from a session's first chunk, which is charged
    /// `startup_delay_s`.
    #[must_use]
    pub fn new(startup_delay_s: f64) -> Self {
        Self {
            startup_left_s: startup_delay_s,
            prev: None,
        }
    }

    /// A walk resumed mid-session, after `prev` played.
    #[must_use]
    pub fn after(prev: &RenderedChunk) -> Self {
        Self {
            startup_left_s: 0.0,
            prev: Some((prev.vq, prev.bitrate_kbps)),
        }
    }

    /// The `(stall_s, switch_delta)` of `c`, the next chunk played.
    #[inline]
    pub fn step(&mut self, c: &RenderedChunk) -> (f64, f64) {
        let stall = c.rebuffer_s + self.startup_left_s;
        self.startup_left_s = 0.0;
        let switch = match self.prev {
            Some((vq, kbps)) if switched(kbps, c.bitrate_kbps) => (c.vq - vq).abs(),
            _ => 0.0,
        };
        self.prev = Some((c.vq, c.bitrate_kbps));
        (stall, switch)
    }
}

impl RenderedChunk {
    /// The per-chunk checks [`RenderedVideo::new`] applies, in its order:
    /// a finite non-negative stall, an intentional portion at most the
    /// stall (plus 1e-9), and a finite visual quality in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::InvalidContent`] naming the first offending
    /// field.
    #[inline]
    pub fn validate(&self) -> Result<(), VideoError> {
        if !(self.rebuffer_s.is_finite() && self.rebuffer_s >= 0.0) {
            return Err(VideoError::InvalidContent {
                field: "rebuffer_s",
                value: self.rebuffer_s,
            });
        }
        if self.intentional_rebuffer_s > self.rebuffer_s + 1e-9 {
            return Err(VideoError::InvalidContent {
                field: "intentional_rebuffer_s",
                value: self.intentional_rebuffer_s,
            });
        }
        if !(self.vq.is_finite() && (0.0..=1.0).contains(&self.vq)) {
            return Err(VideoError::InvalidContent {
                field: "vq",
                value: self.vq,
            });
        }
        Ok(())
    }
}

impl RenderedVideo {
    /// Builds a rendered video from explicit chunks.
    ///
    /// # Errors
    ///
    /// Returns an error when there are no chunks, the chunk duration is
    /// not finite and positive, the startup delay is negative or
    /// non-finite, or any chunk fails [`RenderedChunk::validate`].
    pub fn new(
        source_name: impl Into<String>,
        chunk_duration_s: f64,
        startup_delay_s: f64,
        chunks: Vec<RenderedChunk>,
    ) -> Result<Self, VideoError> {
        if chunks.is_empty() {
            return Err(VideoError::NoChunks);
        }
        Self::validate_timing(chunk_duration_s, startup_delay_s)?;
        for c in &chunks {
            c.validate()?;
        }
        Ok(Self {
            source_name: source_name.into(),
            chunk_duration_s,
            startup_delay_s,
            chunks,
        })
    }

    /// The session-level checks [`Self::new`] applies before its chunk
    /// checks, in its order: a finite positive chunk duration, then a
    /// finite non-negative startup delay.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::InvalidContent`] naming the offending field.
    pub fn validate_timing(chunk_duration_s: f64, startup_delay_s: f64) -> Result<(), VideoError> {
        crate::content::validate_chunk_duration(chunk_duration_s)?;
        if !(startup_delay_s.is_finite() && startup_delay_s >= 0.0) {
            return Err(VideoError::InvalidContent {
                field: "startup_delay_s",
                value: startup_delay_s,
            });
        }
        Ok(())
    }

    /// The pristine rendering: every chunk at the ladder's top bitrate, no
    /// stalls. This is the survey's reference video (§B).
    pub fn pristine(source: &SourceVideo, ladder: &BitrateLadder) -> Self {
        let top = ladder.max_kbps();
        let chunks = source
            .chunks()
            .iter()
            .map(|c| RenderedChunk {
                bitrate_kbps: top,
                vq: visual_quality(top, c.complexity),
                rebuffer_s: 0.0,
                intentional_rebuffer_s: 0.0,
                motion: c.motion,
                complexity: c.complexity,
            })
            .collect();
        Self {
            source_name: source.name().to_string(),
            chunk_duration_s: source.chunk_duration_s(),
            startup_delay_s: 0.0,
            chunks,
        }
    }

    /// A pristine rendering with `incidents` injected — the §4.3 rendered
    /// videos the crowd rates.
    ///
    /// # Errors
    ///
    /// Returns an error when an incident references a chunk or ladder level
    /// out of range, or a non-positive stall duration.
    pub fn with_incidents(
        source: &SourceVideo,
        ladder: &BitrateLadder,
        incidents: &[Incident],
    ) -> Result<Self, VideoError> {
        let mut render = Self::pristine(source, ladder);
        let n = render.chunks.len();
        for incident in incidents {
            for i in incident.span(n, ladder)? {
                incident.degrade(ladder, &mut render.chunks[i])?;
            }
        }
        Ok(render)
    }

    /// Name of the source video.
    pub fn source_name(&self) -> &str {
        &self.source_name
    }

    /// Decomposes the render into its owned `(source_name, chunks)` buffers
    /// so hot paths (the simulator's session scratch) can recycle the
    /// allocations across sessions instead of dropping and re-allocating.
    pub fn into_parts(self) -> (String, Vec<RenderedChunk>) {
        (self.source_name, self.chunks)
    }

    /// Chunk duration in seconds.
    pub fn chunk_duration_s(&self) -> f64 {
        self.chunk_duration_s
    }

    /// Startup delay before the first chunk played, in seconds.
    pub fn startup_delay_s(&self) -> f64 {
        self.startup_delay_s
    }

    /// The rendered chunks, in playback order.
    pub fn chunks(&self) -> &[RenderedChunk] {
        &self.chunks
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Content duration (excluding stalls), in seconds.
    pub fn content_duration_s(&self) -> f64 {
        self.chunks.len() as f64 * self.chunk_duration_s
    }

    /// Total stall time including startup delay, in seconds.
    pub fn total_rebuffer_s(&self) -> f64 {
        self.startup_delay_s + self.chunks.iter().map(|c| c.rebuffer_s).sum::<f64>()
    }

    /// Rebuffering ratio: stall time over total watch time.
    pub fn rebuffer_ratio(&self) -> f64 {
        let stall = self.total_rebuffer_s();
        stall / (stall + self.content_duration_s())
    }

    /// Mean streamed bitrate in kbps.
    pub fn avg_bitrate_kbps(&self) -> f64 {
        self.chunks.iter().map(|c| c.bitrate_kbps).sum::<f64>() / self.chunks.len() as f64
    }

    /// Mean visual quality across chunks.
    pub fn avg_vq(&self) -> f64 {
        self.chunks.iter().map(|c| c.vq).sum::<f64>() / self.chunks.len() as f64
    }

    /// Each chunk with its `(stall_s, switch_delta)`, in playback order:
    /// the [`IncidentWalk`] over the whole session.
    pub fn incident_terms(&self) -> impl Iterator<Item = (&RenderedChunk, (f64, f64))> + '_ {
        let mut walk = IncidentWalk::new(self.startup_delay_s);
        self.chunks.iter().map(move |c| (c, walk.step(c)))
    }

    /// The adjacent chunk pairs whose bitrate changed.
    fn switches(&self) -> impl Iterator<Item = &[RenderedChunk]> + '_ {
        (self.chunks.windows(2)).filter(|w| switched(w[0].bitrate_kbps, w[1].bitrate_kbps))
    }

    /// Number of chunk boundaries where the bitrate changed.
    pub fn num_switches(&self) -> usize {
        self.switches().count()
    }

    /// Sum of |Δvq| across chunk boundaries where the bitrate actually
    /// changed — the quality-switch magnitude KSQI-style models penalize.
    pub fn switch_magnitude(&self) -> f64 {
        self.switches().map(|w| (w[0].vq - w[1].vq).abs()).sum()
    }

    /// Total bits delivered (bitrate × chunk duration summed), a proxy for
    /// bandwidth usage in the Fig. 12b accounting.
    pub fn delivered_bits(&self) -> f64 {
        self.chunks
            .iter()
            .map(|c| c.bitrate_kbps * 1000.0 * self.chunk_duration_s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{Genre, SceneKind, SceneSpec, SourceVideo};

    fn source() -> SourceVideo {
        SourceVideo::from_script(
            "t",
            Genre::Sports,
            &[
                SceneSpec::new(SceneKind::NormalPlay, 4),
                SceneSpec::new(SceneKind::KeyMoment, 2),
            ],
            1,
        )
        .unwrap()
    }

    fn ladder() -> BitrateLadder {
        BitrateLadder::default_paper()
    }

    #[test]
    fn pristine_has_top_bitrate_everywhere() {
        let r = RenderedVideo::pristine(&source(), &ladder());
        assert_eq!(r.num_chunks(), 6);
        assert!(r.chunks().iter().all(|c| c.bitrate_kbps == 2850.0));
        assert_eq!(r.total_rebuffer_s(), 0.0);
        assert_eq!(r.num_switches(), 0);
        assert_eq!(r.rebuffer_ratio(), 0.0);
    }

    #[test]
    fn rebuffer_incident_lands_on_chunk() {
        let r = RenderedVideo::with_incidents(
            &source(),
            &ladder(),
            &[Incident::Rebuffer {
                chunk: 2,
                duration_s: 1.0,
            }],
        )
        .unwrap();
        assert_eq!(r.chunks()[2].rebuffer_s, 1.0);
        assert_eq!(r.total_rebuffer_s(), 1.0);
        // 1 s stall over 24 s content.
        assert!((r.rebuffer_ratio() - 1.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn bitrate_drop_recomputes_vq_and_switches() {
        let r = RenderedVideo::with_incidents(
            &source(),
            &ladder(),
            &[Incident::BitrateDrop {
                chunk: 1,
                len_chunks: 2,
                level: 0,
            }],
        )
        .unwrap();
        assert_eq!(r.chunks()[1].bitrate_kbps, 300.0);
        assert_eq!(r.chunks()[2].bitrate_kbps, 300.0);
        assert!(r.chunks()[1].vq < r.chunks()[0].vq);
        // Two switches: down at 0->1, up at 2->3.
        assert_eq!(r.num_switches(), 2);
        assert!(r.switch_magnitude() > 0.0);
        assert!(r.avg_bitrate_kbps() < 2850.0);
    }

    #[test]
    fn incident_bounds_are_validated() {
        let s = source();
        let l = ladder();
        assert!(RenderedVideo::with_incidents(
            &s,
            &l,
            &[Incident::Rebuffer {
                chunk: 6,
                duration_s: 1.0
            }]
        )
        .is_err());
        assert!(RenderedVideo::with_incidents(
            &s,
            &l,
            &[Incident::Rebuffer {
                chunk: 0,
                duration_s: 0.0
            }]
        )
        .is_err());
        assert!(RenderedVideo::with_incidents(
            &s,
            &l,
            &[Incident::BitrateDrop {
                chunk: 5,
                len_chunks: 2,
                level: 0
            }]
        )
        .is_err());
        assert!(RenderedVideo::with_incidents(
            &s,
            &l,
            &[Incident::BitrateDrop {
                chunk: 0,
                len_chunks: 1,
                level: 9
            }]
        )
        .is_err());
    }

    #[test]
    fn huge_drop_length_is_out_of_range() {
        let (s, l) = (source(), ladder());
        for (chunk, len_chunks) in [(1, usize::MAX), (5, usize::MAX - 4), (6, usize::MAX)] {
            let drop = Incident::BitrateDrop {
                chunk,
                len_chunks,
                level: 0,
            };
            assert_eq!(
                drop.span(6, &l),
                Err(VideoError::ChunkOutOfRange {
                    index: usize::MAX,
                    len: 6
                }),
                "chunk {chunk}, {len_chunks} chunks"
            );
            assert!(RenderedVideo::with_incidents(&s, &l, &[drop]).is_err());
        }
    }

    #[test]
    fn construction_validates_chunks() {
        let good = RenderedChunk {
            bitrate_kbps: 300.0,
            vq: 0.5,
            rebuffer_s: 0.0,
            intentional_rebuffer_s: 0.0,
            motion: 0.5,
            complexity: 0.5,
        };
        assert!(RenderedVideo::new("t", 4.0, 0.0, vec![good]).is_ok());
        assert!(RenderedVideo::new("t", 4.0, 0.0, vec![]).is_err());
        assert!(RenderedVideo::new("t", 4.0, -1.0, vec![good]).is_err());
        let bad_stall = RenderedChunk {
            rebuffer_s: -1.0,
            ..good
        };
        assert!(RenderedVideo::new("t", 4.0, 0.0, vec![bad_stall]).is_err());
        let bad_intent = RenderedChunk {
            rebuffer_s: 1.0,
            intentional_rebuffer_s: 2.0,
            ..good
        };
        assert!(RenderedVideo::new("t", 4.0, 0.0, vec![bad_intent]).is_err());
        let bad_vq = RenderedChunk { vq: 1.5, ..good };
        assert!(RenderedVideo::new("t", 4.0, 0.0, vec![bad_vq]).is_err());
    }

    #[test]
    fn chunk_duration_must_be_finite_and_positive() {
        let good = RenderedChunk {
            bitrate_kbps: 300.0,
            vq: 0.5,
            rebuffer_s: 0.0,
            intentional_rebuffer_s: 0.0,
            motion: 0.5,
            complexity: 0.5,
        };
        for bad in [f64::NAN, 0.0, -4.0, f64::INFINITY] {
            let err = RenderedVideo::new("t", bad, 0.0, vec![good]).unwrap_err();
            match err {
                VideoError::InvalidContent { field, value } => {
                    assert_eq!(field, "chunk_duration_s");
                    assert_eq!(value.to_bits(), bad.to_bits());
                }
                other => panic!("chunk duration {bad}: expected InvalidContent, got {other}"),
            }
        }
    }

    #[test]
    fn startup_delay_counts_as_rebuffering() {
        let r = RenderedVideo::new(
            "t",
            4.0,
            2.0,
            vec![RenderedChunk {
                bitrate_kbps: 300.0,
                vq: 0.5,
                rebuffer_s: 0.0,
                intentional_rebuffer_s: 0.0,
                motion: 0.5,
                complexity: 0.5,
            }],
        )
        .unwrap();
        assert_eq!(r.total_rebuffer_s(), 2.0);
        assert!((r.rebuffer_ratio() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn delivered_bits_accounting() {
        let r = RenderedVideo::pristine(&source(), &ladder());
        let expected = 2850.0 * 1000.0 * 4.0 * 6.0;
        assert!((r.delivered_bits() - expected).abs() < 1.0);
    }
}
