//! Fig. 6: potential gains — idealistic sensitivity-aware vs -unaware ABR.
//!
//! The paper's §2.4 experiment is an *offline bitrate-to-chunk assignment*:
//! both algorithms see the entire throughput trace, "throughput is not
//! affected by bitrate selections", and each maximizes its QoE model
//! subject to the trace's total capacity over the playback duration. We
//! solve that directly with a Lagrangian relaxation: for a price λ on
//! bits, each chunk independently picks argmax(weighted quality − λ·size);
//! λ is bisected until the assignment meets the capacity budget. The
//! unaware variant optimizes the same objective with uniform weights.

// Figure-generation code renders counts and indices as f64 plot
// coordinates; everything is far below 2^52, so the conversions
// are exact.
#![allow(clippy::cast_precision_loss)]

use sensei_bench::{full_mode, header, Table, QUICK_VIDEOS};
use sensei_crowd::TrueQoe;
use sensei_video::{
    corpus, BitrateLadder, EncodedVideo, RenderedChunk, RenderedVideo, SensitivityWeights,
};

/// Max-weighted-quality assignment under a total-bits budget.
fn assign(encoded: &EncodedVideo, weights: &[f64], budget_bits: f64) -> Vec<usize> {
    let n = encoded.num_chunks();
    let pick = |lambda: f64| -> (Vec<usize>, f64) {
        let mut levels = Vec::with_capacity(n);
        let mut bits = 0.0;
        for (c, &w) in weights.iter().enumerate().take(n) {
            let mut best = 0;
            let mut best_v = f64::NEG_INFINITY;
            for (l, &q) in encoded.vq_row(c).iter().enumerate() {
                let size = encoded.size_bits(c, l).expect("in range");
                let v = w * q - lambda * size;
                if v > best_v {
                    best_v = v;
                    best = l;
                }
            }
            bits += encoded.size_bits(c, best).expect("in range");
            levels.push(best);
        }
        (levels, bits)
    };
    // Bisect the bit price until the budget binds.
    let (mut lo, mut hi) = (0.0_f64, 1e-5_f64);
    if pick(lo).1 <= budget_bits {
        return pick(lo).0; // even the top assignment fits
    }
    while pick(hi).1 > budget_bits {
        hi *= 2.0;
    }
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if pick(mid).1 > budget_bits {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    pick(hi).0
}

fn main() {
    header(
        "Fig. 6",
        "Potential QoE gains of dynamic-sensitivity awareness (offline assignment)",
        "22-52% higher QoE at equal bandwidth; 39-49% bandwidth savings",
    );
    let ladder = BitrateLadder::default_paper();
    let oracle = TrueQoe::default();
    let base_trace = sensei_trace::generate::evaluation_set(2021 ^ 0x7AACE)[6].clone();
    let names: Vec<&str> = if full_mode() {
        vec![]
    } else {
        QUICK_VIDEOS.to_vec()
    };
    let mut table = Table::new(&["Scale", "Mean kbps", "Aware QoE", "Unaware QoE", "Gain %"]);
    for scale in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let trace = base_trace.scaled(scale).expect("positive scale");
        let mut aware_total = 0.0;
        let mut unaware_total = 0.0;
        let mut count = 0usize;
        for entry in corpus::table1(2021) {
            if !names.is_empty() && !names.contains(&entry.video.name()) {
                continue;
            }
            let src = &entry.video;
            let encoded = EncodedVideo::encode(src, &ladder, 5);
            // Capacity budget: what the trace can deliver over playback.
            let budget = trace.mean_over(0.0, src.duration_s()) * 1000.0 * src.duration_s();
            let truth = SensitivityWeights::ground_truth(src);
            let uniform = vec![1.0; src.num_chunks()];
            for (weights, total) in [
                (truth.as_slice(), &mut aware_total),
                (uniform.as_slice(), &mut unaware_total),
            ] {
                let levels = assign(&encoded, weights, budget);
                let chunks: Vec<RenderedChunk> = levels
                    .iter()
                    .enumerate()
                    .map(|(c, &l)| RenderedChunk {
                        bitrate_kbps: ladder.levels()[l],
                        vq: encoded.vq(c, l),
                        rebuffer_s: 0.0,
                        intentional_rebuffer_s: 0.0,
                        motion: src.chunks()[c].motion,
                        complexity: src.chunks()[c].complexity,
                    })
                    .collect();
                let render =
                    RenderedVideo::new(src.name(), src.chunk_duration_s(), 0.0, chunks).unwrap();
                *total += oracle.qoe01(src, &render).unwrap();
            }
            count += 1;
        }
        let n = count as f64;
        table.add(vec![
            format!("{scale:.1}"),
            format!("{:.0}", trace.mean_kbps()),
            format!("{:.3}", aware_total / n),
            format!("{:.3}", unaware_total / n),
            format!(
                "{:+.1}",
                (aware_total - unaware_total) / unaware_total * 100.0
            ),
        ]);
    }
    table.print();
}
