//! Batch/per-event differential suite: every batched entry point —
//! [`Secpert::process_batch`] and the pool's `submit_batch` — must be
//! *byte-identical* to the per-event path, for every batch size and
//! every batch boundary.
//!
//! Three layers of evidence:
//!
//! * a property test driving [`Secpert::process_batch`] over scenario
//!   mixes × batch sizes {1, 2, 3, 7, 64, whole-journal} × arbitrary
//!   mid-session split points, comparing rendered warnings, `hth
//!   explain` provenance trees, and [`MatchStats`] against a per-event
//!   reference engine;
//! * a pool-level differential: the same session streams through an
//!   analyst pool, submitted per event and in producer-side
//!   `submit_batch` chunks that cut sessions mid-stream, must agree
//!   with per-session expert replays on events analysed and the
//!   warning multiset;
//! * the PR 1 golden anchor: batched offline replay of the §8 corpus
//!   reproduces `tests/golden/warnings.txt` and
//!   `tests/golden/explain.txt` byte-for-byte.

use std::sync::OnceLock;

use hth::harrier::SecpertEvent;
use hth::hth_fleet::{warning_multiset, AnalystPool, PoolConfig};
use hth::hth_workloads::{all_scenarios, Group};
use hth::{PolicyConfig, Secpert, Warning};
use proptest::prelude::*;

/// Batch sizes the differential sweeps; `usize::MAX` stands for
/// "whole journal in one batch" (chunked, it clamps to the stream).
const BATCH_SIZES: [usize; 6] = [1, 2, 3, 7, 64, usize::MAX];

/// The recorded §8 streams (Table 8 exploits plus the `ttt` macro
/// pair), captured once — recording runs whole VM sessions and is by
/// far the slowest part of the suite.
fn corpus() -> &'static Vec<(String, Vec<SecpertEvent>)> {
    static CORPUS: OnceLock<Vec<(String, Vec<SecpertEvent>)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut scenarios = hth::hth_workloads::exploits::scenarios();
        scenarios.extend(
            hth::hth_workloads::macro_bench::scenarios()
                .into_iter()
                .filter(|s| s.id == "ttt" || s.id == "ttt_trojaned"),
        );
        scenarios.iter().map(|s| (s.id.to_string(), s.record().expect(s.id))).collect()
    })
}

/// One warning, rendered exactly as the golden corpus pins it,
/// followed by its `hth explain` causal tree — the full observable
/// surface of a warning in one string.
fn render_full(warning: &Warning) -> String {
    let mut out = format!(
        "t={} pid={} {} [{}] {}\n",
        warning.time,
        warning.pid,
        warning.rule,
        warning.severity.label(),
        warning.message
    );
    match warning.provenance.as_deref() {
        Some(prov) => out.push_str(&prov.render_tree(warning)),
        None => out.push_str("(no provenance)\n"),
    }
    out
}

/// Replays a stream through a fresh expert one event at a time — the
/// reference the batched runs must reproduce byte-for-byte.
fn per_event_reference(stream: &[SecpertEvent]) -> (String, secpert_engine::MatchStats) {
    let mut secpert = Secpert::new(&PolicyConfig::default()).expect("policy loads");
    let mut rendered = String::new();
    for event in stream {
        for warning in secpert.process_event(event).expect("replay") {
            rendered.push_str(&render_full(&warning));
        }
    }
    (rendered, secpert.match_stats())
}

/// Replays a stream through a fresh expert in batches cut at `splits`
/// (ascending positions inside the stream).
fn batched_run(stream: &[SecpertEvent], splits: &[usize]) -> (String, secpert_engine::MatchStats) {
    let mut secpert = Secpert::new(&PolicyConfig::default()).expect("policy loads");
    let mut rendered = String::new();
    let mut start = 0;
    for &split in splits.iter().chain(std::iter::once(&stream.len())) {
        let run = &stream[start..split];
        start = split;
        for warning in secpert.process_batch(run).expect("replay") {
            rendered.push_str(&render_full(&warning));
        }
    }
    (rendered, secpert.match_stats())
}

/// Even splits every `batch` events; `batch >= len` is one whole-journal
/// batch.
fn uniform_splits(len: usize, batch: usize) -> Vec<usize> {
    (1..len).filter(|i| i % batch.max(1) == 0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any scenario mix, any batch size, any mid-session batch
    /// boundaries: warnings, provenance trees, and match-network
    /// counters are byte-identical to the per-event reference.
    #[test]
    fn batched_analysis_is_byte_identical_to_per_event(
        mix in any::<u64>(),
        batch_pick in 0usize..BATCH_SIZES.len(),
        split_seed in any::<u64>(),
    ) {
        let corpus = corpus();
        // A non-empty subset of the recorded streams.
        let picked: Vec<&(String, Vec<SecpertEvent>)> = corpus
            .iter()
            .enumerate()
            .filter(|(i, _)| mix >> (i % 64) & 1 == 1)
            .map(|(_, s)| s)
            .collect();
        let picked = if picked.is_empty() { vec![&corpus[0]] } else { picked };
        for (id, stream) in picked {
            let (want, want_stats) = per_event_reference(stream);

            // Uniform batches at the swept size.
            let batch = BATCH_SIZES[batch_pick];
            let (got, got_stats) = batched_run(stream, &uniform_splits(stream.len(), batch));
            prop_assert_eq!(&got, &want, "{}: batch={} diverged", id, batch);
            prop_assert_eq!(got_stats, want_stats, "{}: batch={} stats diverged", id, batch);

            // Arbitrary mid-session boundaries from the case seed.
            let mut splits = Vec::new();
            let mut x = split_seed | 1;
            for i in 1..stream.len() {
                // xorshift64: a cheap deterministic coin per position.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 3 == 0 {
                    splits.push(i);
                }
            }
            let (got, got_stats) = batched_run(stream, &splits);
            prop_assert_eq!(&got, &want, "{}: random splits diverged", id);
            prop_assert_eq!(got_stats, want_stats, "{}: random-split stats diverged", id);
        }
    }
}

/// Every swept batch size reproduces the per-event reference on every
/// recorded stream — the deterministic exhaustive sweep backing the
/// sampled property above.
#[test]
fn every_batch_size_matches_on_every_stream() {
    for (id, stream) in corpus() {
        let (want, want_stats) = per_event_reference(stream);
        for batch in BATCH_SIZES {
            let (got, got_stats) = batched_run(stream, &uniform_splits(stream.len(), batch));
            assert_eq!(got, want, "{id}: batch={batch} diverged");
            assert_eq!(got_stats, want_stats, "{id}: batch={batch} stats diverged");
        }
    }
}

/// Pool-level differential: a pool fed per event, and pools fed
/// producer-side `submit_batch` chunks that cut sessions mid-stream,
/// all agree with per-session expert replays on events analysed and
/// the warning multiset.
#[test]
fn batched_pool_matches_per_event_pool() {
    let corpus = corpus();
    let total: u64 = corpus.iter().map(|(_, s)| s.len() as u64).sum();

    let run = |producer_chunk: usize| {
        let config = PoolConfig { shards: 4, ..PoolConfig::default() };
        let pool = AnalystPool::new(&config, &PolicyConfig::default()).expect("policy loads");
        let mut buffer: Vec<SecpertEvent> = Vec::new();
        for (sid, (_, stream)) in corpus.iter().enumerate() {
            if producer_chunk <= 1 {
                for event in stream {
                    pool.submit(sid as u64, event.clone());
                }
            } else {
                for run in stream.chunks(producer_chunk) {
                    buffer.extend(run.iter().cloned());
                    pool.submit_batch(sid as u64, &mut buffer);
                }
            }
        }
        let report = pool.finish();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.lost(), 0);
        report
    };

    // Each session replayed alone through a fresh expert.
    let mut expected = Vec::new();
    for (id, stream) in corpus {
        let mut secpert = Secpert::new(&PolicyConfig::default()).expect("policy loads");
        for event in stream {
            expected.extend(secpert.process_event(event).expect(id));
        }
    }
    let baseline = warning_multiset(&expected);
    assert!(!baseline.is_empty(), "the corpus must warn");

    // Producer chunks: per event, and two sizes that never align with
    // session length.
    for producer_chunk in [1, 7, 13] {
        let report = run(producer_chunk);
        assert_eq!(report.events, total, "chunk={producer_chunk}: event count diverged");
        assert_eq!(
            warning_multiset(&report.warnings),
            baseline,
            "chunk={producer_chunk}: warning multiset diverged"
        );
    }
}

/// The PR 1 golden anchor: batched offline replay of the §8 corpus
/// reproduces the pinned warning traces and `hth explain` trees
/// byte-for-byte. (`scenario.run()` pins the inline path in
/// `full_pipeline.rs`; this pins the batched offline path against the
/// very same files.)
#[test]
fn batched_replay_reproduces_golden_corpus() {
    let mut warnings_rendered = String::new();
    let mut explain_rendered = String::new();
    for scenario in all_scenarios() {
        if scenario.group != Group::Exploit && scenario.group != Group::Macro {
            continue;
        }
        let stream = scenario.record().expect(scenario.id);
        let mut secpert = Secpert::new(&PolicyConfig::default()).expect("policy loads");
        let mut warnings = Vec::new();
        for run in stream.chunks(64) {
            warnings.extend(secpert.process_batch(run).expect("replay"));
        }
        let header = format!("== {} ({})\n", scenario.id, scenario.group.table());
        warnings_rendered.push_str(&header);
        explain_rendered.push_str(&header);
        if warnings.is_empty() {
            warnings_rendered.push_str("(silent)\n");
            explain_rendered.push_str("(silent)\n");
        }
        for w in &warnings {
            warnings_rendered.push_str(&format!(
                "t={} pid={} {} [{}] {}\n",
                w.time,
                w.pid,
                w.rule,
                w.severity.label(),
                w.message
            ));
            match w.provenance.as_deref() {
                Some(prov) => explain_rendered.push_str(&prov.render_tree(w)),
                None => explain_rendered.push_str("(no provenance)\n"),
            }
        }
    }
    let golden_warnings =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/warnings.txt"))
            .expect("golden warnings snapshot missing");
    assert_eq!(
        golden_warnings, warnings_rendered,
        "batched replay diverged from tests/golden/warnings.txt"
    );
    let golden_explain =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/explain.txt"))
            .expect("golden explain snapshot missing");
    assert_eq!(
        golden_explain, explain_rendered,
        "batched replay diverged from tests/golden/explain.txt"
    );
}
