//! The final merge phase (paper Fig. 5e): a Map-Reduce job collapsing the
//! per-reducer local top-k lists into the global top-k.

use crate::joinphase::ReducerOutput;
use tkij_mapreduce::{
    run_map_reduce, ClusterConfig, CodecError, FrameReader, JobMetrics, Record, SizeOf,
};
use tkij_temporal::result::{MatchTuple, TopK};

/// Shuffle record wrapping one local result tuple.
struct TupleMsg(MatchTuple);

impl SizeOf for TupleMsg {
    fn size_bytes(&self) -> usize {
        8 * self.0.ids.len() + 8 // ids + score
    }
}

impl Record for TupleMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        for id in &self.0.ids {
            id.encode(out);
        }
        self.0.score.encode(out);
    }

    // The id count carries no prefix: a tuple is the frame's whole value,
    // so the arity is `(remaining − score) / 8`.
    fn decode(reader: &mut FrameReader<'_>) -> Result<Self, CodecError> {
        let rem = reader.remaining();
        if rem < 8 || rem % 8 != 0 {
            return Err(CodecError {
                detail: format!("TupleMsg payload of {rem} bytes is not ids + score"),
            });
        }
        let arity = rem / 8 - 1;
        let mut ids = Vec::with_capacity(arity);
        for _ in 0..arity {
            ids.push(u64::decode(reader)?);
        }
        let score = f64::decode(reader)?;
        if !score.is_finite() {
            return Err(CodecError { detail: format!("non-finite tuple score {score}") });
        }
        Ok(TupleMsg(MatchTuple::new(ids, score)))
    }
}

/// Merges the reducer outputs into the exact global top-k (best first).
pub fn run_merge_phase(
    outputs: &[ReducerOutput],
    k: usize,
    cluster: &ClusterConfig,
) -> (Vec<MatchTuple>, JobMetrics) {
    let (merged, metrics) = run_map_reduce(
        outputs,
        cluster.map_slots.max(1),
        1,
        |_, chunk, em| {
            for out in chunk {
                for t in &out.results {
                    em.emit(0u8, TupleMsg(t.clone()));
                }
            }
        },
        |_| 0,
        |_, msgs| {
            let mut top = TopK::new(k);
            for TupleMsg(t) in msgs {
                top.offer(t);
            }
            top.into_sorted_vec()
        },
        cluster,
    );
    (merged, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localjoin::LocalJoinStats;

    fn output(reducer: u32, scores: &[f64]) -> ReducerOutput {
        ReducerOutput {
            reducer,
            results: scores
                .iter()
                .enumerate()
                .map(|(i, s)| MatchTuple::new(vec![reducer as u64 * 100 + i as u64], *s))
                .collect(),
            stats: LocalJoinStats::default(),
        }
    }

    #[test]
    fn merges_to_global_best() {
        let outputs = vec![output(0, &[0.9, 0.5, 0.1]), output(1, &[0.8, 0.7]), output(2, &[])];
        let (merged, metrics) = run_merge_phase(&outputs, 3, &ClusterConfig::default());
        let scores: Vec<f64> = merged.iter().map(|t| t.score).collect();
        assert_eq!(scores, vec![0.9, 0.8, 0.7]);
        assert_eq!(metrics.total_shuffle_records(), 5);
    }

    #[test]
    fn deterministic_tie_break_across_reducers() {
        let outputs = vec![output(1, &[0.5]), output(0, &[0.5])];
        let (merged, _) = run_merge_phase(&outputs, 1, &ClusterConfig::default());
        assert_eq!(merged[0].ids, vec![0], "smaller ids win ties");
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let (merged, _) = run_merge_phase(&[], 5, &ClusterConfig::default());
        assert!(merged.is_empty());
    }
}
