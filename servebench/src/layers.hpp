// The traced run's in-process replays. Each replay feeds the workload's own
// generated inputs through one layer's public functions, wrapping every
// call in a benchmark span:
//
//   engine   QueryEngine::query_signature / insert_signature / erase
//   SA       SemanticAggregator::keys (pipeline::make_aggregator)
//   CHS      GroupStore::find / place (pipeline::make_group_store)
//   rank     SparseSignature::jaccard + partial_sort, over the candidate
//            set the SA + CHS replay rebuilt (must equal the engine's)
//   tier     seals, compaction and segment skips of a durable tiered
//            engine fed the write stream at a small seal threshold
//   storage  WalWriter::append / sync; snapshot write; open_or_recover
//   wire     protocol.hpp encoders/decoders through a FrameAssembler
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "hash/sparse_signature.hpp"
#include "metric_names.hpp"
#include "spans.hpp"
#include "vision/pca.hpp"

namespace servebench {

/// The eigenspace fast_server builds for itself; signature paths never use
/// it, but recovery checks the config fingerprint, so replays match it.
fast::vision::PcaModel placeholder_pca();

struct WriteRecord {
  bool insert = true;
  std::uint64_t id = 0;
  fast::hash::SparseSignature sig;  ///< empty for erases
};

struct LayerInputs {
  /// Live set the queries run against (the workload's preloaded state).
  std::vector<std::uint64_t> live_ids;
  std::vector<fast::hash::SparseSignature> live_sigs;
  std::vector<fast::hash::SparseSignature> queries;
  /// Write stream for the engine, tier, SA-insert, CHS-place and WAL
  /// replays.
  std::vector<WriteRecord> writes;
  /// Fresh directory for the durable replays.
  std::string scratch_dir;
};

struct LayerCheck {
  std::size_t queries = 0;
  std::size_t candidate_mismatches = 0;  ///< replay vs QueryResult::candidates
  std::size_t hit_mismatches = 0;        ///< replay top-k vs engine top-k
  std::string error;                     ///< a replay call failed
};

/// Runs every query-side, write-side and storage replay; fills the
/// engine.*, sa.*, chs.*, rank.*, tier.*, wal.*, snapshot.* and recovery.*
/// metrics. A tiered replay that sealed fewer than 3 times per lane is an
/// error.
LayerCheck replay_layers(const LayerInputs& inputs, SpanRecorder& spans,
                         MetricSet* metrics);

/// Replays request/response bodies captured during the run (indexed by
/// Op::Kind) through the wire codec; fills the wire.*_us metrics.
void replay_wire(
    const std::array<std::vector<std::vector<std::uint8_t>>, 3>& requests,
    const std::array<std::vector<std::vector<std::uint8_t>>, 3>& responses,
    SpanRecorder& spans, MetricSet* metrics);

}  // namespace servebench
