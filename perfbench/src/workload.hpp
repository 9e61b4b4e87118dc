// Workloads, seeded inputs, and the serial reference of the station-host
// benchmark. Everything here is deterministic in (workload, seed, seconds):
// the generator process and the host derive the same inputs independently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/features.hpp"
#include "core/params.hpp"
#include "core/spectral_engine.hpp"
#include "meso/classifier.hpp"
#include "synth/station.hpp"

namespace perfbench {

namespace core = dynriver::core;
namespace meso = dynriver::meso;
namespace synth = dynriver::synth;

inline constexpr double kSampleRate = 21600.0;
/// Scheduler worker lanes, fixed for every workload (never 0 or
/// hardware_concurrency: lane count must not follow the machine).
inline constexpr std::size_t kLanes = 2;
/// Clips in the seeded pool the stations loop over.
inline constexpr std::size_t kPoolClips = 24;

struct Spec {
  std::string name;
  bool open_loop = true;
  bool push_fed = false;  ///< receiver threads demultiplex into push()
  bool archive = false;   ///< the host tees raw audio into a packed store
  std::size_t stations = 0;
  std::size_t connections = 0;  ///< loopback TCP connections (0 = none)
  std::size_t chunk = 900;      ///< samples per wire record / pushed chunk
  std::size_t singers = 0;      ///< songs planted per 30 s pool clip
  /// Open loop: offered rate per station, in multiples of real time.
  double rate_x = 0.0;
  /// Closed loop: audio seconds each replay station streams per pass, and
  /// replay passes per measured second.
  double station_seconds = 0.0;
  double passes_per_second = 0.0;
};

[[nodiscard]] const std::vector<Spec>& specs();
[[nodiscard]] const Spec* find_spec(std::string_view name);

/// The seeded clip pool every station loops over, on the PCM16 grid.
struct Pool {
  std::size_t clip_samples = 0;
  std::vector<float> samples;  ///< the clips back to back
  std::vector<synth::PlantedVocalization> truth;  ///< at pool offsets
};
[[nodiscard]] Pool render_pool(const Spec& spec, std::uint64_t seed);

/// How each station walks the pool. Only the offsets depend on the pool.
struct Plan {
  std::size_t chunks_per_station = 0;
  std::size_t passes = 1;            ///< closed loop only
  std::vector<std::size_t> loop;     ///< samples each station loops over
  std::vector<std::size_t> offset;   ///< chunk-aligned start within the loop
  double step_ns = 0.0;  ///< open loop: spacing of consecutive sends
};
[[nodiscard]] Plan make_plan(const Spec& spec, std::size_t pool_samples,
                             double seconds, double rate_scale);

/// Closed loop: chunks each replay station streams per pass, and passes per
/// run of `seconds` (1 for open-loop workloads).
[[nodiscard]] std::size_t replay_chunks(const Spec& spec);
[[nodiscard]] std::size_t replay_passes(const Spec& spec, double seconds);

/// Chunk `r` of station `s`'s stream (never wraps: offsets and loop lengths
/// are chunk multiples).
[[nodiscard]] std::span<const float> chunk_of(const Spec& spec, const Pool& pool,
                                              const Plan& plan, std::size_t s,
                                              std::size_t r);

[[nodiscard]] std::uint64_t input_digest(const Spec& spec, std::uint64_t seed,
                                         const Pool& pool, const Plan& plan);
[[nodiscard]] std::uint64_t hash_samples(std::span<const float> xs);

/// Pre-rendered labeled training clips (rendered before set-up is timed).
/// They are the same in every run: the classifier is the host's
/// configuration, not its input, and a training set drawn from the run's
/// seed made set-up work, and so setup_s, differ from seed to seed.
struct TrainingSet {
  std::vector<synth::ClipRecording> clips;
  std::vector<meso::Label> labels;
};
[[nodiscard]] TrainingSet render_training();

/// Extract, featurize and train MESO on the training clips.
[[nodiscard]] std::unique_ptr<meso::MesoClassifier> train_classifier(
    const TrainingSet& set, const core::PipelineParams& params,
    const std::shared_ptr<const core::SpectralEngine>& engine);

/// Featurize one ensemble and vote its patterns' MESO labels (-1 when the
/// ensemble is too short for a pattern). Records core.features and
/// meso.classify spans when tracing is on.
[[nodiscard]] int label_ensemble(const core::FeatureExtractor& features,
                                 const meso::MesoClassifier& classifier,
                                 std::span<const float> samples, std::uint64_t id);

/// One ensemble as emitted (host) or expected (reference).
struct Emission {
  std::size_t start = 0;
  std::size_t length = 0;
  std::uint64_t hash = 0;
  int label = -1;
  std::size_t emit_chunk = 0;  ///< chunk whose push made the session emit it
  bool tail = false;           ///< flushed by finish()
};

/// Serial StreamSession reference over one station's stream, pushed in the
/// same chunks the host sees.
[[nodiscard]] std::vector<Emission> reference_station(
    const Spec& spec, const Pool& pool, const Plan& plan, std::size_t station,
    const core::PipelineParams& params, const core::FeatureExtractor& features,
    const meso::MesoClassifier& classifier);

/// Exact, seed-determined quality counters over the reference output.
struct QualityCounters {
  std::size_t ensembles = 0;
  double reduction = 0.0;          ///< 1 - kept samples / streamed samples
  double trigger_precision = 0.0;  ///< ensembles overlapping planted truth
  double meso_accuracy = 0.0;      ///< matched ensembles labeled correctly
};
[[nodiscard]] QualityCounters quality(const Spec& spec, const Pool& pool,
                                      const Plan& plan,
                                      const std::vector<std::vector<Emission>>& ref);

}  // namespace perfbench
