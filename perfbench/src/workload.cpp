#include "workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/stream_session.hpp"
#include "eval/protocol.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * kFnvPrime;
}

std::uint64_t fnv(std::uint64_t h, std::string_view s) {
  for (const char c : s) h = fnv(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace

const std::vector<Spec>& specs() {
  // Rates and sizes are fixed here, never derived per run; NOTES.md records
  // the calibration they come from.
  static const std::vector<Spec> kSpecs = [] {
    std::vector<Spec> v;
    Spec live;
    live.name = "live_tcp";
    live.archive = true;
    live.stations = 4;
    live.connections = 4;
    live.chunk = 900;
    live.singers = 3;
    live.rate_x = 150.0;
    v.push_back(live);

    Spec backfill;
    backfill.name = "backfill_replay";
    backfill.open_loop = false;
    backfill.stations = 4;
    backfill.chunk = 900;
    backfill.singers = 3;
    backfill.station_seconds = 300.0;
    backfill.passes_per_second = 1.5;
    v.push_back(backfill);

    Spec fanin;
    fanin.name = "fanin_quiet";
    fanin.push_fed = true;
    fanin.stations = 64;
    fanin.connections = 4;
    fanin.chunk = 450;
    fanin.singers = 2;
    fanin.rate_x = 19.0;
    v.push_back(fanin);
    return v;
  }();
  return kSpecs;
}

const Spec* find_spec(std::string_view name) {
  for (const Spec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Pool render_pool(const Spec& spec, std::uint64_t seed) {
  const std::uint64_t salt = fnv(kFnvOffset, std::string_view(spec.name));
  // Songs at least 2 s apart never merge (merge gap 0.6 s): how many songs
  // happen to land close together would otherwise set the long-ensemble
  // tail, and with it emit_p90_ms, differently for every seed.
  synth::StationParams station_params;
  station_params.min_event_gap_s = 2.0;
  synth::SensorStation station(station_params, mix(seed, salt));
  dynriver::Rng pick(mix(seed, salt + 1));
  // Singers are dealt from back-to-back shuffled decks of all species, so
  // every seed plants each species equally often (within one): seeds vary
  // the renditions, placement and noise, not the species mix, which would
  // otherwise move featurize cost from seed to seed.
  std::vector<synth::SpeciesId> deck;
  while (deck.size() < kPoolClips * spec.singers) {
    std::vector<int> order(synth::kNumSpecies);
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = static_cast<int>(k);
    for (std::size_t k = order.size() - 1; k > 0; --k) {
      const auto j = static_cast<std::size_t>(
          pick.uniform_int(0, static_cast<std::int64_t>(k)));
      std::swap(order[k], order[j]);
    }
    for (const int o : order) deck.push_back(static_cast<synth::SpeciesId>(o));
  }
  Pool pool;
  for (std::size_t i = 0; i < kPoolClips; ++i) {
    const auto first = deck.begin() + static_cast<std::ptrdiff_t>(i * spec.singers);
    const std::vector<synth::SpeciesId> singers(
        first, first + static_cast<std::ptrdiff_t>(spec.singers));
    const auto clip = station.record_clip(singers);
    if (pool.clip_samples == 0) pool.clip_samples = clip.clip.samples.size();
    if (clip.clip.samples.size() != pool.clip_samples) {
      throw std::runtime_error("pool clips differ in length");
    }
    const std::size_t base = pool.samples.size();
    // The PCM16 grid a station's ADC produces (the archive codec's input).
    for (const float v : clip.clip.samples) {
      const float c = std::clamp(v, -1.0F, 1.0F);
      pool.samples.push_back(static_cast<float>(std::lround(c * 32767.0F)) /
                             32768.0F);
    }
    for (auto t : clip.truth) {
      t.start_sample += base;
      pool.truth.push_back(t);
    }
  }
  if (pool.clip_samples % spec.chunk != 0) {
    throw std::runtime_error("clip length is not a chunk multiple");
  }
  return pool;
}

Plan make_plan(const Spec& spec, std::size_t pool_samples, double seconds,
               double rate_scale) {
  Plan plan;
  // Station s loops over the first kPoolClips - (s % 4) clips. With loops of
  // different lengths the stations' relative phase shifts every loop, so
  // which stations emit in the same scheduling round varies through the run
  // instead of repeating one seed-specific pattern on every loop.
  const std::size_t clip = pool_samples / kPoolClips;
  for (std::size_t s = 0; s < spec.stations; ++s) {
    const std::size_t n = (kPoolClips - s % 4) * clip;
    plan.loop.push_back(n);
    plan.offset.push_back(s * (n / spec.chunk) / spec.stations * spec.chunk);
  }
  if (spec.open_loop) {
    const double rate = spec.rate_x * rate_scale * kSampleRate;
    const auto chunk = static_cast<double>(spec.chunk);
    plan.chunks_per_station =
        static_cast<std::size_t>(std::ceil(seconds * rate / chunk));
    plan.step_ns = chunk / rate * 1e9 / static_cast<double>(spec.stations);
  } else {
    plan.chunks_per_station = replay_chunks(spec);
    plan.passes = replay_passes(spec, seconds);
  }
  return plan;
}

std::size_t replay_chunks(const Spec& spec) {
  return static_cast<std::size_t>(std::ceil(
      spec.station_seconds * kSampleRate / static_cast<double>(spec.chunk)));
}

std::size_t replay_passes(const Spec& spec, double seconds) {
  if (spec.open_loop) return 1;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds * spec.passes_per_second)));
}

std::span<const float> chunk_of(const Spec& spec, const Pool& pool,
                                const Plan& plan, std::size_t s,
                                std::size_t r) {
  const std::size_t pos = (plan.offset[s] + r * spec.chunk) % plan.loop[s];
  return {pool.samples.data() + pos, spec.chunk};
}

std::uint64_t hash_samples(std::span<const float> xs) {
  std::uint64_t h = kFnvOffset;
  for (const float x : xs) h = fnv(h, std::bit_cast<std::uint32_t>(x));
  return h;
}

std::uint64_t input_digest(const Spec& spec, std::uint64_t seed,
                           const Pool& pool, const Plan& plan) {
  std::uint64_t h = fnv(kFnvOffset, std::string_view(spec.name));
  for (const std::uint64_t w :
       {seed, std::uint64_t{spec.stations}, std::uint64_t{spec.chunk},
        std::uint64_t{plan.chunks_per_station}, std::uint64_t{plan.passes}}) {
    h = fnv(h, w);
  }
  for (const std::size_t o : plan.offset) h = fnv(h, o);
  for (const std::size_t n : plan.loop) h = fnv(h, n);
  return fnv(h, hash_samples(pool.samples));
}

TrainingSet render_training() {
  synth::StationParams sp;
  sp.clip_seconds = 8.0;
  sp.distractor_probability = 0.0;
  synth::SensorStation trainer(sp, mix(1, 0x7e41));
  TrainingSet set;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t s = 0; s < synth::kNumSpecies; ++s) {
      set.clips.push_back(trainer.record_clip({static_cast<synth::SpeciesId>(s)}));
      set.labels.push_back(static_cast<meso::Label>(s));
    }
  }
  return set;
}

std::unique_ptr<meso::MesoClassifier> train_classifier(
    const TrainingSet& set, const core::PipelineParams& params,
    const std::shared_ptr<const core::SpectralEngine>& engine) {
  core::StreamSession session(params, {}, engine);
  const core::FeatureExtractor features(params, engine);
  auto classifier = std::make_unique<meso::MesoClassifier>();
  std::vector<float> probe;
  for (std::size_t i = 0; i < set.clips.size(); ++i) {
    session.reset();
    static_cast<void>(session.push(set.clips[i].clip.samples));
    for (const auto& e : session.finish()) {
      for (auto& p : features.patterns(e.samples)) {
        classifier->train(p, set.labels[i]);
        probe = std::move(p);
      }
    }
  }
  if (probe.empty()) throw std::runtime_error("training produced no patterns");
  // The first query builds the sphere tree; afterwards classify() mutates
  // nothing, so sinks on several scheduler lanes may share the classifier.
  static_cast<void>(classifier->classify(probe));
  return classifier;
}

int label_ensemble(const core::FeatureExtractor& features,
                   const meso::MesoClassifier& classifier,
                   std::span<const float> samples, std::uint64_t id) {
  std::vector<std::vector<float>> patterns;
  {
    const Span span(SpanKind::kFeatures, id);
    patterns = features.patterns(samples);
  }
  if (patterns.empty()) return -1;
  const Span span(SpanKind::kClassify, id);
  std::vector<int> votes;
  votes.reserve(patterns.size());
  for (const auto& p : patterns) votes.push_back(classifier.classify(p));
  return dynriver::eval::majority_vote(votes, synth::kNumSpecies);
}

std::vector<Emission> reference_station(const Spec& spec, const Pool& pool,
                                        const Plan& plan, std::size_t station,
                                        const core::PipelineParams& params,
                                        const core::FeatureExtractor& features,
                                        const meso::MesoClassifier& classifier) {
  core::StreamSession session(params, {}, features.engine());
  std::vector<Emission> out;
  const auto emit = [&](const dynriver::river::Ensemble& e, std::size_t chunk,
                        bool tail) {
    out.push_back({e.start_sample, e.length(), hash_samples(e.samples),
                   label_ensemble(features, classifier, e.samples, 0), chunk,
                   tail});
  };
  for (std::size_t r = 0; r < plan.chunks_per_station; ++r) {
    if (session.push(chunk_of(spec, pool, plan, station, r)) > 0) {
      for (const auto& e : session.drain()) emit(e, r, false);
    }
  }
  for (const auto& e : session.finish()) {
    emit(e, plan.chunks_per_station, true);
  }
  return out;
}

QualityCounters quality(const Spec& spec, const Pool& pool, const Plan& plan,
                        const std::vector<std::vector<Emission>>& ref) {
  QualityCounters q;
  const std::size_t len = plan.chunks_per_station * spec.chunk;
  std::size_t kept = 0;
  std::size_t matched = 0;
  std::size_t correct = 0;
  for (std::size_t s = 0; s < ref.size(); ++s) {
    // Planted truth re-based onto this station's stream.
    std::vector<synth::PlantedVocalization> truth;
    const std::size_t n = plan.loop[s];
    for (std::size_t base = 0; base < plan.offset[s] + len; base += n) {
      for (auto t : pool.truth) {
        if (t.start_sample >= n) continue;  // clip outside this station's loop
        const std::size_t at = base + t.start_sample;
        if (at < plan.offset[s] || at >= plan.offset[s] + len) continue;
        t.start_sample = at - plan.offset[s];
        truth.push_back(t);
      }
    }
    for (const Emission& e : ref[s]) {
      ++q.ensembles;
      kept += e.length;
      const synth::PlantedVocalization* best = nullptr;
      std::size_t best_overlap = 0;
      for (const auto& t : truth) {
        const std::size_t lo = std::max(e.start, t.start_sample);
        const std::size_t hi = std::min(e.start + e.length, t.end_sample());
        if (hi > lo && hi - lo > best_overlap &&
            synth::intervals_overlap(e.start, e.start + e.length,
                                     t.start_sample, t.end_sample(), 0.25)) {
          best_overlap = hi - lo;
          best = &t;
        }
      }
      if (best == nullptr) continue;
      ++matched;
      if (e.label == static_cast<int>(best->species)) ++correct;
    }
  }
  const double streamed = static_cast<double>(ref.size() * len);
  q.reduction = 1.0 - static_cast<double>(kept) / streamed;
  q.trigger_precision =
      q.ensembles == 0 ? 0.0
                       : static_cast<double>(matched) / static_cast<double>(q.ensembles);
  q.meso_accuracy =
      matched == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(matched);
  return q;
}

}  // namespace perfbench
