// Golden-seed generator: builds each harness's starting corpus from the
// REAL encoders, so coverage-guided fuzzing starts inside the happy paths
// instead of spending its budget rediscovering magic numbers.
//
//   corpus_gen <output-root>
//
// writes <output-root>/<harness>/<seed-name> for every harness. Run once and
// commit the outputs under fuzz/corpus/ (see docs/ANALYSIS.md, "Fuzzing");
// regression inputs from actual findings are added next to them by hand.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dsp/wav.hpp"
#include "fuzz_support.hpp"
#include "river/bitpack.hpp"
#include "river/segment_store.hpp"
#include "river/wire.hpp"
#include "segment_archive.hpp"

namespace fs = std::filesystem;
namespace rv = dynriver::river;
namespace bp = dynriver::river::bitpack;
namespace fz = dynriver::fuzz;

namespace {

rv::Record rich_record() {
  rv::Record rec;
  rec.type = rv::RecordType::kData;
  rec.subtype = rv::kSubtypeAudio;
  rec.scope_depth = 1;
  rec.scope_type = rv::kScopeClip;
  rec.sequence = 42;
  rec.attrs.emplace(rv::kAttrSampleRate, std::int64_t{22050});
  rec.attrs.emplace(rv::kAttrClipId, std::string("clip-0007"));
  rec.attrs.emplace("snr_db", 12.5);
  rv::FloatVec floats;
  for (int i = 0; i < 300; ++i) {
    floats.push_back(static_cast<float>((i * 37 % 128) - 64) / 128.0F);
  }
  rec.payload = std::move(floats);
  return rec;
}

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::uint8_t> bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  return bytes;
}

void emit(const fs::path& root, const char* harness, const char* name,
          const std::vector<std::uint8_t>& bytes) {
  fs::create_directories(root / harness);
  fz::write_file(root / harness / name, bytes);
  std::printf("%s/%s: %zu bytes\n", harness, name, bytes.size());
}

std::vector<float> quantized_signal(std::size_t n, unsigned seed) {
  std::vector<float> v(n);
  unsigned s = seed * 2654435761u + 1u;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 1664525u + 1013904223u;
    const auto q = static_cast<std::int32_t>(s >> 17) - 16384;
    v[i] = static_cast<float>(q) / 32768.0F;
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: corpus_gen <output-root>\n");
    return 2;
  }
  const fs::path root = argv[1];
  const rv::Record rec = rich_record();

  // wire_decode: one raw frame, one packed frame, one attr-less scope frame.
  emit(root, "wire_decode", "raw_frame",
       rv::encode_record(rec, rv::PayloadCodec::kRaw));
  emit(root, "wire_decode", "packed_frame",
       rv::encode_record(rec, rv::PayloadCodec::kPacked));
  rv::Record scope;
  scope.type = rv::RecordType::kOpenScope;
  scope.scope_type = rv::kScopeClip;
  emit(root, "wire_decode", "scope_frame", rv::encode_record(scope));

  // bitpack: parse-mode seeds (sel byte 0 + count + stream) for all three
  // modes, and a round-trip seed (sel byte 1 + raw floats).
  const auto pack_seed = [&](const char* name, const std::vector<float>& v) {
    std::vector<std::uint8_t> packed;
    (void)bp::pack_floats(v, packed);
    std::vector<std::uint8_t> seed;
    seed.push_back(0);  // selector: parse
    const auto count = static_cast<std::uint32_t>(v.size());
    for (int i = 0; i < 4; ++i) {
      seed.push_back(static_cast<std::uint8_t>(count >> (8 * i)));
    }
    seed.insert(seed.end(), packed.begin(), packed.end());
    emit(root, "bitpack", name, seed);
  };
  pack_seed("i16_delta_stream", quantized_signal(300, 1));
  std::vector<float> wild(200);
  for (std::size_t i = 0; i < wild.size(); ++i) {
    wild[i] = static_cast<float>(i) * 1.618e-3F + 0.1F;  // not PCM16: xor mode
  }
  pack_seed("xor_stream", wild);
  pack_seed("short_raw_stream", {1e30F, -1e-30F, 3.25F});
  std::vector<std::uint8_t> rt;
  rt.push_back(1);  // selector: round-trip
  const auto q = quantized_signal(150, 2);
  rt.resize(1 + q.size() * sizeof(float));
  std::memcpy(rt.data() + 1, q.data(), q.size() * sizeof(float));
  emit(root, "bitpack", "roundtrip_floats", rt);

  // attrs: the attr region of the rich record (nattr prefix byte + bytes).
  {
    const auto frame = rv::encode_record(rec);
    std::size_t consumed = 0;
    rv::WireScratch scratch;
    const auto view =
        rv::decode_record_view(frame.data(), frame.size(), consumed, scratch);
    std::vector<std::uint8_t> seed;
    seed.push_back(static_cast<std::uint8_t>(view.nattr));
    seed.insert(seed.end(), view.attr_bytes.begin(), view.attr_bytes.end());
    emit(root, "attrs", "rich_attrs", seed);
  }

  fz::ScratchDir scratch;

  // wav: mono and stereo clips through the real encoder.
  {
    dynriver::dsp::WavClip mono;
    mono.sample_rate = 22050;
    mono.channels = 1;
    mono.samples = quantized_signal(400, 3);
    emit(root, "wav", "mono", dynriver::dsp::encode_wav(mono));
    dynriver::dsp::WavClip stereo;
    stereo.sample_rate = 8000;
    stereo.channels = 2;
    stereo.samples = quantized_signal(300, 4);
    emit(root, "wav", "stereo", dynriver::dsp::encode_wav(stereo));
  }

  // segment_open: real stores (raw and packed payloads, sealed + active)
  // serialized through the mini-archive format the harness unpacks.
  for (const bool packed : {false, true}) {
    const auto store_dir =
        scratch.path() / (packed ? "store_packed" : "store_raw");
    fs::create_directories(store_dir);
    rv::SegmentStoreOptions opt;
    opt.max_segment_bytes = 4096;  // several sealed segments from 3k samples
    opt.pack_payloads = packed;
    rv::SegmentedRecordLog log(store_dir, opt);
    rv::AudioSegmentArchiver archiver(log, 22050.0, 256);
    const auto audio = quantized_signal(3000, packed ? 5 : 6);
    archiver.push(audio);
    archiver.finish();
    log.sync();

    // Serialize while the log is live so the seed keeps its ACTIVE tail
    // segment — that is what exercises recovery (closing would seal it).
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(store_dir)) {
      files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());  // MANIFEST, sealed..., active
    // `edit` may damage one file's bytes before they are packed.
    const auto pack_store = [&](const auto& edit) {
      std::vector<std::uint8_t> archive;
      for (const auto& file : files) {
        const auto name = file.filename().string();
        for (std::size_t sel = 0; sel < fz::kArchiveNames.size(); ++sel) {
          if (fz::kArchiveNames[sel] == name) {
            auto bytes = slurp(file);
            edit(file, bytes);
            fz::pack_entry(archive, static_cast<std::uint8_t>(sel), bytes);
            break;
          }
        }
      }
      return archive;
    };
    emit(root, "segment_open", packed ? "store_packed" : "store_raw",
         pack_store([](const fs::path&, std::vector<std::uint8_t>&) {}));
    if (!packed) {
      // The replay cross-check's unclean arms: a torn active tail (the
      // writer died mid-envelope) and a flipped byte in a sealed payload.
      emit(root, "segment_open", "store_raw_torn_tail",
           pack_store([&](const fs::path& f, std::vector<std::uint8_t>& b) {
             if (f == files.back()) b.resize(b.size() - 7);
           }));
      emit(root, "segment_open", "store_raw_damaged_sealed",
           pack_store([&](const fs::path& f, std::vector<std::uint8_t>& b) {
             if (f.filename() == "seg-000000.drs") b[512] ^= 0x5A;
           }));
    }
    log.close();
  }

  // segment_open: an unsealed single-segment store (no MANIFEST), whole and
  // torn: the shape where the harness checks the cursor against recovery.
  {
    const auto store_dir = scratch.path() / "store_active";
    fs::create_directories(store_dir);
    rv::SegmentedRecordLog log(store_dir);
    rv::AudioSegmentArchiver archiver(log, 22050.0, 256);
    archiver.push(quantized_signal(1000, 7));
    archiver.finish();
    log.sync();
    auto bytes = slurp(store_dir / "seg-000000.drs");
    constexpr std::uint8_t kActiveSel = 1;  // kArchiveNames[1]: seg-000000.drs
    std::vector<std::uint8_t> archive;
    fz::pack_entry(archive, kActiveSel, bytes);
    emit(root, "segment_open", "store_active_only", archive);
    bytes.resize(bytes.size() - 7);
    archive.clear();
    fz::pack_entry(archive, kActiveSel, bytes);
    emit(root, "segment_open", "store_active_only_torn", archive);
    log.close();
  }
  return 0;
}
