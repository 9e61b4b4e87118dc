// DSP odds and ends: windows, WAV container, spectrogram, biquads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <numbers>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "dsp/biquad.hpp"
#include "dsp/spectrogram.hpp"
#include "dsp/wav.hpp"
#include "dsp/window.hpp"
#include "test_support.hpp"

namespace dsp = dynriver::dsp;

TEST(Window, WelchShape) {
  const auto w = dsp::make_window(dsp::WindowKind::kWelch, 5);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_NEAR(w[0], 0.0F, 1e-6);
  EXPECT_NEAR(w[2], 1.0F, 1e-6);  // peak at center
  EXPECT_NEAR(w[4], 0.0F, 1e-6);
  EXPECT_NEAR(w[1], 0.75F, 1e-6);  // 1 - (1/2)^2
}

TEST(Window, HannAndHammingEndpoints) {
  const auto hann = dsp::make_window(dsp::WindowKind::kHann, 9);
  EXPECT_NEAR(hann.front(), 0.0F, 1e-6);
  EXPECT_NEAR(hann[4], 1.0F, 1e-6);
  const auto hamming = dsp::make_window(dsp::WindowKind::kHamming, 9);
  EXPECT_NEAR(hamming.front(), 0.08F, 1e-6);
  EXPECT_NEAR(hamming[4], 1.0F, 1e-6);
}

TEST(Window, SymmetryForAllKinds) {
  for (const auto kind : {dsp::WindowKind::kRectangular, dsp::WindowKind::kWelch,
                          dsp::WindowKind::kHann, dsp::WindowKind::kHamming}) {
    const auto w = dsp::make_window(kind, 64);
    for (std::size_t i = 0; i < 32; ++i) {
      EXPECT_NEAR(w[i], w[63 - i], 1e-6) << dsp::to_string(kind) << " i=" << i;
    }
  }
}

TEST(Window, NameRoundTrip) {
  for (const auto kind : {dsp::WindowKind::kRectangular, dsp::WindowKind::kWelch,
                          dsp::WindowKind::kHann, dsp::WindowKind::kHamming}) {
    EXPECT_EQ(dsp::window_from_string(dsp::to_string(kind)), kind);
  }
  EXPECT_THROW((void)dsp::window_from_string("kaiser"), std::invalid_argument);
}

TEST(Window, ApplyScalesSamples) {
  std::vector<float> data(8, 2.0F);
  dsp::apply_window(data, dsp::WindowKind::kWelch);
  EXPECT_NEAR(data.front(), 0.0F, 1e-6);
  // Power helper is positive and below n.
  const auto w = dsp::make_window(dsp::WindowKind::kWelch, 8);
  const double power = dsp::window_power(w);
  EXPECT_GT(power, 0.0);
  EXPECT_LT(power, 8.0);
}

TEST(Wav, EncodeDecodeRoundTrip) {
  dsp::WavClip clip;
  clip.sample_rate = 21600;
  clip.channels = 1;
  clip.samples.resize(1000);
  for (std::size_t i = 0; i < clip.samples.size(); ++i) {
    clip.samples[i] = static_cast<float>(std::sin(0.05 * static_cast<double>(i)));
  }
  const auto decoded = dsp::decode_wav(dsp::encode_wav(clip));
  EXPECT_EQ(decoded.sample_rate, clip.sample_rate);
  EXPECT_EQ(decoded.channels, 1);
  ASSERT_EQ(decoded.samples.size(), clip.samples.size());
  for (std::size_t i = 0; i < clip.samples.size(); i += 37) {
    EXPECT_NEAR(decoded.samples[i], clip.samples[i], 1.0F / 16000.0F);
  }
}

TEST(Wav, ClampsOutOfRangeSamples) {
  dsp::WavClip clip;
  clip.sample_rate = 8000;
  clip.samples = {2.0F, -3.0F};
  const auto decoded = dsp::decode_wav(dsp::encode_wav(clip));
  EXPECT_NEAR(decoded.samples[0], 1.0F, 1e-3);
  EXPECT_NEAR(decoded.samples[1], -1.0F, 1e-3);
}

TEST(Wav, FileRoundTrip) {
  const dynriver::testsupport::ScopedTempDir tmp("wav");
  const auto path = tmp.file("roundtrip.wav");
  dsp::WavClip clip;
  clip.sample_rate = 21600;
  clip.samples.assign(500, 0.25F);
  dsp::write_wav(path, clip);
  const auto loaded = dsp::read_wav(path);
  EXPECT_EQ(loaded.samples.size(), 500u);
  EXPECT_NEAR(loaded.duration_seconds(), 500.0 / 21600.0, 1e-9);
}

TEST(Wav, RejectsGarbage) {
  const std::vector<std::uint8_t> garbage = {'n', 'o', 't', 'w', 'a', 'v', '!'};
  EXPECT_THROW((void)dsp::decode_wav(garbage), dsp::WavError);
}

namespace {

template <typename T>
void put_le(std::vector<std::uint8_t>& out, T value) {
  std::uint8_t raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  out.insert(out.end(), raw, raw + sizeof(T));
}

void put_tag(std::vector<std::uint8_t>& out, const char* tag) {
  // Byte-wise on purpose: GCC 12's -Wstringop-overflow misfires on
  // vector::insert from a 4-char literal (same workaround as dsp/wav.cpp).
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(tag[i]));
  }
}

/// RIFF/WAVE container prefix followed by the caller's chunks.
std::vector<std::uint8_t> riff_wave() {
  std::vector<std::uint8_t> out;
  put_tag(out, "RIFF");
  put_le(out, std::uint32_t{36});  // riff size: untrusted, decoder ignores it
  put_tag(out, "WAVE");
  return out;
}

/// A well-formed 16-byte PCM fmt chunk.
void append_fmt(std::vector<std::uint8_t>& out, std::uint16_t channels,
                std::uint32_t rate) {
  put_tag(out, "fmt ");
  put_le(out, std::uint32_t{16});
  put_le(out, std::uint16_t{1});  // PCM
  put_le(out, channels);
  put_le(out, rate);
  put_le(out, std::uint32_t{rate * 2U * channels});  // byte rate
  put_le(out, std::uint16_t{static_cast<std::uint16_t>(2U * channels)});
  put_le(out, std::uint16_t{16});  // bits
}

}  // namespace

TEST(WavHostile, MaxChunkSizeNeverHangs) {
  // Regression: the chunk walker advanced `chunk_size + pad` in u32, so a
  // chunk declaring 0xFFFFFFFF bytes wrapped to a zero advance — an
  // infinite loop on a 13-byte file. Hostile sizes must be a clean error.
  for (const std::uint32_t hostile : {0xFFFFFFFFu, 0xFFFFFFFEu, 0x80000000u}) {
    auto bytes = riff_wave();
    put_tag(bytes, "JUNK");
    put_le(bytes, hostile);
    bytes.push_back(0);  // one byte of "chunk body"
    EXPECT_THROW((void)dsp::decode_wav(bytes), dsp::WavError) << hostile;
  }
}

TEST(WavHostile, DataSizeBeyondBufferRejectedBeforeAllocation) {
  // The declared data size must be validated against the bytes actually
  // present before it ever reaches a resize: an attacker-controlled length
  // is not an allocation size.
  auto bytes = riff_wave();
  append_fmt(bytes, 1, 8000);
  put_tag(bytes, "data");
  put_le(bytes, std::uint32_t{0xFFFFFFF0u});
  bytes.push_back(0);
  EXPECT_THROW((void)dsp::decode_wav(bytes), dsp::WavError);
}

TEST(WavHostile, ZeroChannelsRejected) {
  auto bytes = riff_wave();
  append_fmt(bytes, 0, 8000);
  put_tag(bytes, "data");
  put_le(bytes, std::uint32_t{4});
  put_le(bytes, std::uint32_t{0});
  EXPECT_THROW((void)dsp::decode_wav(bytes), dsp::WavError);
}

TEST(WavHostile, ShortFmtChunkRejected) {
  auto bytes = riff_wave();
  put_tag(bytes, "fmt ");
  put_le(bytes, std::uint32_t{8});  // PCM fmt needs 16 bytes
  for (int i = 0; i < 8; ++i) bytes.push_back(0);
  put_tag(bytes, "data");
  put_le(bytes, std::uint32_t{0});
  EXPECT_THROW((void)dsp::decode_wav(bytes), dsp::WavError);
}

TEST(WavHostile, EncoderRejectsUnrepresentableGeometry) {
  // The encoder's header fields are u16/u32; geometry that cannot fit must
  // throw instead of wrapping into a silently-corrupt header.
  dsp::WavClip wide;
  wide.sample_rate = 8000;
  wide.channels = 0xFFFF;  // block align (channels * 2) exceeds u16
  wide.samples = {0.0F};
  EXPECT_THROW((void)dsp::encode_wav(wide), dsp::WavError);

  dsp::WavClip fast;
  fast.sample_rate = 0xFFFFFFFFu;  // byte rate (rate * block align) wraps u32
  fast.channels = 1;
  fast.samples = {0.0F};
  EXPECT_THROW((void)dsp::encode_wav(fast), dsp::WavError);
}

TEST(WavHostile, TruncatedAtEveryByteIsCleanError) {
  // Every prefix of a real clip must be a WavError (or, for a short data
  // chunk, a smaller clip) — never a crash, hang, or over-read.
  dsp::WavClip clip;
  clip.sample_rate = 8000;
  clip.channels = 1;
  clip.samples = {0.1F, -0.1F, 0.2F, -0.2F};
  const auto full = dsp::encode_wav(clip);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(full.data(), cut);
    try {
      const auto decoded = dsp::decode_wav(prefix);
      // Cuts inside the data chunk body decode as a shorter clip.
      EXPECT_LE(decoded.samples.size(), clip.samples.size()) << "cut " << cut;
    } catch (const dsp::WavError&) {
      // expected for cuts before the data chunk header
    }
  }
}

TEST(Wav, StereoDownmix) {
  dsp::WavClip clip;
  clip.sample_rate = 8000;
  clip.channels = 2;
  clip.samples = {1.0F, 0.0F, 0.5F, 0.5F};  // interleaved L R
  const auto mono = dsp::to_mono(clip);
  ASSERT_EQ(mono.size(), 2u);
  EXPECT_FLOAT_EQ(mono[0], 0.5F);
  EXPECT_FLOAT_EQ(mono[1], 0.5F);
}

TEST(Spectrogram, ToneAppearsAtCorrectBinAndAllFrames) {
  dsp::SpectrogramParams params;
  params.frame_size = 256;
  params.hop = 128;
  params.sample_rate = 8192.0;
  std::vector<float> signal(4096);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] = static_cast<float>(
        std::sin(2.0 * std::numbers::pi * 1024.0 * static_cast<double>(i) /
                 params.sample_rate));
  }
  const auto spec = dsp::stft(signal, params);
  ASSERT_GT(spec.num_frames(), 10u);
  EXPECT_EQ(spec.num_bins(), 129u);
  const std::size_t expected_bin = 32;  // 1024 Hz / (8192/256)
  for (const auto& frame : spec.frames) {
    std::size_t peak = 0;
    for (std::size_t k = 1; k < frame.size(); ++k) {
      if (frame[k] > frame[peak]) peak = k;
    }
    EXPECT_EQ(peak, expected_bin);
  }
  EXPECT_NEAR(spec.bin_freq(expected_bin), 1024.0, 1e-9);
  EXPECT_NEAR(spec.frame_time(2), 2.0 * 128.0 / 8192.0, 1e-12);
}

TEST(Spectrogram, ShortSignalYieldsNoFrames) {
  dsp::SpectrogramParams params;
  params.frame_size = 256;
  const std::vector<float> tiny(100, 1.0F);
  EXPECT_EQ(dsp::stft(tiny, params).num_frames(), 0u);
}

TEST(Oscillogram, NormalizationCentersAndScales) {
  const std::vector<float> signal = {1.0F, 2.0F, 3.0F};
  const auto norm = dsp::normalize_oscillogram(signal);
  EXPECT_FLOAT_EQ(norm[0], -1.0F);
  EXPECT_FLOAT_EQ(norm[1], 0.0F);
  EXPECT_FLOAT_EQ(norm[2], 1.0F);
  // Constant signal -> all zeros, no division by zero.
  const auto flat = dsp::normalize_oscillogram(std::vector<float>(5, 7.0F));
  for (const float v : flat) EXPECT_FLOAT_EQ(v, 0.0F);
}

TEST(AsciiRendering, ProducesNonEmptyArt) {
  dsp::SpectrogramParams params;
  params.frame_size = 128;
  params.hop = 64;
  params.sample_rate = 8192.0;
  std::vector<float> signal(8192);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] = static_cast<float>(std::sin(0.7 * static_cast<double>(i)));
  }
  const auto spec = dsp::stft(signal, params);
  const auto art = dsp::ascii_spectrogram(spec, 40, 10);
  EXPECT_GT(art.size(), 400u);
  const auto osc = dsp::ascii_oscillogram(signal, 40, 6);
  EXPECT_GT(osc.size(), 240u);
}

TEST(Biquad, LowPassAttenuatesHighFrequencies) {
  constexpr double kRate = 21600.0;
  auto lp = dsp::Biquad::low_pass(kRate, 500.0);
  double low_energy = 0.0;
  double high_energy = 0.0;
  for (int i = 0; i < 4096; ++i) {
    const auto low_in = static_cast<float>(
        std::sin(2.0 * std::numbers::pi * 100.0 * i / kRate));
    low_energy += std::pow(lp.step(low_in), 2);
  }
  lp.reset_state();
  for (int i = 0; i < 4096; ++i) {
    const auto high_in = static_cast<float>(
        std::sin(2.0 * std::numbers::pi * 5000.0 * i / kRate));
    high_energy += std::pow(lp.step(high_in), 2);
  }
  EXPECT_GT(low_energy, high_energy * 50.0);
}

TEST(Biquad, HighPassAttenuatesLowFrequencies) {
  constexpr double kRate = 21600.0;
  auto hp = dsp::Biquad::high_pass(kRate, 1000.0);
  double low = 0.0, high = 0.0;
  for (int i = 0; i < 4096; ++i) {
    low += std::pow(hp.step(static_cast<float>(
               std::sin(2.0 * std::numbers::pi * 100.0 * i / kRate))), 2);
  }
  hp.reset_state();
  for (int i = 0; i < 4096; ++i) {
    high += std::pow(hp.step(static_cast<float>(
                std::sin(2.0 * std::numbers::pi * 5000.0 * i / kRate))), 2);
  }
  EXPECT_GT(high, low * 50.0);
}

TEST(Biquad, BandPassSelectsCenter) {
  constexpr double kRate = 21600.0;
  auto bp = dsp::Biquad::band_pass(kRate, 3000.0, 2.0);
  double center = 0.0, off = 0.0;
  for (int i = 0; i < 4096; ++i) {
    center += std::pow(bp.step(static_cast<float>(
                  std::sin(2.0 * std::numbers::pi * 3000.0 * i / kRate))), 2);
  }
  bp.reset_state();
  for (int i = 0; i < 4096; ++i) {
    off += std::pow(bp.step(static_cast<float>(
               std::sin(2.0 * std::numbers::pi * 500.0 * i / kRate))), 2);
  }
  EXPECT_GT(center, off * 10.0);
}

TEST(Biquad, InvalidParamsThrow) {
  EXPECT_THROW((void)dsp::Biquad::low_pass(8000.0, 5000.0),
               dynriver::ContractViolation);  // above Nyquist
  EXPECT_THROW((void)dsp::Biquad::high_pass(0.0, 100.0),
               dynriver::ContractViolation);
}

TEST(Biquad, StableAtExtremeQ) {
  // A Q=100 resonator rings hard but must never diverge: feed it an impulse
  // plus broadband noise and require the output envelope to stay bounded and
  // ultimately decay.
  auto filt = dsp::Biquad::band_pass(21600.0, 2000.0, 100.0);
  std::vector<float> x =
      dynriver::testsupport::noise_with_tone(21600, 2000, 4000, 5);
  x[0] = 1.0F;  // impulse on top of the noise bed
  double peak = 0.0;
  for (float& v : x) {
    v = filt.step(v);
    peak = std::max(peak, static_cast<double>(std::abs(v)));
    ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_LT(peak, 100.0);

  // After the input stops, the resonator must decay toward silence.
  double tail = 0.0;
  for (int i = 0; i < 200000; ++i) tail = std::abs(filt.step(0.0F));
  EXPECT_LT(tail, 1e-6);
}

TEST(Biquad, ExtremeQLowAndHighPassStayFinite) {
  for (const double q : {50.0, 200.0, 1000.0}) {
    auto lp = dsp::Biquad::low_pass(21600.0, 1000.0, q);
    auto hp = dsp::Biquad::high_pass(21600.0, 1000.0, q);
    const auto noise =
        dynriver::testsupport::noise_with_tone(8192, 1000, 2000, 17);
    for (const float v : noise) {
      ASSERT_TRUE(std::isfinite(lp.step(v))) << "q=" << q;
      ASSERT_TRUE(std::isfinite(hp.step(v))) << "q=" << q;
    }
  }
}
