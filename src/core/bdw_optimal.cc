#include "core/bdw_optimal.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/bit_util.h"

namespace l1hh {

namespace {

uint64_t ExpectedSamples(const BdwOptimal::Options& opt) {
  const double l =
      opt.constants.opt_sample_factor / (opt.epsilon * opt.epsilon);
  return std::max<uint64_t>(64, static_cast<uint64_t>(std::ceil(l)));
}

// The paper's Lemma 1 coin, 64 at a time: every bit of `lanes` survives
// iff the same bit of k fresh words is set, i.e. independently with
// probability exactly 2^-k.  Stops drawing once no lane survives — the
// remaining words could not change the outcome.
uint64_t CoinMask(Rng& rng, int k, uint64_t lanes) {
  for (; k > 0 && lanes != 0; --k) lanes &= rng.NextU64();
  return lanes;
}

}  // namespace

BdwOptimal::BdwOptimal(const Options& opt, uint64_t seed)
    : opt_(opt),
      rng_(seed),
      t1_(static_cast<size_t>(std::ceil(opt.constants.opt_t1_factor /
                                        opt.phi)),
          UniverseBits(opt.universe_size)),
      epoch_scale_(opt.constants.opt_epoch_scale) {
  const uint64_t l = ExpectedSamples(opt_);
  const double p = std::min(
      1.0, static_cast<double>(l) /
               static_cast<double>(std::max<uint64_t>(opt_.stream_length, 1)));
  sampler_ = GeometricSkipSampler::FromProbability(p, rng_);

  rows_ = static_cast<size_t>(
      std::ceil(opt_.constants.opt_rows_factor / opt_.epsilon));
  rows_ = std::max<size_t>(rows_, 4);

  size_t reps = static_cast<size_t>(std::ceil(
      opt_.constants.opt_rep_factor * std::log2(12.0 / opt_.phi)));
  reps = std::max<size_t>(reps,
                          static_cast<size_t>(opt_.constants.opt_min_reps));
  reps_ = reps | 1;  // odd, so the median is well defined

  eps_exp_ = ProbabilityToPow2Exponent(opt_.epsilon);

  // Highest epoch the schedule can reach: the sample stays within ~10 l
  // whp (and within m when m < l), so cap the schedule value
  // eps * phi * s there.
  const double v_max = std::max(
      4.0 * epoch_scale_,
      10.0 * opt_.epsilon * opt_.phi * static_cast<double>(l));
  max_epoch_ = std::max(
      1, static_cast<int>(std::ceil(2.0 * std::log2(v_max / epoch_scale_))));

  Rng hash_rng(Mix64(seed) ^ 0x5bd1e9955bd1e995ULL);
  hashes_.reserve(reps_);
  for (size_t j = 0; j < reps_; ++j) {
    hashes_.push_back(UniversalHash::Draw(hash_rng, rows_));
  }
  t2_.Reset(rows_ * reps_);
  t3_.Reset(rows_ * reps_ * static_cast<size_t>(max_epoch_ + 1));
}

int BdwOptimal::EpochAtSample(uint64_t s) const {
  // epoch(s) = floor(2 log2(eps phi s / scale)) — the epoch the paper's
  // per-cell rule would give an exactly phi-heavy cell after s samples —
  // clamped to [0, max_epoch_].  Epoch 0 opens immediately (its counting
  // probability, ~eps, is T2's subsampling rate), so unlike the per-cell
  // scheme there is no invisible pre-epoch prefix to bias-correct.
  const double v =
      opt_.epsilon * opt_.phi * static_cast<double>(s);
  if (v < epoch_scale_) return 0;  // below the scale the formula is negative
  const int t = static_cast<int>(std::floor(2.0 * std::log2(v / epoch_scale_)));
  return std::min(t, max_epoch_);
}

void BdwOptimal::FastForwardToEpoch(int epoch) {
  epoch_floor_ = std::min(std::max(epoch, epoch_floor_), max_epoch_);
  if (current_epoch_ < epoch_floor_) current_epoch_ = epoch_floor_;
}

void BdwOptimal::Insert(ItemId item) {
  ++position_;
  if (!sampler_.Offer(rng_)) return;
  ++sampled_;
  if (current_epoch_ < max_epoch_) {
    const int scheduled = EpochAtSample(sampled_);
    if (scheduled > current_epoch_) current_epoch_ = scheduled;
  }
  t1_.Insert(item);
  const int t = current_epoch_;
  // Count with probability min(eps * 2^t, 1) = 2^{-(eps_exp - t)}.
  const int k = std::max(eps_exp_ - t, 0);
  // The per-repetition coins, 64 repetitions per word: bit b of m2 (m3)
  // is repetition base + b's T2 (T3) coin.  Only repetitions whose coin
  // fires are hashed.
  for (size_t base = 0; base < reps_; base += 64) {
    const size_t block = std::min<size_t>(reps_ - base, 64);
    const uint64_t lanes =
        block == 64 ? ~uint64_t{0} : (uint64_t{1} << block) - 1;
    const uint64_t m2 = CoinMask(rng_, eps_exp_, lanes);
    const uint64_t m3 = CoinMask(rng_, k, lanes);
    for (uint64_t fired = m2 | m3; fired != 0; fired &= fired - 1) {
      const int b = std::countr_zero(fired);
      const size_t j = base + static_cast<size_t>(b);
      const size_t i = static_cast<size_t>(hashes_[j](item));
      if ((m2 >> b) & 1) t2_.Increment(T2Cell(i, j));
      if ((m3 >> b) & 1) t3_.Increment(T3Cell(i, j, t));
    }
  }
}

bool BdwOptimal::Compatible(const BdwOptimal& a, const BdwOptimal& b) {
  return a.opt_.epsilon == b.opt_.epsilon && a.opt_.phi == b.opt_.phi &&
         a.opt_.delta == b.opt_.delta &&
         a.opt_.universe_size == b.opt_.universe_size &&
         a.opt_.stream_length == b.opt_.stream_length &&
         a.rows_ == b.rows_ && a.reps_ == b.reps_ &&
         a.t1_.k() == b.t1_.k() &&  // MG merge truncates to the left k
         a.eps_exp_ == b.eps_exp_ && a.max_epoch_ == b.max_epoch_ &&
         a.epoch_scale_ == b.epoch_scale_ &&
         a.sampler_.exponent() == b.sampler_.exponent() &&
         a.hashes_ == b.hashes_;  // same seed <=> same drawn functions
}

Status BdwOptimal::MergeFrom(const BdwOptimal& other) {
  if (!Compatible(*this, other)) {
    return Status::InvalidArgument(
        "BdwOptimal::MergeFrom requires sketches built with the same "
        "options and seed");
  }
  // Reconcile epochs BEFORE combining: both instances sit on the shared
  // schedule, so the common epoch is simply the maximum; fast-forward the
  // behind side (us).  `other.current_epoch_` already dominates
  // `other.epoch_floor_`, so floors propagate through merge chains.
  FastForwardToEpoch(other.current_epoch_);
  // T1: classic Misra–Gries merge — every item that is phi-heavy in the
  // combined sample survives the (k+1)-st-largest subtraction.
  t1_ = MisraGries::Merge(t1_, other.t1_);
  // T2/T3: cell-wise sums.  Sound for any position-disjoint split: T2 is
  // a plain subsampled count, and each T3[t] count is rescaled by its own
  // epoch's probability at estimate time.
  t2_.AddFrom(other.t2_);
  t3_.AddFrom(other.t3_);
  position_ += other.position_;
  sampled_ += other.sampled_;
  // The combined sample position may put the schedule past the common
  // epoch; catch up so post-merge inserts count at the scheduled rate.
  const int scheduled = EpochAtSample(sampled_);
  if (scheduled > current_epoch_) current_epoch_ = scheduled;
  return Status::Ok();
}

double BdwOptimal::EstimateRep(ItemId item, size_t rep) const {
  const size_t i = static_cast<size_t>(hashes_[rep](item));
  double estimate = 0;
  for (int t = 0; t <= max_epoch_; ++t) {
    const uint64_t c = t3_.Get(T3Cell(i, rep, t));
    if (c == 0) continue;
    const int k = std::max(eps_exp_ - t, 0);
    estimate += static_cast<double>(c) * std::ldexp(1.0, k);  // c * 2^k
  }
  return estimate;
}

double BdwOptimal::MedianRep(ItemId item, std::vector<double>* reps) const {
  for (size_t j = 0; j < reps_; ++j) (*reps)[j] = EstimateRep(item, j);
  std::nth_element(reps->begin(), reps->begin() + reps_ / 2, reps->end());
  return (*reps)[reps_ / 2];
}

std::vector<HeavyHitter> BdwOptimal::Report() const {
  std::vector<HeavyHitter> out;
  if (sampled_ == 0) return out;
  const double scale = static_cast<double>(opt_.stream_length) /
                       static_cast<double>(sampled_);
  const double threshold = (opt_.phi - opt_.epsilon / 2.0) *
                           static_cast<double>(sampled_);
  std::vector<double> reps(reps_);
  for (const auto& entry : t1_.Entries()) {
    const double med = MedianRep(entry.item, &reps);
    if (med >= threshold) {
      HeavyHitter hh;
      hh.item = entry.item;
      hh.estimated_count = med * scale;
      hh.estimated_fraction =
          hh.estimated_count / static_cast<double>(opt_.stream_length);
      out.push_back(hh);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              return a.estimated_count > b.estimated_count;
            });
  return out;
}

std::vector<HeavyHitter> BdwOptimal::TopK(size_t k) const {
  return TopK(k, sampled_);
}

std::vector<HeavyHitter> BdwOptimal::TopK(size_t k, uint64_t samples) const {
  std::vector<HeavyHitter> out;
  if (samples == 0) return out;
  const double scale = static_cast<double>(opt_.stream_length) /
                       static_cast<double>(samples);
  std::vector<double> reps(reps_);
  for (const auto& entry : t1_.Entries()) {
    HeavyHitter hh;
    hh.item = entry.item;
    hh.estimated_count = MedianRep(entry.item, &reps) * scale;
    hh.estimated_fraction =
        hh.estimated_count / static_cast<double>(opt_.stream_length);
    out.push_back(hh);
  }
  std::sort(out.begin(), out.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              return a.estimated_count > b.estimated_count;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

double BdwOptimal::EstimateCount(ItemId item) const {
  return EstimateCount(item, sampled_);
}

double BdwOptimal::EstimateCount(ItemId item, uint64_t samples) const {
  if (samples == 0) return 0;
  std::vector<double> reps(reps_);
  const double scale = static_cast<double>(opt_.stream_length) /
                       static_cast<double>(samples);
  return MedianRep(item, &reps) * scale;
}

size_t BdwOptimal::SpaceBits() const {
  size_t bits = t1_.SpaceBits();
  bits += t2_.SpaceBits();
  // Sparse T3 accounting (the paper's Claim 3): a cell's epoch list only
  // exists up to the highest epoch it ever opened.
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < reps_; ++j) {
      int top = -1;
      for (int t = max_epoch_; t >= 0; --t) {
        if (t3_.Get(T3Cell(i, j, t)) != 0) {
          top = t;
          break;
        }
      }
      for (int t = 0; t <= top; ++t) {
        const uint64_t c = t3_.Get(T3Cell(i, j, t));
        bits += c == 0 ? 1 : static_cast<size_t>(CounterBits(c));
      }
    }
  }
  for (const auto& h : hashes_) bits += static_cast<size_t>(h.SeedBits());
  bits += static_cast<size_t>(sampler_.SpaceBits());
  bits += BitWidth(sampled_);
  return bits;
}

void BdwOptimal::Serialize(BitWriter& out) const {
  SerializeImpl(out, /*sparse_grids=*/false);
}

void BdwOptimal::SerializeSparse(BitWriter& out) const {
  SerializeImpl(out, /*sparse_grids=*/true);
}

void BdwOptimal::SerializeImpl(BitWriter& out, bool sparse_grids) const {
  out.WriteDouble(opt_.epsilon);
  out.WriteDouble(opt_.phi);
  out.WriteDouble(opt_.delta);
  out.WriteU64(opt_.universe_size);
  out.WriteU64(opt_.stream_length);
  out.WriteDouble(opt_.constants.opt_sample_factor);
  out.WriteDouble(opt_.constants.opt_t1_factor);
  out.WriteDouble(opt_.constants.opt_rep_factor);
  out.WriteBits(static_cast<uint64_t>(opt_.constants.opt_min_reps), 16);
  out.WriteDouble(opt_.constants.opt_rows_factor);
  out.WriteDouble(opt_.constants.opt_epoch_scale);
  out.WriteCounter(position_);
  out.WriteCounter(sampled_);
  out.WriteCounter(static_cast<uint64_t>(epoch_floor_));
  sampler_.Serialize(out);
  for (const auto& h : hashes_) h.Serialize(out);
  t1_.Serialize(out);
  if (sparse_grids) {
    t2_.SerializeSparse(out);
    t3_.SerializeSparse(out);
  } else {
    t2_.Serialize(out);
    t3_.Serialize(out);
  }
}

BdwOptimal BdwOptimal::Deserialize(BitReader& in, uint64_t seed) {
  return DeserializeImpl(in, seed, /*sparse_grids=*/false);
}

BdwOptimal BdwOptimal::DeserializeSparse(BitReader& in, uint64_t seed) {
  return DeserializeImpl(in, seed, /*sparse_grids=*/true);
}

BdwOptimal BdwOptimal::DeserializeImpl(BitReader& in, uint64_t seed,
                                       bool sparse_grids) {
  Options opt;
  opt.epsilon = in.ReadDouble();
  opt.phi = in.ReadDouble();
  opt.delta = in.ReadDouble();
  opt.universe_size = in.ReadU64();
  opt.stream_length = in.ReadU64();
  opt.constants.opt_sample_factor = in.ReadDouble();
  opt.constants.opt_t1_factor = in.ReadDouble();
  opt.constants.opt_rep_factor = in.ReadDouble();
  opt.constants.opt_min_reps = static_cast<int>(in.ReadBits(16));
  opt.constants.opt_rows_factor = in.ReadDouble();
  opt.constants.opt_epoch_scale = in.ReadDouble();
  SanitizeWireParams(opt.epsilon, opt.phi, opt.delta, opt.universe_size,
                     opt.stream_length);
  // The constants also size allocations; clamp them to sane ranges.
  const Constants defaults;
  auto clamp = [](double& v, double lo, double hi, double fallback) {
    if (!(v >= lo && v <= hi)) v = fallback;
  };
  clamp(opt.constants.opt_sample_factor, 1.0, 1e7,
        defaults.opt_sample_factor);
  clamp(opt.constants.opt_t1_factor, 0.5, 100.0, defaults.opt_t1_factor);
  clamp(opt.constants.opt_rep_factor, 0.5, 1e3, defaults.opt_rep_factor);
  if (opt.constants.opt_min_reps < 1 || opt.constants.opt_min_reps > 4096) {
    opt.constants.opt_min_reps = defaults.opt_min_reps;
  }
  clamp(opt.constants.opt_rows_factor, 1.0, 1e4,
        defaults.opt_rows_factor);
  clamp(opt.constants.opt_epoch_scale, 2.0, 1e6,
        defaults.opt_epoch_scale);
  BdwOptimal out(opt, seed);
  out.position_ = in.ReadCounter();
  out.sampled_ = in.ReadCounter();
  out.epoch_floor_ = static_cast<int>(std::min<uint64_t>(
      in.ReadCounter(), static_cast<uint64_t>(out.max_epoch_)));
  out.current_epoch_ =
      std::max(out.epoch_floor_, out.EpochAtSample(out.sampled_));
  out.sampler_.Deserialize(in);
  for (auto& h : out.hashes_) h = UniversalHash::Deserialize(in);
  out.t1_ = MisraGries::Deserialize(in);
  if (sparse_grids) {
    // Expected grid shapes come from the (sanitized) wire options the
    // constructor just sized `out` by — the sparse encoding's size field
    // is validated against them, never trusted for an allocation.
    out.t2_.DeserializeSparse(in, out.rows_ * out.reps_);
    out.t3_.DeserializeSparse(in, out.rows_ * out.reps_ *
                                      static_cast<size_t>(out.max_epoch_ +
                                                          1));
  } else {
    out.t2_.Deserialize(in);
    out.t3_.Deserialize(in);
  }
  return out;
}

void BdwOptimal::SerializeRngState(BitWriter& out) const {
  rng_.Serialize(out);
}

void BdwOptimal::DeserializeRngState(BitReader& in) { rng_.Deserialize(in); }

}  // namespace l1hh
