#include "core/common.h"

#include "util/bit_util.h"

namespace l1hh {

Status ValidateHeavyHitterParams(double epsilon, double phi, double delta,
                                 uint64_t universe_size,
                                 uint64_t stream_length) {
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (!(phi > epsilon) || !(phi <= 1.0)) {
    return Status::InvalidArgument("phi must satisfy eps < phi <= 1");
  }
  if (!(delta > 0.0) || !(delta >= 0.0 && delta < 1.0)) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (universe_size == 0) {
    return Status::InvalidArgument("universe_size must be positive");
  }
  if (stream_length == 0) {
    return Status::InvalidArgument("stream_length must be positive");
  }
  return Status::Ok();
}

int UniverseBits(uint64_t universe_size) {
  return BitWidth(universe_size == 0 ? 1 : universe_size - 1);
}

void SanitizeWireParams(double& epsilon, double& phi, double& delta,
                        uint64_t& universe_size, uint64_t& stream_length) {
  // The negated comparisons are deliberate: they also reject NaN.  phi
  // gets epsilon's floor, not a phi > epsilon rule: the constructors
  // accept any phi in (0, 1], so a stricter decoder would rewrite the phi
  // of a sketch built at phi <= epsilon and misread its payload.
  if (!(epsilon > 1e-12 && epsilon < 1.0)) epsilon = 0.25;
  if (!(phi > 1e-12 && phi <= 1.0)) phi = 1.0;
  if (!(delta > 1e-12 && delta < 1.0)) delta = 0.5;
  if (universe_size == 0) universe_size = 1;
  if (stream_length == 0) stream_length = 1;
}

}  // namespace l1hh
