#include "noise/classify.hpp"

#include <iterator>

#include "common/assert.hpp"

namespace osn::noise {

NoiseCategory categorize(ActivityKind kind) {
  switch (kind) {
    case ActivityKind::kTimerIrq:
    case ActivityKind::kTimerSoftirq:
      return NoiseCategory::kPeriodic;
    case ActivityKind::kPageFault:
      return NoiseCategory::kPageFault;
    case ActivityKind::kSchedule:
    case ActivityKind::kRebalanceSoftirq:
    case ActivityKind::kRcuSoftirq:
    case ActivityKind::kReschedIpi:
      return NoiseCategory::kScheduling;
    case ActivityKind::kPreemption:
      return NoiseCategory::kPreemption;
    case ActivityKind::kNetIrq:
    case ActivityKind::kNetRxTasklet:
    case ActivityKind::kNetTxTasklet:
      return NoiseCategory::kIo;
    case ActivityKind::kSyscall:
      return NoiseCategory::kRequestedService;
    case ActivityKind::kMaxKind:
      break;
  }
  OSN_ASSERT_MSG(false, "unclassifiable activity");
}

std::string_view category_name(NoiseCategory c) {
  static constexpr std::string_view kNames[] = {"periodic",   "page fault", "scheduling",
                                                "preemption", "I/O",        "requested service"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(NoiseCategory::kMaxCategory));
  const auto i = static_cast<std::size_t>(c);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

}  // namespace osn::noise
