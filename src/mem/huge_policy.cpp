#include "mem/huge_policy.hpp"

#include <cstdlib>

#include "mem/page_pool.hpp"
#include "support/error.hpp"
#include "support/runtime_params.hpp"
#include "support/string_util.hpp"

namespace fhp::mem {

std::string_view to_string(HugePolicy policy) noexcept {
  switch (policy) {
    case HugePolicy::kNone: return "none";
    case HugePolicy::kThp: return "thp";
    case HugePolicy::kHugetlbfs: return "hugetlbfs";
  }
  return "?";
}

std::optional<HugePolicy> parse_huge_policy(std::string_view s) {
  const std::string v = to_lower(trim(s));
  if (v == "none" || v == "off" || v == "small") return HugePolicy::kNone;
  if (v == "thp" || v == "transparent") return HugePolicy::kThp;
  if (v == "hugetlbfs" || v == "hugetlb" || v == "explicit") {
    return HugePolicy::kHugetlbfs;
  }
  return std::nullopt;
}

namespace {
HugePolicy parse_or_throw(const std::string& source, std::string_view raw) {
  const auto parsed = parse_huge_policy(raw);
  if (!parsed) {
    throw ConfigError(source + "='" + std::string(raw) +
                      "' is not a valid page policy "
                      "(expected none|thp|hugetlbfs)");
  }
  return *parsed;
}
}  // namespace

HugePolicy policy_from_environment(HugePolicy fallback) {
  for (const char* var : {kPolicyEnvVar, kFujitsuPolicyEnvVar}) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read once per rt::Runtime
    // construction, which may run on a svc worker thread; nothing
    // in-process calls setenv.
    if (const char* raw = std::getenv(var); raw != nullptr && *raw != '\0') {
      return parse_or_throw(var, raw);
    }
  }
  return fallback;
}

void declare_runtime_params(RuntimeParams& params) {
  params.declare_string(kPolicyParamName, "",
                        "huge-page policy (none|thp|hugetlbfs; empty: "
                        "resolve from " +
                            std::string(kPolicyEnvVar) + " / " +
                            kFujitsuPolicyEnvVar + ")");
  declare_page_pool_params(params);
}

void apply_runtime_params(const RuntimeParams& params) {
  apply_page_pool_params(params);
}

std::optional<HugePolicy> runtime_policy(const RuntimeParams& params) {
  const std::string value = params.get_string(kPolicyParamName);
  if (value.empty()) return std::nullopt;
  return parse_or_throw(kPolicyParamName, value);
}

}  // namespace fhp::mem
