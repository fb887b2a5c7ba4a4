#include "mesh/layout.hpp"

#include <cstdlib>
#include <string>

#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/runtime_params.hpp"
#include "support/string_util.hpp"

namespace fhp::mesh {

std::string_view to_string(LayoutKind kind) noexcept {
  switch (kind) {
    case LayoutKind::kVarMajor: return "var_major";
    case LayoutKind::kZoneMajor: return "zone_major";
  }
  return "?";
}

std::optional<LayoutKind> parse_layout(std::string_view s) {
  const std::string v = to_lower(trim(s));
  if (v == "var_major" || v == "varmajor" || v == "fortran" || v == "aos") {
    return LayoutKind::kVarMajor;
  }
  if (v == "zone_major" || v == "zonemajor" || v == "soa") {
    return LayoutKind::kZoneMajor;
  }
  return std::nullopt;
}

namespace {
LayoutKind parse_or_throw(const std::string& source, std::string_view raw) {
  const auto parsed = parse_layout(raw);
  if (!parsed) {
    throw ConfigError(source + "='" + std::string(raw) +
                      "' is not a valid block layout "
                      "(expected var_major|zone_major)");
  }
  return *parsed;
}
}  // namespace

LayoutKind layout_from_environment(LayoutKind fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read once per rt::Runtime
  // construction, which may run on a svc worker thread; nothing
  // in-process calls setenv.
  if (const char* raw = std::getenv(kLayoutEnvVar);
      raw != nullptr && *raw != '\0') {
    return parse_or_throw(kLayoutEnvVar, raw);
  }
  return fallback;
}

void declare_runtime_params(RuntimeParams& params) {
  params.declare_string(kLayoutParamName, "",
                        "block-data layout (var_major|zone_major; "
                        "empty: resolve from " +
                            std::string(kLayoutEnvVar) + ")");
}

std::optional<LayoutKind> runtime_layout(const RuntimeParams& params) {
  const std::string value = params.get_string(kLayoutParamName);
  if (value.empty()) return std::nullopt;
  return parse_or_throw(kLayoutParamName, value);
}

BlockLayout::BlockLayout(LayoutKind kind, int nvar, int ni, int nj, int nk)
    : kind_(kind),
      nvar_(nvar),
      ni_(ni),
      nj_(nj),
      nk_(nk),
      block_stride_(static_cast<std::size_t>(nvar) * ni * nj * nk) {
  FHP_PRECONDITION(nvar > 0 && ni > 0 && nj > 0 && nk > 0,
                   "layout extents must be positive");
  const auto niz = static_cast<std::size_t>(ni);
  const auto njz = static_cast<std::size_t>(nj);
  const auto nkz = static_cast<std::size_t>(nk);
  switch (kind_) {
    case LayoutKind::kVarMajor:
      // Fortran unk(nvar, i, j, k): variable fastest — bit-for-bit the
      // historical UnkContainer::offset math.
      sv_ = 1;
      si_ = static_cast<std::size_t>(nvar);
      sj_ = si_ * niz;
      sk_ = sj_ * njz;
      break;
    case LayoutKind::kZoneMajor:
      // Block-local SoA: each variable is one contiguous ni*nj*nk plane,
      // planes stacked per block so block data stays contiguous for AMR.
      si_ = 1;
      sj_ = niz;
      sk_ = niz * njz;
      sv_ = niz * njz * nkz;
      break;
  }
}

}  // namespace fhp::mesh
